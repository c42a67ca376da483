"""Sparse binary hypergraphs and the degree-normalized convolution primitive.

The convolution is a two-step mean aggregation with no learned weights:
node embeddings are averaged into their hyperedges, then hyperedge
embeddings are averaged back into their member nodes. Entities of degree
zero map to the zero vector, which keeps the operator total and linear.

Each aggregation is one sparse product into a fresh array. The forward
sums the members first and then scales the sums in place by the inverse
degrees. The adjoints instead multiply by column-scaled copies of the
incidence, built once per hypergraph: the kernel then adds inv * g for
each member, the same rounded products, in the same order, as scaling
the input rows first would give, without the scaled copy of the input.
Pre-scaling the forward the same way would change its rounding.

A `Restriction` runs one layer on a few nodes' rows and the hyperedges
they reach, in both passes. Every sparse product sums an output row's
terms in ascending index order starting from +0.0; such a sum is never
-0.0, so leaving out terms that are exact zeros changes no bit of it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ConstructionError


class Hypergraph:
    """Immutable 0/1 incidence structure with cached degrees.

    Rows of the incidence matrix are nodes, columns are hyperedges. Both
    the CSR matrix and its transpose in CSR form are built once at
    construction so that each traversal direction runs on its natural
    layout with a fixed (ascending-index) summation order. The two adjoint
    operators are built with them: `incidence_by_edge_degree` is
    H diag(1/deg_e) and `incidence_t_by_node_degree` is H^T diag(1/deg_v),
    each sharing its sparsity arrays with `incidence` / `incidence_t`.

    `incidence_keys` encodes every incidence (v, e) as the int64 key
    v * num_hyperedges + e, in ascending order, followed by one sentinel
    larger than any key. A batch of (node, hyperedge) pairs is tested for
    membership with one `searchsorted` on it; the sentinel keeps every
    insertion point a valid index, so the test is `keys[pos] == query`.
    """

    __slots__ = (
        "num_nodes",
        "num_hyperedges",
        "incidence",
        "incidence_t",
        "node_degrees",
        "hyperedge_degrees",
        "inv_node_degrees",
        "inv_hyperedge_degrees",
        "incidence_by_edge_degree",
        "incidence_t_by_node_degree",
        "incidence_keys",
    )

    def __init__(self, incidence: sp.csr_matrix):
        incidence = sp.csr_matrix(incidence, dtype=np.float64)
        incidence.sum_duplicates()
        incidence.sort_indices()
        if incidence.nnz and not np.all(incidence.data == 1.0):
            raise ConstructionError("incidence entries must be exactly 0 or 1")
        self.incidence = incidence
        self.incidence_t = incidence.T.tocsr()
        self.incidence_t.sort_indices()
        self.num_nodes, self.num_hyperedges = incidence.shape
        self.node_degrees = np.diff(incidence.indptr).astype(np.int64)
        self.hyperedge_degrees = np.diff(self.incidence_t.indptr).astype(np.int64)
        with np.errstate(divide="ignore"):
            self.inv_node_degrees = np.where(
                self.node_degrees > 0, 1.0 / self.node_degrees, 0.0
            )
            self.inv_hyperedge_degrees = np.where(
                self.hyperedge_degrees > 0, 1.0 / self.hyperedge_degrees, 0.0
            )
        self.incidence_by_edge_degree = _scale_columns(incidence, self.inv_hyperedge_degrees)
        self.incidence_t_by_node_degree = _scale_columns(self.incidence_t, self.inv_node_degrees)
        # Rows ascend and each row's indices are sorted, so the keys are too.
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.node_degrees)
        self.incidence_keys = np.append(
            rows * self.num_hyperedges + incidence.indices, np.iinfo(np.int64).max
        )

    @property
    def nnz(self) -> int:
        return int(self.incidence.nnz)

    def memberships(self) -> np.ndarray:
        """Return the (node, hyperedge) index pairs in row-major order."""
        rows, cols = self.incidence.nonzero()
        return np.stack([rows, cols], axis=1)

    def __repr__(self):
        return (
            f"Hypergraph(num_nodes={self.num_nodes}, "
            f"num_hyperedges={self.num_hyperedges}, nnz={self.nnz})"
        )


def _scale_columns(mat: sp.csr_matrix, scale: np.ndarray) -> sp.csr_matrix:
    """mat @ diag(scale) for a 0/1 CSR matrix, sharing its indices and indptr."""
    return sp.csr_matrix((scale[mat.indices], mat.indices, mat.indptr), shape=mat.shape)


def build_hypergraph(memberships, num_nodes: int, num_hyperedges: int) -> Hypergraph:
    """Build a hypergraph from (node_index, hyperedge_index) pairs.

    `memberships` is an (n, 2) int array, used as it is, or any iterable of
    pairs. Duplicate pairs are collapsed to a single incidence. Out-of-range
    indices raise ConstructionError naming the first offending pair.
    """
    if not isinstance(memberships, np.ndarray):
        memberships = list(memberships)
    pairs = np.asarray(memberships, dtype=np.int64).reshape(-1, 2)
    nodes, edges = pairs[:, 0], pairs[:, 1]
    bad = (nodes < 0) | (nodes >= num_nodes) | (edges < 0) | (edges >= num_hyperedges)
    if bad.any():
        v, e = pairs[int(np.argmax(bad))]
        raise ConstructionError(
            f"membership ({v}, {e}) out of range for "
            f"{num_nodes} nodes x {num_hyperedges} hyperedges"
        )
    # The keys v * num_hyperedges + e ascend in row-major order.
    keys = sorted_unique(nodes * num_hyperedges + edges)
    nodes, edges = np.divmod(keys, num_hyperedges)
    return Hypergraph(csr_from_sorted(nodes, edges, (num_nodes, num_hyperedges)))


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """`np.unique` of a 1-d array: one sort and one mask, several times
    faster than `np.unique` itself on NumPy 2.4."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def csr_from_sorted(rows: np.ndarray, cols: np.ndarray, shape) -> sp.csr_matrix:
    """0/1 CSR matrix of (row, col) pairs given in row-major order without
    duplicates: the row counts give `indptr`, and the columns are `indices`."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_matrix((np.ones(len(cols)), cols, indptr), shape=shape)


def _check_rows(name: str, emb: np.ndarray, expected: int) -> np.ndarray:
    emb = np.asarray(emb, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] != expected:
        raise ValueError(
            f"{name} must be a 2-d array with {expected} rows, got shape {emb.shape}"
        )
    return emb


def aggregate_nodes_to_hyperedges(h: Hypergraph, node_emb: np.ndarray) -> np.ndarray:
    """Average member-node embeddings into each hyperedge.

    Row eps of the result is the arithmetic mean of the embeddings of the
    nodes incident to eps; hyperedges with no members get the zero vector.
    """
    node_emb = _check_rows("node_emb", node_emb, h.num_nodes)
    sums = h.incidence_t @ node_emb
    sums *= h.inv_hyperedge_degrees[:, None]
    return sums


def aggregate_hyperedges_to_nodes(h: Hypergraph, edge_emb: np.ndarray) -> np.ndarray:
    """Average incident-hyperedge embeddings into each node.

    Isolated nodes get the zero vector.
    """
    edge_emb = _check_rows("edge_emb", edge_emb, h.num_hyperedges)
    sums = h.incidence @ edge_emb
    sums *= h.inv_node_degrees[:, None]
    return sums


def aggregate_nodes_to_hyperedges_adjoint(h: Hypergraph, grad_edge: np.ndarray) -> np.ndarray:
    """Adjoint of aggregate_nodes_to_hyperedges (gradient wrt node embeddings)."""
    grad_edge = _check_rows("grad_edge", grad_edge, h.num_hyperedges)
    return h.incidence_by_edge_degree @ grad_edge


def aggregate_hyperedges_to_nodes_adjoint(h: Hypergraph, grad_node: np.ndarray) -> np.ndarray:
    """Adjoint of aggregate_hyperedges_to_nodes (gradient wrt hyperedge embeddings)."""
    grad_node = _check_rows("grad_node", grad_node, h.num_nodes)
    return h.incidence_t_by_node_degree @ grad_node


class Restriction:
    """One convolution layer restricted to the distinct, ascending `nodes`
    and the ascending `edges`, the hyperedges they reach.

    `members` holds the incidence_t rows of `edges`, and `incidence` the
    incidence rows of `nodes` with their columns renumbered to `edges`.
    Each product gives the rows of a dense aggregation or adjoint bit for
    bit: the forward ones compute their rows as the dense ones do, and
    each adjoint leaves out only terms from rows that are zero in its
    gradient (see the module docstring).
    """

    __slots__ = ("graph", "nodes", "edges", "members", "incidence")

    def __init__(self, h: Hypergraph, nodes: np.ndarray):
        self.graph = h
        self.nodes = nodes
        rows = h.incidence[nodes]
        reached = np.zeros(h.num_hyperedges, dtype=bool)
        reached[rows.indices] = True
        self.edges = np.flatnonzero(reached)
        self.members = h.incidence_t[self.edges]
        rank = np.cumsum(reached) - 1
        self.incidence = sp.csr_matrix(
            (rows.data, rank[rows.indices], rows.indptr), shape=(len(nodes), len(self.edges))
        )

    def nodes_to_hyperedges(self, node_emb: np.ndarray) -> np.ndarray:
        """Rows `edges` of aggregate_nodes_to_hyperedges(graph, node_emb)."""
        sums = self.members @ node_emb
        sums *= self.graph.inv_hyperedge_degrees[self.edges, None]
        return sums

    def hyperedges_to_nodes(self, edge_rows: np.ndarray) -> np.ndarray:
        """Rows `nodes` of aggregate_hyperedges_to_nodes(graph, q), given
        q's rows `edges`: no other row of q reaches them."""
        sums = self.incidence @ edge_rows
        sums *= self.graph.inv_node_degrees[self.nodes, None]
        return sums

    def hyperedges_to_nodes_adjoint(self, grad_rows: np.ndarray) -> np.ndarray:
        """Rows `edges` of aggregate_hyperedges_to_nodes_adjoint(graph, g)
        for a g that is zero but on `nodes`, whose rows are grad_rows; its
        other rows are zero."""
        return _scaled_transpose(self.incidence, self.graph.inv_node_degrees[self.nodes]) @ grad_rows

    def nodes_to_hyperedges_adjoint(self, grad_rows: np.ndarray) -> np.ndarray:
        """aggregate_nodes_to_hyperedges_adjoint(graph, g) for a g that is
        zero but on `edges`, whose rows are grad_rows: the dense gradient
        wrt node embeddings."""
        scale = self.graph.inv_hyperedge_degrees[self.edges]
        return _scaled_transpose(self.members, scale) @ grad_rows


def _scaled_transpose(mat: sp.csr_matrix, scale: np.ndarray) -> sp.csc_matrix:
    """(diag(scale) @ mat).T for a 0/1 CSR matrix, sharing its indices and
    indptr. Its product adds scale[i] * x[i] into each output row in
    ascending i: the terms, and the order, of the scaled adjoint operators."""
    data = np.repeat(scale, np.diff(mat.indptr))
    return sp.csc_matrix((data, mat.indices, mat.indptr), shape=mat.shape[::-1])
