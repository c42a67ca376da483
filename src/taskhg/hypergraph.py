"""Sparse binary hypergraphs and the degree-normalized convolution primitive.

The convolution is a two-step mean aggregation with no learned weights:
node embeddings are averaged into their hyperedges, then hyperedge
embeddings are averaged back into their member nodes. Entities of degree
zero map to the zero vector, which keeps the operator total and linear.

Each aggregation is one sparse product into a fresh array. The forward
sums the members first and then scales the sums in place by the inverse
degrees. The adjoints instead multiply by scaled transposes, built once
per hypergraph: CSC matrices that share the other incidence matrix's
arrays and hold the inverse degrees as values. The kernel then adds
inv * g for each member, the same rounded products, in the same order,
as scaling the input rows first would give, without the scaled copy of
the input. Pre-scaling the forward the same way would change its
rounding.

A `Restriction` is the operator of one layer whose output is read at a
few nodes R only: the fields the four products read, restricted to R and
to the hyperedges E that R reaches, or to R and every hyperedge. The
products take either operator and check their input against the columns
of the matrix they multiply. Every sparse product sums an output row's
terms in ascending index order starting from +0.0; such a sum is never
-0.0, so leaving out terms that are exact zeros changes no bit of it, and
each restricted product gives the dense one's rows.
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
    operators are CSC transposes of them: `incidence_by_edge_degree` is
    H diag(1/deg_e), sharing its sparsity arrays with `incidence_t`, and
    `incidence_t_by_node_degree` is H^T diag(1/deg_v), sharing them with
    `incidence`.

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
        self.incidence_by_edge_degree = _scaled_transpose(
            self.incidence_t, self.inv_hyperedge_degrees
        )
        self.incidence_t_by_node_degree = _scaled_transpose(incidence, self.inv_node_degrees)
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


def aggregate_nodes_to_hyperedges(h: Hypergraph | Restriction, node_emb: np.ndarray) -> np.ndarray:
    """Average member-node embeddings into each hyperedge.

    Row eps of the result is the arithmetic mean of the embeddings of the
    nodes incident to eps; hyperedges with no members get the zero vector.
    """
    node_emb = _check_rows("node_emb", node_emb, h.incidence_t.shape[1])
    sums = h.incidence_t @ node_emb
    sums *= h.inv_hyperedge_degrees[:, None]
    return sums


def aggregate_hyperedges_to_nodes(h: Hypergraph | Restriction, edge_emb: np.ndarray) -> np.ndarray:
    """Average incident-hyperedge embeddings into each node.

    Isolated nodes get the zero vector.
    """
    edge_emb = _check_rows("edge_emb", edge_emb, h.incidence.shape[1])
    sums = h.incidence @ edge_emb
    sums *= h.inv_node_degrees[:, None]
    return sums


def aggregate_nodes_to_hyperedges_adjoint(
    h: Hypergraph | Restriction, grad_edge: np.ndarray
) -> np.ndarray:
    """Adjoint of aggregate_nodes_to_hyperedges (gradient wrt node embeddings)."""
    grad_edge = _check_rows("grad_edge", grad_edge, h.incidence_by_edge_degree.shape[1])
    return h.incidence_by_edge_degree @ grad_edge


def aggregate_hyperedges_to_nodes_adjoint(
    h: Hypergraph | Restriction, grad_node: np.ndarray
) -> np.ndarray:
    """Adjoint of aggregate_hyperedges_to_nodes (gradient wrt hyperedge embeddings)."""
    grad_node = _check_rows("grad_node", grad_node, h.incidence_t_by_node_degree.shape[1])
    return h.incidence_t_by_node_degree @ grad_node


class Restriction:
    """The operator of one layer whose output is read only at the
    distinct, ascending `nodes` of `graph`: the `Hypergraph` fields the
    `aggregate_*` products read, on those nodes' rows and the hyperedges
    they reach (`edges`, ascending) or, with `edges` None, every hyperedge.

    Each product gives the dense one's rows at `nodes` or `edges` from its
    input's rows there; node->hyperedge reads, and its adjoint writes,
    every node. The input rows left out reach none of those outputs, or
    are zero in the dense reverse; the adjoint rows left out are zero.
    """

    __slots__ = (
        "graph",
        "nodes",
        "edges",
        "incidence",
        "incidence_t",
        "inv_node_degrees",
        "inv_hyperedge_degrees",
        "incidence_by_edge_degree",
        "incidence_t_by_node_degree",
    )

    def __init__(self, h: Hypergraph, nodes: np.ndarray, reached: bool = True):
        self.graph = h
        self.nodes = nodes
        self.edges = None
        self.incidence = h.incidence[nodes]
        self.incidence_t = h.incidence_t
        self.inv_node_degrees = h.inv_node_degrees[nodes]
        self.inv_hyperedge_degrees = h.inv_hyperedge_degrees
        self.incidence_by_edge_degree = h.incidence_by_edge_degree
        if reached:
            rows = self.incidence
            hit = np.zeros(h.num_hyperedges, dtype=bool)
            hit[rows.indices] = True
            self.edges = np.flatnonzero(hit)
            rank = np.cumsum(hit) - 1
            self.incidence = sp.csr_matrix(
                (rows.data, rank[rows.indices], rows.indptr), shape=(len(nodes), len(self.edges))
            )
            self.incidence_t = h.incidence_t[self.edges]
            self.inv_hyperedge_degrees = h.inv_hyperedge_degrees[self.edges]
            self.incidence_by_edge_degree = _scaled_transpose(
                self.incidence_t, self.inv_hyperedge_degrees
            )
        self.incidence_t_by_node_degree = _scaled_transpose(self.incidence, self.inv_node_degrees)

    @property
    def nnz(self) -> int:
        """The incidences of `nodes`."""
        return int(self.incidence.nnz)


def _scaled_transpose(mat: sp.csr_matrix, scale: np.ndarray) -> sp.csc_matrix:
    """(diag(scale) @ mat).T for a 0/1 CSR matrix, sharing its indices and
    indptr. Its product adds scale[i] * x[i] into each output row in
    ascending i: the terms, and the order, of scaling x's rows first."""
    data = np.repeat(scale, np.diff(mat.indptr))
    return sp.csc_matrix((data, mat.indices, mat.indptr), shape=mat.shape[::-1])
