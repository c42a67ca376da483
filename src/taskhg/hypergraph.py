"""Sparse binary hypergraphs and the degree-normalized convolution primitive.

The convolution is a weight-free two-step mean: nodes into their
hyperedges, then hyperedges back into their members; degree-zero
entities map to the zero vector. The forward sums the members, then
scales the sums by the inverse degrees; pre-scaling its input would
change its rounding. The adjoints multiply by scaled transposes, which
add the products of scaling the input first, in the same order.

Every sparse product sums an output row's terms in ascending index order
from +0.0, and such a sum is never -0.0, so leaving out exact-zero terms
changes no bit: a `Restriction`'s products give the dense ones' rows.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ConstructionError


class Hypergraph:
    """Immutable 0/1 incidence structure with cached degrees.

    Rows of `incidence` (CSR) are nodes, columns hyperedges; `incidence_t`
    is its transpose in CSR. The adjoint operators
    `incidence_by_edge_degree` = H diag(1/deg_e) and
    `incidence_t_by_node_degree` = H^T diag(1/deg_v) are CSC matrices
    sharing the other matrix's sparsity arrays.

    `incidence_keys` holds every incidence (v, e) as the ascending int64
    key v * num_hyperedges + e, then a sentinel larger than any key, so a
    `searchsorted` position is always a valid index for `keys[pos] == query`.
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
    """`np.unique` of a 1-d array, as one sort and one mask."""
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
    """Each hyperedge's mean member-node embedding (zero for no members)."""
    node_emb = _check_rows("node_emb", node_emb, h.incidence_t.shape[1])
    sums = h.incidence_t @ node_emb
    sums *= h.inv_hyperedge_degrees[:, None]
    return sums


def aggregate_hyperedges_to_nodes(h: Hypergraph | Restriction, edge_emb: np.ndarray) -> np.ndarray:
    """Each node's mean incident-hyperedge embedding (zero when isolated)."""
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
    distinct, ascending `nodes` of `graph`: the fields the `aggregate_*`
    products read, on those nodes and the hyperedges they reach (`edges`,
    ascending) or, with `edges` None, every hyperedge.

    Each product gives the dense one's rows at `nodes` or `edges`;
    node->hyperedge reads, and its adjoint writes, every node. The input
    rows left out reach none of those outputs, or are zero in the dense
    reverse.
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
    indptr; its product adds scale[i] * x[i] in ascending i."""
    data = np.repeat(scale, np.diff(mat.indptr))
    return sp.csc_matrix((data, mat.indices, mat.indptr), shape=mat.shape[::-1])
