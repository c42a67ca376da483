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

    Duplicate pairs are collapsed to a single incidence. Out-of-range
    indices raise ConstructionError naming the offending pair.
    """
    pairs = np.asarray(list(memberships), dtype=np.int64).reshape(-1, 2)
    if pairs.size:
        bad_node = (pairs[:, 0] < 0) | (pairs[:, 0] >= num_nodes)
        bad_edge = (pairs[:, 1] < 0) | (pairs[:, 1] >= num_hyperedges)
        bad = bad_node | bad_edge
        if bad.any():
            v, e = pairs[int(np.argmax(bad))]
            raise ConstructionError(
                f"membership ({v}, {e}) out of range for "
                f"{num_nodes} nodes x {num_hyperedges} hyperedges"
            )
        pairs = np.unique(pairs, axis=0)
    data = np.ones(len(pairs), dtype=np.float64)
    mat = sp.csr_matrix(
        (data, (pairs[:, 0], pairs[:, 1])), shape=(num_nodes, num_hyperedges)
    )
    return Hypergraph(mat)


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
