import numpy as np
import pytest
from oracles import (
    dense_convolve,
    hypergraph_convolve,
    max_rel_error,
    random_hypergraph_dense,
    unique_pairs_incidence,
)

from taskhg.errors import ConstructionError
from taskhg.hypergraph import (
    Hypergraph,
    Restriction,
    aggregate_hyperedges_to_nodes,
    aggregate_hyperedges_to_nodes_adjoint,
    aggregate_nodes_to_hyperedges,
    aggregate_nodes_to_hyperedges_adjoint,
    build_hypergraph,
)
from taskhg.model import encode_auxiliary_task_traced


def from_dense(H):
    H = np.asarray(H, dtype=float)
    pairs = list(zip(*np.nonzero(H)))
    return build_hypergraph(pairs, H.shape[0], H.shape[1])


class TestBuild:
    def test_single_membership(self):
        h = build_hypergraph([(0, 0)], 1, 1)
        assert h.incidence.toarray().tolist() == [[1.0]]
        assert h.node_degrees.tolist() == [1]
        assert h.hyperedge_degrees.tolist() == [1]

    def test_duplicates_collapse(self):
        h = build_hypergraph([(0, 0), (0, 0), (1, 0)], 2, 1)
        assert h.nnz == 2
        assert h.node_degrees.tolist() == [1, 1]
        assert h.hyperedge_degrees.tolist() == [2]

    def test_degrees_counted_by_hand(self):
        h = build_hypergraph([(0, 0), (1, 0), (1, 1), (2, 1)], 3, 2)
        assert h.node_degrees.tolist() == [1, 2, 1]
        assert h.hyperedge_degrees.tolist() == [2, 2]

    def test_out_of_range_names_pair(self):
        with pytest.raises(ConstructionError, match=r"\(3, 0\)"):
            build_hypergraph([(0, 0), (3, 0)], 2, 1)
        with pytest.raises(ConstructionError, match=r"\(0, 5\)"):
            build_hypergraph([(0, 5)], 2, 1)
        # The first bad pair in input order, from an array as from a list.
        with pytest.raises(ConstructionError, match=r"\(0, -1\)"):
            build_hypergraph(np.array([[1, 0], [0, -1], [5, 0]]), 2, 1)

    @pytest.mark.parametrize(
        "pairs, n, m",
        [
            ([], 3, 2),
            ([], 0, 0),
            ([(0, 0)], 1, 1),
            ([(2, 1), (0, 1), (2, 1), (1, 0), (0, 1), (2, 0)], 4, 3),
            (np.array([[3, 0], [0, 2], [3, 0], [1, 1]]), 5, 4),
            (np.zeros((0, 2), dtype=np.int64), 2, 3),
        ],
        ids=["empty", "empty-no-nodes", "single", "unsorted-with-duplicates", "array", "empty-array"],
    )
    def test_same_bytes_as_unique_pairs_construction(self, pairs, n, m):
        self.assert_same_bytes(build_hypergraph(pairs, n, m), unique_pairs_incidence(pairs, n, m))

    def test_same_bytes_as_unique_pairs_construction_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n, m = (int(x) for x in rng.integers(1, 60, size=2))
            pairs = rng.integers(0, (n, m), size=(int(rng.integers(0, 400)), 2))
            self.assert_same_bytes(build_hypergraph(pairs, n, m), unique_pairs_incidence(pairs, n, m))

    @staticmethod
    def assert_same_bytes(got, want):
        for name in ("incidence", "incidence_t", "incidence_by_edge_degree",
                     "incidence_t_by_node_degree"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape
            for part in ("indptr", "indices", "data"):
                x, y = getattr(a, part), getattr(b, part)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (name, part)
        assert got.incidence_keys.tobytes() == want.incidence_keys.tobytes()

    def test_degree_sums_match_nnz(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            H = random_hypergraph_dense(rng, 20, 15, density=0.3)
            h = from_dense(H)
            assert h.node_degrees.sum() == h.hyperedge_degrees.sum() == h.nnz

    def test_incidence_keys_are_sorted_memberships_and_a_sentinel(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            H = random_hypergraph_dense(rng, 20, 15, density=rng.random())
            h = from_dense(H)
            keys = sorted(v * H.shape[1] + e for v, e in zip(*np.nonzero(H)))
            assert h.incidence_keys.dtype == np.int64
            assert h.incidence_keys.tolist() == keys + [np.iinfo(np.int64).max]

    def test_rejects_non_binary(self):
        import scipy.sparse as sp

        mat = sp.csr_matrix(np.array([[2.0]]))
        with pytest.raises(ConstructionError):
            Hypergraph(mat)


class TestAggregation:
    def test_nodes_to_hyperedges_identity(self):
        h = build_hypergraph([(0, 0)], 1, 1)
        out = aggregate_nodes_to_hyperedges(h, np.array([[2.0, 4.0]]))
        assert out.tolist() == [[2.0, 4.0]]

    def test_nodes_to_hyperedges_mean(self):
        h = build_hypergraph([(0, 0), (1, 0)], 2, 1)
        out = aggregate_nodes_to_hyperedges(h, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert out.tolist() == [[0.5, 0.5]]

    def test_empty_hyperedge_is_zero(self):
        h = build_hypergraph([(0, 0)], 1, 2)
        out = aggregate_nodes_to_hyperedges(h, np.array([[2.0, 4.0]]))
        assert out[1].tolist() == [0.0, 0.0]

    def test_hyperedges_to_nodes_identity(self):
        h = build_hypergraph([(0, 0)], 1, 1)
        out = aggregate_hyperedges_to_nodes(h, np.array([[3.0, 3.0]]))
        assert out.tolist() == [[3.0, 3.0]]

    def test_hyperedges_to_nodes_mean(self):
        h = build_hypergraph([(0, 0), (0, 1)], 1, 2)
        out = aggregate_hyperedges_to_nodes(h, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert out.tolist() == [[0.5, 0.5]]

    def test_isolated_node_is_zero(self):
        h = build_hypergraph([(0, 0)], 2, 1)
        out = aggregate_hyperedges_to_nodes(h, np.array([[3.0, 3.0]]))
        assert out[1].tolist() == [0.0, 0.0]

    def test_dimension_mismatch(self):
        h = build_hypergraph([(0, 0)], 1, 1)
        with pytest.raises(ValueError):
            aggregate_nodes_to_hyperedges(h, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            aggregate_hyperedges_to_nodes(h, np.zeros((2, 3)))


class TestConvolve:
    def test_identity_on_trivial_graph(self):
        h = build_hypergraph([(0, 0)], 1, 1)
        x = np.array([[1.5, -2.0]])
        assert hypergraph_convolve(h, x).tolist() == x.tolist()

    def test_two_nodes_share_mean(self):
        h = build_hypergraph([(0, 0), (1, 0)], 2, 1)
        out = hypergraph_convolve(h, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert out.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_constant_preserved_on_connected_nodes(self):
        rng = np.random.default_rng(11)
        H = random_hypergraph_dense(rng, 30, 20, density=0.2)
        h = from_dense(H)
        const = np.full((h.num_nodes, 3), 2.5)
        out = hypergraph_convolve(h, const)
        connected = h.node_degrees > 0
        assert np.allclose(out[connected], 2.5, rtol=0, atol=1e-12)
        assert np.all(out[~connected] == 0.0)

    def test_matches_composition_exactly(self):
        rng = np.random.default_rng(3)
        H = random_hypergraph_dense(rng, 25, 18, density=0.2)
        h = from_dense(H)
        x = rng.normal(size=(h.num_nodes, 4))
        composed = aggregate_hyperedges_to_nodes(h, aggregate_nodes_to_hyperedges(h, x))
        # The package's one convolution is the one-layer encoder.
        assert np.array_equal(encode_auxiliary_task_traced(h, x, 1).node_emb, composed)

    def test_dense_oracle_equivalence(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            H = random_hypergraph_dense(rng)
            h = from_dense(H)
            d = int(rng.integers(1, 17))
            x = rng.normal(size=(h.num_nodes, d))
            expected = dense_convolve(H, x)
            assert max_rel_error(hypergraph_convolve(h, x), expected) <= 1e-12

    def test_row_stochastic_on_ones(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            H = random_hypergraph_dense(rng, 30, 20, density=0.25)
            h = from_dense(H)
            out = hypergraph_convolve(h, np.ones((h.num_nodes, 1)))
            connected = h.node_degrees > 0
            # Nodes may sit in empty-free hyperedges only; mean of ones is 1.
            assert np.allclose(out[connected], 1.0, rtol=0, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        H = random_hypergraph_dense(rng, 30, 20, density=0.2)
        h = from_dense(H)
        x = rng.normal(size=(h.num_nodes, 5))
        y = rng.normal(size=(h.num_nodes, 5))
        a, b = 1.7, -0.4
        lhs = hypergraph_convolve(h, a * x + b * y)
        rhs = a * hypergraph_convolve(h, x) + b * hypergraph_convolve(h, y)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestAdjoints:
    def test_adjoints_match_dense_transpose(self):
        rng = np.random.default_rng(17)
        H = random_hypergraph_dense(rng, 20, 12, density=0.3)
        h = from_dense(H)
        edge_deg = H.sum(axis=0)
        node_deg = H.sum(axis=1)
        inv_b = np.where(edge_deg > 0, 1.0 / edge_deg, 0.0)
        inv_d = np.where(node_deg > 0, 1.0 / node_deg, 0.0)
        g_edge = rng.normal(size=(h.num_hyperedges, 3))
        g_node = rng.normal(size=(h.num_nodes, 3))
        # v2e is (B^-1 H^T); its adjoint is H B^-1.
        expected = H @ (inv_b[:, None] * g_edge)
        assert np.allclose(aggregate_nodes_to_hyperedges_adjoint(h, g_edge), expected, atol=1e-13)
        # e2v is (D^-1 H); its adjoint is H^T D^-1.
        expected = H.T @ (inv_d[:, None] * g_node)
        assert np.allclose(aggregate_hyperedges_to_nodes_adjoint(h, g_node), expected, atol=1e-13)

    @pytest.mark.parametrize("seed", range(10))
    def test_operators_are_bit_identical_to_scaling_around_the_product(self, seed):
        # The adjoints multiply by pre-scaled copies of the incidence; that
        # must give the bits of scaling the input rows first. The forward
        # scales the sums after the product.
        rng = np.random.default_rng(seed)
        H = random_hypergraph_dense(rng, 40, 25, density=0.2)
        H[rng.integers(H.shape[0])] = 0.0  # an isolated node
        H[:, rng.integers(H.shape[1])] = 0.0  # an empty hyperedge
        h = from_dense(H)

        def spread(n):
            return rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-6, 7, (n, 1))

        x_node, x_edge = spread(h.num_nodes), spread(h.num_hyperedges)
        inv_e, inv_v = h.inv_hyperedge_degrees[:, None], h.inv_node_degrees[:, None]
        pairs = [
            (aggregate_nodes_to_hyperedges_adjoint(h, x_edge), h.incidence @ (x_edge * inv_e)),
            (aggregate_hyperedges_to_nodes_adjoint(h, x_node), h.incidence_t @ (x_node * inv_v)),
            (aggregate_nodes_to_hyperedges(h, x_node), (h.incidence_t @ x_node) * inv_e),
            (aggregate_hyperedges_to_nodes(h, x_edge), (h.incidence @ x_edge) * inv_v),
        ]
        for k, (got, want) in enumerate(pairs):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), k

    @staticmethod
    def restriction_instance(seed):
        """A hypergraph with an isolated node, a restriction to a few of its
        nodes (the isolated one among them) and row scales over 12 decades."""
        rng = np.random.default_rng([23, seed])
        H = random_hypergraph_dense(rng, 40, 25, density=0.2)
        isolated = int(rng.integers(H.shape[0]))
        H[isolated] = 0.0
        h = from_dense(H)
        nodes = np.unique(np.append(rng.integers(h.num_nodes, size=int(rng.integers(1, 8))),
                                    isolated))
        rows = Restriction(h, nodes)
        assert rows.edges.tolist() == np.flatnonzero(H[nodes].any(axis=0)).tolist()
        return rng, h, rows

    @staticmethod
    def scaled_normal(rng, n, d):
        return rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 7, (n, 1))

    @pytest.mark.parametrize("seed", range(10))
    def test_row_restricted_adjoints_give_the_dense_bits(self, seed):
        # A gradient that is zero outside a few rows, some of them -0.0
        # and one an isolated node's: the restricted adjoints give the
        # dense ones' rows, and the dense rows they leave out are +0.0.
        rng, h, rows = self.restriction_instance(seed)
        grad = self.scaled_normal(rng, len(rows.nodes), 5)
        grad[rng.random(grad.shape) < 0.2] = -0.0
        g_node = np.zeros((h.num_nodes, 5))
        g_node[rows.nodes] = grad
        dense = aggregate_hyperedges_to_nodes_adjoint(h, g_node)
        got = rows.hyperedges_to_nodes_adjoint(grad)
        assert got.tobytes() == dense[rows.edges].tobytes()
        others = np.delete(dense, rows.edges, axis=0)
        assert others.tobytes() == bytes(others.nbytes)
        g_edge = np.zeros((h.num_hyperedges, 5))
        g_edge[rows.edges] = rng.normal(size=(len(rows.edges), 5))
        got = rows.nodes_to_hyperedges_adjoint(g_edge[rows.edges])
        assert got.tobytes() == aggregate_nodes_to_hyperedges_adjoint(h, g_edge).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_row_restricted_aggregations_give_the_dense_bits(self, seed):
        # The forward products give the dense ones' rows at the reached
        # hyperedges and at the restricted nodes, whatever the other rows
        # of the hyperedge input hold.
        rng, h, rows = self.restriction_instance(seed)
        x = self.scaled_normal(rng, h.num_nodes, 5)
        eps = aggregate_nodes_to_hyperedges(h, x)
        assert rows.nodes_to_hyperedges(x).tobytes() == eps[rows.edges].tobytes()
        q = self.scaled_normal(rng, h.num_hyperedges, 5)
        out = aggregate_hyperedges_to_nodes(h, q)
        assert rows.hyperedges_to_nodes(q[rows.edges]).tobytes() == out[rows.nodes].tobytes()

    def test_scaled_adjoint_operators_share_the_sparsity_arrays(self):
        h = build_hypergraph([(0, 1), (2, 1), (1, 0), (2, 2)], 4, 3)
        for scaled, base in ((h.incidence_by_edge_degree, h.incidence),
                             (h.incidence_t_by_node_degree, h.incidence_t)):
            assert np.shares_memory(scaled.indices, base.indices)
            assert np.shares_memory(scaled.indptr, base.indptr)
        assert h.incidence_by_edge_degree.toarray().tolist() == [
            [0.0, 0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.0]
        ]
        assert h.incidence_t_by_node_degree.toarray().tolist() == [
            [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.5, 0.0]
        ]
