import numpy as np
import pytest

from taskhg.errors import ConstructionError, DataError
from taskhg.tasks import (
    NodeSide,
    TaskKind,
    build_attribute_hypergraph,
    build_recommendation_hypergraphs,
    build_relation_hypergraph,
    quantize_continuous,
)


class TestRecommendation:
    def test_single_interaction(self):
        u, i = build_recommendation_hypergraphs([(0, 0)], 1, 1)
        assert u.graph.incidence.toarray().tolist() == [[1.0]]
        assert i.graph.incidence.toarray().tolist() == [[1.0]]
        assert u.kind == TaskKind.RECOMMENDATION
        assert u.side == NodeSide.USERS and i.side == NodeSide.ITEMS

    def test_shared_item_hyperedge(self):
        u, i = build_recommendation_hypergraphs([(0, 0), (1, 0)], 2, 1)
        assert u.graph.incidence.toarray()[:, 0].tolist() == [1.0, 1.0]
        assert i.graph.hyperedge_degrees.tolist() == [1, 1]
        assert i.graph.node_degrees.tolist() == [2]

    def test_pair_is_exact_transpose(self):
        rng = np.random.default_rng(0)
        edges = {(int(rng.integers(6)), int(rng.integers(9))) for _ in range(30)}
        edges |= {(0, 0), (5, 8)}
        u, i = build_recommendation_hypergraphs(sorted(edges), 6, 9)
        assert u.graph.nnz == i.graph.nnz == len(edges)
        assert np.array_equal(u.graph.incidence.toarray(), i.graph.incidence.toarray().T)

    def test_duplicate_interactions_collapse(self):
        u, _ = build_recommendation_hypergraphs([(0, 0), (0, 0), (1, 0)], 2, 1)
        assert u.graph.nnz == 2

    def test_empty_interactions_error(self):
        with pytest.raises(DataError):
            build_recommendation_hypergraphs([], 2, 2)


class TestRelation:
    def test_single_record(self):
        task, skipped = build_relation_hypergraph("rel", NodeSide.ITEMS, [(0, {1, 2})], 3)
        assert skipped == 0
        assert task.graph.num_hyperedges == 1
        assert task.graph.hyperedge_degrees.tolist() == [3]

    def test_empty_related_set_skipped(self):
        task, skipped = build_relation_hypergraph("rel", NodeSide.ITEMS, [(0, set())], 3)
        assert skipped == 1
        assert task.graph.num_hyperedges == 0

    def test_disjoint_records(self):
        task, _ = build_relation_hypergraph(
            "rel", NodeSide.ITEMS, [(0, {1}), (2, {3})], 4
        )
        assert task.graph.num_hyperedges == 2
        inc = task.graph.incidence.toarray()
        assert (inc.sum(axis=1) <= 1).all()

    def test_order_invariant(self):
        records = [(0, {1, 2}), (3, {4}), (2, {0, 4})]
        a, _ = build_relation_hypergraph("rel", NodeSide.ITEMS, records, 5)
        b, _ = build_relation_hypergraph("rel", NodeSide.ITEMS, records[::-1], 5)
        assert np.array_equal(a.graph.incidence.toarray(), b.graph.incidence.toarray())
        assert a.hyperedge_labels == b.hyperedge_labels

    def test_node_out_of_side_range(self):
        with pytest.raises(ConstructionError):
            build_relation_hypergraph("rel", NodeSide.ITEMS, [(0, {9})], 3)

    def test_labels_sort_as_strings(self):
        # The label order fixes the hyperedge indices, and with them every
        # negative hyperedge drawn in training: "10,11" sorts before "2,3".
        task, _ = build_relation_hypergraph(
            "rel", NodeSide.ITEMS, [(2, {3}), (10, {11}), (20, {1})], 21
        )
        assert task.hyperedge_labels == ("1,20", "10,11", "2,3")
        members = [np.flatnonzero(col).tolist() for col in task.graph.incidence.toarray().T]
        assert members == [[1, 20], [10, 11], [2, 3]]


class TestAttribute:
    def test_categorical_grouping(self):
        task = build_attribute_hypergraph(
            "cat", NodeSide.ITEMS, [0, 1, 2], ["toys", "toys", "books"], 5, 3
        )
        assert task.hyperedge_labels == ("books", "toys")
        assert sorted(task.graph.hyperedge_degrees.tolist()) == [1, 2]

    def test_single_shared_value(self):
        task = build_attribute_hypergraph("cat", NodeSide.ITEMS, range(4), ["x"] * 4, 5, 4)
        assert task.graph.num_hyperedges == 1
        assert task.graph.hyperedge_degrees.tolist() == [4]

    def test_multi_valued_node(self):
        task = build_attribute_hypergraph("cat", NodeSide.ITEMS, [0, 0], ["a", "b"], 5, 1)
        assert task.graph.node_degrees.tolist() == [2]

    def test_degree_sum_equals_distinct_records(self):
        task = build_attribute_hypergraph(
            "cat", NodeSide.ITEMS, [0, 0, 1, 2], ["a", "a", "a", "b"], 5, 3
        )
        assert task.graph.hyperedge_degrees.sum() == 3

    def test_continuous_binning(self):
        task = build_attribute_hypergraph(
            "rating", NodeSide.ITEMS, range(5), [1.0, 2.0, 3.0, 4.0, 5.0], 5, 5, "continuous"
        )
        assert task.graph.num_hyperedges == 5
        assert task.hyperedge_labels == ("bin_0", "bin_1", "bin_2", "bin_3", "bin_4")

    def test_order_invariant(self):
        nodes, values = [0, 1, 2, 3], ["b", "a", "b", "c"]
        a = build_attribute_hypergraph("cat", NodeSide.ITEMS, nodes, values, 5, 4)
        b = build_attribute_hypergraph("cat", NodeSide.ITEMS, nodes[::-1], values[::-1], 5, 4)
        assert np.array_equal(a.graph.incidence.toarray(), b.graph.incidence.toarray())
        assert a.hyperedge_labels == b.hyperedge_labels

    def test_bad_value_kind(self):
        with pytest.raises(ValueError, match="unknown value_kind: 'ordinal'"):
            build_attribute_hypergraph("cat", NodeSide.ITEMS, [0], ["a"], 5, 1, "ordinal")


class TestQuantize:
    def test_uniform_width(self):
        assert quantize_continuous([1, 2, 3, 4, 5], 5) == [0, 1, 2, 3, 4]

    def test_constant_input(self):
        assert quantize_continuous([2.0, 2.0, 2.0], 4) == [0, 0, 0]

    def test_endpoints(self):
        assert quantize_continuous([0.0, 10.0], 2) == [0, 1]

    def test_nan_names_record(self):
        with pytest.raises(DataError, match="record 1"):
            quantize_continuous([1.0, float("nan")], 2)

    def test_bins_precondition(self):
        with pytest.raises(ValueError):
            quantize_continuous([1.0, 2.0], 1)
