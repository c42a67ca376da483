import numpy as np
import oracles
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


def random_relation_records(rng):
    """(anchor, related ids) records over ids of 1 to 4 digits, so that text
    order and numeric order differ: duplicate records, anchors among their
    own related ids, empty and one-member records, and negative ids."""
    def node():
        digits = int(rng.integers(1, 5))
        if rng.random() < 0.005:
            return -int(rng.integers(1, 10 ** digits))
        return int(rng.integers(0 if digits == 1 else 10 ** (digits - 1), 10 ** digits))

    records = []
    for _ in range(int(rng.integers(0, 12))):
        if records and rng.random() < 0.15:
            records.append(records[int(rng.integers(len(records)))])
            continue
        anchor = node()
        related = [node() for _ in range(int(rng.integers(0, 5)))]
        if related and rng.random() < 0.2:
            related.append(anchor)
        if related and rng.random() < 0.2:
            related.append(related[0])
        records.append((anchor, related))
    return records


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
        task, skipped = build_relation_hypergraph("rel", NodeSide.ITEMS, [0], [1, 2], [2], 3)
        assert skipped == 0
        assert task.graph.num_hyperedges == 1
        assert task.graph.hyperedge_degrees.tolist() == [3]

    def test_empty_related_set_skipped(self):
        task, skipped = build_relation_hypergraph("rel", NodeSide.ITEMS, [0], [], [0], 3)
        assert skipped == 1
        assert task.graph.num_hyperedges == 0

    def test_disjoint_records(self):
        task, _ = build_relation_hypergraph("rel", NodeSide.ITEMS, [0, 2], [1, 3], [1, 1], 4)
        assert task.graph.num_hyperedges == 2
        inc = task.graph.incidence.toarray()
        assert (inc.sum(axis=1) <= 1).all()

    def test_order_invariant(self):
        records = [(0, [1, 2]), (3, [4]), (2, [0, 4])]
        a, _ = build_relation_hypergraph(
            "rel", NodeSide.ITEMS, *oracles.relation_columns(records), 5
        )
        b, _ = build_relation_hypergraph(
            "rel", NodeSide.ITEMS, *oracles.relation_columns(records[::-1]), 5
        )
        assert np.array_equal(a.graph.incidence.toarray(), b.graph.incidence.toarray())
        assert a.hyperedge_labels == b.hyperedge_labels

    def test_node_out_of_side_range(self):
        with pytest.raises(ConstructionError):
            build_relation_hypergraph("rel", NodeSide.ITEMS, [0], [9], [1], 3)

    def test_labels_sort_as_strings(self):
        # The label order fixes the hyperedge indices, and with them every
        # negative hyperedge drawn in training: "10,11" sorts before "2,3".
        task, _ = build_relation_hypergraph(
            "rel", NodeSide.ITEMS, [2, 10, 20], [3, 11, 1], [1, 1, 1], 21
        )
        assert task.hyperedge_labels == ("1,20", "10,11", "2,3")
        members = [np.flatnonzero(col).tolist() for col in task.graph.incidence.toarray().T]
        assert members == [[1, 20], [10, 11], [2, 3]]

    def test_label_prefixes_sort_first(self):
        # "," sorts below every digit, so "1,2" < "1,2,3" < "1,23".
        records = [(1, [23]), (3, [1, 2]), (2, [1]), (1, [2])]
        task, _ = build_relation_hypergraph(
            "rel", NodeSide.ITEMS, *oracles.relation_columns(records), 24
        )
        assert task.hyperedge_labels == ("1,2", "1,2", "1,2,3", "1,23")

    def test_counts_must_fit_the_columns(self):
        with pytest.raises(ValueError, match="do not fit"):
            build_relation_hypergraph("rel", NodeSide.ITEMS, [0, 1], [1], [2], 3)

    def test_matches_the_record_form(self):
        rng = np.random.default_rng(17)
        for case in range(300):
            records = random_relation_records(rng)
            top = max([0, *(r for a, rel in records for r in (a, *rel))])
            # Two cases in three hold every id; the third may cut the top ids off.
            num_nodes = top + 1 if case % 3 else int(rng.integers(1, top + 2))
            try:
                want = oracles.build_relation_hypergraph("rel", NodeSide.ITEMS, records, num_nodes)
            except ConstructionError as exc:
                with pytest.raises(ConstructionError) as err:
                    build_relation_hypergraph(
                        "rel", NodeSide.ITEMS, *oracles.relation_columns(records), num_nodes
                    )
                assert str(err.value) == str(exc), records
                continue
            got = build_relation_hypergraph(
                "rel", NodeSide.ITEMS, *oracles.relation_columns(records), num_nodes
            )
            assert got[1] == want[1], records
            assert got[0].hyperedge_labels == want[0].hyperedge_labels, records
            for name in ("indptr", "indices", "data"):
                a = getattr(got[0].graph.incidence, name)
                b = getattr(want[0].graph.incidence, name)
                assert a.tobytes() == b.tobytes(), (name, records)


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

    def test_labels_are_the_sorted_distinct_values(self):
        # A fixed-width NumPy string would drop the trailing NULs and merge
        # "a\0" into "a".
        values = ["a b", "a", "\u00e9t\u00e9", "a\0", "a b", "\0", "z\0\0", "a", " a"]
        task = build_attribute_hypergraph("cat", NodeSide.ITEMS, range(9), values, 5, 9)
        assert task.hyperedge_labels == tuple(sorted(set(values)))
        edges = task.graph.incidence.indices.tolist()
        assert [task.hyperedge_labels[e] for e in edges] == values

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
