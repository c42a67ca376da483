import numpy as np
import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import taskhg.data
from taskhg.data import (
    InteractionDataset,
    edge_array,
    generate_synthetic_dataset,
    sample_negative_hyperedges,
    sample_negative_items,
    split_interactions,
    task_positive_pairs,
)
from taskhg.errors import DataError
from taskhg.hypergraph import build_hypergraph
from taskhg.tasks import (
    NodeSide,
    TaskHypergraph,
    TaskKind,
    build_recommendation_hypergraphs,
)


def rows(pairs) -> list:
    return [tuple(row) for row in pairs.tolist()]


def as_set(pairs) -> set:
    return set(rows(pairs))


class TestSplit:
    def test_exact_counts(self):
        edges = [(u, 0) for u in range(5)] + [(u, 1) for u in range(5)]
        train, test = split_interactions(edges, 0.8, seed=0)
        assert len(train) == 8 and len(test) == 2
        assert as_set(train) | as_set(test) == set(edges)
        assert not as_set(train) & as_set(test)

    def test_deterministic(self):
        edges = [(u, i) for u in range(10) for i in range(4)]
        a = split_interactions(edges, 0.7, seed=5)
        b = split_interactions(edges, 0.7, seed=5)
        assert [x.tolist() for x in a] == [x.tolist() for x in b]
        c = split_interactions(edges, 0.7, seed=6)
        assert [x.tolist() for x in a] != [x.tolist() for x in c]

    def test_single_edge_user_forced_into_train(self):
        edges = [(0, i) for i in range(50)] + [(1, 3)]
        for seed in range(10):
            train, _ = split_interactions(edges, 0.5, seed=seed)
            assert (1, 3) in as_set(train)

    def test_too_few_edges(self):
        with pytest.raises(DataError):
            split_interactions([(0, 0)], 0.8, seed=0)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split_interactions([(0, 0), (1, 1)], 1.0, seed=0)

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 0), (1, 1)],
            [(0, 1), (0, 0)],
            [(0, i) for i in range(30)] + [(u, 0) for u in range(1, 20)],
            [(u, i) for u in range(40) for i in range(3)],
            [(u, (7 * u + i) % 11) for u in range(60) for i in range(u % 4 + 1)] * 2,
        ],
        ids=["two-edges", "two-edges-one-user", "single-edge-users", "three-per-user", "mixed"],
    )
    @pytest.mark.parametrize("fraction", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_matches_set_oracle(self, edges, fraction):
        for seed in range(25):
            train, test = split_interactions(edges, fraction, seed)
            want_train, want_test = oracles.split_interactions(edges, fraction, seed)
            assert rows(train) == sorted(want_train)
            assert rows(test) == sorted(want_test)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=2, max_size=80),
        fraction=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32),
    )
    def test_matches_set_oracle_on_random_edges(self, edges, fraction, seed):
        assume(len(set(edges)) >= 2)
        train, test = split_interactions(edges, fraction, seed)
        want_train, want_test = oracles.split_interactions(edges, fraction, seed)
        assert rows(train) == sorted(want_train)
        assert rows(test) == sorted(want_test)


class TestEdgeArray:
    @pytest.mark.parametrize(
        "edges",
        [[], [(3, 1)], [(2, 0), (0, 5), (2, 0), (0, 1), (1, 1)], {(0, 2), (0, 1), (1, 0)},
         np.array([[1, 1], [0, 3], [0, 3]])],
        ids=["empty", "one", "list-with-duplicates", "set", "array-with-duplicates"],
    )
    def test_sorted_unique_rows(self, edges):
        pairs = edge_array(edges)
        assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
        assert rows(pairs) == sorted({tuple(map(int, e)) for e in edges})


class TestDataset:
    def test_overlap_rejected(self):
        with pytest.raises(DataError):
            InteractionDataset(2, 2, {(0, 0)}, {(0, 0)}, [])

    def test_rec_pair_built_from_train_edges(self):
        ds = InteractionDataset(2, 3, {(0, 0), (1, 2)}, {(0, 1)}, [])
        user_task, item_task = ds.rec_pair()
        assert user_task.graph.nnz == 2
        assert item_task.graph.num_nodes == 3
        assert user_task.graph.incidence.toarray()[0, 1] == 0.0

    def test_rec_pair_item_graph_is_built_from_swapped_pairs(self):
        ds = generate_synthetic_dataset(40, 20, 4, 0.1, seed=3, interactions_per_user=4)
        _, item_task = ds.rec_pair()
        swapped = build_hypergraph([(i, u) for u, i in ds.train_edges], 20, 40)
        for name in ("incidence", "incidence_t", "incidence_by_edge_degree",
                     "incidence_t_by_node_degree"):
            got, want = getattr(item_task.graph, name), getattr(swapped, name)
            assert got.shape == want.shape
            for part in ("indptr", "indices", "data"):
                a, b = getattr(got, part), getattr(want, part)
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, part)
        for name in ("node_degrees", "hyperedge_degrees", "inv_node_degrees",
                     "inv_hyperedge_degrees", "incidence_keys"):
            assert np.array_equal(getattr(item_task.graph, name), getattr(swapped, name))

    def test_rec_pair_with_extra_edges(self):
        ds = InteractionDataset(2, 2, {(0, 0)}, {(1, 1)}, [])
        user_task, _ = ds.rec_pair_with([(1, 0)])
        assert user_task.graph.nnz == 2


def by_node(pairs) -> dict:
    out: dict = {}
    for v, e in pairs:
        out.setdefault(int(v), set()).add(int(e))
    return out


class DrawLog:
    """A generator that logs the size of every `integers` call it serves."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def integers(self, high, size):
        self.sizes.append(size)
        return self.rng.integers(high, size=size)


class TestSamplers:
    def test_negative_items_avoid_train(self):
        rng = np.random.default_rng(0)
        user_task, _ = build_recommendation_hypergraphs([(0, 0), (0, 1), (0, 2), (1, 3)], 2, 5)
        negs = sample_negative_items(rng, user_task, [0] * 200 + [1] * 200)
        assert set(negs[:200]) <= {3, 4}
        assert 3 not in set(negs[200:])

    def test_negative_items_exhausted(self):
        rng = np.random.default_rng(0)
        user_task, _ = build_recommendation_hypergraphs([(0, 0), (0, 1)], 1, 2)
        with pytest.raises(DataError, match=r"node 0 .*task 'rec'"):
            sample_negative_items(rng, user_task, [0])

    def test_item_negatives_match_set_oracle(self):
        ds = generate_synthetic_dataset(400, 200, 4, 0.05, seed=3, interactions_per_user=10)
        user_task, _ = ds.rec_pair()
        edges = sorted(ds.train_edges)
        users = np.random.default_rng(1).permutation([u for u, _ in edges])
        negs = sample_negative_items(np.random.default_rng(2), user_task, users)
        expected = oracles.sample_negative_items(
            np.random.default_rng(2), users, by_node(edges), ds.num_items
        )
        assert np.array_equal(negs, expected)

    def test_hyperedge_negatives_match_set_oracle(self):
        ds = generate_synthetic_dataset(400, 200, 4, 0.05, seed=3, interactions_per_user=10)
        task = next(t for t in ds.auxiliary_tasks if t.kind == TaskKind.RELATION_PREDICTION)
        inc = task.graph.incidence.toarray()
        nodes = task_positive_pairs(task)[:, 0]
        negs = sample_negative_hyperedges(np.random.default_rng(4), task, nodes)
        expected = oracles.sample_negative_items(
            np.random.default_rng(4), nodes, by_node(zip(*np.nonzero(inc))), inc.shape[1]
        )
        assert np.array_equal(negs, expected)

    def test_negative_hyperedges_avoid_incident(self):
        from taskhg.hypergraph import build_hypergraph
        from taskhg.tasks import TaskHypergraph

        graph = build_hypergraph([(0, 0), (0, 1), (1, 2)], 2, 3)
        task = TaskHypergraph("t", TaskKind.ATTRIBUTE_PREDICTION, NodeSide.ITEMS, graph)
        rng = np.random.default_rng(1)
        negs = sample_negative_hyperedges(rng, task, [0] * 100 + [1] * 100)
        assert set(negs[:100]) == {2}
        assert set(negs[100:]) <= {0, 1}

    def test_full_node_is_rejected_before_any_draw(self):
        graph = build_hypergraph([(0, 0), (1, 0), (1, 1)], 2, 2)
        task = TaskHypergraph("t", TaskKind.ATTRIBUTE_PREDICTION, NodeSide.ITEMS, graph)
        rng = np.random.default_rng(6)
        with pytest.raises(DataError, match=r"node 1 is incident to every hyperedge of task 't'"):
            sample_negative_hyperedges(rng, task, [0, 0, 1, 0])
        assert rng.integers(1 << 62) == np.random.default_rng(6).integers(1 << 62)

    @pytest.mark.parametrize("window", [None, 1, 10**6])
    @pytest.mark.parametrize(
        "case", ["m=2", "m=5", "degree m-1", "heavy node", "refill", "empty batch", "sweep"]
    )
    def test_draws_match_loop_oracle(self, monkeypatch, window, case):
        # The batched sampler must return the loop's negatives and leave the
        # generator where the loop leaves it, whatever the window size.
        if window is not None:
            monkeypatch.setattr(taskhg.data, "_WINDOW", window)
        meta = np.random.default_rng(17)
        for trial in range(40 if case == "sweep" else 1):
            if case == "sweep":
                n, m = int(meta.integers(1, 40)), int(meta.integers(1, 30))
                inc = meta.random((n, m)) < meta.random()
            elif case in ("degree m-1", "refill"):
                # Node 0 has a single non-incident hyperedge, nodes 1 to m - 1
                # one incidence each, and the last two nodes none.
                n, m = 12, 10
                inc = np.eye(n, m, dtype=bool)
                inc[0, :-1] = True
            elif case == "heavy node":
                # Node 0 holds 190 of 200 hyperedges, the others 5 each.
                n, m = 6, 200
                inc = np.zeros((n, m), dtype=bool)
                inc[0, meta.permutation(m)[:190]] = True
                inc[np.arange(1, n)[:, None], meta.integers(m, size=(n - 1, 5))] = True
            else:
                # An attribute task: every node has exactly one of m values.
                n, m = 30, int(case[2:]) if case.startswith("m=") else 3
                inc = np.eye(m, dtype=bool)[meta.integers(m, size=n)]
            graph = build_hypergraph(list(zip(*np.nonzero(inc))), n, m)
            task = TaskHypergraph("t", TaskKind.ATTRIBUTE_PREDICTION, NodeSide.ITEMS, graph)
            eligible = np.flatnonzero(inc.sum(axis=1) < m)
            if not len(eligible):
                continue
            size = 0 if case == "empty batch" else int(meta.integers(1, 700))
            nodes = meta.choice(eligible, size=size)
            if case == "heavy node":
                nodes[meta.random(size) < 0.9] = 0
            elif case == "refill":
                # Only the batch's last node can reject, and it rejects the
                # first buffer's last draw.
                nodes[:-1] = n - 1
                nodes[-1] = 0
            got_rng, want_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            log = DrawLog(got_rng)
            got = sample_negative_hyperedges(log, task, nodes)
            want = oracles.sample_negative_items(want_rng, nodes, by_node(zip(*np.nonzero(inc))), m)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert got_rng.integers(1 << 62) == want_rng.integers(1 << 62)
            if case == "refill":
                assert log.sizes[:2] == [size, 1]

    def test_positive_pairs_drop_saturated_nodes(self):
        from taskhg.hypergraph import build_hypergraph
        from taskhg.tasks import TaskHypergraph

        # node 0 touches both hyperedges: no negative exists for it.
        graph = build_hypergraph([(0, 0), (0, 1), (1, 0)], 2, 2)
        task = TaskHypergraph("t", TaskKind.ATTRIBUTE_PREDICTION, NodeSide.ITEMS, graph)
        pairs = task_positive_pairs(task)
        assert pairs.tolist() == [[1, 0]]

    def test_positive_pairs_empty_for_single_hyperedge(self):
        from taskhg.hypergraph import build_hypergraph
        from taskhg.tasks import TaskHypergraph

        graph = build_hypergraph([(0, 0), (1, 0)], 2, 1)
        task = TaskHypergraph("t", TaskKind.ATTRIBUTE_PREDICTION, NodeSide.ITEMS, graph)
        assert len(task_positive_pairs(task)) == 0


class TestSynthetic:
    def test_zero_noise_keeps_interactions_within_block(self):
        ds = generate_synthetic_dataset(40, 20, 4, noise=0.0, seed=3)
        item_block = np.arange(20) // 5
        user_block = np.arange(40) // 10
        for u, i in ds.train_edges | ds.test_edges:
            assert user_block[u] == item_block[i]

    def test_attribute_hyperedges_partition_items_into_blocks(self):
        ds = generate_synthetic_dataset(40, 20, 4, noise=0.1, seed=3)
        attr = next(t for t in ds.auxiliary_tasks if t.kind == TaskKind.ATTRIBUTE_PREDICTION)
        assert attr.graph.num_hyperedges == 4
        assert attr.graph.hyperedge_degrees.tolist() == [5, 5, 5, 5]
        assert attr.graph.node_degrees.tolist() == [1] * 20

    def test_interactions_per_user_near_target(self):
        ds = generate_synthetic_dataset(100, 50, 2, noise=0.05, seed=9,
                                        interactions_per_user=12)
        edges = ds.train_edges | ds.test_edges
        per_user = len(edges) / 100
        # Duplicates collapse, so the mean sits slightly under the target.
        assert 7.0 <= per_user <= 12.0

    def test_deterministic(self):
        a = generate_synthetic_dataset(20, 10, 2, 0.1, seed=5)
        b = generate_synthetic_dataset(20, 10, 2, 0.1, seed=5)
        assert a.train_edges == b.train_edges and a.test_edges == b.test_edges

    def test_blocks_must_divide(self):
        with pytest.raises(ValueError):
            generate_synthetic_dataset(10, 10, 3, 0.0, seed=0)

    def test_relation_task_connects_same_block_items(self):
        ds = generate_synthetic_dataset(20, 10, 2, 0.0, seed=1)
        rel = next(t for t in ds.auxiliary_tasks if t.kind == TaskKind.RELATION_PREDICTION)
        item_block = np.arange(10) // 5
        inc = rel.graph.incidence.toarray()
        for j in range(rel.graph.num_hyperedges):
            members = np.nonzero(inc[:, j])[0]
            assert len(set(item_block[members])) == 1
