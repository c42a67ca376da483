import math

import numpy as np
from oracles import loop_ta_forward

from taskhg.config import TAVariant, TrainConfig
from taskhg.hypergraph import build_hypergraph, hypergraph_convolve
from taskhg.model import (
    EmbeddingTable,
    encode_auxiliary_task_traced,
    forward_pretrain,
    init_embeddings,
    ta_forward_traced,
)
from taskhg.tasks import (
    NodeSide,
    TaskHypergraph,
    TaskKind,
    build_recommendation_hypergraphs,
)


def rec_pair_from_edges(edges, num_users, num_items):
    return build_recommendation_hypergraphs(edges, num_users, num_items)


def random_rec_instance(rng, max_users=10, max_items=10, max_tasks=3, d=None):
    """Random dense-indexed instance where every user and item interacts."""
    n_u = int(rng.integers(1, max_users + 1))
    n_i = int(rng.integers(1, max_items + 1))
    d = d or int(rng.integers(1, 7))
    edges = {(u, int(rng.integers(n_i))) for u in range(n_u)}
    edges |= {(int(rng.integers(n_u)), i) for i in range(n_i)}
    extra = rng.random((n_u, n_i)) < 0.3
    edges |= {(u, i) for u, i in zip(*np.nonzero(extra))}
    edges = sorted((int(u), int(i)) for u, i in edges)
    user_task, item_task = rec_pair_from_edges(edges, n_u, n_i)
    n_tasks = int(rng.integers(0, max_tasks + 1))
    item_task_embs = [(f"t{k}", rng.normal(size=(n_i, d))) for k in range(n_tasks)]
    x = rng.normal(size=(n_u, d))
    return user_task, item_task, x, item_task_embs, d


def ta_forward(x, rec_task, task_embs, cfg, concat_weight=None):
    return ta_forward_traced(x, rec_task.graph, task_embs, cfg, concat_weight)[0]


def encode(task, table, layers):
    trace = encode_auxiliary_task_traced(task.graph, table.side_emb(task.side), layers)
    return trace.node_emb, trace.edge_emb


def one_edge_attention(edge_row, task_rows, gamma=1.0):
    """TA on one user and one item: the hyperedge embedding is `edge_row`."""
    user_task, _ = rec_pair_from_edges([(0, 0)], 1, 1)
    zs = [(tid, np.array([row], dtype=float)) for tid, row in task_rows]
    out, trace = ta_forward_traced(
        np.array([edge_row], dtype=float), user_task.graph, zs, TrainConfig(gamma=gamma)
    )
    return out[0], trace.layers[0]


class TestInit:
    def test_same_seed_identical(self):
        a = init_embeddings(5, 7, 8, seed=3)
        b = init_embeddings(5, 7, 8, seed=3)
        assert np.array_equal(a.user_emb, b.user_emb)
        assert np.array_equal(a.item_emb, b.item_emb)

    def test_different_seeds_differ(self):
        a = init_embeddings(5, 7, 8, seed=3)
        b = init_embeddings(5, 7, 8, seed=4)
        assert not np.array_equal(a.user_emb, b.user_emb)

    def test_scale_tracks_inverse_sqrt_dim(self):
        for dim in (4, 64):
            table = init_embeddings(400, 200, dim, seed=0)
            mean_abs = np.abs(np.vstack([table.user_emb, table.item_emb])).mean()
            expected = math.sqrt(2.0 / math.pi) / math.sqrt(dim)
            assert abs(mean_abs - expected) < 0.05 * expected + 0.01

    def test_finite(self):
        assert init_embeddings(10, 10, 4, seed=1).allfinite()


class TestEncoder:
    def test_trivial_task_is_identity(self):
        graph = build_hypergraph([(0, 0)], 1, 1)
        task = TaskHypergraph("t", TaskKind.RELATION_PREDICTION, NodeSide.ITEMS, graph)
        table = EmbeddingTable(np.zeros((1, 2)), np.array([[1.0, 2.0]]))
        node, edge = encode(task, table, layers=1)
        assert node.tolist() == [[1.0, 2.0]]
        assert edge.tolist() == [[1.0, 2.0]]

    def test_two_nodes_one_edge_mean(self):
        graph = build_hypergraph([(0, 0), (1, 0)], 2, 1)
        task = TaskHypergraph("t", TaskKind.RELATION_PREDICTION, NodeSide.ITEMS, graph)
        table = EmbeddingTable(np.zeros((1, 2)), np.array([[1.0, 0.0], [0.0, 1.0]]))
        node, edge = encode(task, table, layers=1)
        assert edge.tolist() == [[0.5, 0.5]]
        assert node.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_two_layers_equal_double_convolution(self):
        rng = np.random.default_rng(2)
        edges = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)]
        graph = build_hypergraph(edges, 4, 3)
        task = TaskHypergraph("t", TaskKind.RELATION_PREDICTION, NodeSide.USERS, graph)
        table = EmbeddingTable(rng.normal(size=(4, 3)), np.zeros((1, 3)))
        node, _ = encode(task, table, layers=2)
        expected = hypergraph_convolve(graph, hypergraph_convolve(graph, table.user_emb))
        assert np.array_equal(node, expected)


class TestTAPieces:
    def test_hyperedge_init_matches_mean(self):
        user_task, _ = rec_pair_from_edges([(0, 0), (1, 0), (2, 0)], 3, 1)
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        _, trace = ta_forward_traced(emb, user_task.graph, [], TrainConfig())
        assert np.allclose(trace.layers[0].eps, [[2 / 3, 2 / 3]])

    def test_attention_symmetry(self):
        _, layer = one_edge_attention([1.0, 2.0], [("a", [3.0, 1.0]), ("b", [3.0, 1.0])])
        assert np.allclose(layer.alpha, [[0.5, 0.5]])

    def test_attention_single_task(self):
        z = np.array([0.4, -0.2])
        _, layer = one_edge_attention([1.0, 2.0], [("a", z)])
        assert np.allclose(layer.alpha, [[1.0]])
        assert np.allclose(layer.a, [np.tanh(z)])

    def test_attention_analytic_two_tasks(self):
        _, layer = one_edge_attention([1.0], [("a", [1.0]), ("b", [-1.0])])
        alpha = layer.alpha[0]
        e, einv = math.exp(1.0), math.exp(-1.0)
        assert np.allclose(alpha, [e / (e + einv), einv / (e + einv)], atol=1e-12)
        assert abs(alpha[0] - 0.8808) < 1e-4 and abs(alpha[1] - 0.1192) < 1e-4

    def test_fuse(self):
        # On one user and one item the node update is the identity, so the
        # output is the fused hyperedge q = e + gamma * tanh(z).
        z = [0.5, -0.5]
        out, _ = one_edge_attention([1.0, 1.0], [("a", z)], gamma=0.5)
        assert np.allclose(out, [1.0, 1.0] + 0.5 * np.tanh(z), atol=1e-15)
        out, _ = one_edge_attention([1.0, 1.0], [("a", [0.0, 0.0])], gamma=9.0)
        assert out.tolist() == [1.0, 1.0]
        e = np.array([0.3, -0.7])
        out, _ = one_edge_attention(e, [("a", [1.0, 1.0])], gamma=0.0)
        assert np.array_equal(out, e)

    def test_node_update_matches_mean(self):
        # One user on two items: the user's output averages the two fused
        # hyperedges, which differ only in their task rows.
        user_task, _ = rec_pair_from_edges([(0, 0), (0, 1)], 1, 2)
        x = np.array([[0.2, -0.4]])
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = ta_forward(x, user_task, [("a", z)], TrainConfig(gamma=0.5))
        assert np.allclose(out, x + 0.5 * np.tanh(z).mean(axis=0), atol=1e-15)
        H = user_task.graph.incidence.toarray()
        assert np.allclose(out, loop_ta_forward(H, x, [z], 0.5), atol=1e-15)


class TestTAForward:
    def test_gamma_zero_reduces_to_convolution(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            user_task, _, x, task_embs, _ = random_rec_instance(rng)
            cfg = TrainConfig(gamma=0.0, ta_layers=1)
            out = ta_forward(x, user_task, task_embs, cfg)
            expected = hypergraph_convolve(user_task.graph, x)
            assert np.allclose(out, expected, rtol=1e-12, atol=1e-15)

    def test_unrolled_one_by_one_graph(self):
        user_task, _ = rec_pair_from_edges([(0, 0)], 1, 1)
        e_u = np.array([[0.3, -0.5]])
        z = np.array([[1.2, 0.4]])
        gamma = 0.7
        out = ta_forward(e_u, user_task, [("t", z)], TrainConfig(gamma=gamma))
        assert np.allclose(out, e_u + gamma * np.tanh(z), atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            user_task, _, x, task_embs, _ = random_rec_instance(rng)
            layers = int(rng.integers(1, 3))
            cfg = TrainConfig(gamma=float(rng.uniform(0, 2)), ta_layers=layers)
            out = ta_forward(x, user_task, task_embs, cfg)
            H = user_task.graph.incidence.toarray()
            expected = loop_ta_forward(H, x, [z for _, z in task_embs], cfg.gamma, layers)
            assert np.allclose(out, expected, rtol=1e-12, atol=1e-13)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        user_task, _, x, task_embs, _ = random_rec_instance(rng, max_tasks=3)
        while not task_embs:
            user_task, _, x, task_embs, _ = random_rec_instance(rng, max_tasks=3)
        _, trace = ta_forward_traced(x, user_task.graph, task_embs, TrainConfig(ta_layers=2))
        assert trace.attention
        for alpha in trace.attention:
            assert np.all(alpha >= 0)
            assert np.abs(alpha.sum(axis=1) - 1.0).max() <= 1e-12

    def test_bounded_transition(self):
        rng = np.random.default_rng(8)
        gamma = 1.3
        user_task, _, x, task_embs, _ = random_rec_instance(rng, max_tasks=3)
        while not task_embs:
            user_task, _, x, task_embs, _ = random_rec_instance(rng, max_tasks=3)
        _, trace = ta_forward_traced(x, user_task.graph, task_embs, TrainConfig(gamma=gamma))
        for layer in trace.layers:
            q = layer.eps + gamma * layer.a
            assert np.abs(q - layer.eps).max() <= gamma + 1e-15

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        edges = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 0)]
        user_task, _ = rec_pair_from_edges(edges, 4, 2)
        x = rng.normal(size=(4, 3))
        zs = [("t0", rng.normal(size=(2, 3)))]
        cfg = TrainConfig(gamma=0.8)
        out = ta_forward(x, user_task, zs, cfg)
        perm = np.array([2, 0, 3, 1])  # new index of each old node
        edges_p = [(int(perm[u]), i) for u, i in edges]
        user_task_p, _ = rec_pair_from_edges(edges_p, 4, 2)
        x_p = np.empty_like(x)
        x_p[perm] = x
        out_p = ta_forward(x_p, user_task_p, zs, cfg)
        assert np.allclose(out_p[perm], out, rtol=1e-12, atol=1e-14)

    def test_no_opposite_tasks_degrades_to_convolution(self):
        rng = np.random.default_rng(4)
        user_task, _, x, _, _ = random_rec_instance(rng, max_tasks=0)
        out = ta_forward(x, user_task, [], TrainConfig(gamma=2.0))
        assert np.array_equal(out, hypergraph_convolve(user_task.graph, x))

    def test_sum_variant_uses_unweighted_mean(self):
        user_task, _ = rec_pair_from_edges([(0, 0)], 1, 1)
        e_u = np.array([[0.5, 0.5]])
        z1 = np.array([[1.0, 0.0]])
        z2 = np.array([[0.0, 1.0]])
        cfg = TrainConfig(gamma=1.0, ta_variant=TAVariant.SUM)
        out = ta_forward(e_u, user_task, [("a", z1), ("b", z2)], cfg)
        expected = e_u + np.tanh((z1 + z2) / 2.0)
        assert np.allclose(out, expected, atol=1e-15)

    def test_concat_variant_applies_linear_head(self):
        user_task, _ = rec_pair_from_edges([(0, 0)], 1, 1)
        e_u = np.array([[0.5, -0.5]])
        z1 = np.array([[1.0, 0.0]])
        z2 = np.array([[0.0, 2.0]])
        w = np.arange(8.0).reshape(4, 2) / 10.0
        cfg = TrainConfig(gamma=0.5, ta_variant=TAVariant.CONCAT)
        out = ta_forward(e_u, user_task, [("a", z1), ("b", z2)], cfg, concat_weight=w)
        stacked = np.concatenate([z1, z2], axis=1)
        expected = e_u + 0.5 * np.tanh(stacked @ w)
        assert np.allclose(out, expected, atol=1e-15)


class TestForwardPretrain:
    def test_shapes_and_attention_bookkeeping(self):
        rng = np.random.default_rng(31)
        edges = [(u, int(rng.integers(4))) for u in range(6)] + [(0, 3), (1, 2)]
        user_task, item_task = rec_pair_from_edges(edges, 6, 4)
        from taskhg.hypergraph import build_hypergraph as bh

        item_aux = TaskHypergraph(
            "cat", TaskKind.ATTRIBUTE_PREDICTION, NodeSide.ITEMS,
            bh([(0, 0), (1, 0), (2, 1), (3, 1)], 4, 2),
        )
        user_aux = TaskHypergraph(
            "grp", TaskKind.RELATION_PREDICTION, NodeSide.USERS,
            bh([(0, 0), (1, 0), (4, 1), (5, 1)], 6, 2),
        )
        table = EmbeddingTable(rng.normal(size=(6, 5)), rng.normal(size=(4, 5)))
        acts = forward_pretrain(table, user_task, item_task, [item_aux, user_aux], TrainConfig())
        assert acts.ta_user_out.shape == (6, 5)
        assert acts.ta_item_out.shape == (4, 5)
        assert set(acts.encoder_traces) == {"cat", "grp"}
        assert acts.encoder_traces["cat"].edge_emb.shape == (2, 5)
        assert acts.ta_user_trace.task_ids == ["cat"]
        assert acts.ta_item_trace.task_ids == ["grp"]
        assert len(acts.attention_arrays()) == 2

