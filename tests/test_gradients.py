import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from instances import make_joint_instance
from oracles import (
    alignment_loss,
    assert_grad_close,
    au_loss,
    bpr_loss,
    bpr_pos_loss,
    central_difference_grad,
    l2_terms,
    out_of_place_convolve,
    out_of_place_reverse,
)

import taskhg.gradients
from taskhg.config import LossKind, TAVariant, TrainConfig
from taskhg.data import (
    generate_synthetic_dataset,
    sample_negative_hyperedges,
    sample_negative_items,
    task_positive_pairs,
)
from taskhg.gradients import (
    BatchRows,
    PretrainBatch,
    _final_rows,
    _reverse,
    _scatter_rows,
    finetune_loss_and_grad,
    pretrain_loss_and_grad,
)
from taskhg.hypergraph import build_hypergraph
from taskhg.model import (
    EmbeddingTable,
    TATrace,
    forward_pretrain,
    init_embeddings,
    ta_forward_traced,
)
from taskhg.tasks import NodeSide, build_recommendation_hypergraphs


def check_pretrain_instance(table, rec_u, rec_i, aux, cfg, batch, extra):
    _, grads, _ = pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, batch, extra)
    assert list(grads) == ["user", "item", *extra]

    def loss():
        return pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, batch, extra)[0]

    params = {"user": table.user_emb, "item": table.item_emb, **extra}
    for name, param in params.items():
        num = central_difference_grad(loss, param)
        assert_grad_close(grads[name], num, context=name)


# One fixed seed per loss kind, so every run checks the same instances.
FINITE_DIFFERENCE_SEEDS = {
    LossKind.ALIGNMENT: 101,
    LossKind.BPR: 102,
    LossKind.BPR_POS: 103,
    LossKind.AU: 104,
}


@pytest.mark.parametrize("loss_kind", list(FINITE_DIFFERENCE_SEEDS))
def test_pretrain_gradients_match_finite_differences(loss_kind):
    rng = np.random.default_rng(FINITE_DIFFERENCE_SEEDS[loss_kind])
    for _ in range(4):
        inst = make_joint_instance(rng, loss=loss_kind)
        check_pretrain_instance(*inst)


@pytest.mark.parametrize("variant", [TAVariant.NO_TA, TAVariant.SUM, TAVariant.CONCAT])
def test_pretrain_gradients_ta_variants(variant):
    rng = np.random.default_rng(7)
    for _ in range(3):
        inst = make_joint_instance(rng, loss=LossKind.ALIGNMENT, variant=variant, min_tasks=1)
        check_pretrain_instance(*inst)


def test_pretrain_gradients_multi_layer():
    rng = np.random.default_rng(11)
    for _ in range(3):
        inst = make_joint_instance(rng, loss=LossKind.BPR, ta_layers=2, aux_layers=2)
        check_pretrain_instance(*inst)


def test_pretrain_gradients_concat_multi_layer():
    rng = np.random.default_rng(19)
    inst = make_joint_instance(
        rng, loss=LossKind.BPR_POS, variant=TAVariant.CONCAT, ta_layers=2, min_tasks=1
    )
    check_pretrain_instance(*inst)


def test_au_gradient_with_single_pair_batch():
    # One pair: both uniformity sets have a single row, so only the
    # normalized alignment path carries gradient.
    rng = np.random.default_rng(29)
    table, rec_u, rec_i, aux, cfg, batch, extra = make_joint_instance(
        rng, loss=LossKind.AU, max_tasks=0
    )
    single = PretrainBatch(batch.rec_users[:1], batch.rec_pos_items[:1])
    _, grads, _ = pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, single, extra)

    def loss():
        return pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, single, extra)[0]

    assert_grad_close(grads["user"], central_difference_grad(loss, table.user_emb))
    assert_grad_close(grads["item"], central_difference_grad(loss, table.item_emb))


def test_pretrain_gradients_non_unified_attributes():
    rng = np.random.default_rng(13)
    found = 0
    while found < 3:
        inst = make_joint_instance(rng, loss=LossKind.ALIGNMENT, unified=False, min_tasks=1)
        if inst[6] and any(k.startswith("attr_head:") for k in inst[6]):
            check_pretrain_instance(*inst)
            found += 1


@pytest.mark.parametrize(
    "loss_kind", [LossKind.ALIGNMENT, LossKind.BPR, LossKind.BPR_POS, LossKind.AU]
)
def test_finetune_gradients_match_finite_differences(loss_kind):
    rng = np.random.default_rng(5)
    for _ in range(3):
        table, rec_u, rec_i, _, cfg, batch, _ = make_joint_instance(rng, loss=loss_kind)
        _, grads, _ = finetune_loss_and_grad(
            table, rec_u, rec_i, cfg, batch.rec_users, batch.rec_pos_items, batch.rec_neg_items
        )

        def loss():
            return finetune_loss_and_grad(
                table, rec_u, rec_i, cfg,
                batch.rec_users, batch.rec_pos_items, batch.rec_neg_items,
            )[0]

        assert list(grads) == ["user", "item"]
        assert_grad_close(grads["user"], central_difference_grad(loss, table.user_emb))
        assert_grad_close(grads["item"], central_difference_grad(loss, table.item_emb))


def one_by_one_instance(e_u, e_i, beta=1.0, lam=0.0, gamma=0.0):
    rec_u, rec_i = build_recommendation_hypergraphs([(0, 0)], 1, 1)
    table = EmbeddingTable(np.array([e_u]), np.array([e_i]))
    cfg = TrainConfig(dim=len(e_u), gamma=gamma, beta=beta, lambda_reg=lam,
                      pretrain_loss=LossKind.ALIGNMENT)
    batch = PretrainBatch(np.array([0]), np.array([0]))
    return table, rec_u, rec_i, cfg, batch


def test_one_by_one_alignment_gradient_is_hand_expression():
    # gamma=0 turns TA into the identity on a 1x1 graph, so the chain rule
    # collapses to the plain alignment gradient 2(e_u - e_i).
    e_u, e_i = [0.4, -1.0], [1.1, 0.5]
    table, rec_u, rec_i, cfg, batch = one_by_one_instance(e_u, e_i)
    _, grads, _ = pretrain_loss_and_grad(table, rec_u, rec_i, [], cfg, batch)
    expected = 2.0 * (np.array(e_u) - np.array(e_i))
    assert np.allclose(grads["user"][0], expected, atol=1e-14)
    assert np.allclose(grads["item"][0], -expected, atol=1e-14)


def test_zero_loss_leaves_only_regularizer_gradient():
    e = [0.3, 0.9]
    table, rec_u, rec_i, cfg, batch = one_by_one_instance(e, list(e), lam=0.05)
    loss, grads, _ = pretrain_loss_and_grad(table, rec_u, rec_i, [], cfg, batch)
    reg = 0.05 * 2 * (np.array(e) ** 2).sum()
    assert loss == pytest.approx(reg)
    assert np.allclose(grads["user"], 0.05 * 2.0 * table.user_emb)
    assert np.allclose(grads["item"], 0.05 * 2.0 * table.item_emb)


def test_beta_one_isolates_auxiliary_loss_term(monkeypatch):
    rng = np.random.default_rng(23)
    table, rec_u, rec_i, aux, cfg, batch, extra = make_joint_instance(
        rng, loss=LossKind.ALIGNMENT, min_tasks=1
    )
    cfg = replace(cfg, beta=1.0, lambda_reg=0.0)
    loss_full, grads_full, _ = pretrain_loss_and_grad(
        table, rec_u, rec_i, aux, cfg, batch, extra
    )
    empty_batch = PretrainBatch(batch.rec_users, batch.rec_pos_items, batch.rec_neg_items)
    loss_rec, grads_rec, _ = pretrain_loss_and_grad(
        table, rec_u, rec_i, aux, cfg, empty_batch, extra
    )
    # The auxiliary loss term contributes nothing at beta=1...
    assert loss_full == pytest.approx(loss_rec)
    for name in ("user", "item"):
        assert np.allclose(grads_full[name], grads_rec[name], atol=1e-15)
    # ...while the TA layer still routes auxiliary features forward: the
    # encoders receive gradient through the opposite side's attention path.
    # Cutting that path changes the gradient of the side holding the tasks.
    assert cfg.gamma > 0
    sides = {"user" if t.side == NodeSide.USERS else "item" for t in aux}
    assert sides

    def no_encoder_path(trace, g_node, g_edge=None):
        return np.zeros((trace.graph.num_nodes, g_node.shape[1]))

    monkeypatch.setattr(taskhg.gradients, "encoder_backward", no_encoder_path)
    _, grads_cut, _ = pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, empty_batch, extra)
    for name in ("user", "item"):
        changed = not np.allclose(grads_cut[name], grads_rec[name], rtol=0.0, atol=1e-12)
        assert changed == (name in sides), name


def test_loss_values_match_spec_loss_functions():
    # Every trained recommendation loss equals its independent scalar oracle
    # (batch mean; AU uniformity over the batch's unique rows).
    rng = np.random.default_rng(31)
    table, rec_u, rec_i, aux, cfg, batch, extra = make_joint_instance(
        rng, loss=LossKind.BPR, max_tasks=0
    )
    cfg = replace(cfg, beta=1.0, lambda_reg=0.0)
    # A batch that leaves rows out, so the batch's unique rows are not all rows.
    users, pos, neg = batch.rec_users[:4], batch.rec_pos_items[:4], batch.rec_neg_items[:4]
    assert len(set(users)) < table.num_users and len(set(pos)) < table.num_items
    batch = PretrainBatch(users, pos, neg)
    oracles = {
        LossKind.ALIGNMENT: lambda u, i: alignment_loss(u, i, users, pos),
        LossKind.BPR: lambda u, i: bpr_loss(u, i, users, pos, neg),
        LossKind.BPR_POS: lambda u, i: bpr_pos_loss(u, i, users, pos),
        LossKind.AU: lambda u, i: au_loss(u, i, users, pos, cfg.uniformity_weight),
    }
    assert set(oracles) == set(LossKind)
    for kind, oracle in oracles.items():
        step_cfg = replace(cfg, pretrain_loss=kind)
        loss = pretrain_loss_and_grad(table, rec_u, rec_i, [], step_cfg, batch, {})[0]
        # The step drops the TA outputs once the loss has read them.
        acts = forward_pretrain(table, rec_u, rec_i, [], step_cfg)
        expected = oracle(acts.ta_user_trace.node_emb, acts.ta_item_trace.node_emb)
        assert loss == pytest.approx(expected, rel=1e-12), kind


def test_bpr_requires_negatives():
    rng = np.random.default_rng(33)
    table, rec_u, rec_i, aux, cfg, batch, extra = make_joint_instance(
        rng, loss=LossKind.BPR, max_tasks=0
    )
    bad = PretrainBatch(batch.rec_users, batch.rec_pos_items, None)
    with pytest.raises(ValueError):
        pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, bad, extra)


def add_at(num_rows, *parts):
    out = np.zeros((num_rows, parts[0][1].shape[1]))
    for index, rows in parts:
        np.add.at(out, index, rows)
    return out


@pytest.mark.parametrize("seed", range(20))
def test_scatter_rows_is_bit_identical_to_add_at(seed):
    # Few target rows and a wide spread of magnitudes: most rows sum many
    # terms, so any change in their order changes the rounding. The last
    # rows receive nothing.
    rng = np.random.default_rng(seed)
    num_rows = int(rng.integers(3, 12))
    b = int(rng.integers(1, 400))
    d = int(rng.integers(1, 9))
    pos = rng.integers(0, num_rows - 2, b)
    neg = rng.integers(0, num_rows - 2, b)
    rows = rng.normal(size=(b, d)) * 10.0 ** rng.integers(-8, 9, (b, 1))
    got = _scatter_rows(num_rows, pos, rows)
    assert got.shape == (num_rows, d)
    assert got.tobytes() == add_at(num_rows, (pos, rows)).tobytes()
    # bpr_grad's item side: each row adds its positive terms, then its negative ones.
    got = _scatter_rows(num_rows, np.concatenate([pos, neg]), np.concatenate([rows, -rows]))
    assert got.tobytes() == add_at(num_rows, (pos, rows), (neg, -rows)).tobytes()


@pytest.mark.parametrize("stage", ["pretrain", "finetune"])
def test_l2_term_is_bit_identical_to_out_of_place_expressions(stage):
    # Both losses with lambda_reg = 0 plus the L2 terms written out of
    # place must give, byte for byte, the losses with lambda_reg > 0.
    rng = np.random.default_rng(41)
    for _ in range(4):
        table, rec_u, rec_i, aux, cfg, batch, extra = make_joint_instance(rng, loss=LossKind.BPR)
        cfg = replace(cfg, lambda_reg=float(rng.uniform(1e-4, 0.1)))

        def run(config):
            if stage == "pretrain":
                return pretrain_loss_and_grad(table, rec_u, rec_i, aux, config, batch, extra)
            return finetune_loss_and_grad(
                table, rec_u, rec_i, config,
                batch.rec_users, batch.rec_pos_items, batch.rec_neg_items,
            )

        loss, grads, _ = run(cfg)
        base_loss, base, _ = run(replace(cfg, lambda_reg=0.0))
        reg, g_user, g_item = l2_terms(table.user_emb, table.item_emb, cfg.lambda_reg)
        assert np.float64(loss).tobytes() == np.float64(base_loss + cfg.lambda_reg * reg).tobytes()
        assert grads["user"].tobytes() == (base["user"] + g_user).tobytes()
        assert grads["item"].tobytes() == (base["item"] + g_item).tobytes()


def optional_bytes(a):
    return None if a is None else a.tobytes()


def assert_same_reverse(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert list(got[1]) == list(want[1])
    for tid, g_z in want[1].items():
        assert got[1][tid].tobytes() == g_z.tobytes(), tid
    assert optional_bytes(got[2]) == optional_bytes(want[2])


def row_sparse_gradient(rng, num_rows, d):
    """The loss gradient of 1-3 batch pairs: repeated rows summed, or, as
    `au` gives them, distinct ascending rows."""
    index = rng.integers(num_rows, size=int(rng.integers(1, 4)))
    unique = bool(rng.random() < 0.5)
    if unique:
        index = np.unique(index)
    return BatchRows(num_rows, index, rng.normal(size=(len(index), d)), unique)


def assert_restricted_forward(trace, ref, nodes):
    """A stack whose final layer ran on `nodes`: its output is the oracle's
    rows at `nodes`; the final layer's arrays are the oracle's rows at the
    hyperedges they reach, or all of them with every hyperedge, and every
    other layer's are its own."""
    rows = trace.restriction
    graph = trace.graph
    assert rows.nodes.tolist() == nodes.tolist()
    edges = slice(None)
    if rows.edges is not None:
        edges = rows.edges
        assert edges.tolist() == sorted(set(graph.incidence[nodes].indices.tolist()))
    assert trace.node_emb.tobytes() == ref.node_emb[nodes].tobytes()
    *inner, final = zip(trace.layers, ref.layers)
    for layer, ref_layer in inner:
        assert optional_bytes(layer.eps) == (ref_layer.eps.tobytes() if trace.attends else None)
        for name in ("alpha", "a"):
            assert optional_bytes(getattr(layer, name)) == optional_bytes(getattr(ref_layer, name))
    layer, ref_layer = final
    for name in ("eps", "alpha", "a"):
        want = getattr(ref_layer, name)
        want = None if want is None else want[edges]
        assert optional_bytes(getattr(layer, name)) == optional_bytes(want), name


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("variant", list(TAVariant), ids=lambda v: v.value)
def test_ta_stack_is_byte_identical_to_the_out_of_place_oracle(variant, layers):
    # The in-place forward and reverse against the fresh-array one, on both
    # recommendation sides, 0-3 attended tasks (0 is the encoder), a gamma
    # other than 1, and with and without a gradient on the final edges.
    # A row-sparse loss gradient, scaled, goes through the final layer run
    # on a few rows (its own and others) in both passes: with every
    # hyperedge, also with a gradient on the final edges, and, where the
    # stack attends with `full` or `sum`, with the hyperedges they reach.
    rng = np.random.default_rng([17, list(TAVariant).index(variant), layers])
    for _ in range(4):
        table, rec_u, rec_i, _, cfg, _, _ = make_joint_instance(rng, max_tasks=0)
        cfg = replace(cfg, gamma=float(rng.uniform(0.3, 0.9)), ta_variant=variant,
                      ta_layers=layers)
        for graph, x in ((rec_u.graph, table.user_emb), (rec_i.graph, table.item_emb)):
            d = x.shape[1]
            for n_tasks in range(4):
                opposite = [(f"t{k}", rng.normal(size=(graph.num_hyperedges, d)))
                            for k in range(n_tasks)]
                weight = rng.normal(size=(n_tasks * d, d)) if n_tasks else None
                trace = ta_forward_traced(x, graph, opposite, cfg, weight)
                ref = TATrace(graph, cfg.gamma, variant, [t for t, _ in opposite],
                              [z for _, z in opposite], concat_weight=trace.concat_weight)
                out_of_place_convolve(ref, x, layers)
                assert trace.node_emb.tobytes() == ref.node_emb.tobytes()
                for k, (layer, ref_layer) in enumerate(zip(trace.layers, ref.layers)):
                    kept = trace.attends or k == layers - 1
                    assert optional_bytes(layer.eps) == (ref_layer.eps.tobytes() if kept else None)
                    assert optional_bytes(layer.alpha) == optional_bytes(ref_layer.alpha)
                    assert optional_bytes(layer.a) == optional_bytes(ref_layer.a)
                g_out = rng.normal(size=x.shape)
                g_edge = rng.normal(size=(graph.num_hyperedges, d))
                for edge in (None, g_edge):
                    got = _reverse(trace, g_out.copy(), None if edge is None else edge.copy())
                    assert_same_reverse(got, out_of_place_reverse(ref, g_out, edge))
                loss_rows = row_sparse_gradient(rng, len(x), d)
                scale = float(rng.uniform(0.1, 0.9))
                want = out_of_place_reverse(ref, scale * loss_rows.dense())
                assert_same_reverse(_reverse(trace, loss_rows, scale=scale), want)
                want_edge = out_of_place_reverse(ref, scale * loss_rows.dense(), g_edge)
                nodes = np.unique(np.append(loss_rows.index, rng.integers(len(x), size=2)))
                index = np.searchsorted(nodes, loss_rows.index)
                loss_rows = loss_rows._replace(num_rows=len(nodes), index=index)
                may_reach = trace.attends and variant in (TAVariant.FULL, TAVariant.SUM)
                for reached in (False, True) if may_reach else (False,):
                    trace = ta_forward_traced(x, graph, opposite, cfg, weight, (nodes, reached))
                    assert_restricted_forward(trace, ref, nodes)
                    assert_same_reverse(_reverse(trace, loss_rows, scale=scale), want)
                    if not reached:  # node rows keep every hyperedge
                        got = _reverse(trace, loss_rows, g_edge.copy(), scale)
                        assert_same_reverse(got, want_edge)


def test_final_rows_take_the_reached_side_then_node_rows_then_dense():
    # 12 nodes of degree 2 over 8 hyperedges: 24 incidences, so up to 4
    # nodes reach few hyperedges and up to 4 hold a third of them.
    h = build_hypergraph([(v, e) for v in range(12) for e in (v % 8, (v + 1) % 8)], 12, 8)
    for count, may_reach, want in [
        (4, True, "reached"), (4, False, "node rows"), (5, True, "dense"), (12, True, "dense")
    ]:
        index = np.repeat(np.arange(count), 2)[::-1]
        rows = _final_rows(h, index, may_reach)
        path = "dense" if rows is None else "reached" if rows[1] else "node rows"
        assert path == want, (count, may_reach)
        assert rows is None or rows[0].tolist() == list(range(count))


@pytest.fixture(scope="module")
def synthetic_step():
    """A 2000 x 1000 synthetic set (dim 64) and one 256-pair batch of each kind."""
    ds = generate_synthetic_dataset(2000, 1000, 20, 0.05, 3, interactions_per_user=5)
    rec_u, rec_i = ds.rec_pair()
    table = init_embeddings(ds.num_users, ds.num_items, 64, 3)
    rng = np.random.default_rng(3)
    pairs = rec_u.graph.memberships()
    take = pairs[rng.permutation(len(pairs))[:256]]
    users, items = take[:, 0], take[:, 1]
    negs = sample_negative_items(rng, rec_u, users)
    batch = PretrainBatch(users, items)
    for task in ds.auxiliary_tasks:
        task_pairs = task_positive_pairs(task)
        chunk = task_pairs[rng.permutation(len(task_pairs))[:256]]
        negatives = sample_negative_hyperedges(rng, task, chunk[:, 0])
        batch.aux_bpr[task.task_id] = (chunk[:, 0], chunk[:, 1], negatives)
    return table, rec_u, rec_i, ds.auxiliary_tasks, batch, negs


def peak_in_tables(table, step):
    """tracemalloc peak of `step()` above its start, in units of the two
    tables' bytes; the step runs once before, so caches are warm."""
    step()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / (table.user_emb.nbytes + table.item_emb.nbytes)


# Measured peaks on the serial schedule: pretrain 5.7 table sizes for both
# losses (9.0 when every step array lived until the step returned) and
# finetune 2.4 (4.7). The bounds leave about 0.7 table sizes for library
# changes; holding both sides' outputs of a stage past their last reader
# (one table size) fails them.
@pytest.mark.parametrize("stage, loss, bound", [
    ("pretrain", LossKind.ALIGNMENT, 6.5),
    ("pretrain", LossKind.AU, 6.5),
    ("finetune", LossKind.BPR, 3.0),
], ids=["pretrain-align", "pretrain-au", "finetune-bpr"])
def test_step_peak_memory_is_bounded_in_table_sizes(synthetic_step, stage, loss, bound):
    table, rec_u, rec_i, aux, batch, negs = synthetic_step
    cfg = TrainConfig(dim=64, seed=3, pretrain_loss=loss, finetune_loss=loss)
    if stage == "pretrain":
        peak = peak_in_tables(
            table, lambda: pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, batch)
        )
    else:
        peak = peak_in_tables(table, lambda: finetune_loss_and_grad(
            table, rec_u, rec_i, cfg, batch.rec_users, batch.rec_pos_items, negs
        ))
    assert peak <= bound, f"{stage} step peaked at {peak:.2f} table sizes"
