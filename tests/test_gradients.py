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
)

import taskhg.gradients
from taskhg.config import LossKind, TAVariant, TrainConfig
from taskhg.gradients import (
    PretrainBatch,
    _scatter_rows,
    finetune_loss_and_grad,
    pretrain_loss_and_grad,
)
from taskhg.model import EmbeddingTable
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


@pytest.mark.parametrize(
    "loss_kind", [LossKind.ALIGNMENT, LossKind.BPR, LossKind.BPR_POS, LossKind.AU]
)
def test_pretrain_gradients_match_finite_differences(loss_kind):
    rng = np.random.default_rng(100 + hash(loss_kind.value) % 1000)
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
        loss, _, acts = pretrain_loss_and_grad(
            table, rec_u, rec_i, [], replace(cfg, pretrain_loss=kind), batch, {}
        )
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
