import math
from dataclasses import fields

import numpy as np
import pytest

import taskhg.gradients
import taskhg.schedule
import taskhg.train
from taskhg.config import LossKind, TAVariant, TrainConfig
from taskhg.data import InteractionDataset, generate_synthetic_dataset
from taskhg.errors import DataError, DivergenceError
from taskhg.evaluate import evaluate
from taskhg.model import init_embeddings
from taskhg.train import finetune, pretrain


@pytest.fixture(scope="module")
def small_dataset():
    return generate_synthetic_dataset(40, 20, 4, noise=0.1, seed=11,
                                      interactions_per_user=6)


def small_config(**overrides):
    base = dict(dim=8, epochs_pretrain=5, epochs_finetune=5, batch_size=64, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


class TestConfig:
    def test_defaults_are_valid(self):
        assert TrainConfig().validate() == TrainConfig()

    @pytest.mark.parametrize("field, value", [
        ("gamma", math.inf),
        ("gamma", -0.5),
        ("beta", math.nan),
        ("lambda_reg", -5.0),
        ("lr", 0.0),
        ("lr", -1.0),
        ("uniformity_weight", math.nan),
        ("epochs_finetune", -1),
        ("batch_size", 0),
        ("negatives_per_positive", 0),
        ("aux_encoder_layers", 0),
        ("dim", 0),
        ("seed", 2**63),
        ("eval_ks", (5, 5)),
        ("eval_ks", (2.5,)),
        ("eval_ks", (True, 2)),
    ])
    def test_out_of_range_value_is_named(self, field, value):
        with pytest.raises(ValueError, match=field) as info:
            TrainConfig(**{field: value}).validate()
        assert str(value) in str(info.value)

    @pytest.mark.parametrize("field, value", [
        ("dim", 2.5),
        ("batch_size", 16.0),
        ("ta_layers", 1.5),
        ("seed", np.float64(3.0)),
        ("epochs_pretrain", True),
        ("gamma", "1"),
        ("beta", False),
        ("pretrain_loss", "align"),
        ("finetune_loss", "bpr"),
        ("ta_variant", "full"),
        ("unified_attributes", "no"),
    ])
    def test_value_of_the_wrong_type_is_named(self, field, value):
        # Each of these would otherwise fail mid-run, or train silently
        # (one epoch for True).
        with pytest.raises(ValueError, match=field) as info:
            TrainConfig(**{field: value}).validate()
        assert repr(value) in str(info.value)

    def test_numpy_numbers_hash_as_python_ones(self):
        cfg = TrainConfig(dim=np.int64(64), seed=np.int32(0),
                          eval_ks=(np.int64(10), np.int64(20)), gamma=np.float32(0.5))
        assert cfg.validate().fingerprint() == TrainConfig(gamma=0.5).fingerprint()

    def test_fingerprint_still_hashes_the_adam_constants(self):
        # The default digest of the configuration that held Adam's three
        # constants as fields, so every checkpoint byte stays the same.
        assert not [f for f in fields(TrainConfig) if f.name.startswith("adam")]
        assert TrainConfig().fingerprint() == (
            "4a817c16423e19da393ee3980581eb3e75b5142517552f08e310c6e01bae2e39"
        )


class TestPretrain:
    def test_zero_epochs_returns_initialized_table(self, small_dataset):
        from taskhg.model import init_embeddings

        cfg = small_config(epochs_pretrain=0)
        result = pretrain(small_dataset, cfg)
        expected = init_embeddings(40, 20, cfg.dim, cfg.seed)
        assert np.array_equal(result.table.user_emb, expected.user_emb)
        assert np.array_equal(result.table.item_emb, expected.item_emb)

    def test_loss_decreases_over_early_epochs(self, small_dataset):
        cfg = small_config(epochs_pretrain=10)
        result = pretrain(small_dataset, cfg)
        losses = result.log.epoch_losses
        assert len(losses) == 10
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_deterministic(self, small_dataset):
        a = pretrain(small_dataset, small_config())
        b = pretrain(small_dataset, small_config())
        assert np.array_equal(a.table.user_emb, b.table.user_emb)
        assert np.array_equal(a.table.item_emb, b.table.item_emb)
        assert a.log.epoch_losses == b.log.epoch_losses

    def test_attention_audit_collects_normalized_vectors(self, small_dataset):
        result = pretrain(small_dataset, small_config(epochs_pretrain=2))
        audit = result.log.attention
        assert audit.vectors_seen > 0
        assert audit.min_weight >= 0.0
        assert audit.max_sum_deviation <= 1e-12

    def test_pretrain_loss_variants_run(self, small_dataset):
        for loss in (LossKind.BPR, LossKind.BPR_POS, LossKind.AU):
            result = pretrain(small_dataset, small_config(epochs_pretrain=2,
                                                          pretrain_loss=loss))
            assert np.isfinite(result.log.epoch_losses).all()

    def test_ta_variants_run(self, small_dataset):
        for variant in TAVariant:
            result = pretrain(small_dataset, small_config(epochs_pretrain=2,
                                                          ta_variant=variant))
            assert result.table.allfinite()

    def test_multi_layer_stacks_run(self, small_dataset):
        cfg = small_config(epochs_pretrain=3, ta_layers=2, aux_encoder_layers=2)
        result = pretrain(small_dataset, cfg)
        assert result.table.allfinite()
        assert result.log.attention.vectors_seen > 0
        fine = finetune(result.table, small_dataset, cfg)
        assert fine.table.allfinite()

    @pytest.mark.parametrize("overrides", [
        dict(beta=0.0),
        dict(beta=1.0),
        dict(gamma=0.0, lambda_reg=0.0),
        dict(pretrain_loss=LossKind.BPR, negatives_per_positive=3),
        dict(ta_variant=TAVariant.CONCAT, unified_attributes=False),
        dict(batch_size=16),
    ])
    def test_legal_config_corners_run(self, small_dataset, overrides):
        cfg = small_config(epochs_pretrain=2, epochs_finetune=2, **overrides)
        result = pretrain(small_dataset, cfg)
        fine = finetune(result.table, small_dataset, cfg)
        assert fine.table.allfinite()
        report = evaluate(fine.table, small_dataset, ks=(5,))
        assert 0.0 <= report.rows[0].recall[5] <= 1.0

    def test_non_unified_attributes_run(self, small_dataset):
        cfg = small_config(epochs_pretrain=2, unified_attributes=False)
        result = pretrain(small_dataset, cfg)
        assert any(k.startswith("attr_head:") for k in result.extra_params)
        assert result.table.allfinite()

    def test_no_ta_equals_gamma_zero_end_to_end(self, small_dataset):
        cfg_nota = small_config(ta_variant=TAVariant.NO_TA)
        cfg_g0 = small_config(gamma=0.0)
        a = pretrain(small_dataset, cfg_nota)
        b = pretrain(small_dataset, cfg_g0)
        assert np.array_equal(a.table.user_emb, b.table.user_emb)
        assert np.array_equal(a.table.item_emb, b.table.item_emb)

    def test_user_side_task_feeds_item_side_attention(self, small_dataset):
        # A user-side relation task routes through the item-side TA branch.
        from taskhg.data import InteractionDataset
        from taskhg.tasks import NodeSide, build_relation_hypergraph

        anchors = range(0, 39, 2)
        user_task, _ = build_relation_hypergraph(
            "user_groups", NodeSide.USERS, anchors, [u + 1 for u in anchors], [1] * 20, 40
        )
        ds = InteractionDataset(
            40, 20, set(small_dataset.train_edges), set(small_dataset.test_edges),
            small_dataset.auxiliary_tasks + [user_task],
        )
        result = pretrain(ds, small_config(epochs_pretrain=3))
        assert result.table.allfinite()
        # Both TA sides now record attention vectors.
        assert result.log.attention.vectors_seen > 0
        baseline = pretrain(small_dataset, small_config(epochs_pretrain=3))
        assert not np.array_equal(result.table.item_emb, baseline.table.item_emb)


class TestTableShape:
    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_table_of_another_shape_rejected(self, small_dataset, stage):
        table = init_embeddings(41, 20, 8, 0)
        with pytest.raises(DataError, match="41 users x 20 items.*40 users x 20 items"):
            if stage == "pretrain":
                pretrain(small_dataset, small_config(), table)
            else:
                finetune(table, small_dataset, small_config())


    @pytest.mark.parametrize("unified", [True, False], ids=["unified", "per-value"])
    @pytest.mark.parametrize("variant", list(TAVariant), ids=lambda v: v.value)
    def test_table_of_another_dim_rejected(self, small_dataset, variant, unified):
        # Checked before any work: no stage trains at the table's dim under
        # a fingerprint that names the config's.
        table = init_embeddings(40, 20, 4, 0)
        config = small_config(ta_variant=variant, unified_attributes=unified)
        match = "table dim 4 does not match config dim 8"
        with pytest.raises(ValueError, match=match):
            pretrain(small_dataset, config, table)
        with pytest.raises(ValueError, match=match):
            finetune(table, small_dataset, config)


class TestFinetune:
    def test_zero_epochs_identity(self, small_dataset):
        pre = pretrain(small_dataset, small_config(epochs_pretrain=1))
        fine = finetune(pre.table, small_dataset, small_config(epochs_finetune=0))
        assert np.array_equal(fine.table.user_emb, pre.table.user_emb)

    def test_does_not_mutate_input_table(self, small_dataset):
        pre = pretrain(small_dataset, small_config(epochs_pretrain=1))
        before = pre.table.user_emb.copy()
        finetune(pre.table, small_dataset, small_config(epochs_finetune=3))
        assert np.array_equal(pre.table.user_emb, before)

    def test_deterministic(self, small_dataset):
        pre = pretrain(small_dataset, small_config(epochs_pretrain=1))
        a = finetune(pre.table, small_dataset, small_config())
        b = finetune(pre.table, small_dataset, small_config())
        assert np.array_equal(a.table.user_emb, b.table.user_emb)

    def test_dim_mismatch_rejected(self, small_dataset):
        pre = pretrain(small_dataset, small_config(epochs_pretrain=0))
        with pytest.raises(ValueError):
            finetune(pre.table, small_dataset, small_config(dim=16))

    def test_finetune_loss_variants_run(self, small_dataset):
        pre = pretrain(small_dataset, small_config(epochs_pretrain=1))
        for loss in LossKind:
            fine = finetune(pre.table, small_dataset,
                            small_config(epochs_finetune=2, finetune_loss=loss))
            assert fine.table.allfinite()


class TestDivergence:
    @pytest.mark.parametrize("poisoned", ["loss", "gradient"])
    def test_non_finite_step_stops_before_the_update(self, small_dataset, monkeypatch, poisoned):
        real = taskhg.train.finetune_loss_and_grad
        seen = {}

        def step(table, *args):
            loss, grads, out = real(table, *args)
            if poisoned == "loss":
                loss = math.nan
            else:
                grads["item"][3, 1] = math.nan
            seen["table"], seen["before"] = table, table.copy()
            return loss, grads, out

        monkeypatch.setattr(taskhg.train, "finetune_loss_and_grad", step)
        start = init_embeddings(40, 20, 8, 0)
        with pytest.raises(DivergenceError) as info:
            finetune(start, small_dataset, small_config())
        assert str(info.value) == "non-finite loss or gradient at finetune epoch 0, batch 0"
        assert np.array_equal(seen["table"].user_emb, seen["before"].user_emb)
        assert np.array_equal(seen["table"].item_emb, seen["before"].item_emb)


    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("on_reached_rows", [True, False], ids=["reached", "dense"])
    def test_inf_in_an_item_row_the_batch_does_not_reach(self, monkeypatch, on_reached_rows,
                                                         cpus):
        # On that row the dense TA reverse multiplies zero gradients by
        # non-finite task embeddings and the reached-rows one never reads
        # it; either way the L2 term makes the loss non-finite, and the
        # first step stops before the update.
        dataset = generate_synthetic_dataset(60, 40, 4, noise=0.1, seed=5,
                                             interactions_per_user=3)
        cfg = small_config(epochs_pretrain=1, batch_size=8)
        monkeypatch.setattr(taskhg.schedule, "usable_cpus", lambda: cpus)
        real_step = taskhg.train.pretrain_loss_and_grad
        seen = {}

        class FirstStep(Exception):
            pass

        def first_batch(table, rec_u, rec_i, aux, config, batch, extra):
            seen["users"] = batch.rec_users
            raise FirstStep

        monkeypatch.setattr(taskhg.train, "pretrain_loss_and_grad", first_batch)
        with pytest.raises(FirstStep):
            pretrain(dataset, cfg)
        rec_u = dataset.rec_pair()[0].graph.incidence
        reached = set(rec_u[np.unique(seen["users"])].indices.tolist())
        item = min(set(range(dataset.num_items)) - reached)

        def step(table, *args):
            seen["table"], seen["before"] = table, table.copy()
            return real_step(table, *args)

        real_adam = taskhg.train.AdamState.for_params

        def adam(*args, **kwargs):
            seen["adam"] = real_adam(*args, **kwargs)
            return seen["adam"]

        monkeypatch.setattr(taskhg.train, "pretrain_loss_and_grad", step)
        monkeypatch.setattr(taskhg.train.AdamState, "for_params", adam)
        monkeypatch.setattr(taskhg.gradients, "_reaches_few_hyperedges",
                            lambda *args: on_reached_rows)
        start = init_embeddings(dataset.num_users, dataset.num_items, cfg.dim, cfg.seed)
        start.item_emb[item, 0] = math.inf
        with pytest.raises(DivergenceError) as info, np.errstate(over="ignore",
                                                                 invalid="ignore"):
            pretrain(dataset, cfg, start)
        assert str(info.value) == "non-finite loss or gradient at pretrain epoch 0, batch 0"
        assert seen["table"].user_emb.tobytes() == seen["before"].user_emb.tobytes()
        assert seen["table"].item_emb.tobytes() == seen["before"].item_emb.tobytes()
        assert seen["adam"].step_count == 0
        for moments in (seen["adam"].first_moment, seen["adam"].second_moment):
            assert not any(m.any() for m in moments.values())


class TestBPRNegatives:
    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_user_with_every_item_leaves_the_others_training(self, stage):
        # User 0 has every item and admits no negative; users 1 and 2 do.
        ds = InteractionDataset(3, 3, {(0, 0), (0, 1), (0, 2), (1, 0), (2, 1)}, {(1, 2)}, [])
        table = init_embeddings(3, 3, 4, 0)
        cfg = small_config(dim=4, pretrain_loss=LossKind.BPR, finetune_loss=LossKind.BPR)
        if stage == "pretrain":
            out = pretrain(ds, cfg, table)
        else:
            out = finetune(table, ds, cfg)
        assert out.table.allfinite()
        assert not np.array_equal(out.table.user_emb, table.user_emb)

    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_no_negative_for_any_user_is_a_data_error(self, stage):
        ds = InteractionDataset(2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)}, set(), [])
        table = init_embeddings(2, 2, 4, 0)
        cfg = small_config(dim=4, pretrain_loss=LossKind.BPR, finetune_loss=LossKind.BPR)
        with pytest.raises(DataError, match=f"{stage}: no user has an item left"):
            if stage == "pretrain":
                pretrain(ds, cfg, table)
            else:
                finetune(table, ds, cfg)


class TestLearning:
    def test_pretraining_beats_scratch_on_planted_blocks(self):
        # Sparse regime: interactions alone underdetermine the blocks, so
        # the auxiliary tasks must carry the planted structure.
        dataset = generate_synthetic_dataset(200, 100, 4, noise=0.05, seed=2024)
        cfg = TrainConfig(seed=1)
        pre = pretrain(dataset, cfg)
        fine = finetune(pre.table, dataset, cfg)
        report = evaluate(fine.table, dataset, ks=(10,))

        from taskhg.model import init_embeddings

        scratch_start = init_embeddings(200, 100, cfg.dim, cfg.seed)
        scratch = finetune(scratch_start, dataset, cfg)
        scratch_report = evaluate(scratch.table, dataset, ks=(10,))

        test_counts = np.diff(dataset.test_incidence().indptr)
        random_baseline = np.mean(test_counts[test_counts > 0] / 100)
        assert report.rows[0].recall[10] > scratch_report.rows[0].recall[10]
        assert report.rows[0].recall[10] >= 5.0 * random_baseline
