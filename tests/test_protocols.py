import numpy as np
import pytest

from taskhg.config import LossKind, TAVariant, TrainConfig
from taskhg.data import InteractionDataset, generate_synthetic_dataset
from taskhg.errors import DataError
from taskhg.protocols import LOSS_GRID, TA_VARIANT_GRID, cold_start_eval, run_ablation


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic_dataset(48, 24, 4, noise=0.1, seed=13,
                                      interactions_per_user=4)


def fast_config(**overrides):
    base = dict(dim=8, epochs_pretrain=3, epochs_finetune=3, batch_size=256, seed=2)
    base.update(overrides)
    return TrainConfig(**base)


class TestAblation:
    def test_grid_shapes(self, dataset):
        report = run_ablation(dataset, fast_config())
        labels = [r.label for r in report.rows]
        assert labels[:4] == ["ta/ta=full", "ta/ta=no_ta", "ta/ta=sum", "ta/ta=concat"]
        assert labels[4:] == [f"loss/{p.value}+{f.value}" for p, f in LOSS_GRID]
        assert "loss/align+bpr" in labels
        assert "loss/bpr+bpr" in labels

    def test_grid_metrics_bounded_and_deterministic(self, dataset):
        a = run_ablation(dataset, fast_config())
        b = run_ablation(dataset, fast_config())
        assert len(a.rows) == len(b.rows) == 14
        for row_a, row_b in zip(a.rows, b.rows):
            assert row_a.label == row_b.label
            for k in a.ks:
                assert 0.0 <= row_a.recall[k] <= 1.0
                assert 0.0 <= row_a.ndcg[k] <= 1.0
                assert row_a.recall[k] == row_b.recall[k]
                assert row_a.ndcg[k] == row_b.ndcg[k]

    def test_grid_covers_declared_combinations(self):
        assert len(LOSS_GRID) == 10
        assert len(set(LOSS_GRID)) == 10
        assert len(TA_VARIANT_GRID) == 4
        same = [c for c in LOSS_GRID if c[0] == c[1]]
        assert {c[0] for c in same} == set(LossKind)
        bpr_pre = [c for c in LOSS_GRID if c[0] == LossKind.BPR and c[1] != LossKind.BPR]
        bpr_fine = [c for c in LOSS_GRID if c[1] == LossKind.BPR and c[0] != LossKind.BPR]
        assert len(bpr_pre) == 3 and len(bpr_fine) == 3

    def test_no_ta_cell_equals_gamma_zero_run(self, dataset):
        from taskhg.evaluate import evaluate
        from taskhg.train import finetune, pretrain

        cfg = fast_config(ta_variant=TAVariant.NO_TA)
        report = run_ablation(dataset, fast_config())
        no_ta_row = report.row("ta/ta=no_ta")
        pre = pretrain(dataset, fast_config(gamma=0.0))
        fine = finetune(pre.table, dataset, fast_config(gamma=0.0))
        direct = evaluate(fine.table, dataset, cfg.eval_ks).rows[0]
        for k in cfg.eval_ks:
            assert no_ta_row.recall[k] == direct.recall[k]
            assert no_ta_row.ndcg[k] == direct.ndcg[k]


class TestColdStart:
    def test_report_structure(self, dataset):
        report = cold_start_eval(dataset, fast_config(), ratio=0.2)
        assert report.cold_start_ratio == 0.2
        labels = [r.label for r in report.rows]
        assert labels == ["full", "no_auxiliary"]
        for row in report.rows:
            assert row.num_users > 0

    def test_same_seed_same_cold_users(self, dataset):
        a = cold_start_eval(dataset, fast_config(), ratio=0.25)
        b = cold_start_eval(dataset, fast_config(), ratio=0.25)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.recall == rb.recall and ra.ndcg == rb.ndcg

    def test_ratio_bounds(self, dataset):
        with pytest.raises(ValueError):
            cold_start_eval(dataset, fast_config(), ratio=1.0)
        with pytest.raises(ValueError):
            cold_start_eval(dataset, fast_config(), ratio=0.0)
        with pytest.raises(DataError):
            cold_start_eval(dataset, fast_config(), ratio=0.999)

    def test_matches_the_protocol_written_with_sets(self, dataset):
        from taskhg.data import STREAM_COLD, rng_for
        from taskhg.evaluate import evaluate
        from taskhg.train import finetune, pretrain

        cfg = fast_config()
        rng = rng_for(cfg.seed, STREAM_COLD)
        n_cold = int(round(0.25 * dataset.num_users))
        cold = {int(u) for u in rng.choice(dataset.num_users, n_cold, replace=False)}
        withheld = {(u, i) for (u, i) in dataset.train_edges if u in cold}
        reduced = dataset.train_edges - withheld
        report = cold_start_eval(dataset, cfg, ratio=0.25)
        for row, aux in zip(report.rows, (dataset.auxiliary_tasks, [])):
            train_ds = InteractionDataset(dataset.num_users, dataset.num_items, set(reduced),
                                          set(dataset.test_edges), list(aux))
            fine = finetune(pretrain(train_ds, cfg).table, train_ds, cfg)
            want = evaluate(fine.table, train_ds, cfg.eval_ks, users=cold,
                            extra_inference_edges=sorted(withheld)).rows[0]
            assert 0 < row.num_users == want.num_users <= len(cold)
            assert (row.recall, row.ndcg) == (want.recall, want.ndcg)

    def test_cold_users_isolated_at_training_time(self, dataset):
        # The protocol must not leak withheld edges into training: with no
        # weight decay, a user whose every edge is withheld receives exactly
        # zero gradient, so their raw embedding never moves.
        from taskhg.data import STREAM_COLD, rng_for
        from taskhg.model import init_embeddings
        from taskhg.train import pretrain

        cfg = fast_config(lambda_reg=0.0)
        rng = rng_for(cfg.seed, STREAM_COLD)
        n_cold = int(round(0.2 * dataset.num_users))
        cold = sorted(int(u) for u in rng.choice(dataset.num_users, n_cold, replace=False))
        reduced = {(u, i) for (u, i) in dataset.train_edges if u not in cold}
        train_ds = InteractionDataset(dataset.num_users, dataset.num_items, reduced,
                                      set(dataset.test_edges), dataset.auxiliary_tasks)
        result = pretrain(train_ds, cfg)
        init = init_embeddings(dataset.num_users, dataset.num_items, cfg.dim, cfg.seed)
        for u in cold:
            assert np.array_equal(result.table.user_emb[u], init.user_emb[u])
