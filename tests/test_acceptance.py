"""Acceptance suite: one check per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and timings, or execute the module directly.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from instances import make_joint_instance
from oracles import (
    assert_grad_close,
    central_difference_grad,
    dense_convolve,
    hypergraph_convolve,
    loop_ta_forward,
    max_rel_error,
    random_hypergraph_dense,
)

from taskhg.cli import main as cli_main
from taskhg.config import LossKind, TAVariant, TrainConfig
from taskhg.data import generate_synthetic_dataset
from taskhg.evaluate import evaluate, ndcg_at_k, recall_at_k
from taskhg.gradients import pretrain_loss_and_grad
from taskhg.hypergraph import build_hypergraph
from taskhg.io import load_checkpoint, save_checkpoint
from taskhg.model import EmbeddingTable, init_embeddings, ta_forward_traced
from taskhg.protocols import cold_start_eval, run_ablation
from taskhg.tasks import build_recommendation_hypergraphs
from taskhg.train import finetune, pretrain

FIXTURE_SEED = 77
TRAIN_SEED = 5


@contextmanager
def criterion(num, title, budget_s=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num:2d}: {title}")
        raise
    elapsed = time.monotonic() - start
    print(f"\n[PASS] criterion {num:2d}: {title} ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"


def sparse_like(H):
    pairs = list(zip(*np.nonzero(H)))
    return build_hypergraph(pairs, H.shape[0], H.shape[1])


def test_criterion_1_dense_oracle_equivalence():
    with criterion(1, "sparse convolution matches dense oracle on 200 graphs", 5.0):
        rng = np.random.default_rng(1001)
        for _ in range(200):
            H = random_hypergraph_dense(rng, max_nodes=50, max_edges=30)
            h = sparse_like(H)
            d = int(rng.integers(1, 17))
            x = rng.normal(size=(h.num_nodes, d))
            err = max_rel_error(hypergraph_convolve(h, x), dense_convolve(H, x))
            assert err <= 1e-12


def random_ta_instance(rng):
    n_u = int(rng.integers(1, 11))
    n_i = int(rng.integers(1, 11))
    d = int(rng.integers(1, 7))
    edges = {(u, int(rng.integers(n_i))) for u in range(n_u)}
    edges |= {(int(rng.integers(n_u)), i) for i in range(n_i)}
    extra = rng.random((n_u, n_i)) < 0.3
    edges |= {(int(u), int(i)) for u, i in zip(*np.nonzero(extra))}
    user_task, item_task = build_recommendation_hypergraphs(sorted(edges), n_u, n_i)
    n_tasks = int(rng.integers(0, 4))
    item_zs = [(f"i{k}", rng.normal(size=(n_i, d))) for k in range(n_tasks)]
    user_zs = [(f"u{k}", rng.normal(size=(n_u, d))) for k in range(int(rng.integers(0, 4)))]
    return user_task, item_task, rng.normal(size=(n_u, d)), rng.normal(size=(n_i, d)), item_zs, user_zs


def test_criterion_2_ta_loop_oracle_equivalence():
    with criterion(2, "matrix-form TA matches per-hyperedge loop on 100 instances", 5.0):
        rng = np.random.default_rng(2002)
        for _ in range(100):
            user_task, item_task, x_u, x_i, item_zs, user_zs = random_ta_instance(rng)
            gamma = float(rng.uniform(0.0, 2.0))
            layers = int(rng.integers(1, 3))
            cfg = TrainConfig(gamma=gamma, ta_layers=layers)
            out_u = ta_forward_traced(x_u, user_task.graph, item_zs, cfg).node_emb
            ref_u = loop_ta_forward(
                user_task.graph.incidence.toarray(), x_u,
                [z for _, z in item_zs], gamma, layers,
            )
            assert np.abs(out_u - ref_u).max(initial=0.0) <= 1e-12 * max(
                1.0, np.abs(ref_u).max(initial=0.0)
            )
            out_i = ta_forward_traced(x_i, item_task.graph, user_zs, cfg).node_emb
            ref_i = loop_ta_forward(
                item_task.graph.incidence.toarray(), x_i,
                [z for _, z in user_zs], gamma, layers,
            )
            assert np.abs(out_i - ref_i).max(initial=0.0) <= 1e-12 * max(
                1.0, np.abs(ref_i).max(initial=0.0)
            )


def test_criterion_3_gradient_check():
    with criterion(3, "joint-loss gradients match finite differences (50 instances)", 60.0):
        kinds = [LossKind.ALIGNMENT, LossKind.BPR, LossKind.BPR_POS, LossKind.AU]
        rng = np.random.default_rng(3003)
        for index in range(50):
            kind = kinds[index % len(kinds)]
            table, rec_u, rec_i, aux, cfg, batch, extra = make_joint_instance(
                rng, loss=kind
            )
            _, grads, _ = pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, batch, extra)

            def loss():
                return pretrain_loss_and_grad(
                    table, rec_u, rec_i, aux, cfg, batch, extra
                )[0]

            num_u = central_difference_grad(loss, table.user_emb)
            num_i = central_difference_grad(loss, table.item_emb)
            assert_grad_close(grads["user"], num_u, context=f"{kind} user")
            assert_grad_close(grads["item"], num_i, context=f"{kind} item")


def test_criterion_4_gamma_zero_reduction():
    with criterion(4, "gamma=0 TA equals plain convolution; NoTA cell end-to-end"):
        rng = np.random.default_rng(4004)
        for _ in range(100):
            user_task, _, x_u, _, item_zs, _ = random_ta_instance(rng)
            cfg = TrainConfig(gamma=0.0)
            out = ta_forward_traced(x_u, user_task.graph, item_zs, cfg).node_emb
            ref = hypergraph_convolve(user_task.graph, x_u)
            assert np.abs(out - ref).max(initial=0.0) <= 1e-12 * max(
                1.0, np.abs(ref).max(initial=0.0)
            )
        dataset = generate_synthetic_dataset(48, 24, 4, noise=0.1, seed=13,
                                             interactions_per_user=4)
        base = TrainConfig(dim=8, epochs_pretrain=5, epochs_finetune=5, seed=2)
        reports = []
        for cfg in (replace(base, ta_variant=TAVariant.NO_TA), replace(base, gamma=0.0)):
            pre = pretrain(dataset, cfg)
            fine = finetune(pre.table, dataset, cfg)
            reports.append(evaluate(fine.table, dataset, cfg.eval_ks).rows[0])
        for k in base.eval_ks:
            assert reports[0].recall[k] == reports[1].recall[k]
            assert reports[0].ndcg[k] == reports[1].ndcg[k]


@pytest.fixture(scope="module")
def planted_dataset():
    return generate_synthetic_dataset(200, 100, 4, noise=0.05, seed=FIXTURE_SEED)


@pytest.fixture(scope="module")
def planted_pretrain(planted_dataset):
    return pretrain(planted_dataset, TrainConfig(seed=TRAIN_SEED))


def test_criterion_5_attention_normalization(planted_pretrain):
    with criterion(5, "attention vectors non-negative, sum to 1 across training run"):
        audit = planted_pretrain.log.attention
        assert audit.vectors_seen > 0
        assert audit.min_weight >= 0.0
        assert audit.max_sum_deviation <= 1e-12


def test_criterion_6_planted_structure_learning(planted_dataset, planted_pretrain):
    with criterion(6, "pretrain+finetune beats 5x random baseline and scratch", 120.0):
        early = planted_pretrain.log.epoch_losses[:10]
        assert all(b < a for a, b in zip(early, early[1:]))

        cfg = TrainConfig(seed=TRAIN_SEED)
        fine = finetune(planted_pretrain.table, planted_dataset, cfg)
        report = evaluate(fine.table, planted_dataset, ks=(10, 20))
        recall10 = report.rows[0].recall[10]

        scratch_table = init_embeddings(200, 100, cfg.dim, cfg.seed)
        scratch = finetune(scratch_table, planted_dataset, cfg)
        scratch10 = evaluate(scratch.table, planted_dataset, ks=(10, 20)).rows[0].recall[10]

        test_counts = np.diff(planted_dataset.test_incidence().indptr)
        random_baseline = float(np.mean(test_counts[test_counts > 0] / 100))
        assert recall10 >= 5.0 * random_baseline
        assert recall10 > scratch10


def test_criterion_7_loss_combination_harness(planted_dataset):
    with criterion(7, "ablation emits deterministic, bounded 4+10 grids", 600.0):
        cfg = TrainConfig(seed=TRAIN_SEED, epochs_pretrain=10, epochs_finetune=10)
        first = run_ablation(planted_dataset, cfg)
        second = run_ablation(planted_dataset, cfg)
        labels = [r.label for r in first.rows]
        assert sum(label.startswith("ta/") for label in labels) == 4
        assert sum(label.startswith("loss/") for label in labels) == 10
        assert len(labels) == 14
        assert "loss/align+bpr" in labels
        for row_a, row_b in zip(first.rows, second.rows, strict=True):
            assert row_a.label == row_b.label
            for k in first.ks:
                assert 0.0 <= row_a.recall[k] <= 1.0
                assert 0.0 <= row_a.ndcg[k] <= 1.0
                assert row_a.recall[k] == row_b.recall[k]
                assert row_a.ndcg[k] == row_b.ndcg[k]


def test_criterion_8_cold_start_harness():
    with criterion(8, "cold-start: auxiliary tasks never hurt cold users"):
        dataset = generate_synthetic_dataset(400, 100, 4, noise=0.05, seed=123)
        cfg = TrainConfig(seed=9)
        for ratio in (0.1, 0.2, 0.3):
            report = cold_start_eval(dataset, cfg, ratio)
            assert report.cold_start_ratio == ratio
            full = report.row("full")
            no_aux = report.row("no_auxiliary")
            assert full.num_users > 0
            assert full.recall[10] >= no_aux.recall[10], f"ratio {ratio}"


def test_criterion_9_metric_unit_values():
    with criterion(9, "hand-derived Recall/NDCG values reproduced exactly"):
        assert recall_at_k([5, 1, 2], {5}, 10) == 1.0
        assert ndcg_at_k([5, 1, 2], {5}, 10) == 1.0
        assert ndcg_at_k([9, 8, 7, 5, 6], {5}, 10) == 1.0 / math.log2(5.0)
        assert recall_at_k(list(range(10)), {3, 77}, 10) == 0.5
        assert ndcg_at_k([1, 2], {1, 2, 3}, 2) == 1.0


def test_criterion_10_determinism_and_serialization(tmp_path):
    with criterion(10, "CLI pipeline byte-identical; checkpoint round-trip bit-exact"):
        flags = ["--dim", "16", "--epochs-pretrain", "10", "--epochs-finetune", "10"]
        reports = []
        checkpoints = []
        for tag in ("run1", "run2"):
            root = tmp_path / tag
            assert cli_main(["synth", "--out", str(root / "data"), "--users", "60",
                             "--items", "20", "--blocks", "4", "--noise", "0.05",
                             "--seed", "11"]) == 0
            pre = root / "pre.ckpt"
            fine = root / "fine.ckpt"
            report = root / "report.tsv"
            assert cli_main(["pretrain", "--data", str(root / "data"), "--seed", "6",
                             "--out", str(pre), *flags]) == 0
            assert cli_main(["finetune", "--data", str(root / "data"), "--seed", "6",
                             "--checkpoint", str(pre), "--out", str(fine), *flags]) == 0
            assert cli_main(["evaluate", "--data", str(root / "data"),
                             "--checkpoint", str(fine), "--report", str(report)]) == 0
            reports.append(report.read_bytes())
            checkpoints.append(fine.read_bytes())
        assert reports[0] == reports[1]
        assert checkpoints[0] == checkpoints[1]

        rng = np.random.default_rng(0)
        table = EmbeddingTable(rng.normal(size=(9, 6)), rng.normal(size=(5, 6)))
        path = tmp_path / "round.ckpt"
        save_checkpoint(table, TrainConfig(dim=6, seed=1), path)
        loaded = load_checkpoint(path)
        assert loaded.user_emb.tobytes() == table.user_emb.tobytes()
        assert loaded.item_emb.tobytes() == table.item_emb.tobytes()


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
