"""Loss values: the scalar oracles on hand values, the trained joint
objective's combination of its terms, and the overflow-safe helpers."""

import contextlib
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from instances import make_joint_instance
from oracles import (
    alignment_loss,
    au_loss,
    bpr_loss,
    bpr_pos_loss,
    full_table_au_grad,
    pairwise_uniformity_grad,
)

import taskhg.gradients
from taskhg.config import LossKind, TrainConfig
from taskhg.gradients import (
    _uniformity_grad,
    au_grad,
    log_sigmoid,
    pretrain_loss_and_grad,
    rec_loss_grad,
    sigmoid,
)
from taskhg.model import EmbeddingTable, forward_pretrain, ta_forward_traced
from taskhg.tasks import build_recommendation_hypergraphs


def rows_of(pairs):
    """(user_rows, item_rows, users, items) with pair k on row k of each side."""
    user_rows = [np.asarray(u, float) for u, _ in pairs]
    item_rows = [np.asarray(i, float) for _, i in pairs]
    return user_rows, item_rows, range(len(pairs)), range(len(pairs))


def bpr_of_scores(score_pairs):
    """bpr_loss for given (s_pos, s_neg) pairs: one user row [1], 1-d item rows."""
    n = len(score_pairs)
    items = [[s] for pair in score_pairs for s in pair]
    return bpr_loss([[1.0]], items, [0] * n, range(0, 2 * n, 2), range(1, 2 * n, 2))


def bpr_pos_of_scores(scores):
    return bpr_pos_loss([[1.0]], [[s] for s in scores], [0] * len(scores), range(len(scores)))


class TestAlignment:
    def test_identical_vectors(self):
        assert alignment_loss(*rows_of([([1.0, 2.0], [1.0, 2.0])])) == 0.0

    def test_hand_norm(self):
        assert alignment_loss(*rows_of([([1.0, 0.0], [0.0, 1.0])])) == 2.0

    def test_quadratic_homogeneity(self):
        pairs = [([1.0, -2.0], [0.5, 3.0]), ([0.0, 1.0], [1.0, 1.0])]
        doubled = [([2 * a for a in u], [2 * b for b in i]) for u, i in pairs]
        value = alignment_loss(*rows_of(pairs))
        assert math.isclose(alignment_loss(*rows_of(doubled)), 4.0 * value)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pairs = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(5)]
            assert alignment_loss(*rows_of(pairs)) >= 0.0

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            alignment_loss(*rows_of([]))


class TestBPR:
    def test_zero_margin(self):
        assert math.isclose(bpr_of_scores([(1.0, 1.0)]), math.log(2.0), rel_tol=1e-12)

    def test_analytic_margin(self):
        # sigmoid(ln 3) = 3/4, so the loss is ln(4/3).
        value = bpr_of_scores([(math.log(3.0), 0.0)])
        assert math.isclose(value, math.log(4.0 / 3.0), rel_tol=1e-12)

    def test_monotone_decreasing_in_margin(self):
        margins = [-5.0, -1.0, 0.0, 1.0, 5.0, 50.0]
        values = [bpr_of_scores([(m, 0.0)]) for m in margins]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-20

    def test_extreme_margin_finite(self):
        value = bpr_of_scores([(-1000.0, 0.0)])
        assert math.isfinite(value)
        assert math.isclose(value, 1000.0, rel_tol=1e-12)

    def test_sums_over_batch(self):
        # The per-triple terms are summed, then divided by the batch size.
        batch = [(0.0, 0.0), (math.log(3.0), 0.0), (-1.0, 0.0)]
        expected = (math.log(2.0) + math.log(4.0 / 3.0) + math.log1p(math.e)) / 3
        assert math.isclose(bpr_of_scores(batch), expected, rel_tol=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            bpr_of_scores([])


class TestBPRPos:
    def test_zero_score(self):
        assert math.isclose(bpr_pos_of_scores([0.0]), math.log(2.0), rel_tol=1e-12)

    def test_analytic_score(self):
        value = bpr_pos_of_scores([math.log(3.0)])
        assert math.isclose(value, math.log(4.0 / 3.0), rel_tol=1e-12)

    def test_large_score_vanishes(self):
        assert bpr_pos_of_scores([60.0]) < 1e-20

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            bpr_pos_of_scores([])


class TestAU:
    def test_identical_unit_vectors_zero(self):
        rows = np.array([[1.0, 0.0]] * 3)
        assert math.isclose(au_loss(rows, rows, [0, 1, 2], [0, 1, 2], 1.0), 0.0, abs_tol=1e-15)

    def test_orthogonal_pair_alignment_two(self):
        value = au_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), [0], [0], 1.0)
        assert math.isclose(value, 2.0, rel_tol=1e-12)  # single rows: uniformity 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        users = rng.normal(size=(5, 4))
        items = rng.normal(size=(6, 4))
        u_idx = rng.integers(5, size=4)
        i_idx = rng.integers(6, size=4)
        a = au_loss(users, items, u_idx, i_idx, 0.7)
        scaled_users = users * rng.uniform(0.1, 10.0, size=(5, 1))
        scaled_items = items * rng.uniform(0.1, 10.0, size=(6, 1))
        b = au_loss(scaled_users, scaled_items, u_idx, i_idx, 0.7)
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_small_set_uniformity_is_zero(self):
        rows = np.array([[1.0, 0.0]])
        assert math.isclose(au_loss(rows, rows, [0], [0], 10.0), 0.0, abs_tol=1e-15)
        # A repeated row is one unique row, so uniformity stays 0.
        assert math.isclose(au_loss(rows, rows, [0, 0], [0, 0], 10.0), 0.0, abs_tol=1e-15)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            au_loss(np.zeros((0, 2)), np.zeros((0, 2)), [], [], 1.0)


def unit_rows(rows):
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)


def near_duplicates(seed, d):
    """Four unit rows about 1e-9 apart, where the Gram form rounds below 0."""
    rng = np.random.default_rng(seed)
    return unit_rows(rng.normal(size=(1, d)) + 1e-9 * rng.normal(size=(4, d)))


def degenerate_rows():
    rng = np.random.default_rng(12)
    row = unit_rows(rng.normal(size=(1, 16)))
    others = unit_rows(rng.normal(size=(5, 16)))
    return {
        "duplicates": np.repeat(row, 3, axis=0),
        "duplicates_among_others": np.vstack([others, row, row]),
        "zero_rows": np.vstack([others, np.zeros((2, 16))]),
        "all_zero": np.zeros((3, 16)),
        "antipodal": np.vstack([row, -row]),
        "antipodal_among_others": np.vstack([others, row, -row]),
        "1e-9_apart": near_duplicates(3, d=64),
        "1e-9_apart_among_others": np.vstack([others, near_duplicates(4, d=16)]),
    }


class TestUniformityGram:
    """The Gram-matrix uniformity against the explicit pairwise reference.

    Rows are unit (or zero) vectors, so value and gradient entries are at
    most O(1); atol 1e-12 covers entries that are 0 or tiny (duplicate rows,
    rows 1e-9 apart), where rounding in either form dominates a relative error.
    """

    @staticmethod
    def check(rows):
        value, grad = _uniformity_grad(rows)
        ref_value, ref_grad = pairwise_uniformity_grad(rows)
        assert value == pytest.approx(ref_value, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-12)
        return value

    @pytest.mark.parametrize("n", [2, 3, 257])
    def test_random_rows_match_pairwise(self, n):
        rng = np.random.default_rng(n)
        self.check(unit_rows(rng.normal(size=(n, 64))))

    @pytest.mark.parametrize("name", list(degenerate_rows()))
    def test_degenerate_rows_match_pairwise(self, name):
        value = self.check(degenerate_rows()[name])
        # Every kernel entry is at most 1, so the log-mean is at most 0.
        # Without the clamp, ||x||^2 + ||y||^2 - 2 x.y rounds below 0 for
        # duplicate and near-duplicate rows, and the value comes out > 0.
        assert value <= 0.0

    def test_au_grad_memory_is_quadratic_not_cubic(self):
        # 1024 unique users and items at d = 64: an (n, n, d) temporary alone
        # is 512 MB; the Gram form keeps a few 8 MB (n, n) buffers.
        rng = np.random.default_rng(5)
        n, d = 1024, 64
        user_out = rng.normal(size=(n, d))
        item_out = rng.normal(size=(n, d))
        users = rng.permutation(n)
        items = rng.permutation(n)
        tracemalloc.start()
        try:
            au_grad(user_out, item_out, users, items, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"au_grad peaked at {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param(np.zeros((0, 8)), id="n=0"),
            pytest.param(unit_rows(np.arange(1.0, 9.0)[None, :]), id="n=1"),
            pytest.param(unit_rows(np.random.default_rng(2).normal(size=(2, 8))), id="n=2"),
            pytest.param(degenerate_rows()["duplicates_among_others"], id="duplicates"),
            pytest.param(unit_rows(np.random.default_rng(3).normal(size=(300, 64))), id="random"),
        ],
    )
    def test_caller_made_gram_buffer_gives_the_same_bytes(self, rows):
        value, grad = _uniformity_grad(rows)
        n = rows.shape[0]
        gram = np.full((n, n), np.nan)  # overwritten, never read
        buf_value, buf_grad = _uniformity_grad(rows, gram)
        assert np.float64(buf_value).tobytes() == np.float64(value).tobytes()
        assert buf_grad.tobytes() == grad.tobytes()

    def test_au_grad_gives_the_same_bytes_with_a_pool(self, pool):
        rng = np.random.default_rng(6)
        user_out = rng.normal(size=(40, 16))
        item_out = rng.normal(size=(30, 16))
        users = rng.integers(40, size=64)
        items = rng.integers(30, size=64)
        serial = au_grad(user_out, item_out, users, items, 0.7)
        with pool:
            paired = au_grad(user_out, item_out, users, items, 0.7)
        assert pool.submitted == 1
        assert np.float64(paired[0]).tobytes() == np.float64(serial[0]).tobytes()
        assert paired[1].dense().tobytes() == serial[1].dense().tobytes()
        assert paired[2].dense().tobytes() == serial[2].dense().tobytes()


def au_batch_cases():
    """(user_out, item_out, users, items) batches for the batch-rows `au`."""
    rng = np.random.default_rng(12)
    user_out = rng.normal(size=(9, 6))
    item_out = rng.normal(size=(7, 6))
    zero_rows_user = user_out.copy()
    zero_rows_user[[1, 4]] = 0.0
    zero_rows_item = item_out.copy()
    zero_rows_item[2] = 0.0
    return {
        "duplicates": (user_out, item_out, [3, 3, 1, 3, 0, 1], [2, 2, 2, 0, 5, 5]),
        "every_row": (user_out, item_out, [*range(9), 4, 0], [*range(7), 6, 6, 3, 1]),
        "single_unique_user": (user_out, item_out, [4, 4, 4, 4], [0, 3, 5, 3]),
        "single_pair": (user_out, item_out, [2], [6]),
        "more_unique_items": (user_out, item_out, [1, 5, 1, 5, 1], [0, 1, 2, 3, 4]),
        "zero_norm_rows": (zero_rows_user, zero_rows_item, [1, 4, 4, 7, 0], [2, 2, 3, 6, 2]),
    }


class TestAuBatchRows:
    """`au_grad` on the batch's rows against the full-table arithmetic, bit for bit."""

    @pytest.mark.parametrize("name", list(au_batch_cases()))
    @pytest.mark.parametrize("paired", [False, True], ids=["serial", "paired"])
    def test_same_bytes_as_the_full_table_form(self, request, name, paired):
        user_out, item_out, users, items = au_batch_cases()[name]
        users, items = np.array(users), np.array(items)
        pool = request.getfixturevalue("pool") if paired else contextlib.nullcontext()
        with pool:
            loss, g_user, g_item = au_grad(user_out, item_out, users, items, 0.7)
        g_user, g_item = g_user.dense(), g_item.dense()
        ref_loss, ref_user, ref_item = full_table_au_grad(user_out, item_out, users, items, 0.7)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert g_user.tobytes() == ref_user.tobytes()
        assert g_item.tobytes() == ref_item.tobytes()
        # Rows outside the batch are exact +0.0, sign bit included.
        for grad, batch in ((g_user, users), (g_item, items)):
            outside = np.setdiff1d(np.arange(len(grad)), batch)
            assert grad[outside].tobytes() == bytes(grad[outside].nbytes)
        if paired:
            assert pool.submitted == 1

    def test_the_side_with_more_unique_rows_runs_on_the_worker(self, pool, monkeypatch):
        seen = []
        real = taskhg.gradients._uniformity_grad

        def spy(hat_rows, gram=None):
            seen.append((len(hat_rows), threading.current_thread().name))
            return real(hat_rows, gram)

        monkeypatch.setattr(taskhg.gradients, "_uniformity_grad", spy)
        here = threading.current_thread().name
        for name in ("every_row", "more_unique_items"):
            user_out, item_out, users, items = au_batch_cases()[name]
            seen.clear()
            with pool:
                au_grad(user_out, item_out, np.array(users), np.array(items), 1.0)
            (worker_rows,) = [n for n, thread in seen if thread != here]
            (caller_rows,) = [n for n, thread in seen if thread == here]
            assert worker_rows > caller_rows


@pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
def test_loss_gradients_stay_batch_sized(kind):
    # Each loss returns its gradients as the batch's rows; the reverse
    # halves make the table-sized arrays. Two dense gradients would peak at
    # three times the 10000-row table's bytes.
    rng = np.random.default_rng(16)
    user_out = rng.normal(size=(20000, 64))
    item_out = rng.normal(size=(10000, 64))
    users = rng.integers(20000, size=64)
    pos, neg = rng.integers(10000, size=(2, 64))
    tracemalloc.start()
    try:
        rec_loss_grad(kind, user_out, item_out, users, pos, neg, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < item_out.nbytes, f"{kind.value} peaked at {peak / 2**20:.1f} MB"


def joint_instance(beta, lambda_reg=0.05):
    """An alignment-loss instance with at least two auxiliary BPR tasks."""
    rng = np.random.default_rng(41)
    while True:
        table, rec_u, rec_i, aux, cfg, batch, _ = make_joint_instance(
            rng, loss=LossKind.ALIGNMENT, min_tasks=2
        )
        if len(batch.aux_bpr) >= 2:
            cfg = replace(cfg, beta=beta, lambda_reg=lambda_reg)
            return table, rec_u, rec_i, aux, cfg, batch


def oracle_terms(table, rec_u, rec_i, aux, cfg, batch):
    """(rec, [aux per task], ||E||^2), each term from the scalar oracles."""
    acts = forward_pretrain(table, rec_u, rec_i, aux, cfg)
    rec = alignment_loss(
        acts.ta_user_trace.node_emb, acts.ta_item_trace.node_emb,
        batch.rec_users, batch.rec_pos_items,
    )
    traces = acts.encoder_traces
    aux_terms = [
        bpr_loss(traces[tid].node_emb, traces[tid].edge_emb, *triples)
        for tid, triples in batch.aux_bpr.items()
    ]
    reg = float((table.user_emb**2).sum() + (table.item_emb**2).sum())
    return rec, aux_terms, reg


class TestJoint:
    """The trained total is beta*rec + (1 - beta)*sum(aux) + lambda*||E||^2."""

    def check_total(self, beta):
        table, rec_u, rec_i, aux, cfg, batch = joint_instance(beta)
        total = pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, batch)[0]
        rec, aux_terms, reg = oracle_terms(table, rec_u, rec_i, aux, cfg, batch)
        expected = beta * rec + (1.0 - beta) * math.fsum(aux_terms) + cfg.lambda_reg * reg
        assert total == pytest.approx(expected, rel=1e-12)
        return rec, aux_terms, reg, total

    def test_beta_one_ignores_auxiliary(self):
        rec, _, reg, total = self.check_total(1.0)
        assert total == pytest.approx(rec + 0.05 * reg, rel=1e-12)

    def test_hand_combination(self):
        self.check_total(0.3)

    def test_beta_zero_keeps_only_auxiliary(self):
        _, aux_terms, reg, total = self.check_total(0.0)
        assert total == pytest.approx(math.fsum(aux_terms) + 0.05 * reg, rel=1e-12)

    def test_regularizer_zero_on_zero_embeddings(self):
        # All-zero embeddings give zero outputs everywhere: alignment 0,
        # every auxiliary margin 0 (loss ln 2 per task), and no L2 term.
        table, rec_u, rec_i, aux, cfg, batch = joint_instance(0.4)
        zeros = EmbeddingTable(np.zeros_like(table.user_emb), np.zeros_like(table.item_emb))
        total = pretrain_loss_and_grad(zeros, rec_u, rec_i, aux, cfg, batch)[0]
        assert total == pytest.approx(0.6 * len(batch.aux_bpr) * math.log(2.0), rel=1e-12)

    def test_regularizer_frobenius(self):
        table, rec_u, rec_i, aux, cfg, batch = joint_instance(0.5, lambda_reg=0.1)
        with_reg = pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, batch)[0]
        no_reg = pretrain_loss_and_grad(
            table, rec_u, rec_i, aux, replace(cfg, lambda_reg=0.0), batch
        )[0]
        frobenius = float((table.user_emb**2).sum() + (table.item_emb**2).sum())
        assert with_reg - no_reg == pytest.approx(0.1 * frobenius, rel=1e-10)

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError, match="beta"):
            TrainConfig(beta=1.5).validate()


class TestStableHelpers:
    def test_sigmoid_extremes(self):
        assert sigmoid(np.array([800.0]))[0] == 1.0
        assert sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0, abs=1e-300)

    def test_log_sigmoid_matches_naive_in_safe_range(self):
        x = np.linspace(-30, 30, 121)
        naive = np.log(1.0 / (1.0 + np.exp(-x)))
        assert np.allclose(log_sigmoid(x), naive, rtol=1e-12, atol=1e-12)

    def test_au_loss_never_overflows(self):
        # The trained AU normalizes rows first, so huge magnitudes stay safe.
        rng = np.random.default_rng(2)
        users = 1e150 * rng.normal(size=(4, 3))
        items = 1e150 * rng.normal(size=(4, 3))
        idx = np.array([0, 1, 3])
        value, g_user, g_item = au_grad(users, items, idx, idx, 1.0)
        g_user, g_item = g_user.dense(), g_item.dense()
        assert math.isfinite(value)
        assert np.isfinite(g_user).all() and np.isfinite(g_item).all()
        assert value == pytest.approx(au_loss(users, items, idx, idx, 1.0), rel=1e-12)

    def test_attention_softmax_never_overflows(self):
        # One user on one item: the hyperedge is the user's row [1e8, 0], and
        # the two task rows give logits of +-1e16 / sqrt(2).
        user_task, _ = build_recommendation_hypergraphs([(0, 0)], 1, 1)
        zs = [("a", np.array([[1e8, 0.0]])), ("b", np.array([[-1e8, 0.0]]))]
        trace = ta_forward_traced(np.array([[1e8, 0.0]]), user_task.graph, zs, TrainConfig())
        alpha = trace.attention[0]
        assert np.isfinite(alpha).all() and np.isfinite(trace.node_emb).all()
        assert alpha.sum() == pytest.approx(1.0)
