import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import oracles
import pytest
import scipy.sparse as sp
from oracles import ndcg_at_k, recall_at_k

from taskhg import schedule
from taskhg.data import InteractionDataset, generate_synthetic_dataset
from taskhg.errors import DataError
from taskhg.evaluate import (
    EvalReport,
    MetricRow,
    evaluate,
    evaluate_scores,
    rank_items,
    top_k_items,
)
from taskhg.model import EmbeddingTable, init_embeddings

EVALUATE_MODULE = sys.modules["taskhg.evaluate"]  # the package re-exports `evaluate`

# Score blocks of 1, 2 or 7 users, or of every user at once.
BLOCK_ROWS = pytest.mark.parametrize("block_rows", [1, 2, 7, None], ids=lambda r: f"rows={r}")


def set_block_rows(monkeypatch, block_rows, n_users, n_items):
    rows = n_users if block_rows is None else block_rows
    monkeypatch.setattr(EVALUATE_MODULE, "SCORE_BLOCK_CELLS", rows * n_items)


def exact_embeddings(rng, shape, ties):
    """Small integers (many tied scores) or multiples of 1/64: every inner
    product is exact in float64, so no BLAS kernel can change a score."""
    if ties:
        return rng.integers(-2, 3, size=shape).astype(float)
    return np.round(rng.normal(size=shape) * 64.0) / 64.0


def random_eval_instance(rng, trial):
    """evaluate_scores' arguments: tied or distinct scores, masked rows
    (user 0 has every item seen), test sets often larger than max(ks), and
    cutoffs often above the item count."""
    n_users, n_items = int(rng.integers(1, 30)), int(rng.integers(1, 25))
    dim = int(rng.integers(1, 5))
    user_out = exact_embeddings(rng, (n_users, dim), ties=trial % 2 == 0)
    item_out = exact_embeddings(rng, (n_items, dim), ties=trial % 2 == 0)
    seen = rng.random((n_users, n_items)) < rng.uniform(0.0, 0.6)
    seen[0] = True
    tests = np.zeros((n_users, n_items))
    for u in range(n_users):
        if rng.random() < 0.8:
            tests[u, rng.choice(n_items, size=int(rng.integers(1, n_items + 1)), replace=False)] = 1
    ks = tuple(sorted(set(rng.integers(1, n_items + 6, size=int(rng.integers(1, 4))).tolist())))
    users = rng.choice(n_users, size=int(rng.integers(1, n_users + 1)), replace=False)
    users = sorted(users.tolist())
    return user_out, item_out, sp.csr_matrix(seen.astype(float)), ks, sp.csr_matrix(tests), users


class TestMetricPrimitives:
    def test_single_relevant_ranked_first(self):
        ranked = [5, 1, 2, 3, 4]
        assert recall_at_k(ranked, {5}, 10) == 1.0
        assert ndcg_at_k(ranked, {5}, 10) == 1.0

    def test_single_relevant_ranked_fourth(self):
        ranked = [9, 8, 7, 5, 6]
        assert ndcg_at_k(ranked, {5}, 10) == pytest.approx(1.0 / math.log2(5.0))

    def test_two_relevant_one_hit(self):
        ranked = list(range(10))
        assert recall_at_k(ranked, {3, 77}, 10) == 0.5

    def test_ndcg_ideal_uses_min_k_test(self):
        # 3 test items, K=2, both top slots hit: NDCG should be exactly 1.
        ranked = [1, 2, 9, 8]
        value = ndcg_at_k(ranked, {1, 2, 3}, 2)
        assert value == pytest.approx(1.0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ranked = list(rng.permutation(30))
            test = set(map(int, rng.choice(30, size=5, replace=False)))
            r_prev, n_prev = 0.0, 0.0
            for k in (5, 10, 20, 30):
                r, n = recall_at_k(ranked, test, k), ndcg_at_k(ranked, test, k)
                assert r >= r_prev - 1e-15 and n >= n_prev - 1e-15
                assert 0.0 <= r <= 1.0 and 0.0 <= n <= 1.0
                r_prev, n_prev = r, n


class TestRanking:
    def test_descending_with_ascending_tiebreak(self):
        scores = np.array([1.0, 3.0, 3.0, 0.5])
        assert rank_items(scores).tolist() == [1, 2, 0, 3]

    def test_masked_items_never_ranked(self):
        # Scores user_out @ item_out.T = [9, 5, 1].
        user_out = np.array([[1.0]])
        item_out = np.array([[9.0], [5.0], [1.0]])
        seen = sp.csr_matrix(np.array([[1.0, 0.0, 0.0]]))
        tests = sp.csr_matrix(np.array([[0.0, 1.0, 0.0]]))
        recall, _, n = evaluate_scores(user_out, item_out, seen, (1,), tests, [0])
        assert n == 1
        assert recall[1] == 1.0  # item 0 masked, item 1 tops the list

    def test_train_items_never_in_top_k_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n_items = int(rng.integers(5, 30))
            scores = rng.normal(size=n_items)
            masked = set(map(int, rng.choice(n_items, size=n_items // 2, replace=False)))
            row = scores.copy()
            for i in masked:
                row[i] = -np.inf
            top = rank_items(row)[: max(1, n_items // 3)]
            assert not (set(map(int, top)) & masked)


class TestTopK:
    def assert_matches_rank_items(self, block, k):
        top = top_k_items(block, k)
        assert top.shape == (block.shape[0], min(k, block.shape[1]))
        for row, got in zip(block, top):
            assert got.tolist() == rank_items(row)[:k].tolist()

    def test_equals_rank_items_on_random_blocks(self):
        rng = np.random.default_rng(17)
        for trial in range(600):
            n_rows, n_items = int(rng.integers(1, 9)), int(rng.integers(1, 16))
            k = int(rng.integers(1, 20))  # often >= n_items
            if trial % 2 == 0:
                # Integer scores in a small range: many ties, also at the
                # boundary, where the bound leaves in every tied item.
                block = rng.integers(-3, 4, size=(n_rows, n_items)).astype(float)
            else:
                block = rng.normal(size=(n_rows, n_items))  # continuous: rarely a tie
            block[rng.random(block.shape) < 0.4] = -np.inf
            block[0, :] = -np.inf  # a row with no unmasked item at all
            if trial % 3 == 0:
                block[rng.random(block.shape) < 0.1] = np.inf
            if trial % 4 == 0:
                block[rng.random(block.shape) < 0.2] = np.nan
            self.assert_matches_rank_items(block, k)

    def test_equals_rank_items_on_wide_rows(self, monkeypatch):
        # Rows of up to 400 items in buckets of 1 to 64: most buckets hold
        # many items, so the bound leaves items out of most NaN-free
        # blocks' candidates.
        pruned = []

        def recording_first_k(block, flat, k):
            if not np.isnan(block).any():
                pruned.append(len(flat) < block.size)
            return first_k(block, flat, k)

        first_k = EVALUATE_MODULE._first_k
        monkeypatch.setattr(EVALUATE_MODULE, "_first_k", recording_first_k)
        rng = np.random.default_rng(29)
        for trial in range(600):
            monkeypatch.setattr(EVALUATE_MODULE, "BUCKET_WIDTH", int(rng.integers(1, 65)))
            n_rows, n_items = int(rng.integers(1, 6)), int(rng.integers(1, 401))
            k = int(rng.integers(1, 46))
            if trial % 2 == 0:
                block = rng.integers(-3, 4, size=(n_rows, n_items)).astype(float)
            else:
                block = rng.normal(size=(n_rows, n_items))
            block[rng.random(block.shape) < rng.uniform(0.0, 0.9)] = -np.inf
            block[int(rng.integers(n_rows))] = -np.inf  # a row with no unmasked item
            if trial % 3 == 0:
                block[rng.random(block.shape) < rng.uniform(0.0, 0.2)] = np.inf
            if trial % 4 == 0:
                block[rng.random(block.shape) < rng.uniform(0.0, 0.3)] = np.nan
            self.assert_matches_rank_items(block, k)
        assert np.mean(pruned) > 0.5

    def test_signed_zeros_tie_and_break_by_item(self):
        # -0.0 == +0.0, so a mix of them at and around the k-th score ties,
        # and the tie breaks by ascending item, whatever each zero's sign.
        assert top_k_items(np.array([[0.0, -0.0, 0.0, 1.0, -0.0]]), 3).tolist() == [[3, 0, 1]]
        rng = np.random.default_rng(43)
        for trial in range(300):
            n_rows, n_items = int(rng.integers(1, 6)), int(rng.integers(1, 80))
            k = int(rng.integers(1, n_items + 1))
            block = np.where(rng.random((n_rows, n_items)) < 0.5, 0.0, -0.0)
            # About (k - 1) / 2 scores above zero, some below: the k-th is mostly a zero.
            above = rng.random(block.shape) < (k - 1) / (2 * n_items)
            block[above] = rng.integers(1, 3, size=np.count_nonzero(above))
            block[rng.random(block.shape) < 0.2] = -1.0
            if trial % 3 == 0:
                block[rng.random(block.shape) < 0.1] = np.nan
            self.assert_matches_rank_items(block, k)

    def test_blocks_taller_than_a_16_bit_row_number(self):
        # Evaluation makes blocks this tall for catalogues of at most 15 items.
        rng = np.random.default_rng(47)
        block = rng.choice([-1.0, -0.0, 0.0, 1.0, np.nan, -np.inf], size=(70_000, 2))
        want = np.array([rank_items(row) for row in block])
        for k in (1, 2):
            assert np.array_equal(top_k_items(block, k), want[:, :k])

    def test_rows_short_of_candidates_through_nans_rank_exactly(self, monkeypatch):
        # 200 items, k = 5: item j < 192 goes to bucket j mod 12 of 12 buckets.
        monkeypatch.setattr(EVALUATE_MODULE, "BUCKET_WIDTH", 16)
        rng = np.random.default_rng(8)
        block = rng.normal(size=(10, 200))
        block[rng.random(block.shape) < 0.3] = -np.inf
        order = np.argsort(-block, axis=1, kind="stable")
        block[1, order[1, :3]] = -np.inf  # masked items among a row's top k
        block[2, order[2, [1, 3]]] = 5.0  # a tie inside the top k, not at its boundary
        block[3, order[3, 5]] = block[3, order[3, 4]]  # 5th and 6th best tie
        block[4, order[4, :6]] = np.inf  # six +inf scores for k = 5
        block[5, order[5, 3:]] = -np.inf  # 3 finite scores for k = 5: bound -inf
        block[6, order[6, 0]] = np.nan  # one NaN: 11 buckets still bound the row
        block[7, :8] = np.nan  # NaN maxima in 8 of 12 buckets: bound NaN
        block[8, 3:] = np.nan  # 3 scores that are not NaN for k = 5
        block[9, :] = np.nan
        self.assert_matches_rank_items(block, 5)

    def test_rows_with_fewer_unmasked_items_than_k(self):
        block = np.array([[2.0, -np.inf, 2.0, -np.inf, 1.0], [-np.inf] * 5])
        assert top_k_items(block, 4).tolist() == [[0, 2, 4, 1], [0, 1, 2, 3]]
        self.assert_matches_rank_items(block, 4)

    def test_k_at_least_the_catalogue_ranks_everything(self):
        block = np.random.default_rng(3).normal(size=(4, 6))
        for k in (6, 7, 100):
            self.assert_matches_rank_items(block, k)

    @BLOCK_ROWS
    def test_report_does_not_depend_on_the_block_size(self, monkeypatch, block_rows):
        ds = generate_synthetic_dataset(60, 40, 4, 0.1, seed=2, interactions_per_user=5)
        table = init_embeddings(60, 40, 8, seed=4)
        expected = evaluate(table, ds, ks=(1, 5, 20))
        set_block_rows(monkeypatch, block_rows, ds.num_users, ds.num_items)
        assert evaluate(table, ds, ks=(1, 5, 20)) == expected

    @BLOCK_ROWS
    def test_metrics_bit_identical_to_the_per_user_oracle(self, monkeypatch, block_rows):
        rng = np.random.default_rng(23)
        for trial in range(60):
            args = random_eval_instance(rng, trial)
            user_out, item_out, _, ks, _, _ = args
            set_block_rows(monkeypatch, block_rows, user_out.shape[0], item_out.shape[0])
            recall, ndcg, count = evaluate_scores(*args)
            want_recall, want_ndcg, want_count = oracles.mean_ranking_metrics(*args)
            assert count == want_count
            assert [recall[k].hex() for k in ks] == [want_recall[k].hex() for k in ks]
            assert [ndcg[k].hex() for k in ks] == [want_ndcg[k].hex() for k in ks]

    def test_memory_stays_below_a_dense_score_matrix(self):
        # 4000 users x 2000 items: a dense float64 score matrix alone is 64 MB.
        report, peak = traced_evaluation_peak()
        assert report.rows[0].num_users > 3000
        assert peak < 32 * 2**20, f"evaluate peaked at {peak / 2**20:.1f} MB"

    def test_serial_memory_stays_below_two_score_blocks(self, monkeypatch):
        # One block of 8 MB at a time; ranking it takes about 1.3 MB more.
        monkeypatch.setattr(schedule, "usable_cpus", lambda: 1)
        report, peak = traced_evaluation_peak()
        assert report.rows[0].num_users > 3000
        assert peak <= 16 * 2**20, f"serial evaluate peaked at {peak / 2**20:.1f} MB"


def test_ranking_scratch_stays_below_a_quarter_block():
    # One eval-wide-shaped score block: 262 users x 4000 items, 8.4 MB.
    rng = np.random.default_rng(31)
    block = rng.normal(size=(262, 4000))
    block[rng.random(block.shape) < 1e-3] = -np.inf
    tracemalloc.start()
    try:
        top_k_items(block, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, f"ranking one block peaked at {peak / 2**20:.2f} MB"


def traced_evaluation_peak():
    """Evaluate 4000 users x 2000 items under tracemalloc: (report, peak bytes)."""
    n_users, n_items = 4000, 2000
    rng = np.random.default_rng(12)
    items = rng.integers(n_items, size=(n_users, 3))
    train = {(u, int(i)) for u in range(n_users) for i in items[u, :2]}
    test = {(u, int(items[u, 2])) for u in range(n_users)} - train
    ds = InteractionDataset(n_users, n_items, train, test, [])
    table = init_embeddings(n_users, n_items, 16, seed=1)
    tracemalloc.start()
    try:
        report = evaluate(table, ds, ks=(10, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


class TestSchedules:
    """Evaluation gives the same bits with the step pool as without it."""

    @pytest.mark.parametrize("blocks", [1, 2, 3], ids=lambda b: f"blocks={b}")
    def test_both_schedules_give_the_same_bits(self, monkeypatch, pool, blocks):
        rng = np.random.default_rng(23)
        paired_calls = 0
        for trial in range(60):
            args = random_eval_instance(rng, trial)
            user_out, item_out, _, ks, tests, users = args
            count = int(np.count_nonzero(np.diff(tests.indptr)[users]))
            rows = max(1, -(-count // blocks))
            set_block_rows(monkeypatch, rows, user_out.shape[0], item_out.shape[0])
            serial = evaluate_scores(*args)
            pool.submitted = 0
            with pool:
                paired = evaluate_scores(*args)
            assert pool.submitted == (1 if count > rows else 0)
            paired_calls += pool.submitted
            assert paired[2] == serial[2]
            for got, want in zip(paired[:2], serial[:2]):
                assert [got[k].hex() for k in ks] == [want[k].hex() for k in ks]
        assert (paired_calls > 0) == (blocks > 1)

    def test_evaluate_rows_are_the_same_on_both_schedules(self, monkeypatch):
        ds = generate_synthetic_dataset(60, 40, 4, 0.1, seed=2, interactions_per_user=5)
        table = init_embeddings(60, 40, 8, seed=4)
        set_block_rows(monkeypatch, 5, ds.num_users, ds.num_items)
        threads = []

        def recording_top_k_items(block, k):
            threads.append(threading.current_thread().name)
            return top_k_items(block, k)

        monkeypatch.setattr(EVALUATE_MODULE, "top_k_items", recording_top_k_items)
        kwargs = dict(ks=(1, 5, 20), users=range(0, 60, 2),
                      extra_inference_edges=[(1, 3), (2, 7), (4, 0)], label="cold")
        reports = {}
        for cpus in (1, 2):
            monkeypatch.setattr(schedule, "usable_cpus", lambda cpus=cpus: cpus)
            threads.clear()
            reports[cpus] = evaluate(table, ds, **kwargs)
            on_worker = [t.startswith(schedule.THREAD_NAME_PREFIX) for t in threads]
            assert any(on_worker) == (cpus == 2) and not all(on_worker)
        serial, paired = reports[1].rows[0], reports[2].rows[0]
        assert paired.num_users == serial.num_users > 5
        assert paired == serial
        for k in kwargs["ks"]:
            assert paired.recall[k].hex() == serial.recall[k].hex()
            assert paired.ndcg[k].hex() == serial.ndcg[k].hex()

    def test_one_cpu_host_evaluates_without_a_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-CPU host started a step pool")

        ds = generate_synthetic_dataset(60, 40, 4, 0.1, seed=2, interactions_per_user=5)
        table = init_embeddings(60, 40, 8, seed=4)
        expected = evaluate(table, ds, ks=(1, 5, 20))
        monkeypatch.setattr(schedule, "usable_cpus", lambda: 1)
        monkeypatch.setattr(schedule, "ThreadPoolExecutor", no_pool)
        set_block_rows(monkeypatch, 5, ds.num_users, ds.num_items)
        before = threading.active_count()
        assert evaluate(table, ds, ks=(1, 5, 20)) == expected
        assert threading.active_count() == before


class TestEvaluate:
    def make_dataset(self):
        # Two users, three items; u0 trained on i0, tests on i1.
        train = {(0, 0), (1, 1)}
        test = {(0, 1), (1, 2)}
        return InteractionDataset(2, 3, train, test, [])

    def test_report_shape_and_bounds(self):
        ds = self.make_dataset()
        table = EmbeddingTable(np.random.default_rng(0).normal(size=(2, 4)),
                               np.random.default_rng(1).normal(size=(3, 4)))
        report = evaluate(table, ds, ks=(1, 2), seed=7)
        assert report.ks == (1, 2)
        row = report.rows[0]
        assert row.num_users == 2
        for k in (1, 2):
            assert 0.0 <= row.recall[k] <= 1.0
            assert 0.0 <= row.ndcg[k] <= 1.0
        assert report.seed == 7

    def test_users_without_train_edges_excluded(self):
        ds = InteractionDataset(3, 3, {(0, 0), (1, 1)}, {(0, 1), (2, 2)}, [])
        table = EmbeddingTable(np.ones((3, 2)), np.ones((3, 2)))
        report = evaluate(table, ds, ks=(1,))
        assert report.rows[0].num_users == 1  # user 2 has no train edge

    @pytest.mark.parametrize(
        "users, count",
        [([0], 1), ({1}, 1), (np.array([1, 0, 1]), 2), ([], 0), (range(2), 2)],
        ids=["one", "set", "array-with-repeats", "none", "range"],
    )
    def test_users_restrict_the_evaluated_rows(self, users, count):
        ds = self.make_dataset()
        table = EmbeddingTable(np.random.default_rng(0).normal(size=(2, 4)),
                               np.random.default_rng(1).normal(size=(3, 4)))
        report = evaluate(table, ds, ks=(1, 2), users=users)
        assert report.rows[0].num_users == count

    @pytest.mark.parametrize(
        "users, bad",
        [([10**9, -3], "1000000000"), ([0, -3], "-3"), ([1.7], "1.7"),
         (np.array([1.0]), repr(np.float64(1.0))), ({2}, "2"), (["0"], "'0'"),
         ([0, True], "True"), (np.array([False]), repr(np.False_))],
        ids=["too-large", "negative", "float", "float-array", "num-users", "string",
             "bool", "bool-array"],
    )
    def test_bad_user_ids_rejected(self, users, bad):
        ds = self.make_dataset()
        table = EmbeddingTable(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError, match=rf"user id {re.escape(bad)} is not an integer in \[0, 2\)"):
            evaluate(table, ds, ks=(1,), users=users)

    def test_extra_inference_edges_enable_cold_users(self):
        ds = InteractionDataset(3, 3, {(0, 0), (1, 1)}, {(0, 1), (2, 2)}, [])
        table = EmbeddingTable(np.ones((3, 2)), np.ones((3, 2)))
        report = evaluate(table, ds, ks=(1,), extra_inference_edges=[(2, 0)])
        assert report.rows[0].num_users == 2

    def test_extra_inference_items_never_ranked(self, monkeypatch):
        # Cold user 2 has only inference-only edges; its extra items and
        # every user's train items must be masked before ranking.
        ds = InteractionDataset(3, 5, {(0, 0), (1, 1)}, {(0, 4), (1, 4), (2, 4)}, [])
        extra = [(2, 0), (2, 2), (0, 3)]
        rows = []

        def recording_top_k_items(block, k):
            rows.extend(block.copy())
            return top_k_items(block, k)

        monkeypatch.setattr(EVALUATE_MODULE, "top_k_items", recording_top_k_items)
        rng = np.random.default_rng(5)
        table = EmbeddingTable(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
        report = evaluate(table, ds, ks=(1, 5), extra_inference_edges=extra)
        assert report.rows[0].num_users == 3
        masked = [{0, 3}, {1}, {0, 2}]  # users are ranked in ascending order
        assert len(rows) == len(masked)
        for row, items in zip(rows, masked):
            assert set(np.flatnonzero(row == -np.inf).tolist()) == items

    @pytest.mark.parametrize(
        "ks", [(), (0,), (-5,), (20, 10), (10.5,), (True, 2), (1, 2.0), ("5",)], ids=str
    )
    def test_bad_cutoffs_rejected(self, ks):
        ds = self.make_dataset()
        table = EmbeddingTable(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError, match="eval_ks") as info:
            evaluate(table, ds, ks=ks)
        assert str(ks) in str(info.value)

    def test_table_of_another_shape_rejected(self):
        ds = self.make_dataset()
        table = EmbeddingTable(np.ones((3, 2)), np.ones((3, 2)))
        with pytest.raises(DataError, match="3 users x 3 items.*2 users x 3 items"):
            evaluate(table, ds, ks=(1,))

    def test_requires_test_edges(self):
        ds = InteractionDataset(2, 2, {(0, 0), (1, 1)}, set(), [])
        table = EmbeddingTable(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(DataError, match="no test edges"):
            evaluate(table, ds, ks=(1,))

    def test_perfect_model_perfect_metrics(self):
        # Block-diagonal embeddings survive the one-convolution encoder and
        # rank the in-block test item on top for every user.
        ds = InteractionDataset(
            4, 4,
            {(0, 0), (1, 1), (2, 2), (3, 3)},
            {(0, 1), (1, 0), (2, 3), (3, 2)},
            [],
        )
        user = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        item = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        table = EmbeddingTable(user, item)
        report = evaluate(table, ds, ks=(1, 2))
        assert report.rows[0].recall[1] == 1.0
        assert report.rows[0].ndcg[1] == 1.0


class TestReportTypes:
    def test_metric_row_bounds_checked(self):
        with pytest.raises(ValueError):
            MetricRow("x", {10: 1.5}, {10: 0.0}, 1)

    def test_report_row_lookup(self):
        row = MetricRow("full", {10: 0.5}, {10: 0.25}, 3)
        report = EvalReport(ks=(10,), rows=[row])
        assert report.row("full") is row
        with pytest.raises(KeyError):
            report.row("missing")
