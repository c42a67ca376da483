import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from taskhg.data import InteractionDataset
from taskhg.errors import DataError
from taskhg.evaluate import (
    EvalReport,
    MetricRow,
    evaluate,
    evaluate_scores,
    ndcg_at_k,
    rank_items,
    recall_at_k,
)
from taskhg.model import EmbeddingTable


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
        scores = np.array([[9.0, 5.0, 1.0]])
        seen = sp.csr_matrix(np.array([[1.0, 0.0, 0.0]]))
        recall, _, n = evaluate_scores(scores, seen, {0: {1}}, ks=(1,), users=[0])
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
        rows = {}

        def recording_rank_items(row):
            rows[len(rows)] = row.copy()
            return rank_items(row)

        # `taskhg.evaluate` names the function; the module is in sys.modules.
        monkeypatch.setattr(sys.modules["taskhg.evaluate"], "rank_items", recording_rank_items)
        rng = np.random.default_rng(5)
        table = EmbeddingTable(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
        report = evaluate(table, ds, ks=(1, 5), extra_inference_edges=extra)
        assert report.rows[0].num_users == 3
        masked = {0: {0, 3}, 1: {1}, 2: {0, 2}}
        for u, row in rows.items():  # users are ranked in ascending order
            assert set(np.flatnonzero(row == -np.inf).tolist()) == masked[u]

    @pytest.mark.parametrize("ks", [(), (0,), (-5,), (20, 10)], ids=str)
    def test_bad_cutoffs_rejected(self, ks):
        ds = self.make_dataset()
        table = EmbeddingTable(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError, match="eval_ks"):
            evaluate(table, ds, ks=ks)

    def test_table_of_another_shape_rejected(self):
        ds = self.make_dataset()
        table = EmbeddingTable(np.ones((3, 2)), np.ones((3, 2)))
        with pytest.raises(DataError, match="3 users x 3 items.*2 users x 3 items"):
            evaluate(table, ds, ks=(1,))

    def test_requires_test_edges(self):
        ds = InteractionDataset(2, 2, {(0, 0), (1, 1)}, set(), [])
        table = EmbeddingTable(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
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
