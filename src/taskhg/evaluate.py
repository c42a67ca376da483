"""Top-K ranking evaluation: Recall@K and NDCG@K with deterministic ties.

Scores come from the downstream encoder: one hypergraph convolution over
the recommendation hypergraphs, then user-item inner products, made for
one block of users at a time. A user's items in the user-side hypergraph
are masked out of the ranking; ties break by ascending item index. Only
each user's top max(ks) items are selected and ordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import check_eval_ks
from .data import InteractionDataset
from .model import EmbeddingTable, encode_auxiliary_task_traced
from .schedule import pairs_overlap, run_pair, step_pool


@dataclass
class MetricRow:
    label: str
    recall: dict
    ndcg: dict
    num_users: int

    def __post_init__(self):
        for table in (self.recall, self.ndcg):
            for k, v in table.items():
                if not (0.0 <= v <= 1.0):
                    raise ValueError(f"metric out of [0, 1] at K={k}: {v}")


@dataclass
class EvalReport:
    ks: tuple
    rows: list
    seed: int = 0
    epochs_pretrain: int = 0
    epochs_finetune: int = 0
    cold_start_ratio: float | None = None

    def row(self, label: str) -> MetricRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


# Cells of one block of scores (users x items) that evaluation holds at a
# time: 8 MB of float64, however many users are evaluated.
SCORE_BLOCK_CELLS = 1 << 20


def rank_items(score_row: np.ndarray) -> np.ndarray:
    """Full descending ranking with ties broken by ascending item index."""
    return np.lexsort((np.arange(len(score_row)), -score_row))


def top_k_items(block: np.ndarray, k: int) -> np.ndarray:
    """`rank_items(row)[:k]` for every row of a score block, without a full sort.

    The rows are ranked in slices of about a quarter of a score block, so
    the index partition's int64 scratch stays a quarter of the block's
    size; ranking is row by row, so the slicing changes no result. Returns
    a (rows, min(k, items)) array of item indices.
    """
    n_rows, n_items = block.shape
    k = min(k, n_items)
    top = np.empty((n_rows, k), dtype=np.intp)
    step = max(1, SCORE_BLOCK_CELLS // (4 * max(1, n_items)))
    for lo in range(0, n_rows, step):
        top[lo : lo + step] = _top_k_slice(block[lo : lo + step], k)
    return top


def _top_k_slice(block: np.ndarray, k: int) -> np.ndarray:
    """`top_k_items` for a slice of rows, k <= items.

    One index partition picks each row's k largest scores. A row is clean
    when exactly k items score at least the smallest of them: then they
    are its top k, ordered by descending score and ascending item index.
    Rows with ties at the boundary, a NaN, or fewer than k finite scores
    are left to `_top_k_survivors`.
    """
    n_items = block.shape[1]
    cand = np.argpartition(block, n_items - k, axis=1)[:, n_items - k :]
    vals = np.take_along_axis(block, cand, axis=1)
    # A NaN makes the bound NaN, which no score reaches.
    bound = vals.min(axis=1, keepdims=True)
    clean = np.count_nonzero(block >= bound, axis=1) == k
    top = np.take_along_axis(cand, np.lexsort((cand, -vals), axis=1), axis=1)
    if not clean.all():
        dirty = ~clean
        top[dirty] = _top_k_survivors(block[dirty], k)
    return top


def _top_k_survivors(block: np.ndarray, k: int) -> np.ndarray:
    """`top_k_items` for any rows, k <= items: every item scoring at least
    the row's k-th largest score survives, so items tied at the boundary do
    too; one lexsort over the survivors orders them as `rank_items` does,
    and each row keeps its first k.
    """
    n_rows = block.shape[0]
    neg = np.negative(block)
    neg.partition(k - 1, axis=1)  # NaN sorts last, as in rank_items
    kth = -neg[:, k - 1 : k]
    # `not <` also keeps NaN scores and, where the k-th score is NaN, every item.
    rows, cols = np.nonzero(~(block < kth))
    order = np.lexsort((cols, -block[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    per_row = np.bincount(rows, minlength=n_rows)
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    return cols[rank < k].reshape(n_rows, k)


def evaluate_scores(user_out, item_out, seen, ks, tests, users):
    """Mean Recall@K / NDCG@K over `users` from the encoded user and item tables.

    Scores are `user_out @ item_out.T`, made for a block of users at a time;
    each user's row of `seen`, a users x items CSR incidence, is masked.
    BLAS picks its kernel by the product's shape, so a score's last bits can
    depend on the block's size; only scores within an ulp or so can swap.
    The blocks therefore have the same rows on every schedule. A user's row
    of `tests`, the users x items CSR incidence of the test edges, holds
    their test items; users without one are skipped.

    Under `schedule.step_pool`, with at least two blocks, the worker
    scores the even-numbered blocks and the calling thread the odd ones;
    otherwise the calling thread scores them all in order. Each
    thread scores its blocks into one block buffer made by the calling
    thread, and each block writes only its own users' columns of the
    per-user metrics, so at most two blocks, about 11 MB each with their
    ranking scratch, are held at once.

    Each metric is computed for a whole block from one hit matrix, with the
    arithmetic of the one-user oracles `recall_at_k` and `ndcg_at_k` in
    `tests/oracles.py`: gains are summed in rank order and the means over
    users in user order, so the results are bit-identical to averaging
    those oracles user by user, on either schedule.
    """
    users = np.asarray(users, dtype=np.intp)
    test_counts = np.diff(tests.indptr)
    users = users[test_counts[users] > 0]
    count = len(users)
    if not count:
        return {k: 0.0 for k in ks}, {k: 0.0 for k in ks}, 0
    n_items = item_out.shape[0]
    width = min(max(ks), n_items)
    cols = [min(k, width) - 1 for k in ks]
    disc = np.array([1.0 / math.log2(p + 1) for p in range(1, width + 1)])
    n_test = test_counts[users]
    ideal = np.cumsum(disc)
    recall = np.empty((len(ks), count))
    ndcg = np.empty((len(ks), count))
    step = max(1, SCORE_BLOCK_CELLS // n_items)

    def score_blocks(starts, buf):
        for lo in starts:
            hi = min(lo + step, count)
            chunk = users[lo:hi]
            rows = np.arange(hi - lo)
            block = np.matmul(user_out[chunk], item_out.T, out=buf[: hi - lo])
            masked = seen[chunk]
            block[np.repeat(rows, np.diff(masked.indptr)), masked.indices] = -np.inf
            top = top_k_items(block, width)
            is_test = np.zeros((hi - lo, n_items), dtype=bool)
            is_test[np.repeat(rows, n_test[lo:hi]), tests[chunk].indices] = True
            hit = np.take_along_axis(is_test, top, axis=1)
            del is_test  # freed before the next block is ranked
            hits = np.cumsum(hit, axis=1)
            dcg = np.cumsum(np.where(hit, disc, 0.0), axis=1)
            for j, (k, col) in enumerate(zip(ks, cols)):
                recall[j, lo:hi] = hits[:, col] / n_test[lo:hi]
                ndcg[j, lo:hi] = dcg[:, col] / ideal[np.minimum(k, n_test[lo:hi]) - 1]

    starts = range(0, count, step)
    # The calling thread allocates the block buffers, so the worker's
    # allocator arena never holds a block (see `schedule`).
    if not pairs_overlap() or len(starts) < 2:
        score_blocks(starts, np.empty((min(step, count), n_items)))
    else:
        first, second = np.empty((2, step, n_items))
        run_pair(
            lambda: score_blocks(starts[0::2], first),
            lambda: score_blocks(starts[1::2], second),
        )
    # Sequential sums, in user order: np.sum would add pairwise.
    recall_mean = {k: float(np.cumsum(recall[j])[-1] / count) for j, k in enumerate(ks)}
    ndcg_mean = {k: float(np.cumsum(ndcg[j])[-1] / count) for j, k in enumerate(ks)}
    return recall_mean, ndcg_mean, count


def encode_for_inference(table: EmbeddingTable, rec_user_task, rec_item_task):
    """Downstream encoder, as in finetuning: one layer over the recommendation pair.

    As in finetuning, the user encoder runs on the step pool's worker beside
    the item encoder on the calling thread; the outputs are the same either way.
    """
    return run_pair(
        lambda: encode_auxiliary_task_traced(rec_user_task.graph, table.user_emb, 1).node_emb,
        lambda: encode_auxiliary_task_traced(rec_item_task.graph, table.item_emb, 1).node_emb,
    )


def evaluate(
    table: EmbeddingTable,
    dataset: InteractionDataset,
    ks,
    users=None,
    extra_inference_edges=None,
    label: str = "overall",
    seed: int = 0,
) -> EvalReport:
    """Rank all items per user and report mean Recall@K / NDCG@K.

    extra_inference_edges join the train edges in the recommendation pair
    at inference only (cold start). Users with a test item and an edge in
    that pair are evaluated, with their edges masked from the ranking.
    """
    ks = check_eval_ks(ks)
    dataset.check_test_edges()
    dataset.check_table(table)
    if extra_inference_edges is None or not len(extra_inference_edges):
        rec_user_task, rec_item_task = dataset.rec_pair()
    else:
        rec_user_task, rec_item_task = dataset.rec_pair_with(extra_inference_edges)
    seen = rec_user_task.graph.incidence
    known = np.flatnonzero(rec_user_task.graph.node_degrees)
    if users is not None:
        known = known[np.isin(known, np.fromiter(users, dtype=np.int64))]
    tests = dataset.test_incidence()
    with step_pool():
        user_out, item_out = encode_for_inference(table, rec_user_task, rec_item_task)
        recall, ndcg, count = evaluate_scores(user_out, item_out, seen, ks, tests, known)
    row = MetricRow(label=label, recall=recall, ndcg=ndcg, num_users=count)
    return EvalReport(ks=ks, rows=[row], seed=seed)
