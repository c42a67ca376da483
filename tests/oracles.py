"""Independent reference implementations used only by the tests.

Everything here is written against dense arrays and plain Python loops, on
purpose: these oracles must not share code with the sparse/matrix-form
paths they check. Three exceptions: `hypergraph_convolve`, which composes
the package's two aggregations and is itself checked against
`dense_convolve`; `full_table_au_grad`, a byte-for-byte reference
built from the package's row primitives; and `build_relation_hypergraph`,
the record-at-a-time builder, which hands its pairs to the package's
`build_hypergraph` so that its range errors read as the package's.
"""

import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from taskhg.data import STREAM_SPLIT, rng_for
from taskhg.errors import DataError
from taskhg.evaluate import rank_items
from taskhg.gradients import (
    _norm_backward,
    _normalize_with_cache,
    _scatter_rows,
    _uniformity_grad,
)
from taskhg.hypergraph import (
    Hypergraph,
    aggregate_hyperedges_to_nodes,
    aggregate_nodes_to_hyperedges,
    build_hypergraph,
)
from taskhg.tasks import TaskHypergraph, TaskKind


def hypergraph_convolve(h: Hypergraph, node_emb: np.ndarray) -> np.ndarray:
    """One convolution layer: nodes -> hyperedges -> nodes, both mean-normalized."""
    return aggregate_hyperedges_to_nodes(h, aggregate_nodes_to_hyperedges(h, node_emb))


def dense_convolve(H: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Explicit dense product: D^-1 H B^-1 H^T X with zero-degree pseudo-inverse."""
    node_deg = H.sum(axis=1)
    edge_deg = H.sum(axis=0)
    with np.errstate(divide="ignore"):
        inv_d = np.where(node_deg > 0, 1.0 / node_deg, 0.0)
        inv_b = np.where(edge_deg > 0, 1.0 / edge_deg, 0.0)
    edge = inv_b[:, None] * (H.T @ X)
    return inv_d[:, None] * (H @ edge)


def loop_ta_forward(H, X, zs, gamma, num_layers=1):
    """Per-hyperedge loop over the four TA steps (init, attend, fuse, update)."""
    n, m = H.shape
    d = X.shape[1]
    x = np.array(X, dtype=float)
    for _ in range(num_layers):
        eps = np.zeros((m, d))
        for j in range(m):
            members = [v for v in range(n) if H[v, j]]
            if members:
                eps[j] = sum(x[v] for v in members) / len(members)
        q = np.zeros((m, d))
        for j in range(m):
            if zs:
                logits = [float(eps[j] @ z[j]) / math.sqrt(d) for z in zs]
                top = max(logits)
                weights = [math.exp(l - top) for l in logits]
                total = sum(weights)
                alpha = [w / total for w in weights]
                s = np.zeros(d)
                for a_t, z in zip(alpha, zs):
                    s += a_t * z[j]
                q[j] = eps[j] + gamma * np.tanh(s)
            else:
                q[j] = eps[j]
        out = np.zeros((n, d))
        for v in range(n):
            incident = [j for j in range(m) if H[v, j]]
            if incident:
                out[v] = sum(q[j] for j in incident) / len(incident)
        x = out
    return x


def central_difference_grad(loss_fn, param: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn() with respect to `param` in place."""
    grad = np.zeros_like(param)
    flat = param.ravel()
    gflat = grad.ravel()
    for k in range(flat.size):
        original = flat[k]
        flat[k] = original + h
        f_plus = loss_fn()
        flat[k] = original - h
        f_minus = loss_fn()
        flat[k] = original
        gflat[k] = (f_plus - f_minus) / (2.0 * h)
    return grad


def assert_grad_close(analytic, numeric, rtol=1e-4, atol=1e-7, context=""):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    err = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = (err <= atol) | (err <= rtol * scale)
    if not ok.all():
        worst = np.unravel_index(np.argmax(err - rtol * scale), err.shape)
        raise AssertionError(
            f"gradient mismatch {context} at {worst}: "
            f"analytic={analytic[worst]!r} numeric={numeric[worst]!r}"
        )


def max_rel_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Worst elementwise error relative to the expected matrix scale."""
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    return float(np.abs(actual - expected).max(initial=0.0)) / scale


def random_hypergraph_dense(rng, max_nodes=50, max_edges=30, density=0.15):
    n = int(rng.integers(1, max_nodes + 1))
    m = int(rng.integers(1, max_edges + 1))
    H = (rng.random((n, m)) < density).astype(float)
    return H


# ---------------------------------------------------------------------------
# Scalar loss values. Each takes the full output tables plus the batch's row
# indices, like the trained (value, gradients) functions, and uses the same
# normalization: the mean over the batch, with AU uniformity over the
# batch's unique rows. The log-sigmoid and row normalization are written
# out per scalar here, so no arithmetic is shared with the package.


def _log_sigmoid(x: float) -> float:
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def _batch_mean(terms) -> float:
    terms = list(terms)
    if not terms:
        raise ValueError("a loss needs a non-empty batch")
    return math.fsum(terms) / len(terms)


def _sq_dist(x, y) -> float:
    return math.fsum((float(a) - float(b)) ** 2 for a, b in zip(x, y))


def _dot(x, y) -> float:
    return math.fsum(float(a) * float(b) for a, b in zip(x, y))


def alignment_loss(user_rows, item_rows, users, items) -> float:
    """Mean squared distance between the batch's user and item rows."""
    return _batch_mean(_sq_dist(user_rows[u], item_rows[i]) for u, i in zip(users, items))


def bpr_loss(user_rows, item_rows, users, pos, neg) -> float:
    """Mean of -log sigmoid(s_pos - s_neg) over (user, positive, negative) triples."""
    return _batch_mean(
        -_log_sigmoid(_dot(user_rows[u], item_rows[p]) - _dot(user_rows[u], item_rows[n]))
        for u, p, n in zip(users, pos, neg)
    )


def bpr_pos_loss(user_rows, item_rows, users, pos) -> float:
    """Mean of -log sigmoid(s_pos) over the batch's positive pairs."""
    return _batch_mean(
        -_log_sigmoid(_dot(user_rows[u], item_rows[p])) for u, p in zip(users, pos)
    )


def _unit(row) -> list:
    norm = math.hypot(*(float(v) for v in row))
    return [float(v) / norm if norm > 0 else 0.0 for v in row]


def _uniformity(rows) -> float:
    """log of the mean of exp(-2 ||x - y||^2) over distinct pairs; 0 below two rows."""
    kernel = [
        math.exp(-2.0 * _sq_dist(rows[a], rows[b]))
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
    ]
    return math.log(math.fsum(kernel) / len(kernel)) if kernel else 0.0


def au_loss(user_rows, item_rows, users, items, uniformity_weight) -> float:
    """Alignment plus weighted uniformity on L2-normalized rows (zero rows stay zero).

    Uniformity is averaged over the two sides, each taken over the unique
    rows the batch touches.
    """
    align = _batch_mean(
        _sq_dist(_unit(user_rows[u]), _unit(item_rows[i])) for u, i in zip(users, items)
    )
    uniform_users = _uniformity([_unit(user_rows[u]) for u in sorted(set(users))])
    uniform_items = _uniformity([_unit(item_rows[i]) for i in sorted(set(items))])
    return align + uniformity_weight * 0.5 * (uniform_users + uniform_items)


def pairwise_uniformity_grad(hat_rows):
    """Gaussian uniformity value and gradient from explicit pairwise differences.

    The (n, n, d) difference tensor is the reference for the package's Gram
    form: log of the mean of exp(-2 ||x - y||^2) over distinct pairs, and its
    gradient with respect to the (already normalized) rows.
    """
    hat_rows = np.asarray(hat_rows, dtype=np.float64)
    n = hat_rows.shape[0]
    if n < 2:
        return 0.0, np.zeros_like(hat_rows)
    diff = hat_rows[:, None, :] - hat_rows[None, :, :]
    kmat = np.exp(-2.0 * (diff**2).sum(axis=2))
    np.fill_diagonal(kmat, 0.0)
    total = 0.5 * kmat.sum()
    value = math.log(total / (n * (n - 1) / 2.0))
    grad = (-4.0 / total) * (kmat[:, :, None] * diff).sum(axis=1)
    return value, grad


def full_table_au_grad(user_out, item_out, users, items, uniformity_weight):
    """The `au` loss computed over both whole tables, serially.

    Every row is normalized and every row goes through the normalization's
    reverse, although only the batch's rows get a gradient. It reuses the
    package's row primitives on purpose: the batch-rows `au_grad` must give
    the same bytes, so it is checked with `.tobytes()` against this.
    """
    n = len(users)
    user_hat, user_norms = _normalize_with_cache(user_out)
    item_hat, item_norms = _normalize_with_cache(item_out)
    diff = user_hat[users] - item_hat[items]
    align = float((diff**2).sum()) / n
    g_user_hat = _scatter_rows(len(user_out), users, (2.0 / n) * diff)
    g_item_hat = _scatter_rows(len(item_out), items, -(2.0 / n) * diff)
    uu = np.unique(users)
    ii = np.unique(items)
    u_val, u_g = _uniformity_grad(user_hat[uu])
    i_val, i_g = _uniformity_grad(item_hat[ii])
    g_user_hat[uu] += (0.5 * uniformity_weight) * u_g
    g_item_hat[ii] += (0.5 * uniformity_weight) * i_g
    loss = align + uniformity_weight * 0.5 * (u_val + i_val)
    g_user = _norm_backward(g_user_hat, user_hat, user_norms)
    g_item = _norm_backward(g_item_hat, item_hat, item_norms)
    return loss, g_user, g_item


def sample_negative_items(rng, users, seen_by_user, num_items):
    """Set-based rejection sampler: one rng.integers(num_items) per try until
    the draw is not in the user's set of seen items."""
    out = np.empty(len(users), dtype=np.int64)
    for k, u in enumerate(users):
        seen = seen_by_user.get(int(u), ())
        if len(seen) >= num_items:
            raise ValueError(f"user {u} interacted with every item")
        j = int(rng.integers(num_items))
        while j in seen:
            j = int(rng.integers(num_items))
        out[k] = j
    return out


def l2_terms(user_emb, item_emb, lambda_reg):
    """The L2 term of both training losses as out-of-place expressions.

    Returns (||U||^2 + ||I||^2, its gradient on U, its gradient on I), each
    built with fresh temporaries; the package's in-place form must
    reproduce them bit for bit.
    """
    reg = float((user_emb**2).sum() + (item_emb**2).sum())
    return reg, (2.0 * lambda_reg) * user_emb, (2.0 * lambda_reg) * item_emb


def adam_step(params, grads, first_moment, second_moment, t, lr, beta1, beta2, epsilon):
    """One bias-corrected Adam step over every block, out of place per term.

    The textbook expression with fresh temporaries; the package's in-place,
    row-sliced update must reproduce it bit for bit.
    """
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, g in grads.items():
        m = first_moment[name]
        v = second_moment[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        params[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + epsilon)


def recall_at_k(ranked_items, test_items, k: int) -> float:
    """Fraction of a user's test items that appear in their top-k."""
    test_items = set(test_items)
    if not test_items:
        raise ValueError("recall_at_k needs at least one test item")
    hits = sum(1 for i in ranked_items[:k] if i in test_items)
    return hits / len(test_items)


def ndcg_at_k(ranked_items, test_items, k: int) -> float:
    """Binary-relevance NDCG; ideal gain uses min(k, #test) positions."""
    test_items = set(test_items)
    if not test_items:
        raise ValueError("ndcg_at_k needs at least one test item")
    dcg = 0.0
    for pos, item in enumerate(ranked_items[:k], start=1):
        if item in test_items:
            dcg += 1.0 / math.log2(pos + 1)
    ideal = sum(1.0 / math.log2(p + 1) for p in range(1, min(k, len(test_items)) + 1))
    return dcg / ideal


def mean_ranking_metrics(user_out, item_out, seen, ks, tests, users):
    """Mean Recall@K / NDCG@K, one user at a time.

    Each user's whole row of scores, with the items of their `seen` CSR
    row masked, is ranked by `rank_items`; `recall_at_k` and `ndcg_at_k`
    against the set of items in their `tests` CSR row are summed user by
    user in `users` order and divided by the count; users whose `tests`
    row is empty are skipped.
    Scores are made one row at a time, so they match a block product only
    where every sum is exact (say, small dyadic embeddings).
    """
    test_items = {u: set(tests[u].indices.tolist()) for u in users}
    users = [u for u in users if test_items[u]]
    recall = {k: 0.0 for k in ks}
    ndcg = {k: 0.0 for k in ks}
    for u in users:
        row = item_out @ user_out[u]
        row[seen[u].indices] = -np.inf
        ranked = rank_items(row)
        for k in ks:
            recall[k] += recall_at_k(ranked, test_items[u], k)
            ndcg[k] += ndcg_at_k(ranked, test_items[u], k)
    if users:
        for k in ks:
            recall[k] /= len(users)
            ndcg[k] /= len(users)
    return recall, ndcg, len(users)


# ---------------------------------------------------------------------------
# Edges as Python sets of (user, item) tuples: the package's construction,
# split and interaction loading before they moved to sorted int64 arrays.


def unique_pairs_incidence(memberships, num_nodes, num_hyperedges) -> Hypergraph:
    """A hypergraph built through `np.unique(pairs, axis=0)` and a COO
    (row, col) constructor."""
    pairs = np.asarray(list(memberships), dtype=np.int64).reshape(-1, 2)
    if pairs.size:
        pairs = np.unique(pairs, axis=0)
    data = np.ones(len(pairs), dtype=np.float64)
    mat = sp.csr_matrix((data, (pairs[:, 0], pairs[:, 1])), shape=(num_nodes, num_hyperedges))
    return Hypergraph(mat)


def split_interactions(edges, train_fraction, seed):
    """Set-based split: the seeded permutation of the sorted tuples, then
    each user whose edges all fell in test gets their first test edge back,
    in sorted order. Returns (train set, test set)."""
    edges = sorted(set(edges))
    order = rng_for(seed, STREAM_SPLIT).permutation(len(edges))
    n_train = int(round(train_fraction * len(edges)))
    n_train = min(max(n_train, 1), len(edges) - 1)
    train = {edges[j] for j in order[:n_train]}
    test = {edges[j] for j in order[n_train:]}
    train_users = {u for u, _ in train}
    for u, i in sorted(test):
        if u not in train_users:
            test.discard((u, i))
            train.add((u, i))
            train_users.add(u)
    return train, test


def _id_map(raw_ids):
    """raw id -> dense index, or None where the ids are "0" ... "n-1".

    Otherwise the ids are ordered by (int, string) if every id parses as
    an int, else by string."""
    raw_ids = set(raw_ids)
    try:
        as_int = {r: int(r) for r in raw_ids}
    except ValueError:
        ordered = sorted(raw_ids)
    else:
        if sorted(raw_ids) == sorted(str(k) for k in range(len(raw_ids))):
            return None
        ordered = sorted(raw_ids, key=lambda r: (as_int[r], r))
    return {raw: idx for idx, raw in enumerate(ordered)}


def read_pairs(path):
    """Line-by-line reading of a dataset TSV: `str.splitlines`, blank lines
    skipped, two tab-separated fields per line. Returns the rows as lists."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if line:
            fields = line.split("\t")
            if len(fields) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields, got {line!r}")
            rows.append(fields)
    return rows


def load_interactions(root, train_fraction=None, seed=0):
    """Line-by-line reading of `interactions.tsv` in a dataset without
    auxiliary tasks: `read_pairs`, then one id-map lookup per line.

    Returns (num_users, num_items, train set, test set, id-map texts keyed
    by file name, None where no map is written).
    """
    rows = read_pairs(Path(root) / "interactions.tsv")
    maps = [_id_map(column) for column in zip(*rows)]
    edges = {
        tuple(int(raw) if m is None else m[raw] for raw, m in zip(row, maps)) for row in rows
    }
    if train_fraction is None:
        train, test = edges, set()
    else:
        train, test = split_interactions(edges, train_fraction, seed)
    counts = [len(set(column)) for column in zip(*rows)]
    texts = {
        f"idmap.{side}.tsv": None if m is None else "".join(f"{raw}\t{idx}\n" for raw, idx in m.items())
        for side, m in zip(("users", "items"), maps)
    }
    return counts[0], counts[1], train, test, texts


# ---------------------------------------------------------------------------
# Task hypergraphs from (anchor, related set) records, one record at a time.


def build_relation_hypergraph(task_id, side, relations, num_nodes):
    """The record-form relation builder: each (anchor, related) record with a
    non-empty related set becomes one hyperedge over its anchor and related
    nodes, labelled by the sorted members joined by commas; the kept records
    are sorted by label as strings. Returns (task, skipped_count)."""
    kept = []
    skipped = 0
    for anchor, related in relations:
        related = set(related)
        if not related:
            skipped += 1
            continue
        members = sorted(related | {int(anchor)})
        kept.append((",".join(str(m) for m in members), members))
    kept.sort(key=lambda item: item[0])
    memberships = []
    for edge_idx, (_, members) in enumerate(kept):
        memberships.extend((m, edge_idx) for m in members)
    graph = build_hypergraph(memberships, num_nodes, len(kept))
    labels = tuple(label for label, _ in kept)
    task = TaskHypergraph(task_id, TaskKind.RELATION_PREDICTION, side, graph, labels)
    return task, skipped


def relation_columns(relations):
    """(anchors, flat related ids, per-record counts) of (anchor, related) records."""
    anchors = [anchor for anchor, _ in relations]
    related = [r for _, members in relations for r in members]
    return anchors, related, [len(members) for _, members in relations]
