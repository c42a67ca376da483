"""Independent reference implementations used only by the tests.

Everything here is written against dense arrays and plain Python loops, on
purpose: these oracles must not share code with the sparse/matrix-form
paths they check. The one exception is `hypergraph_convolve`, which
composes the package's two aggregations; it is itself checked against
`dense_convolve`.
"""

import math

import numpy as np

from taskhg.evaluate import ndcg_at_k, rank_items, recall_at_k
from taskhg.hypergraph import (
    Hypergraph,
    aggregate_hyperedges_to_nodes,
    aggregate_nodes_to_hyperedges,
)


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


def mean_ranking_metrics(user_out, item_out, seen, ks, test_by_user, users):
    """Mean Recall@K / NDCG@K, one user at a time.

    Each user's whole row of scores, with the items of their `seen` CSR
    row masked, is ranked by `rank_items`; `recall_at_k` and `ndcg_at_k`
    are summed user by user in `users` order and divided by the count.
    Scores are made one row at a time, so they match a block product only
    where every sum is exact (say, small dyadic embeddings).
    """
    users = [u for u in users if test_by_user.get(u)]
    recall = {k: 0.0 for k in ks}
    ndcg = {k: 0.0 for k in ks}
    for u in users:
        row = item_out @ user_out[u]
        row[seen[u].indices] = -np.inf
        ranked = rank_items(row)
        for k in ks:
            recall[k] += recall_at_k(ranked, test_by_user[u], k)
            ndcg[k] += ndcg_at_k(ranked, test_by_user[u], k)
    if users:
        for k in ks:
            recall[k] /= len(users)
            ndcg[k] /= len(users)
    return recall, ndcg, len(users)
