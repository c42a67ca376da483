"""Hand-derived reverse-mode gradients for the joint pretraining objective.

The computation graph is fixed and shallow (encoders -> transitional
attention -> losses), so instead of a general autograd engine each forward
operator has a matching adjoint here, chained in reverse. Every path is
covered: the attention softmax and tanh, the degree-normalized
aggregations, every recommendation loss, the auxiliary hyperedge-ranking
and attribute cross-entropy losses, and the optional linear heads of the
ablation variants. Encoders and TA stacks share one reverse loop, as they
share one forward loop; it takes a loss gradient as the batch's rows.
When a TA stack's final layer attends with `full` or `sum` and the batch
reaches few of its hyperedges, the step runs that layer on the batch's
rows in both passes, with the same bits (see `_reverse` and
`pretrain_loss_and_grad`). Each loss exists once, as a
(value, gradients) function with batch-mean normalization; a full step
returns one gradient dict keyed like the optimizer's parameter blocks.
Correctness is pinned by central finite differences and by independent
scalar oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import LossKind, TAVariant, TrainConfig
from .hypergraph import (
    aggregate_hyperedges_to_nodes_adjoint,
    aggregate_nodes_to_hyperedges_adjoint,
    csr_from_sorted,
    sorted_unique,
)
from .model import (
    EmbeddingTable,
    TATrace,
    encode_auxiliary_task_traced,
    forward_pretrain,
)
from .schedule import run_pair


def _attention_reverse(trace: TATrace, layer, g_q, g_zs, g_w, rows=slice(None)):
    """Add one attending layer's task gradients into g_zs / g_w and its
    attention's share into g_q, which becomes the layer's g_eps in place.

    g_q, g_zs and g_w hold the layer's hyperedges, which are each task's z
    rows `rows` (every row by default).
    """
    zs = [z[rows] for z in trace.task_embs]
    a = layer.a
    # g_s = (gamma * g_q) * (1 - a**2); then `buf` takes each product in turn.
    g_s = np.multiply(g_q, trace.gamma)
    buf = np.multiply(a, a)
    np.subtract(1.0, buf, out=buf)
    g_s *= buf
    if trace.variant == TAVariant.FULL:
        sqrt_d = math.sqrt(g_q.shape[1])
        alpha, eps = layer.alpha, layer.eps
        g_alpha = np.stack([np.multiply(g_s, z, out=buf).sum(axis=1) for z in zs], axis=1)
        row_dot = (alpha * g_alpha).sum(axis=1, keepdims=True)
        g_logit = alpha * (g_alpha - row_dot)
        for t, (tid, z) in enumerate(zip(trace.task_ids, zs)):
            g_zs[tid] += np.multiply(alpha[:, t : t + 1], g_s, out=buf)
            np.multiply(g_logit[:, t : t + 1], eps, out=buf)
            g_zs[tid] += np.divide(buf, sqrt_d, out=buf)
            np.multiply(g_logit[:, t : t + 1], z, out=buf)
            g_q += np.divide(buf, sqrt_d, out=buf)
    elif trace.variant == TAVariant.SUM:
        g_s /= len(zs)
        for tid in trace.task_ids:
            g_zs[tid] += g_s
    else:  # CONCAT
        g_w += np.concatenate(zs, axis=1).T @ g_s
        g_stacked = g_s @ trace.concat_weight.T
        dim = g_q.shape[1]
        for t, tid in enumerate(trace.task_ids):
            g_zs[tid] += g_stacked[:, t * dim : (t + 1) * dim]


def _reaches_few_hyperedges(graph, nodes) -> bool:
    """Whether an attending final layer runs only on the distinct `nodes`
    and the hyperedges they reach: when their degrees, which bound the
    reached count, sum to at most the hyperedge count.

    Measured on the user side of an 8000 x 4000 synthetic set with 3
    interactions per user (dim 64, `full`, two tasks, BLAS 1 thread), one
    stack's forward and reverse together took 6.3 ms on the rows against
    15.1 ms dense at degree sum 0.61 of the count (46 % reached), 9.1
    against 15.0 at 1.13 (70 %) and 15.4 against 15.5 at 2.45 (93 %).
    The bound stays at 1: every benchmark shape sits far from it (0.15
    to 0.60 on that set, over 3.4 on the others). The test reads only
    the batch's degrees, so a step that stays dense pays O(batch).
    """
    return int(graph.node_degrees[nodes].sum()) <= graph.num_hyperedges


def _final_rows(graph, index):
    """The distinct nodes of `index`, ascending, if they reach few
    hyperedges of `graph`, else None."""
    nodes = sorted_unique(index)
    return nodes if _reaches_few_hyperedges(graph, nodes) else None


def _reverse(trace: TATrace, g_out, g_edge=None, scale=1.0):
    """Reverse of the convolution stack: (g_input, g_task_embs, g_concat_weight).

    g_out is the gradient on the stack's node output: the loss's
    `BatchRows`, summed and then scaled by `scale`, or an array taken as
    it is. g_edge (or None) is the gradient on its final layer's
    hyperedge embeddings. A final layer that ran on a `restriction`
    reverses on it too: g_out then holds the restricted nodes' rows, and
    each task's gradient is written on the reached hyperedges; every other
    row is an exact zero in the dense reverse, as the `full` and `sum`
    reverses work row by row. The dense gradient made from the batch rows
    is held until the reverse returns: dropping it after the first
    aggregation lowered no pretraining step's peak, but made the heap
    shrink and fault back in every step (three times the page faults and
    15 % more time per pretraining epoch on a 4000 x 2000 set). Each
    layer's g_eps is its g_q, updated in place, and each of the reverse's
    own gradients is dropped once the aggregation that reads it returns.
    """
    graph = trace.graph
    if isinstance(g_out, BatchRows):
        g_out = g_out.dense()
        if scale != 1.0:
            g_out *= scale
    g = np.asarray(g_out, dtype=np.float64)
    g_zs = {tid: np.zeros_like(z) for tid, z in zip(trace.task_ids, trace.task_embs)}
    g_w = np.zeros_like(trace.concat_weight) if trace.concat_weight is not None else None
    layers = trace.layers
    rows = trace.restriction
    if rows is not None:
        g_q = rows.hyperedges_to_nodes_adjoint(g)
        del g
        g_rows = {tid: np.zeros_like(g_q) for tid in trace.task_ids}
        _attention_reverse(trace, layers[-1], g_q, g_rows, None, rows.edges)
        for tid, g_z in g_rows.items():
            g_zs[tid][rows.edges] = g_z
        del g_rows
        g = rows.nodes_to_hyperedges_adjoint(g_q)
        del g_q
        layers = layers[:-1]
    for layer in reversed(layers):
        g_eps = aggregate_hyperedges_to_nodes_adjoint(graph, g)
        del g
        if trace.attends:
            _attention_reverse(trace, layer, g_eps, g_zs, g_w)
        if g_edge is not None:  # the final layer, which comes first
            g_eps += g_edge
            g_edge = None
        g = aggregate_nodes_to_hyperedges_adjoint(graph, g_eps)
        del g_eps
    return g, g_zs, g_w


def encoder_backward(trace: TATrace, g_node, g_edge=None) -> np.ndarray:
    """Backpropagate through an encoder to its input node embeddings.

    g_node is the gradient on the final node embeddings (a dense array or
    a loss's `BatchRows`), g_edge the gradient on the final layer's
    hyperedge embeddings (may be None).
    """
    return _reverse(trace, g_node, g_edge)[0]


def ta_backward(trace: TATrace, g_out, scale=1.0):
    """Backpropagate g_out through the transitional attention stack.

    g_out is a dense array or a loss's `BatchRows`, which is summed and
    scaled by `scale` first (see `_reverse`).
    Returns (g_input, g_task_embs, g_concat_weight): the gradient on the
    layer-0 side input, per-task gradients on the opposite-side node
    embeddings, and the gradient on the concat head when that variant ran.
    """
    return _reverse(trace, g_out, scale=scale)


# ---------------------------------------------------------------------------
# Loss gradients (all batch-mean normalized).


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)) computed without overflow for any magnitude."""
    x = np.asarray(x, dtype=np.float64)
    soft = np.log1p(np.exp(-np.abs(x)))
    return np.where(x >= 0, -soft, x - soft)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def _scatter_rows(num_rows, index, rows):
    """Sum `rows[k]` into row `index[k]` of a (num_rows, d) zero array.

    One sparse product with a 0/1 selection matrix whose columns are in
    batch order: each output row adds its terms in the order of `index`,
    exactly as np.add.at into zeros would, in one pass over the output.
    """
    order = np.argsort(index, kind="stable")
    return csr_from_sorted(index[order], order, (num_rows, len(index))) @ rows


class BatchRows(NamedTuple):
    """A table's loss gradient held as the batch's rows.

    `dense()` makes the (num_rows, d) array: `rows` summed into zeros in
    the order of `index`, or, when `unique`, written at their distinct,
    ascending `index` rows by assignment.
    """

    num_rows: int
    index: np.ndarray
    rows: np.ndarray
    unique: bool = False

    def dense(self) -> np.ndarray:
        if not self.unique:
            return _scatter_rows(self.num_rows, self.index, self.rows)
        out = np.zeros((self.num_rows, self.rows.shape[1]))
        out[self.index] = self.rows
        return out


def alignment_grad(user_out, item_out, users, items):
    n = len(users)
    diff = user_out[users] - item_out[items]
    loss = float((diff**2).sum()) / n
    g = (2.0 / n) * diff
    return loss, BatchRows(len(user_out), users, g), BatchRows(len(item_out), items, -g)


def bpr_grad(user_out, item_out, users, pos, neg):
    n = len(users)
    u = user_out[users]
    gap = item_out[pos] - item_out[neg]
    margins = (u * gap).sum(axis=1)
    loss = float(-log_sigmoid(margins).sum()) / n
    coef = (-sigmoid(-margins) / n)[:, None]
    g_user = BatchRows(len(user_out), users, coef * gap)
    # Each item row adds its positive terms, then its negative ones.
    g_item = BatchRows(
        len(item_out), np.concatenate([pos, neg]), np.concatenate([coef * u, -coef * u])
    )
    return loss, g_user, g_item


def bpr_pos_grad(user_out, item_out, users, pos):
    n = len(users)
    u = user_out[users]
    p = item_out[pos]
    scores = (u * p).sum(axis=1)
    loss = float(-log_sigmoid(scores).sum()) / n
    coef = (-sigmoid(-scores) / n)[:, None]
    return loss, BatchRows(len(user_out), users, coef * p), BatchRows(len(item_out), pos, coef * u)


def _normalize_with_cache(rows):
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    hat = np.where(norms > 0, rows / safe, 0.0)
    return hat, norms


def _norm_backward(g_hat, hat, norms):
    # d(x/||x||) adjoint: remove the radial component, divide by the norm.
    radial = (g_hat * hat).sum(axis=1, keepdims=True)
    g = (g_hat - radial * hat) / np.where(norms > 0, norms, 1.0)
    return np.where(norms > 0, g, 0.0)


def _uniformity_grad(hat_rows, gram=None):
    """Value and gradient (in normalized space) of the Gaussian uniformity term.

    Squared distances come from the Gram matrix, ||x||^2 + ||y||^2 - 2 x.y,
    clamped at 0 against rounding; the row norms are taken explicitly
    because zero rows normalize to zero. The Gram matrix is the one (n, n)
    array; it is written into `gram` when given (any (n, n) float64 array,
    overwritten), so the caller decides who allocates and frees it.
    """
    n = hat_rows.shape[0]
    if n < 2:
        return 0.0, np.zeros_like(hat_rows)
    sq = np.einsum("ij,ij->i", hat_rows, hat_rows)
    kmat = np.matmul(hat_rows, hat_rows.T, out=gram)
    kmat *= -2.0
    kmat += sq[:, None]
    kmat += sq[None, :]
    np.maximum(kmat, 0.0, out=kmat)
    kmat *= -2.0
    np.exp(kmat, out=kmat)
    np.fill_diagonal(kmat, 0.0)
    total = 0.5 * kmat.sum()
    npairs = n * (n - 1) / 2.0
    value = float(np.log(total / npairs))
    row_sums = kmat.sum(axis=1, keepdims=True)
    g_hat = (-4.0 / total) * (row_sums * hat_rows - kmat @ hat_rows)
    return value, g_hat


class _SphereRows:
    """One side of the `au` loss: the batch's sorted unique rows of one table.

    `inv` maps each pair to its row among them. The Gram buffer is made
    here, on the thread that builds the side; `au_grad` builds both on
    the calling thread.
    """

    def __init__(self, out, batch):
        self.num_rows = len(out)
        self.rows, self.inv = np.unique(batch, return_inverse=True)
        self.hat, self.norms = _normalize_with_cache(out[self.rows])
        self.gram = np.empty((len(self.rows), len(self.rows)))

    def uniformity(self):
        self.value, self.g_unif = _uniformity_grad(self.hat, self.gram)

    def reverse(self, uniformity_weight):
        self.g_hat += (0.5 * uniformity_weight) * self.g_unif
        g = _norm_backward(self.g_hat, self.hat, self.norms)
        self.grad = BatchRows(self.num_rows, self.rows, g, unique=True)


def au_grad(user_out, item_out, users, items, uniformity_weight):
    """Alignment plus uniformity on the unit sphere.

    Only the batch's unique rows are normalized and go through the
    normalization's reverse. Every step works row by row, so the bits are
    those of the same arithmetic over both whole tables, in which the rows
    outside the batch get exact zeros (see `BatchRows`).

    Under a step pool, the side with more unique rows computes its
    uniformity term on the worker. This thread computes the other side's
    term, the alignment term and that side's reverse, then the worker
    side's reverse once the pair is done.
    """
    n = len(users)
    user = _SphereRows(user_out, users)
    item = _SphereRows(item_out, items)
    larger, smaller = (user, item) if len(user.rows) >= len(item.rows) else (item, user)

    def smaller_half():
        smaller.uniformity()
        diff = user.hat[user.inv] - item.hat[item.inv]
        user.g_hat = _scatter_rows(len(user.rows), user.inv, (2.0 / n) * diff)
        item.g_hat = _scatter_rows(len(item.rows), item.inv, -(2.0 / n) * diff)
        smaller.reverse(uniformity_weight)
        return float((diff**2).sum()) / n

    _, align = run_pair(larger.uniformity, smaller_half)
    larger.reverse(uniformity_weight)
    loss = align + uniformity_weight * 0.5 * (user.value + item.value)
    return loss, user.grad, item.grad


def rec_loss_grad(kind: LossKind, user_out, item_out, users, pos, neg, uniformity_weight=1.0):
    """Dispatch to the configured recommendation-term loss; only `au` splits its work.

    Returns (loss, user gradient, item gradient), each gradient as the
    `BatchRows` of its table, so the table-sized arrays are made by the
    reverse halves that read them.
    """
    if len(users) == 0:
        raise ValueError("empty recommendation batch")
    if kind == LossKind.ALIGNMENT:
        return alignment_grad(user_out, item_out, users, pos)
    if kind == LossKind.BPR:
        if neg is None:
            raise ValueError("BPR loss requires sampled negative items")
        return bpr_grad(user_out, item_out, users, pos, neg)
    if kind == LossKind.BPR_POS:
        return bpr_pos_grad(user_out, item_out, users, pos)
    if kind == LossKind.AU:
        return au_grad(user_out, item_out, users, pos, uniformity_weight)
    raise ValueError(f"unknown loss kind: {kind}")


# Hyperedge ranking over (node, positive edge, negative edge) triples is the
# same BPR; the separate name lets the per-layer trace time it on its own.
aux_bpr_grad = bpr_grad


def attr_softmax_ce_grad(node_emb, weight, nodes, labels):
    """Cross-entropy through a linear head for the non-unified attribute variant."""
    n = len(nodes)
    x = node_emb[nodes]
    logits = x @ weight
    logits -= logits.max(axis=1, keepdims=True)
    expw = np.exp(logits)
    probs = expw / expw.sum(axis=1, keepdims=True)
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(picked).sum()) / n
    g_logits = probs.copy()
    g_logits[np.arange(n), labels] -= 1.0
    g_logits /= n
    g_w = x.T @ g_logits
    g_node = _scatter_rows(len(node_emb), nodes, g_logits @ weight.T)
    return loss, g_node, g_w


# ---------------------------------------------------------------------------
# Full joint objective.


@dataclass
class PretrainBatch:
    """One optimization step's worth of training pairs.

    aux_bpr maps task_id -> (nodes, pos_edges, neg_edges); attr_ce maps
    task_id -> (nodes, label_edges) for the non-unified attribute variant.
    """

    rec_users: np.ndarray
    rec_pos_items: np.ndarray
    rec_neg_items: np.ndarray | None = None
    aux_bpr: dict = field(default_factory=dict)
    attr_ce: dict = field(default_factory=dict)


def _add_l2(g, emb, lambda_reg):
    """Add the gradient of lambda_reg * ||emb||^2 into g; return ||emb||^2.

    One table-sized array holds emb**2 and then (2 lambda_reg) * emb: the
    values of the out-of-place expressions, with one allocation, freed on
    return. Callers add it last into the table's gradient.
    """
    buf = np.multiply(emb, emb)
    sq = float(buf.sum())
    g += np.multiply(emb, 2.0 * lambda_reg, out=buf)
    return sq


def _aux_losses(acts, aux_tasks, batch, extra_params, extra_grads, one_minus_beta):
    """Every auxiliary task's loss, in `aux_tasks` order.

    Returns (loss sum, node gradients, edge gradients), the gradients keyed
    by task id and scaled in place by (1 - beta); a non-unified attribute
    head's gradient is added into `extra_grads`. Each encoder's outputs
    are released once its loss is done.
    """
    total = 0.0
    node_grads: dict = {}
    edge_grads: dict = {}
    for task in aux_tasks:
        tid = task.task_id
        trace = acts.encoder_traces[tid]
        if tid in batch.aux_bpr:
            nodes, pos_edges, neg_edges = batch.aux_bpr[tid]
            if len(nodes) == 0:
                continue
            t_loss, g_n, g_e = aux_bpr_grad(
                trace.node_emb, trace.edge_emb, nodes, pos_edges, neg_edges
            )
            g_n, g_e = g_n.dense(), g_e.dense()
            g_e *= one_minus_beta
            edge_grads[tid] = g_e
        elif tid in batch.attr_ce:
            nodes, labels = batch.attr_ce[tid]
            if len(nodes) == 0:
                continue
            head = extra_params[f"attr_head:{tid}"]
            t_loss, g_n, g_w = attr_softmax_ce_grad(trace.node_emb, head, nodes, labels)
            g_w *= one_minus_beta
            extra_grads[f"attr_head:{tid}"] += g_w
        else:
            continue
        trace.release()
        total += t_loss
        g_n *= one_minus_beta
        node_grads[tid] = g_n
    return total, node_grads, edge_grads


def pretrain_loss_and_grad(
    table: EmbeddingTable,
    rec_user_task,
    rec_item_task,
    aux_tasks,
    cfg: TrainConfig,
    batch: PretrainBatch,
    extra_params: dict | None = None,
):
    """Forward the full model on one batch and return (loss, grads, activations).

    The scalar is the joint objective: beta-weighted recommendation loss
    plus (1 - beta)-weighted sum of per-task losses (each normalized by
    its batch size) plus the L2 term on both embedding blocks. grads maps
    "user", "item" and then each extra_params block, in that order, to its
    gradient; a head with no batch this step gets a zero gradient. The
    activations keep only the attention weights and each trace's layout.

    Under a step pool (see `taskhg.schedule`) the step runs as four pairs:
    the forward halves, the `au` loss's pair (see `au_grad`), then two
    reverse stages. Stage 1 runs the user-side TA backward on the worker;
    this thread runs the item-side TA backward and every auxiliary loss.
    Each TA backward takes its table's loss rows and beta, and makes the
    scaled gradient itself (see `_reverse`). Stage 2 runs one half per
    table, items on the worker: the backward of every encoder whose input
    is that table, then the table's gradient summed as the TA stack's,
    each task's in `aux_tasks` order, and the L2 term.

    Each TA stack that attends with `full` or `sum` runs its final layer
    on the batch's rows, in both passes, when they reach few of its
    hyperedges (`_reaches_few_hyperedges`, decided here once per step);
    the recommendation loss then reads the stack's compact output.

    Each table-sized array lives only until its last reader is done
    (`test_step_peak_memory_is_bounded_in_table_sizes` bounds the peak).
    """
    extra_params = extra_params or {}
    users, pos, neg = batch.rec_users, batch.rec_pos_items, batch.rec_neg_items
    user_rows = item_rows = None
    if cfg.ta_variant in (TAVariant.FULL, TAVariant.SUM):
        items = pos if neg is None else np.append(pos, neg)
        user_rows = _final_rows(rec_user_task.graph, users)
        item_rows = _final_rows(rec_item_task.graph, items)
    acts = forward_pretrain(
        table, rec_user_task, rec_item_task, aux_tasks, cfg, extra_params, user_rows, item_rows
    )
    ta_user, ta_item = acts.ta_user_trace, acts.ta_item_trace
    ta_user.drop_edge_output()
    ta_item.drop_edge_output()
    rec_loss, g_ta_user, g_ta_item = rec_loss_grad(
        cfg.pretrain_loss,
        ta_user.node_emb,
        ta_item.node_emb,
        ta_user.output_index(users),
        ta_item.output_index(pos),
        None if neg is None else ta_item.output_index(neg),
        cfg.uniformity_weight,
    )
    ta_user.node_emb = ta_item.node_emb = None
    extra_grads = {name: np.zeros_like(p) for name, p in extra_params.items()}
    one_minus_beta = 1.0 - cfg.beta

    (g_user_in, g_zs_items, g_w_user), (item_ta, aux) = run_pair(
        lambda: ta_backward(ta_user, g_ta_user, cfg.beta),
        lambda: (
            ta_backward(ta_item, g_ta_item, cfg.beta),
            _aux_losses(acts, aux_tasks, batch, extra_params, extra_grads, one_minus_beta),
        ),
    )
    for trace in (ta_user, ta_item, *acts.encoder_traces.values()):
        trace.release()
    g_item_in, g_zs_users, g_w_item = item_ta
    aux_total, aux_node_grads, aux_edge_grads = aux
    if g_w_user is not None:
        extra_grads["ta_concat_user"] += g_w_user
    if g_w_item is not None:
        extra_grads["ta_concat_item"] += g_w_item

    def table_grad(g, g_zs, emb):
        # g_zs maps each task whose encoder reads this table, in `aux_tasks`
        # order, to the gradient from the TA stack that attended over it
        # (zeros under no_ta). Each encoder takes its task's own loss
        # gradient plus that one; the outputs are summed into g in order.
        for tid in list(g_zs):
            g_node = g_zs.pop(tid)
            if tid in aux_node_grads:  # each half pops only its own tasks' keys
                g_node += aux_node_grads.pop(tid)
            g += encoder_backward(acts.encoder_traces[tid], g_node, aux_edge_grads.pop(tid, None))
            del g_node
        return g, _add_l2(g, emb, cfg.lambda_reg)

    (g_item, sq_item), (g_user, sq_user) = run_pair(
        lambda: table_grad(g_item_in, g_zs_items, table.item_emb),
        lambda: table_grad(g_user_in, g_zs_users, table.user_emb),
    )
    reg = sq_user + sq_item
    total = cfg.beta * rec_loss + one_minus_beta * aux_total + cfg.lambda_reg * reg
    return total, {"user": g_user, "item": g_item, **extra_grads}, acts


def finetune_loss_and_grad(
    table: EmbeddingTable,
    rec_user_task,
    rec_item_task,
    cfg: TrainConfig,
    users,
    pos,
    neg=None,
):
    """One-layer downstream encoder plus the configured finetuning loss.

    Returns (loss, grads, ()): the empty tuple stands where pretraining
    returns its activations, as finetuning has no attention to audit. The
    user and item encoders, forward and backward, run as pairs, and so
    does the `au` loss. The encoders' outputs go after the loss; each
    encoder backward makes its side's loss gradient from the batch rows
    and drops it when it returns.
    """
    trace_u, trace_i = run_pair(
        lambda: encode_auxiliary_task_traced(rec_user_task.graph, table.user_emb, 1),
        lambda: encode_auxiliary_task_traced(rec_item_task.graph, table.item_emb, 1),
    )
    trace_u.drop_edge_output()
    trace_i.drop_edge_output()
    loss, g_out_user, g_out_item = rec_loss_grad(
        cfg.finetune_loss,
        trace_u.node_emb,
        trace_i.node_emb,
        users,
        pos,
        neg,
        cfg.uniformity_weight,
    )
    trace_u.node_emb = trace_i.node_emb = None

    def backward(loss_rows, trace, emb):
        g = encoder_backward(trace, loss_rows)
        return g, _add_l2(g, emb, cfg.lambda_reg)

    (g_user, reg_user), (g_item, reg_item) = run_pair(
        lambda: backward(g_out_user, trace_u, table.user_emb),
        lambda: backward(g_out_item, trace_i, table.item_emb),
    )
    reg = reg_user + reg_item
    total = loss + cfg.lambda_reg * reg
    return total, {"user": g_user, "item": g_item}, ()
