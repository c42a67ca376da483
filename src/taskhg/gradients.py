"""Hand-derived reverse-mode gradients for the joint pretraining objective.

The computation graph is fixed and shallow (encoders -> transitional
attention -> losses), so instead of a general autograd engine each forward
operator has a matching adjoint here, chained in reverse. Every path is
covered: the attention softmax and tanh, the degree-normalized
aggregations, every recommendation loss, the auxiliary hyperedge-ranking
and attribute cross-entropy losses, and the optional linear heads of the
ablation variants. Each loss exists once, as a (value, gradients) function
with batch-mean normalization. Correctness is pinned by central finite
differences and by independent scalar oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .config import LossKind, TAVariant, TrainConfig
from .hypergraph import (
    aggregate_hyperedges_to_nodes_adjoint,
    aggregate_nodes_to_hyperedges_adjoint,
)
from .model import (
    EmbeddingTable,
    EncoderTrace,
    TATrace,
    encode_auxiliary_task_traced,
    forward_pretrain,
)
from .tasks import NodeSide


@dataclass
class GradientTape:
    """Gradients of a scalar loss with respect to every parameter block."""

    grad_user: np.ndarray
    grad_item: np.ndarray
    extra: dict = field(default_factory=dict)


def encoder_backward(trace: EncoderTrace, g_node, g_edge=None) -> np.ndarray:
    """Backpropagate through a stack of hypergraph convolutions.

    g_node is the gradient on the final node embeddings, g_edge the
    gradient on the final layer's hyperedge embeddings (may be None).
    """
    graph = trace.graph
    g = np.asarray(g_node, dtype=np.float64)
    for layer in range(trace.layers - 1, -1, -1):
        g_y = aggregate_hyperedges_to_nodes_adjoint(graph, g)
        if layer == trace.layers - 1 and g_edge is not None:
            g_y = g_y + g_edge
        g = aggregate_nodes_to_hyperedges_adjoint(graph, g_y)
    return g


def ta_backward(trace: TATrace, g_out):
    """Backpropagate through the transitional attention stack.

    Returns (g_input, g_task_embs, g_concat_weight): the gradient on the
    layer-0 side input, per-task gradients on the opposite-side node
    embeddings, and the gradient on the concat head when that variant ran.
    """
    graph = trace.graph
    gamma = trace.gamma
    zs = trace.task_embs
    g_zs = {tid: np.zeros_like(z) for tid, z in zip(trace.task_ids, zs)}
    g_w = np.zeros_like(trace.concat_weight) if trace.concat_weight is not None else None
    attend = bool(zs) and trace.variant != TAVariant.NO_TA
    sqrt_d = math.sqrt(g_out.shape[1])
    g = np.asarray(g_out, dtype=np.float64)
    for layer in reversed(trace.layers):
        g_q = aggregate_hyperedges_to_nodes_adjoint(graph, g)
        g_eps = g_q
        if attend:
            g_s = (gamma * g_q) * (1.0 - layer.a**2)
            if trace.variant == TAVariant.FULL:
                alpha = layer.alpha
                g_alpha = np.stack([(g_s * z).sum(axis=1) for z in zs], axis=1)
                row_dot = (alpha * g_alpha).sum(axis=1, keepdims=True)
                g_logit = alpha * (g_alpha - row_dot)
                g_eps = g_q.copy()
                for t, (tid, z) in enumerate(zip(trace.task_ids, zs)):
                    g_zs[tid] += alpha[:, t : t + 1] * g_s
                    g_zs[tid] += g_logit[:, t : t + 1] * layer.eps / sqrt_d
                    g_eps += g_logit[:, t : t + 1] * z / sqrt_d
            elif trace.variant == TAVariant.SUM:
                share = g_s / len(zs)
                for tid in trace.task_ids:
                    g_zs[tid] += share
            else:  # CONCAT
                stacked = np.concatenate(zs, axis=1)
                g_w += stacked.T @ g_s
                g_stacked = g_s @ trace.concat_weight.T
                dim = g_out.shape[1]
                for t, tid in enumerate(trace.task_ids):
                    g_zs[tid] += g_stacked[:, t * dim : (t + 1) * dim]
        g = aggregate_nodes_to_hyperedges_adjoint(graph, g_eps)
    return g, g_zs, g_w


# ---------------------------------------------------------------------------
# Loss gradients (all batch-mean normalized).


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)) computed without overflow for any magnitude."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))


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
    n = len(index)
    order = np.argsort(index, kind="stable")
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=num_rows), out=indptr[1:])
    select = sp.csr_matrix((np.ones(n), order, indptr), shape=(num_rows, n))
    return select @ rows


def alignment_grad(user_out, item_out, users, items):
    n = len(users)
    diff = user_out[users] - item_out[items]
    loss = float((diff**2).sum()) / n
    g = (2.0 / n) * diff
    g_user = _scatter_rows(len(user_out), users, g)
    g_item = _scatter_rows(len(item_out), items, -g)
    return loss, g_user, g_item


def bpr_grad(user_out, item_out, users, pos, neg):
    n = len(users)
    u = user_out[users]
    margins = (u * (item_out[pos] - item_out[neg])).sum(axis=1)
    loss = float(-log_sigmoid(margins).sum()) / n
    coef = (-sigmoid(-margins) / n)[:, None]
    g_user = _scatter_rows(len(user_out), users, coef * (item_out[pos] - item_out[neg]))
    # Each item row adds its positive terms, then its negative ones.
    g_item = _scatter_rows(
        len(item_out), np.concatenate([pos, neg]), np.concatenate([coef * u, -coef * u])
    )
    return loss, g_user, g_item


def bpr_pos_grad(user_out, item_out, users, pos):
    n = len(users)
    u = user_out[users]
    scores = (u * item_out[pos]).sum(axis=1)
    loss = float(-log_sigmoid(scores).sum()) / n
    coef = (-sigmoid(-scores) / n)[:, None]
    g_user = _scatter_rows(len(user_out), users, coef * item_out[pos])
    g_item = _scatter_rows(len(item_out), pos, coef * u)
    return loss, g_user, g_item


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


def _uniformity_grad(hat_rows):
    """Value and gradient (in normalized space) of the Gaussian uniformity term.

    Squared distances come from the Gram matrix, ||x||^2 + ||y||^2 - 2 x.y,
    clamped at 0 against rounding; the row norms are taken explicitly
    because zero rows normalize to zero. Memory is a few (n, n) buffers.
    """
    n = hat_rows.shape[0]
    if n < 2:
        return 0.0, np.zeros_like(hat_rows)
    sq = np.einsum("ij,ij->i", hat_rows, hat_rows)
    kmat = hat_rows @ hat_rows.T
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


def au_grad(user_out, item_out, users, items, uniformity_weight):
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


def rec_loss_grad(kind: LossKind, user_out, item_out, users, pos, neg, uniformity_weight=1.0):
    """Dispatch to the configured recommendation-term loss."""
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


def _add_l2(emb, lambda_reg, grad) -> float:
    """Add the gradient of lambda_reg * ||emb||^2 into `grad`; return ||emb||^2.

    One temporary holds emb**2 and then (2 lambda_reg) * emb: the values of
    the out-of-place expressions, with one table-sized allocation.
    """
    buf = np.multiply(emb, emb)
    sq = float(buf.sum())
    np.multiply(emb, 2.0 * lambda_reg, out=buf)
    grad += buf
    return sq


def pretrain_loss_and_grad(
    table: EmbeddingTable,
    rec_user_task,
    rec_item_task,
    aux_tasks,
    cfg: TrainConfig,
    batch: PretrainBatch,
    extra_params: dict | None = None,
):
    """Forward the full model on one batch and return (loss, tape, activations).

    The scalar is the joint objective: beta-weighted recommendation loss
    plus (1 - beta)-weighted sum of per-task losses (each normalized by
    its batch size) plus the L2 term on both embedding blocks.
    """
    extra_params = extra_params or {}
    concat_weights = {
        key: extra_params[f"ta_concat_{key}"]
        for key in ("user", "item")
        if f"ta_concat_{key}" in extra_params
    }
    acts = forward_pretrain(table, rec_user_task, rec_item_task, aux_tasks, cfg, concat_weights)
    rec_loss, g_ta_user, g_ta_item = rec_loss_grad(
        cfg.pretrain_loss,
        acts.ta_user_out,
        acts.ta_item_out,
        batch.rec_users,
        batch.rec_pos_items,
        batch.rec_neg_items,
        cfg.uniformity_weight,
    )

    aux_total = 0.0
    aux_node_grads: dict = {}
    aux_edge_grads: dict = {}
    extra_grads = {name: np.zeros_like(p) for name, p in extra_params.items()}
    one_minus_beta = 1.0 - cfg.beta
    for task in aux_tasks:
        tid = task.task_id
        if tid in batch.aux_bpr:
            nodes, pos_edges, neg_edges = batch.aux_bpr[tid]
            if len(nodes) == 0:
                continue
            t_loss, g_n, g_e = aux_bpr_grad(
                acts.encoder_traces[tid].node_emb,
                acts.encoder_traces[tid].edge_emb,
                nodes,
                pos_edges,
                neg_edges,
            )
            aux_total += t_loss
            aux_node_grads[tid] = one_minus_beta * g_n
            aux_edge_grads[tid] = one_minus_beta * g_e
        elif tid in batch.attr_ce:
            nodes, labels = batch.attr_ce[tid]
            if len(nodes) == 0:
                continue
            head = extra_params[f"attr_head:{tid}"]
            t_loss, g_n, g_w = attr_softmax_ce_grad(
                acts.encoder_traces[tid].node_emb, head, nodes, labels
            )
            aux_total += t_loss
            aux_node_grads[tid] = one_minus_beta * g_n
            extra_grads[f"attr_head:{tid}"] += one_minus_beta * g_w

    # Reverse pass: recommendation loss through both TA stacks first.
    g_user_in, g_z_user_side, g_w_user = ta_backward(acts.ta_user_trace, cfg.beta * g_ta_user)
    g_item_in, g_z_item_side, g_w_item = ta_backward(acts.ta_item_trace, cfg.beta * g_ta_item)
    if g_w_user is not None:
        extra_grads["ta_concat_user"] += g_w_user
    if g_w_item is not None:
        extra_grads["ta_concat_item"] += g_w_item

    grad_user = g_user_in
    grad_item = g_item_in
    for task in aux_tasks:
        tid = task.task_id
        g_node = aux_node_grads.get(tid)
        # The TA layer on the opposite side also consumed this task's node
        # embeddings; merge that path before entering the encoder.
        ta_side = g_z_user_side if task.side == NodeSide.ITEMS else g_z_item_side
        if tid in ta_side:
            g_node = ta_side[tid] if g_node is None else g_node + ta_side[tid]
        g_edge = aux_edge_grads.get(tid)
        if g_node is None and g_edge is None:
            continue
        if g_node is None:
            g_node = np.zeros_like(acts.encoder_traces[tid].node_emb)
        g_x0 = encoder_backward(acts.encoder_traces[tid], g_node, g_edge)
        if task.side == NodeSide.USERS:
            grad_user += g_x0
        else:
            grad_item += g_x0
    reg = _add_l2(table.user_emb, cfg.lambda_reg, grad_user) + _add_l2(
        table.item_emb, cfg.lambda_reg, grad_item
    )
    total = cfg.beta * rec_loss + one_minus_beta * aux_total + cfg.lambda_reg * reg
    tape = GradientTape(grad_user, grad_item, extra_grads)
    return total, tape, acts


def finetune_loss_and_grad(
    table: EmbeddingTable,
    rec_user_task,
    rec_item_task,
    cfg: TrainConfig,
    users,
    pos,
    neg=None,
):
    """One-layer downstream encoder plus the configured finetuning loss."""
    trace_u = encode_auxiliary_task_traced(rec_user_task.graph, table.user_emb, 1)
    trace_i = encode_auxiliary_task_traced(rec_item_task.graph, table.item_emb, 1)
    loss, g_u_out, g_i_out = rec_loss_grad(
        cfg.finetune_loss,
        trace_u.node_emb,
        trace_i.node_emb,
        users,
        pos,
        neg,
        cfg.uniformity_weight,
    )
    grad_user = encoder_backward(trace_u, g_u_out)
    grad_item = encoder_backward(trace_i, g_i_out)
    reg = _add_l2(table.user_emb, cfg.lambda_reg, grad_user) + _add_l2(
        table.item_emb, cfg.lambda_reg, grad_item
    )
    total = loss + cfg.lambda_reg * reg
    tape = GradientTape(grad_user, grad_item)
    return total, tape, (trace_u.node_emb, trace_i.node_emb)
