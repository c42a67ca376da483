"""Pretraining and finetuning.

Pretraining jointly optimizes the recommendation loss (through the
transitional attention stack) and one ranking loss per auxiliary task,
all against the shared embedding table. Finetuning continues with a
single weight-free convolution on the recommendation hypergraphs only.
Both stages run through one minibatch loop and differ only in their step
function. They are deterministic for a fixed seed: shuffling, negative
sampling, and initialization each draw from their own seeded stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import LossKind, TAVariant, TrainConfig
from .data import (
    STREAM_AUX,
    STREAM_HEADS,
    STREAM_NEGATIVES,
    STREAM_SHUFFLE,
    InteractionDataset,
    rng_for,
    sample_negative_hyperedges,
    sample_negative_items,
    task_positive_pairs,
)
from .errors import DataError, DivergenceError
from .gradients import PretrainBatch, finetune_loss_and_grad, pretrain_loss_and_grad
from .model import EmbeddingTable, init_embeddings
from .optim import AdamState
from .schedule import step_pool
from .tasks import NodeSide, TaskKind


@dataclass
class AttentionAudit:
    """Running bounds over every attention vector a step computed: on the
    reached rows path, the reached hyperedges' only."""

    vectors_seen: int = 0
    min_weight: float = math.inf
    max_sum_deviation: float = 0.0

    def update(self, arrays):
        for arr in arrays:
            if arr.size == 0:
                continue
            self.vectors_seen += arr.shape[0]
            self.min_weight = min(self.min_weight, float(arr.min()))
            dev = float(np.abs(arr.sum(axis=1) - 1.0).max())
            self.max_sum_deviation = max(self.max_sum_deviation, dev)


@dataclass
class TrainingLog:
    epoch_losses: list = field(default_factory=list)
    attention: AttentionAudit = field(default_factory=AttentionAudit)


@dataclass
class PretrainResult:
    table: EmbeddingTable
    log: TrainingLog
    extra_params: dict = field(default_factory=dict)


@dataclass
class FinetuneResult:
    table: EmbeddingTable
    log: TrainingLog


def _init_extra_params(dataset: InteractionDataset, config: TrainConfig) -> dict:
    """Extra trainable blocks used only by ablation variants."""
    rng = rng_for(config.seed, STREAM_HEADS)
    extra: dict = {}
    d = config.dim
    if config.ta_variant == TAVariant.CONCAT:
        # Each side's TA head reads the stacked tasks of the opposite side.
        heads = (("ta_concat_user", NodeSide.ITEMS), ("ta_concat_item", NodeSide.USERS))
        for name, side in heads:
            fan_in = len(dataset.tasks_on(side)) * d
            if fan_in:
                extra[name] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), (fan_in, d))
    if not config.unified_attributes:
        for task in dataset.auxiliary_tasks:
            if task.kind == TaskKind.ATTRIBUTE_PREDICTION:
                n_values = task.graph.num_hyperedges
                extra[f"attr_head:{task.task_id}"] = rng.normal(
                    0.0, 1.0 / math.sqrt(d), (d, n_values)
                )
    return extra


def _check_table(table: EmbeddingTable, dataset: InteractionDataset, config: TrainConfig):
    """ValueError unless `table` has `config.dim` columns; DataError unless
    it has one row per user and per item of `dataset`."""
    if table.dim != config.dim:
        raise ValueError(f"table dim {table.dim} does not match config dim {config.dim}")
    dataset.check_table(table)


def _train_loop(stage, dataset, config, epochs, loss_kind, stream_offset, params, step_for_epoch):
    """Minibatch Adam over the shuffled training pairs; returns the log.

    Owns everything the two stages share: the shuffle, the repeat for k
    negatives, negative sampling, the divergence check, the Adam update and
    the per-epoch mean loss. `step_for_epoch(steps)` runs once per epoch
    after the shuffle and returns the step function, which maps
    (step, users, items, negs) to (loss, gradients keyed like `params`,
    attention arrays). The stage's pool (`step_pool`, none below two
    CPUs) runs the independent halves of each step and of the update;
    every random draw is made here or in the step function, on this thread.
    """
    log = TrainingLog()
    shuffle_rng = rng_for(config.seed, STREAM_SHUFFLE + stream_offset)
    neg_rng = rng_for(config.seed, STREAM_NEGATIVES + stream_offset)
    adam = AdamState.for_params(
        params, config.lr, config.adam_beta1, config.adam_beta2, config.adam_epsilon
    )
    rec_user_task = dataset.rec_pair()[0]
    need_negatives = loss_kind == LossKind.BPR
    if need_negatives:
        # As for the auxiliary tasks: a user with every item admits no negative.
        pos_pairs = task_positive_pairs(rec_user_task)
        if not len(pos_pairs):
            raise DataError(f"{stage}: no user has an item left to draw a BPR negative from")
    else:
        pos_pairs = rec_user_task.graph.memberships()
    n_pos = len(pos_pairs)
    steps = max(1, math.ceil(n_pos / config.batch_size))
    with step_pool():
        for epoch in range(epochs):
            perm = shuffle_rng.permutation(n_pos)
            step_fn = step_for_epoch(steps)
            epoch_loss = 0.0
            for step in range(steps):
                idx = perm[step * config.batch_size : (step + 1) * config.batch_size]
                users = pos_pairs[idx, 0]
                items = pos_pairs[idx, 1]
                negs = None
                if need_negatives:
                    k = config.negatives_per_positive
                    users = np.repeat(users, k)
                    items = np.repeat(items, k)
                    negs = sample_negative_items(neg_rng, rec_user_task, users)
                loss, grads, attention = step_fn(step, users, items, negs)
                # apply() checks every gradient block before it changes anything.
                try:
                    if not math.isfinite(loss):
                        raise DivergenceError(f"non-finite loss {loss}")
                    adam.apply(grads, params)
                except DivergenceError as exc:
                    raise DivergenceError(
                        f"non-finite loss or gradient at {stage} epoch {epoch}, batch {step}"
                    ) from exc
                log.attention.update(attention)
                epoch_loss += loss
            log.epoch_losses.append(epoch_loss / steps)
    return log


def pretrain(
    dataset: InteractionDataset, config: TrainConfig, table: EmbeddingTable | None = None
) -> PretrainResult:
    """Joint multitask pretraining; returns the trained embedding table."""
    config.validate()
    rec_user_task, rec_item_task = dataset.rec_pair()
    if table is None:
        table = init_embeddings(dataset.num_users, dataset.num_items, config.dim, config.seed)
    else:
        _check_table(table, dataset, config)
        table = table.copy()
    extra = _init_extra_params(dataset, config)
    if config.epochs_pretrain == 0:
        return PretrainResult(table, TrainingLog(), extra)

    aux_rng = rng_for(config.seed, STREAM_AUX)
    aux_tasks = dataset.auxiliary_tasks
    ce_attr = {
        t.task_id
        for t in aux_tasks
        if not config.unified_attributes and t.kind == TaskKind.ATTRIBUTE_PREDICTION
    }
    aux_pairs = {}
    for task in aux_tasks:
        if task.task_id in ce_attr:
            aux_pairs[task.task_id] = task.graph.memberships()
        else:
            aux_pairs[task.task_id] = task_positive_pairs(task)

    def step_for_epoch(steps):
        aux_perm = {tid: aux_rng.permutation(len(p)) for tid, p in aux_pairs.items()}

        def step(index, users, items, negs):
            batch = PretrainBatch(users, items, negs)
            for task in aux_tasks:
                tid = task.task_id
                pairs = aux_pairs[tid]
                # Each step takes the index-th of `steps` near-equal chunks.
                lo, hi = index * len(pairs) // steps, (index + 1) * len(pairs) // steps
                chunk = pairs[aux_perm[tid][lo:hi]]
                if tid in ce_attr:
                    batch.attr_ce[tid] = (chunk[:, 0], chunk[:, 1])
                elif len(chunk):
                    neg_edges = sample_negative_hyperedges(aux_rng, task, chunk[:, 0])
                    batch.aux_bpr[tid] = (chunk[:, 0], chunk[:, 1], neg_edges)
            loss, grads, acts = pretrain_loss_and_grad(
                table, rec_user_task, rec_item_task, aux_tasks, config, batch, extra
            )
            return loss, grads, acts.attention_arrays()

        return step

    params = {"user": table.user_emb, "item": table.item_emb, **extra}
    log = _train_loop(
        "pretrain", dataset, config, config.epochs_pretrain, config.pretrain_loss, 0,
        params, step_for_epoch,
    )
    return PretrainResult(table, log, extra)


def finetune(
    table: EmbeddingTable, dataset: InteractionDataset, config: TrainConfig
) -> FinetuneResult:
    """Continue training through one recommendation-hypergraph convolution."""
    config.validate()
    _check_table(table, dataset, config)
    table = table.copy()
    if config.epochs_finetune == 0:
        return FinetuneResult(table, TrainingLog())
    rec_user_task, rec_item_task = dataset.rec_pair()

    def step(index, users, items, negs):
        return finetune_loss_and_grad(
            table, rec_user_task, rec_item_task, config, users, items, negs
        )

    params = {"user": table.user_emb, "item": table.item_emb}
    log = _train_loop(
        "finetune", dataset, config, config.epochs_finetune, config.finetune_loss, 100,
        params, lambda steps: step,
    )
    return FinetuneResult(table, log)
