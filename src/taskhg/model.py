"""Model forward pass: embedding table, task encoders, transitional attention.

The only trainable parameters of the base model are the initial user and
item embeddings. Auxiliary tasks are encoded with weight-free hypergraph
convolutions; the transitional attention (TA) layer then fuses, per
recommendation hyperedge, an attention-weighted mix of the corresponding
entity's task-specific embeddings into the hyperedge before the node
update. Each operator has a single form that records the intermediates
the reverse pass in `gradients` needs; the TA settings (gamma, depth,
variant) and the encoder depth are read from the `TrainConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TAVariant, TrainConfig
from .hypergraph import (
    Hypergraph,
    aggregate_hyperedges_to_nodes,
    aggregate_nodes_to_hyperedges,
)
from .tasks import NodeSide, TaskHypergraph


@dataclass
class EmbeddingTable:
    """Trainable user and item embeddings (the model's only parameters)."""

    user_emb: np.ndarray
    item_emb: np.ndarray

    def __post_init__(self):
        self.user_emb = np.asarray(self.user_emb, dtype=np.float64)
        self.item_emb = np.asarray(self.item_emb, dtype=np.float64)
        if self.user_emb.ndim != 2 or self.item_emb.ndim != 2:
            raise ValueError("embeddings must be 2-d arrays")
        if self.user_emb.shape[1] != self.item_emb.shape[1]:
            raise ValueError("user and item embeddings must share the same dim")

    @property
    def num_users(self) -> int:
        return self.user_emb.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_emb.shape[0]

    @property
    def dim(self) -> int:
        return self.user_emb.shape[1]

    def side_emb(self, side: NodeSide) -> np.ndarray:
        return self.user_emb if side == NodeSide.USERS else self.item_emb

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.user_emb.copy(), self.item_emb.copy())

    def allfinite(self) -> bool:
        return bool(np.isfinite(self.user_emb).all() and np.isfinite(self.item_emb).all())


def init_embeddings(num_users: int, num_items: int, dim: int, seed: int) -> EmbeddingTable:
    """Draw i.i.d. zero-mean entries with scale 1/sqrt(dim), deterministically."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(dim)
    user = rng.normal(0.0, scale, size=(num_users, dim))
    item = rng.normal(0.0, scale, size=(num_items, dim))
    return EmbeddingTable(user, item)


@dataclass
class EncoderTrace:
    """Intermediates of one auxiliary-task encoder forward."""

    graph: Hypergraph
    layers: int
    edge_emb: np.ndarray = field(repr=False)  # hyperedge embeddings, final layer
    node_emb: np.ndarray = field(repr=False)  # node embeddings, final layer


def encode_auxiliary_task_traced(graph: Hypergraph, x0: np.ndarray, layers: int) -> EncoderTrace:
    if layers < 1:
        raise ValueError("layers must be >= 1")
    x = np.asarray(x0, dtype=np.float64)
    edge = None
    for _ in range(layers):
        edge = aggregate_nodes_to_hyperedges(graph, x)
        x = aggregate_hyperedges_to_nodes(graph, edge)
    return EncoderTrace(graph=graph, layers=layers, edge_emb=edge, node_emb=x)


@dataclass
class TALayerTrace:
    eps: np.ndarray = field(repr=False)
    alpha: np.ndarray | None = field(repr=False)  # (num_hyperedges, T), FULL only
    a: np.ndarray | None = field(repr=False)  # tanh output, None when attention is off


@dataclass
class TATrace:
    graph: Hypergraph
    gamma: float
    variant: TAVariant
    task_ids: list
    task_embs: list = field(repr=False)
    layers: list = field(default_factory=list, repr=False)
    concat_weight: np.ndarray | None = field(default=None, repr=False)

    @property
    def attention(self) -> list:
        """Per-layer (num_hyperedges, T) attention weight arrays."""
        return [layer.alpha for layer in self.layers if layer.alpha is not None]


def ta_forward_traced(
    side_input: np.ndarray,
    graph: Hypergraph,
    opposite_tasks,
    cfg: TrainConfig,
    concat_weight: np.ndarray | None = None,
):
    """Matrix-form transitional attention over `cfg.ta_layers` layers.

    opposite_tasks is a list of (task_id, node_emb) pairs for auxiliary
    tasks on the entity type playing the hyperedge role; each layer feeds
    its node output into the next. With no opposite tasks (or the plain
    variant) the layer degrades to a weight-free hypergraph convolution.
    """
    x = np.asarray(side_input, dtype=np.float64)
    task_ids = [tid for tid, _ in opposite_tasks]
    zs = [np.asarray(z, dtype=np.float64) for _, z in opposite_tasks]
    for z in zs:
        if z.shape != (graph.num_hyperedges, x.shape[1]):
            raise ValueError(
                "opposite task embeddings must have one row per hyperedge: "
                f"expected {(graph.num_hyperedges, x.shape[1])}, got {z.shape}"
            )
    attend = bool(zs) and cfg.ta_variant != TAVariant.NO_TA
    if cfg.ta_variant == TAVariant.CONCAT and attend and concat_weight is None:
        raise ValueError("CONCAT variant requires a concat weight matrix")
    trace = TATrace(
        graph=graph,
        gamma=cfg.gamma,
        variant=cfg.ta_variant,
        task_ids=task_ids,
        task_embs=zs,
        concat_weight=concat_weight if attend else None,
    )
    sqrt_d = math.sqrt(x.shape[1])
    for _ in range(cfg.ta_layers):
        eps = aggregate_nodes_to_hyperedges(graph, x)
        alpha = None
        a = None
        if attend:
            if cfg.ta_variant == TAVariant.FULL:
                logits = np.stack([(eps * z).sum(axis=1) for z in zs], axis=1) / sqrt_d
                logits -= logits.max(axis=1, keepdims=True)
                expw = np.exp(logits)
                alpha = expw / expw.sum(axis=1, keepdims=True)
                s = np.zeros_like(eps)
                for t, z in enumerate(zs):
                    s += alpha[:, t : t + 1] * z
                a = np.tanh(s)
            elif cfg.ta_variant == TAVariant.SUM:
                a = np.tanh(sum(zs) / len(zs))
            else:  # CONCAT
                stacked = np.concatenate(zs, axis=1)
                a = np.tanh(stacked @ concat_weight)
            q = eps + cfg.gamma * a
        else:
            q = eps
        out = aggregate_hyperedges_to_nodes(graph, q)
        trace.layers.append(TALayerTrace(eps=eps, alpha=alpha, a=a))
        x = out
    return x, trace


@dataclass
class TaskActivations:
    """All per-forward activations: encoder traces, TA outputs and traces."""

    ta_user_out: np.ndarray
    ta_item_out: np.ndarray
    encoder_traces: dict = field(repr=False)  # task_id -> EncoderTrace
    ta_user_trace: TATrace = field(repr=False)
    ta_item_trace: TATrace = field(repr=False)

    def attention_arrays(self) -> list:
        """Every recorded attention-weight array from this forward pass."""
        return self.ta_user_trace.attention + self.ta_item_trace.attention


def forward_pretrain(
    table: EmbeddingTable,
    rec_user_task: TaskHypergraph,
    rec_item_task: TaskHypergraph,
    aux_tasks,
    cfg: TrainConfig,
    concat_weights: dict | None = None,
) -> TaskActivations:
    """Full pretraining forward: all auxiliary encoders plus both TA sides."""
    concat_weights = concat_weights or {}
    traces = {
        task.task_id: encode_auxiliary_task_traced(
            task.graph, table.side_emb(task.side), cfg.aux_encoder_layers
        )
        for task in aux_tasks
    }
    item_side = [(t.task_id, traces[t.task_id].node_emb) for t in aux_tasks
                 if t.side == NodeSide.ITEMS]
    user_side = [(t.task_id, traces[t.task_id].node_emb) for t in aux_tasks
                 if t.side == NodeSide.USERS]
    ta_user_out, ta_user_trace = ta_forward_traced(
        table.user_emb, rec_user_task.graph, item_side, cfg, concat_weights.get("user")
    )
    ta_item_out, ta_item_trace = ta_forward_traced(
        table.item_emb, rec_item_task.graph, user_side, cfg, concat_weights.get("item")
    )
    return TaskActivations(
        ta_user_out=ta_user_out,
        ta_item_out=ta_item_out,
        encoder_traces=traces,
        ta_user_trace=ta_user_trace,
        ta_item_trace=ta_item_trace,
    )
