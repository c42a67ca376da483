"""Model forward pass: embedding table, task encoders, transitional attention.

The user and item embeddings are the base model's only parameters.
Auxiliary tasks are encoded by weight-free hypergraph convolutions; the
transitional attention (TA) layer fuses, per recommendation hyperedge, an
attention-weighted mix of that entity's task embeddings into the
hyperedge before the node update. An encoder is a TA stack with no tasks,
so both run one layer loop, which records in a `TATrace` what the reverse
pass in `gradients` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TAVariant, TrainConfig
from .hypergraph import (
    Hypergraph,
    Restriction,
    aggregate_hyperedges_to_nodes,
    aggregate_nodes_to_hyperedges,
)
from .schedule import run_pair
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
class TALayerTrace:
    eps: np.ndarray | None = field(repr=False)  # hyperedge embeddings before the TA term
    alpha: np.ndarray | None = field(repr=False)  # (num_hyperedges, T), FULL only
    a: np.ndarray | None = field(repr=False)  # tanh output, None when attention is off


@dataclass
class TATrace:
    """Intermediates of one stack of convolution layers, as the reverse
    reads them. With a `restriction`, the final layer's arrays hold its
    rows only. A layer keeps its `eps` only where something reads it:
    every attending layer, and the final layer as the stack's `edge_emb`.
    """

    graph: Hypergraph
    gamma: float = 0.0
    variant: TAVariant = TAVariant.NO_TA
    task_ids: list = field(default_factory=list)
    task_embs: list = field(default_factory=list, repr=False)
    layers: list = field(default_factory=list, repr=False)
    concat_weight: np.ndarray | None = field(default=None, repr=False)
    node_emb: np.ndarray | None = field(default=None, repr=False)  # final layer's output
    restriction: Restriction | None = field(default=None, repr=False)

    @property
    def attends(self) -> bool:
        return bool(self.task_ids) and self.variant != TAVariant.NO_TA

    @property
    def edge_emb(self) -> np.ndarray:
        """The final layer's hyperedge embeddings."""
        return self.layers[-1].eps

    @property
    def attention(self) -> list:
        """Per-layer (hyperedges, T) attention weight arrays: every
        hyperedge, or the reached ones in a restricted final layer."""
        return [layer.alpha for layer in self.layers if layer.alpha is not None]

    def operator(self, final: bool):
        """A layer's operator, and the rows of each task embedding that
        are its hyperedges: the restriction for the final layer, if the
        trace has one, else the graph and every row."""
        rows = self.restriction
        if not final or rows is None:
            return self.graph, slice(None)
        return rows, slice(None) if rows.edges is None else rows.edges

    def output_index(self, index: np.ndarray) -> np.ndarray:
        """The rows of `node_emb` that hold the nodes in `index`."""
        if self.restriction is None:
            return index
        return np.searchsorted(self.restriction.nodes, index)

    def drop_edge_output(self):
        """Drop `edge_emb` unless the reverse reads it."""
        if not self.attends:
            self.layers[-1].eps = None

    def release(self):
        """Drop every array but the attention weights."""
        self.node_emb = None
        self.task_embs = []
        for layer in self.layers:
            layer.eps = layer.a = None


def _attend(trace: TATrace, zs: list, eps: np.ndarray, buf: np.ndarray):
    """One layer's (alpha, a): the attention weights (FULL only) and the
    task mix, from the task embeddings `zs` on eps's hyperedges. `buf`,
    shaped like eps, takes every table-sized product in turn."""
    alpha = None
    if trace.variant == TAVariant.FULL:
        sqrt_d = math.sqrt(eps.shape[1])
        logits = np.stack([np.multiply(eps, z, out=buf).sum(axis=1) for z in zs], axis=1) / sqrt_d
        logits -= logits.max(axis=1, keepdims=True)
        expw = np.exp(logits)
        alpha = expw / expw.sum(axis=1, keepdims=True)
        a = np.zeros_like(eps)
        for t, z in enumerate(zs):
            a += np.multiply(alpha[:, t : t + 1], z, out=buf)
    elif trace.variant == TAVariant.SUM:
        a = np.zeros_like(eps)  # 0 + z, as sum() starts
        for z in zs:
            a += z
        a /= len(zs)
    else:  # CONCAT
        a = np.concatenate(zs, axis=1) @ trace.concat_weight
    np.tanh(a, out=a)
    return alpha, a


def _convolve(trace: TATrace, x: np.ndarray, num_layers: int) -> TATrace:
    """Run `num_layers` layers, each on its `trace.operator`, from node
    embeddings x, recording each in `trace`."""
    for k in range(num_layers):
        final = k == num_layers - 1
        op, edges = trace.operator(final)
        eps = aggregate_nodes_to_hyperedges(op, x)
        zs = [z[edges] for z in trace.task_embs]
        layer = TALayerTrace(eps=eps if trace.attends or final else None, alpha=None, a=None)
        if trace.attends:
            q = np.empty_like(eps)
            layer.alpha, layer.a = _attend(trace, zs, eps, q)
            np.multiply(layer.a, trace.gamma, out=q)
            q += eps
        else:
            q = eps
        x = aggregate_hyperedges_to_nodes(op, q)
        del eps, q, zs  # before the next layer allocates its own
        trace.layers.append(layer)
    trace.node_emb = x
    return trace


def encode_auxiliary_task_traced(
    graph: Hypergraph, x0: np.ndarray, layers: int, rows: tuple | None = None
) -> TATrace:
    """Weight-free hypergraph convolution: a TA stack with no tasks;
    `rows` as in `ta_forward_traced`."""
    if layers < 1:
        raise ValueError("layers must be >= 1")
    trace = TATrace(graph, restriction=None if rows is None else Restriction(graph, *rows))
    return _convolve(trace, np.asarray(x0, dtype=np.float64), layers)


def ta_forward_traced(
    side_input: np.ndarray,
    graph: Hypergraph,
    opposite_tasks,
    cfg: TrainConfig,
    concat_weight: np.ndarray | None = None,
    rows: tuple | None = None,
) -> TATrace:
    """Matrix-form transitional attention over `cfg.ta_layers` layers.

    opposite_tasks holds (task_id, node_emb) pairs of the tasks on the
    side playing the hyperedge role; with none (or NO_TA) the stack is a
    weight-free convolution. `rows` is None, for a dense stack, or the
    final layer's `Restriction` arguments (nodes, reached): the distinct,
    ascending nodes the caller reads, and whether the layer runs on the
    hyperedges they reach only, as just `full` and `sum` stacks may.
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
    trace = TATrace(graph, cfg.gamma, cfg.ta_variant, task_ids, zs)
    if cfg.ta_variant == TAVariant.CONCAT and trace.attends:
        if concat_weight is None:
            raise ValueError("CONCAT variant requires a concat weight matrix")
        trace.concat_weight = concat_weight
    if rows is not None:
        trace.restriction = Restriction(graph, *rows)
    return _convolve(trace, x, cfg.ta_layers)


@dataclass
class TaskActivations:
    """All per-forward activations: one trace per encoder and per TA side."""

    encoder_traces: dict = field(repr=False)  # task_id -> TATrace
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
    extra_params: dict | None = None,
    user_rows: tuple | None = None,
    item_rows: tuple | None = None,
) -> TaskActivations:
    """Full pretraining forward: all auxiliary encoders plus both TA sides.

    Each TA side reads only the encoders of the opposite side's tasks, so
    the two sides run as one `run_pair`. CONCAT reads its heads from
    extra_params; `user_rows` and `item_rows` are each stack's `rows`.
    """
    extra_params = extra_params or {}

    def side(rec_task, side_input, tasks_side, head, rows):
        traces = {
            task.task_id: encode_auxiliary_task_traced(
                task.graph, table.side_emb(task.side), cfg.aux_encoder_layers
            )
            for task in aux_tasks
            if task.side == tasks_side
        }
        opposite = [(tid, trace.node_emb) for tid, trace in traces.items()]
        ta = ta_forward_traced(
            side_input, rec_task.graph, opposite, cfg, extra_params.get(head), rows
        )
        return traces, ta

    (item_traces, ta_user), (user_traces, ta_item) = run_pair(
        lambda: side(rec_user_task, table.user_emb, NodeSide.ITEMS, "ta_concat_user", user_rows),
        lambda: side(rec_item_task, table.item_emb, NodeSide.USERS, "ta_concat_item", item_rows),
    )
    traces = {**item_traces, **user_traces}
    return TaskActivations(
        encoder_traces={task.task_id: traces[task.task_id] for task in aux_tasks},
        ta_user_trace=ta_user,
        ta_item_trace=ta_item,
    )
