"""Builders that turn raw interaction/relation/attribute records into task hypergraphs.

Three construction rules are supported:
  * recommendation: users and items alternately play the hyperedge role
    for each other, giving a transposed pair of incidence matrices;
  * relation prediction: each homogeneous relation record becomes one
    hyperedge over its anchor plus related nodes;
  * attribute prediction: each distinct attribute value (or quantization
    bin for continuous values) becomes one hyperedge over its holders.

Every task hypergraph is indexed over the full user or item set, so
entities that do not participate in a task are simply isolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DataError
from .hypergraph import Hypergraph, build_hypergraph

REC_TASK_ID = "rec"


class TaskKind(Enum):
    RECOMMENDATION = "recommendation"
    RELATION_PREDICTION = "relation"
    ATTRIBUTE_PREDICTION = "attribute"


class NodeSide(Enum):
    USERS = "users"
    ITEMS = "items"


@dataclass(frozen=True)
class TaskHypergraph:
    """A hypergraph tagged with task identity, task type, and node side."""

    task_id: str
    kind: TaskKind
    side: NodeSide
    graph: Hypergraph
    hyperedge_labels: tuple[str, ...] | None = None


def build_recommendation_hypergraphs(interactions, num_users: int, num_items: int):
    """Build the transposed pair of recommendation hypergraphs.

    The user-side graph connects, per item, all users who interacted with
    it; the item-side graph is its exact transpose. `interactions` is an
    (n, 2) int array of (user, item) rows or any iterable of pairs.
    """
    user_graph = build_hypergraph(interactions, num_users, num_items)
    if not user_graph.nnz:
        raise DataError("a recommendation task needs at least one interaction")
    item_graph = Hypergraph(user_graph.incidence_t)
    user_task = TaskHypergraph(REC_TASK_ID, TaskKind.RECOMMENDATION, NodeSide.USERS, user_graph)
    item_task = TaskHypergraph(REC_TASK_ID, TaskKind.RECOMMENDATION, NodeSide.ITEMS, item_graph)
    return user_task, item_task


def build_relation_hypergraph(task_id: str, side: NodeSide, relations, num_nodes: int):
    """Build a relation-prediction hypergraph; one hyperedge per record.

    Each record is (anchor_node, related_node_set); the hyperedge connects
    the anchor together with its related set. Records with an empty
    related set are skipped and counted. Returns (task, skipped_count).
    """
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


def build_attribute_hypergraph(
    task_id: str, side: NodeSide, nodes, values, bins: int, num_nodes: int,
    value_kind: str = "categorical",
) -> TaskHypergraph:
    """Build an attribute-prediction hypergraph; one hyperedge per value.

    `nodes[k]` holds `values[k]`. A "categorical" value is its own label; a
    "continuous" one is quantized into `bins` uniform-width bins over the
    observed range, labelled `bin_<b>`. Hyperedges are created for the
    labels that actually occur, in canonical order: sorted strings, or
    ascending bin numbers. Any other value_kind raises ValueError.
    """
    if value_kind == "continuous":
        bin_idx = quantize_continuous(values, bins)
        names = [f"bin_{b}" for b in bin_idx]
        labels = [f"bin_{b}" for b in sorted(set(bin_idx))]
    elif value_kind == "categorical":
        names = [str(v) for v in values]
        labels = sorted(set(names))
    else:
        raise ValueError(f"unknown value_kind: {value_kind!r}")
    edge_index = {label: k for k, label in enumerate(labels)}
    memberships = [(int(n), edge_index[name]) for n, name in zip(nodes, names)]
    graph = build_hypergraph(memberships, num_nodes, len(labels))
    return TaskHypergraph(
        task_id, TaskKind.ATTRIBUTE_PREDICTION, side, graph, tuple(labels)
    )


def quantize_continuous(values, bins: int) -> list[int]:
    """Map real values to uniform-width bin indices over [min, max].

    The maximum value maps to the last bin; a constant input maps
    everything to bin 0. Non-finite values raise DataError naming the
    offending record.
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    values = [float(v) for v in values]
    if not values:
        raise ValueError("at least one value is required")
    for idx, v in enumerate(values):
        if not math.isfinite(v):
            raise DataError(f"non-finite attribute value at record {idx}: {v}")
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0] * len(values)
    width = (hi - lo) / bins
    out = []
    for v in values:
        b = int((v - lo) / width)
        out.append(min(b, bins - 1))
    return out
