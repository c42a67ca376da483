"""Builders that turn interaction, relation and attribute records into task hypergraphs.

Recommendation gives a transposed pair (users and items each play the
hyperedge role for the other); a relation record is one hyperedge over
its anchor and related nodes; an attribute value (or bin) is one
hyperedge over its holders. Every task spans its whole user or item set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError
from .hypergraph import Hypergraph, build_hypergraph, sorted_unique

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
    """The (user-side, item-side) recommendation tasks from (user, item)
    pairs: one hyperedge per item over its users, and the transpose."""
    user_graph = build_hypergraph(interactions, num_users, num_items)
    if not user_graph.nnz:
        raise DataError("a recommendation task needs at least one interaction")
    item_graph = Hypergraph(user_graph.incidence_t)
    user_task = TaskHypergraph(REC_TASK_ID, TaskKind.RECOMMENDATION, NodeSide.USERS, user_graph)
    item_task = TaskHypergraph(REC_TASK_ID, TaskKind.RECOMMENDATION, NodeSide.ITEMS, item_graph)
    return user_task, item_task


def build_relation_hypergraph(
    task_id: str, side: NodeSide, anchors, related, counts, num_nodes: int
):
    """Build a relation-prediction task: (task, skipped record count).

    Record r is anchor `anchors[r]` with the next `counts[r]` ids of
    `related`, one hyperedge over them all; records with no related id are
    skipped. A hyperedge's label is its ascending member indices joined by
    commas; hyperedges are ordered by label as text ("10,11" before "2,3"),
    equal labels in input order.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    related = np.asarray(related, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if len(counts) != len(anchors) or counts.min(initial=0) < 0 or counts.sum() != len(related):
        raise ValueError(
            f"{len(anchors)} anchors and {len(related)} related ids do not fit "
            f"the per-record counts (summing to {counts.sum()} over {len(counts)} records)"
        )
    kept = counts > 0
    num_kept = int(kept.sum())
    records = np.arange(num_kept, dtype=np.int64)
    ids = np.concatenate([anchors[kept], related])
    owners = np.concatenate([records, np.repeat(records, counts[kept])])
    # Ranks among the ids present keep the keys in range whatever the ids.
    present = sorted_unique(ids)
    width = max(len(present), 1)
    keys = sorted_unique(owners * width + np.searchsorted(present, ids))
    owners, ranks = np.divmod(keys, width)
    # Every record's members, ascending, then a comma or (after its last
    # member) a newline: one join and one split give every label.
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = owners[1:] != owners[:-1]
    tokens = np.empty(2 * len(keys), dtype=object)
    tokens[0::2] = np.array(list(map(str, present.tolist())), dtype=object)[ranks]
    tokens[1::2] = ","
    tokens[2 * np.flatnonzero(last) + 1] = "\n"
    labels = "".join(tokens.tolist()).split("\n")[:-1]
    order = sorted(range(num_kept), key=labels.__getitem__)
    edge_of = np.empty(num_kept, dtype=np.int64)
    edge_of[order] = records
    edges = edge_of[owners]
    # Pairs in hyperedge order, so a range error names the first bad pair.
    by_edge = np.argsort(edges, kind="stable")
    memberships = np.column_stack((present[ranks][by_edge], edges[by_edge]))
    graph = build_hypergraph(memberships, num_nodes, num_kept)
    labels = tuple(map(labels.__getitem__, order))
    task = TaskHypergraph(task_id, TaskKind.RELATION_PREDICTION, side, graph, labels)
    return task, len(counts) - num_kept


def build_attribute_hypergraph(
    task_id: str, side: NodeSide, nodes, values, bins: int, num_nodes: int,
    value_kind: str = "categorical",
) -> TaskHypergraph:
    """Build an attribute-prediction task: one hyperedge per label that occurs.

    `nodes[k]` holds `values[k]`. A "categorical" value is its own label,
    in sorted order; a "continuous" one falls into one of `bins`
    uniform-width bins over the observed range, labelled `bin_<b>` in bin
    order. Any other value_kind raises ValueError.
    """
    if value_kind == "continuous":
        keys = quantize_continuous(values, bins)
        distinct = sorted(set(keys))
        labels = [f"bin_{b}" for b in distinct]
    elif value_kind == "categorical":
        keys = list(map(str, values))
        distinct = labels = sorted(set(keys))
    else:
        raise ValueError(f"unknown value_kind: {value_kind!r}")
    edge_index = dict(zip(distinct, range(len(distinct))))
    edges = np.fromiter(map(edge_index.__getitem__, keys), dtype=np.int64, count=len(keys))
    nodes = np.asarray(nodes, dtype=np.int64)
    graph = build_hypergraph(np.column_stack((nodes, edges)), num_nodes, len(labels))
    return TaskHypergraph(
        task_id, TaskKind.ATTRIBUTE_PREDICTION, side, graph, tuple(labels)
    )


def quantize_continuous(values, bins: int) -> list[int]:
    """Uniform-width bin indices over [min, max]: the maximum is in the
    last bin, a constant input all in bin 0, and a non-finite value a
    DataError naming its record."""
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
