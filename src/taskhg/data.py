"""Interaction datasets: splits, negative sampling, synthetic fixtures."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .hypergraph import csr_from_sorted
from .tasks import (
    NodeSide,
    TaskHypergraph,
    build_attribute_hypergraph,
    build_recommendation_hypergraphs,
    build_relation_hypergraph,
)

# Deterministic sub-stream tags for the master seed.
STREAM_SPLIT = 1
STREAM_SHUFFLE = 2
STREAM_NEGATIVES = 3
STREAM_AUX = 4
STREAM_COLD = 5
STREAM_SYNTH = 6
STREAM_HEADS = 7

# (node, draw) pairs tested per binary search in the negative sampler. A
# window ends at its first rejection, so a larger one wastes more of its
# test when rejections are common.
_WINDOW = 64


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def edge_array(edges) -> np.ndarray:
    """(user, item) pairs as a sorted, duplicate-free int64 (n, 2) array.

    Rows are in row-major order, the order of the sorted tuples. `edges` is
    an (n, 2) array or any iterable of pairs; pairs already in that order
    are only copied.
    """
    pairs = np.array(
        edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
    ).reshape(-1, 2)
    users, items = pairs[:, 0], pairs[:, 1]
    user_step = np.diff(users)
    if ((user_step > 0) | ((user_step == 0) & (np.diff(items) > 0))).all():
        return pairs
    pairs = pairs[np.lexsort((items, users))]
    keep = np.ones(len(pairs), dtype=bool)
    keep[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
    return pairs[keep]


class InteractionDataset:
    """User-item edges with a train/test split plus auxiliary task hypergraphs.

    The split is held as two read-only `edge_array`s, `train_array` and
    `test_array`: int64 (n, 2) arrays of (user, item) rows in row-major
    order, without duplicates. The constructor takes each side of the split
    as a set or list of pairs or as an (n, 2) array. `train_edges` and
    `test_edges` are frozenset views of the two arrays, made on first use
    for callers that want set semantics; the package reads only the arrays.
    """

    def __init__(self, num_users, num_items, train_edges, test_edges, auxiliary_tasks=None):
        self.num_users = num_users
        self.num_items = num_items
        self.train_array = edge_array(train_edges)
        self.test_array = edge_array(test_edges)
        self.auxiliary_tasks = [] if auxiliary_tasks is None else auxiliary_tasks
        for pairs in (self.train_array, self.test_array):
            bad = (pairs < 0).any(axis=1) | (pairs[:, 0] >= num_users) | (pairs[:, 1] >= num_items)
            if bad.any():
                u, i = pairs[bad.argmax()].tolist()
                raise DataError(f"edge ({u}, {i}) out of range for "
                                f"{num_users} users x {num_items} items")
            pairs.flags.writeable = False
        # In range, the keys u * num_items + i name each pair once.
        train_keys = self.train_array[:, 0] * num_items + self.train_array[:, 1]
        test_keys = self.test_array[:, 0] * num_items + self.test_array[:, 1]
        overlap = np.intersect1d(train_keys, test_keys, assume_unique=True)
        if len(overlap):
            raise DataError(f"train/test overlap on {len(overlap)} edges, "
                            f"e.g. {divmod(int(overlap[0]), num_items)}")
        self._train_set = None
        self._test_set = None
        self._rec_pair = None
        self._test_incidence = None

    @property
    def train_edges(self) -> frozenset:
        """`train_array` as a frozenset of (user, item) tuples, made on first use."""
        if self._train_set is None:
            self._train_set = frozenset(zip(*self.train_array.T.tolist()))
        return self._train_set

    @property
    def test_edges(self) -> frozenset:
        """`test_array` as a frozenset of (user, item) tuples, made on first use."""
        if self._test_set is None:
            self._test_set = frozenset(zip(*self.test_array.T.tolist()))
        return self._test_set

    def rec_pair(self):
        """The transposed pair of recommendation hypergraphs over train edges."""
        if self._rec_pair is None:
            self._rec_pair = build_recommendation_hypergraphs(
                self.train_array, self.num_users, self.num_items
            )
        return self._rec_pair

    def rec_pair_with(self, extra_edges):
        """Recommendation pair over train edges plus inference-only edges."""
        edges = np.concatenate((self.train_array, edge_array(extra_edges)))
        return build_recommendation_hypergraphs(edges, self.num_users, self.num_items)

    def test_incidence(self) -> sp.csr_matrix:
        """The test edges as a users x items 0/1 CSR matrix, made on first use."""
        if self._test_incidence is None:
            self._test_incidence = csr_from_sorted(
                self.test_array[:, 0], self.test_array[:, 1], (self.num_users, self.num_items)
            )
        return self._test_incidence

    def check_test_edges(self):
        """Raise DataError unless there is a test edge to evaluate."""
        if not len(self.test_array):
            raise DataError(
                "the dataset has no test edges to evaluate; a split never holds out "
                "a user's only interaction"
            )

    def check_table(self, table):
        """Raise DataError unless `table` has one row per user and per item."""
        if (table.num_users, table.num_items) != (self.num_users, self.num_items):
            raise DataError(
                f"embedding table has {table.num_users} users x {table.num_items} items, "
                f"dataset has {self.num_users} users x {self.num_items} items"
            )

    def tasks_on(self, side: NodeSide) -> list:
        return [t for t in self.auxiliary_tasks if t.side == side]


def split_interactions(edges, train_fraction: float, seed: int):
    """Uniform per-edge split; users left without train edges get one back.

    The edges are taken as an `edge_array` and permuted under the seed; the
    first round(train_fraction * n) of the permutation are train edges.
    Each user then left with no train edge gets back their test edge with
    the smallest item. Returns (train, test) as `edge_array`s.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if seed < 0:
        raise ValueError(f"split seed must be >= 0, got {seed}")
    edges = edge_array(edges)
    if len(edges) < 2:
        raise DataError("need at least 2 interactions to split")
    rng = rng_for(seed, STREAM_SPLIT)
    order = rng.permutation(len(edges))
    n_train = int(round(train_fraction * len(edges)))
    n_train = min(max(n_train, 1), len(edges) - 1)
    in_train = np.zeros(len(edges), dtype=bool)
    in_train[order[:n_train]] = True
    users = edges[:, 0]
    test_rows = np.flatnonzero(~in_train)
    # Rows ascend, so a user's first test row holds their smallest test item.
    first = test_rows[np.concatenate(([True], np.diff(users[test_rows]) != 0))]
    in_train[first[~np.isin(users[first], users[in_train])]] = True
    return edges[in_train], edges[~in_train]


def task_positive_pairs(task: TaskHypergraph) -> np.ndarray:
    """(node, hyperedge) incidence pairs eligible for ranking training.

    Nodes incident to every hyperedge are dropped: they admit no negative.
    """
    pairs = task.graph.memberships()
    m = task.graph.num_hyperedges
    if m < 2:
        return pairs[:0]
    eligible = task.graph.node_degrees[pairs[:, 0]] < m
    return pairs[eligible]


def sample_negative_hyperedges(rng, task: TaskHypergraph, nodes) -> np.ndarray:
    """One uniform non-incident hyperedge per node entry (rejection sampling).

    BPR item negatives are this on the user-side recommendation task.

    The result and the generator's end state are those of the plain loop
    that, node by node, calls `rng.integers(m)` until the draw is not
    incident to the node. The same values are drawn in bulk instead:
    `integers(m, size=k)` yields the next k scalar draws. The first buffer
    holds one draw per node; an empty buffer is refilled with one draw per
    node not yet resolved, each of which is sure to use at least one, so
    nothing is drawn that the loop would not draw. Windows of up to
    `_WINDOW` (node, draw) pairs, the i-th node against the i-th unused
    draw, are tested with one binary search on `incidence_keys`. All pairs
    before the first rejection are accepted; the rejecting node then tries
    the following draws one by one against its own row, and the windows
    resume after it.
    """
    graph = task.graph
    m = graph.num_hyperedges
    nodes = np.asarray(nodes, dtype=np.int64)
    n = len(nodes)
    out = np.empty(n, dtype=np.int64)
    full = graph.node_degrees[nodes] >= m
    if full.any():
        raise DataError(
            f"node {nodes[full.argmax()]} is incident to every hyperedge of task "
            f"{task.task_id!r}; cannot sample a negative"
        )
    keys = graph.incidence_keys
    node_keys = nodes * m
    indptr, indices = graph.incidence.indptr, graph.incidence.indices
    draws = np.empty(0, dtype=np.int64)
    draws_list = None  # draws as Python ints, made for one-by-one tries
    incident = None  # row of the node that is trying draws one by one
    k = p = 0  # next node to resolve, next unused draw
    while k < n:
        if p == len(draws):
            draws = rng.integers(m, size=n - k)
            draws_list = None
            p = 0
        if incident is not None:
            if draws_list is None:
                draws_list = draws.tolist()
            while p < len(draws_list) and draws_list[p] in incident:
                p += 1
            if p < len(draws_list):
                out[k] = draws_list[p]
                k += 1
                p += 1
                incident = None
            continue
        w = min(_WINDOW, n - k, len(draws) - p)
        query = node_keys[k : k + w] + draws[p : p + w]
        rejected = keys[keys.searchsorted(query)] == query
        t = int(rejected.argmax())  # the first rejection, or 0 if none
        if not rejected[t]:
            t = w
        out[k : k + t] = draws[p : p + t]
        k += t
        p += t
        if t < w:
            v = nodes[k]
            incident = indices[indptr[v] : indptr[v + 1]].tolist()
            p += 1
    return out


# Item negatives keep their own name so a trace can time them apart.
sample_negative_items = sample_negative_hyperedges


def synthetic_records(
    num_users: int,
    num_items: int,
    num_blocks: int,
    noise: float,
    seed: int,
    interactions_per_user: int = 2,
    relation_partners: int = 2,
):
    """Raw records of the planted block model: edges, attributes, relations.

    Users and items are partitioned into aligned co-preference blocks; each
    user draws `interactions_per_user` items, within their own block except
    with probability `noise`. The attribute records label every item with
    its block; the relation records link each item to a few block partners.
    The edges are returned as an `edge_array`.
    """
    for name, value, low in (
        ("num_users", num_users, 1),
        ("num_items", num_items, 1),
        ("num_blocks", num_blocks, 1),
        ("interactions_per_user", interactions_per_user, 1),
        ("relation_partners", relation_partners, 0),
        ("seed", seed, 0),
    ):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if num_users % num_blocks or num_items % num_blocks:
        raise ValueError(
            f"num_blocks ({num_blocks}) must divide both num_users ({num_users}) "
            f"and num_items ({num_items})"
        )
    if not (0.0 <= noise <= 1.0):
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    rng = rng_for(seed, STREAM_SYNTH)
    users_per_block = num_users // num_blocks
    items_per_block = num_items // num_blocks
    user_block = np.arange(num_users) // users_per_block
    item_block = np.arange(num_items) // items_per_block
    edges = []
    for u in range(num_users):
        b = user_block[u]
        base = b * items_per_block
        for _ in range(interactions_per_user):
            if num_blocks > 1 and rng.random() < noise:
                i = int(rng.integers(num_items))
                while item_block[i] == b:
                    i = int(rng.integers(num_items))
            else:
                i = base + int(rng.integers(items_per_block))
            edges.append((u, i))
    attr_records = [(i, f"block_{item_block[i]}") for i in range(num_items)]
    relations = []
    for i in range(num_items):
        b = item_block[i]
        pool = [j for j in range(b * items_per_block, (b + 1) * items_per_block) if j != i]
        count = min(relation_partners, len(pool))
        partners = rng.choice(len(pool), size=count, replace=False) if count else []
        relations.append((i, {pool[int(p)] for p in partners}))
    return edge_array(edges), attr_records, relations


def generate_synthetic_dataset(
    num_users: int,
    num_items: int,
    num_blocks: int,
    noise: float,
    seed: int,
    interactions_per_user: int = 2,
    train_fraction: float = 0.8,
    relation_partners: int = 2,
) -> InteractionDataset:
    """Planted block-model dataset with two item-side auxiliary tasks."""
    edges, attr_records, relations = synthetic_records(
        num_users, num_items, num_blocks, noise, seed, interactions_per_user, relation_partners
    )
    train, test = split_interactions(edges, train_fraction, seed)
    attr_task = build_attribute_hypergraph(
        "item_block", NodeSide.ITEMS, *zip(*attr_records), bins=2, num_nodes=num_items
    )
    rel_task, _ = build_relation_hypergraph(
        "item_partners", NodeSide.ITEMS, relations, num_items
    )
    return InteractionDataset(
        num_users=num_users,
        num_items=num_items,
        train_edges=train,
        test_edges=test,
        auxiliary_tasks=[attr_task, rel_task],
    )
