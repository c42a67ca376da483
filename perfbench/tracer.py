"""Span tracer for the traced benchmark run.

Spans (name, start, end, parent) are kept in memory and written out by the
caller when the run ends. Layers are traced by replacing each package
function in the module that imported it, so calls made inside the package
are seen too; the originals are put back when the traced repeat ends. A
wrap point whose function a refactor removed is reported as absent.

A layer's self time is its spans' duration minus the time covered by its
wrapped children. Counter hooks run after the call in a span of their own
("trace.hooks"), so their cost shows as tracing overhead, not as layer time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

HOOK_SPAN = "trace.hooks"


class CountingRng:
    """Delegates to a numpy Generator and counts the values `integers` draws.

    Delegation keeps the random stream of the traced run unchanged.
    """

    def __init__(self, rng, counts, key):
        self._rng = rng
        self._counts = counts
        self._key = key

    def integers(self, *args, **kwargs):
        size = kwargs.get("size", args[2] if len(args) > 2 else None)
        self._counts[self._key] += 1 if size is None else int(np.prod(size))
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.broken = set()  # layers whose counter hook no longer fits the call
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                args = self._hook(name, before, args) or args
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span(HOOK_SPAN):
                    self._hook(name, after, args, result)
            return result

        return traced

    def _hook(self, layer, hook, *args):
        # A hook written for an older signature marks its counters absent
        # instead of failing the run.
        try:
            return hook(self.counts, *args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            self.broken.add(layer)
            return None

    def layer_totals(self):
        """Per span name: (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[k]
        return calls, self_s


# ---------------------------------------------------------------------------
# Counter hooks. `before` hooks may replace arguments; `after` hooks only read.


def _count_rng(key):
    def before(counts, args):
        return (CountingRng(args[0], counts, key), *args[1:])

    return before


def _nnz_d(counts, args, result):
    # (hypergraph, embeddings) -> computed multiply-adds of one sparse product
    counts["nnz_d"] += args[0].nnz * np.shape(args[1])[1]


def _adam_rows(counts, args, result):
    # AdamState.apply(self, grads, params): rows whose gradient is not all zero
    for g in args[1].values():
        if np.ndim(g) == 2:
            counts["adam_rows_with_grad"] += int(np.count_nonzero(np.any(g != 0.0, axis=1)))
            counts["adam_rows"] += g.shape[0]


def _batch_rows(counts, args, result):
    # rec_loss_grad(kind, user_out, item_out, users, pos, neg, ...)
    _, user_out, item_out, users, pos, neg = args[:6]
    items = pos if neg is None else np.concatenate([pos, neg])
    counts["rows_read"] += len(np.unique(users)) + len(np.unique(items))
    counts["rows_propagated"] += user_out.shape[0] + item_out.shape[0]


def _eval_kmax(counts, args, result):
    # evaluate_scores(scores, masked, test_by_user, ks, users)
    counts["kmax"] = max(args[3])


def _rank_row(counts, args, result):
    counts["rows_ranked"] += 1
    counts["items_sorted"] += len(args[0])


# (layer, module, attribute, before hook, after hook). One layer may have
# several points: the same function imported by several modules.
WRAP_POINTS = (
    ("hypergraph.n2e", "taskhg.hypergraph", "aggregate_nodes_to_hyperedges", None, _nnz_d),
    ("hypergraph.n2e", "taskhg.model", "aggregate_nodes_to_hyperedges", None, _nnz_d),
    ("hypergraph.e2n", "taskhg.hypergraph", "aggregate_hyperedges_to_nodes", None, _nnz_d),
    ("hypergraph.e2n", "taskhg.model", "aggregate_hyperedges_to_nodes", None, _nnz_d),
    ("hypergraph.n2e_adj", "taskhg.gradients", "aggregate_nodes_to_hyperedges_adjoint", None, _nnz_d),
    ("hypergraph.e2n_adj", "taskhg.gradients", "aggregate_hyperedges_to_nodes_adjoint", None, _nnz_d),
    ("model.encoder_fwd", "taskhg.model", "encode_auxiliary_task_traced", None, None),
    ("model.encoder_fwd", "taskhg.gradients", "encode_auxiliary_task_traced", None, None),
    ("model.ta_fwd", "taskhg.model", "ta_forward_traced", None, None),
    ("gradients.ta_bwd", "taskhg.gradients", "ta_backward", None, None),
    ("gradients.encoder_bwd", "taskhg.gradients", "encoder_backward", None, None),
    ("gradients.aux_bpr", "taskhg.gradients", "aux_bpr_grad", None, None),
    ("gradients.rec_loss", "taskhg.gradients", "rec_loss_grad", None, _batch_rows),
    ("gradients.step", "taskhg.train", "pretrain_loss_and_grad", None, None),
    ("gradients.step", "taskhg.train", "finetune_loss_and_grad", None, None),
    ("data.neg_items", "taskhg.train", "sample_negative_items", _count_rng("neg_items_draws"), None),
    ("data.neg_edges", "taskhg.train", "sample_negative_hyperedges", _count_rng("neg_edges_draws"), None),
    ("optim.adam", "taskhg.optim", "AdamState.apply", None, _adam_rows),
    ("evaluate.encode", "taskhg.evaluate", "encode_for_inference", None, None),
    ("evaluate.rank", "taskhg.evaluate", "evaluate_scores", None, _eval_kmax),
    ("evaluate.rank_items", "taskhg.evaluate", "rank_items", None, _rank_row),
    ("tasks.build", "taskhg.data", "build_recommendation_hypergraphs", None, None),
    ("tasks.build", "taskhg.io", "build_attribute_hypergraph", None, None),
    ("tasks.build", "taskhg.io", "build_relation_hypergraph", None, None),
)

# Spans the benchmark opens itself around its calls into the package.
OWN_SPANS = ("train.loop", "evaluate.score", "io.load_dataset", "io.checkpoint")

# Timed layers: each reports `<layer>.calls` and `<layer>.self_s`.
LAYERS = tuple(dict.fromkeys(p[0] for p in WRAP_POINTS)) + OWN_SPANS

_AGGREGATIONS = ("hypergraph.n2e", "hypergraph.e2n", "hypergraph.n2e_adj", "hypergraph.e2n_adj")

# Derived metrics: name -> (layers whose hooks count it, numerator counter,
# denominator counter or None).
DERIVED = {
    "hypergraph.nnz_d": (_AGGREGATIONS, "nnz_d", None),
    "data.neg_items.draws": (("data.neg_items",), "neg_items_draws", None),
    "data.neg_edges.draws": (("data.neg_edges",), "neg_edges_draws", None),
    "optim.adam.rows_with_grad_ratio": (("optim.adam",), "adam_rows_with_grad", "adam_rows"),
    "train.batch_rows_ratio": (("gradients.rec_loss",), "rows_read", "rows_propagated"),
    "evaluate.kept_ratio": (("evaluate.rank", "evaluate.rank_items"), "kept", "items_sorted"),
}


def _resolve(module_name, attr):
    """(owner, leaf name) for a dotted attribute, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, leaf) if callable(getattr(owner, leaf, None)) else None


@contextmanager
def installed(tracer):
    """Wrap every point for the duration of the block; yields the absent ones."""
    saved = []
    absent = []
    try:
        for layer, module_name, attr, before, after in WRAP_POINTS:
            found = _resolve(module_name, attr)
            if found is None:
                absent.append(f"{module_name}.{attr}")
                continue
            owner, leaf = found
            fn = getattr(owner, leaf)
            saved.append((owner, leaf, fn))
            setattr(owner, leaf, tracer.wrap(layer, fn, before, after))
        yield absent
    finally:
        for owner, leaf, fn in reversed(saved):
            setattr(owner, leaf, fn)


def layer_metrics(tracer, absent):
    """Per-layer metrics of one traced pipeline; None marks an absent metric."""
    calls, self_s = tracer.layer_totals()
    present = {p[0] for p in WRAP_POINTS if f"{p[1]}.{p[2]}" not in absent} | set(OWN_SPANS)
    out = {}
    for layer in LAYERS:
        seen = layer in present
        out[f"{layer}.calls"] = calls[layer] if seen else None
        out[f"{layer}.self_s"] = self_s[layer] if seen else None
    counts = dict(tracer.counts)
    # kept = kmax for every ranked row; needs both evaluate_scores and rank_items.
    if "kmax" in counts and counts.get("rows_ranked"):
        counts["kept"] = counts["kmax"] * counts["rows_ranked"]
    for name, (layers, num, den) in DERIVED.items():
        unusable = any(layer in tracer.broken or layer not in present for layer in layers)
        if unusable or num not in counts or (den is not None and not counts.get(den)):
            out[name] = None
        else:
            out[name] = counts[num] / counts[den] if den else counts[num]
    out["trace.hooks.self_s"] = self_s[HOOK_SPAN]
    return out
