"""Every benchmark wrap point still names a function of the package.

The traced benchmark replaces these functions by name; a refactor that
drops or renames one leaves its layer absent from the trace, and one that
changes a signature breaks the layer's counter hook. The smoke tests under
perfbench/ are not part of this suite, so check both here.
"""

import importlib.util
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import oracles
import pytest

from taskhg.config import LossKind, TrainConfig
from taskhg.data import InteractionDataset, generate_synthetic_dataset, sample_negative_hyperedges
from taskhg.evaluate import evaluate
from taskhg.hypergraph import build_hypergraph
from taskhg.model import init_embeddings
from taskhg.tasks import NodeSide, TaskHypergraph, TaskKind
from taskhg.train import finetune, pretrain

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "module_name, attr",
    [(p[1], p[2]) for p in tracer.WRAP_POINTS],
    ids=[f"{p[1]}.{p[2]}" for p in tracer.WRAP_POINTS],
)
def test_wrap_point_resolves(module_name, attr):
    assert tracer._resolve(module_name, attr) is not None


def test_evaluate_counter_hooks_fit_the_calls():
    # User ids run past max(ks), so a hook reading the wrong argument shows.
    train = {(u, u % 4) for u in range(30)}
    test = {(u, (u + 1) % 4) for u in range(30)}
    dataset = InteractionDataset(30, 6, train, test, [])
    table = init_embeddings(30, 6, 4, 0)
    traced = tracer.Tracer()
    with tracer.installed(traced) as absent:
        report = evaluate(table, dataset, (1, 3))
    assert absent == []
    assert traced.broken == set()
    assert traced.counts["kmax"] == 3
    calls, _ = traced.layer_totals()
    assert calls["evaluate.encode"] == 1 and calls["evaluate.rank"] == 1
    assert report.rows[0].num_users == 30


def test_adam_counter_hook_fits_the_calls():
    # With lambda_reg > 0 every row has a gradient. The hook reads the
    # gradients after AdamState.apply returns, so it must count every row;
    # an update that used them as scratch and left zero rows would show.
    ds = generate_synthetic_dataset(30, 12, 3, 0.1, seed=2, interactions_per_user=3)
    cfg = TrainConfig(dim=4, epochs_pretrain=2, batch_size=16, lambda_reg=0.01, seed=2)
    traced = tracer.Tracer()
    with tracer.installed(traced) as absent:
        pretrain(ds, cfg)
    assert absent == []
    assert traced.broken == set()
    calls, _ = traced.layer_totals()
    assert calls["optim.adam"] > 0
    rows = traced.counts["adam_rows"]
    assert traced.counts["adam_rows_with_grad"] == rows > 0


@pytest.mark.parametrize("loss", [LossKind.ALIGNMENT, LossKind.AU], ids=lambda k: k.value)
def test_rec_loss_counter_hook_fits_the_calls(loss):
    # Train pairs touch users 0-5 of 8 and items 0-3 of 10, and one batch
    # holds them all: each of the 2 steps reads 6 + 4 rows and propagates
    # both whole tables, 8 + 10 rows.
    train = {(u, u % 4) for u in range(6)} | {(u, (u + 2) % 4) for u in range(6)}
    ds = InteractionDataset(8, 10, train, {(6, 7), (7, 8)}, [])
    cfg = TrainConfig(dim=4, epochs_pretrain=2, batch_size=len(train), pretrain_loss=loss, seed=2)
    traced = tracer.Tracer()
    with tracer.installed(traced) as absent:
        pretrain(ds, cfg)
    assert absent == []
    assert traced.broken == set()
    calls, _ = traced.layer_totals()
    assert calls["gradients.rec_loss"] == 2
    assert traced.counts["rows_read"] == 2 * (6 + 4)
    assert traced.counts["rows_propagated"] == 2 * (8 + 10)


CONVOLUTION_LAYERS = (
    "model.encoder_fwd", "model.ta_fwd", "gradients.ta_bwd", "gradients.encoder_bwd"
)


def per_thread_nesting(layer, fn, open_layers, nested):
    """Wrap fn to record (layer, caller) when a layer opens inside another one.

    The open layers are kept per thread: the tracer's span stack is one per
    process, so with a step's two halves on two threads a span can take the
    other thread's open span as its parent.
    """

    def wrapped(*args, **kwargs):
        stack = open_layers.__dict__.setdefault("stack", [])
        if stack:
            nested.append((layer, stack[-1]))
        stack.append(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    return wrapped


def test_convolution_layers_keep_their_calls_and_never_nest():
    # Two item-side tasks and 4 steps per stage. Per pretrain step: 2
    # encoders and 2 TA sides forward, the same 4 stacks backward; per
    # finetune step: 2 encoders each way. evaluate encodes both sides
    # through taskhg.evaluate, whose reference is not wrapped, so only its
    # 2 aggregations of each kind show.
    ds = generate_synthetic_dataset(30, 12, 3, 0.1, seed=2, interactions_per_user=3)
    cfg = TrainConfig(dim=4, epochs_pretrain=1, epochs_finetune=1, batch_size=16, seed=2)
    traced = tracer.Tracer()
    open_layers = threading.local()
    nested = []
    with tracer.installed(traced) as absent, pytest.MonkeyPatch.context() as patch:
        for layer, module_name, attr, _, _ in tracer.WRAP_POINTS:
            if layer in CONVOLUTION_LAYERS:
                owner, leaf = tracer._resolve(module_name, attr)
                wrapped = per_thread_nesting(layer, getattr(owner, leaf), open_layers, nested)
                patch.setattr(owner, leaf, wrapped)
        table = finetune(pretrain(ds, cfg).table, ds, cfg).table
        evaluate(table, ds, cfg.eval_ks)
    assert absent == []
    calls, _ = traced.layer_totals()
    expected = {
        "model.encoder_fwd": 16,
        "model.ta_fwd": 8,
        "gradients.ta_bwd": 8,
        "gradients.encoder_bwd": 16,
        "hypergraph.n2e": 26,
        "hypergraph.e2n": 26,
        "hypergraph.n2e_adj": 24,
        "hypergraph.e2n_adj": 24,
    }
    assert {name: calls[name] for name in expected} == expected
    # The encoder and TA share private loops; a wrapped layer that called
    # another wrapped one would book the callee's time under the caller.
    assert nested == []


def test_negative_draw_counter_counts_every_draw():
    # The counter sees only draws made through `integers`, counting `size=`.
    # Two hyperedges and one incidence per node: half of all draws are
    # rejected, so a draw that bypassed the counter would change the count.
    pairs = [(v, v % 2) for v in range(10)]
    task = TaskHypergraph("t", TaskKind.ATTRIBUTE_PREDICTION, NodeSide.ITEMS,
                          build_hypergraph(pairs, 10, 2))
    nodes = np.random.default_rng(1).integers(10, size=500)
    counts = Counter()
    batched = sample_negative_hyperedges(
        tracer.CountingRng(np.random.default_rng(8), counts, "batched"), task, nodes
    )
    loop = oracles.sample_negative_items(
        tracer.CountingRng(np.random.default_rng(8), counts, "loop"),
        nodes, {v: {e} for v, e in pairs}, 2,
    )
    assert np.array_equal(batched, loop)
    assert counts["batched"] == counts["loop"] > len(nodes)
