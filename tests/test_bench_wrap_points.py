"""Every benchmark wrap point still names a function of the package.

The traced benchmark replaces these functions by name; a refactor that
drops or renames one leaves its layer absent from the trace, and one that
changes a signature breaks the layer's counter hook. The smoke tests under
perfbench/ are not part of this suite, so check both here, and run the
benchmark's pretraining check and one untraced smoke run too.
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import oracles
import pytest

import taskhg.gradients
from taskhg.config import LossKind, TrainConfig
from taskhg.data import InteractionDataset, generate_synthetic_dataset, sample_negative_hyperedges
from taskhg.evaluate import evaluate
from taskhg.hypergraph import build_hypergraph
from taskhg.io import load_dataset, write_synthetic_dataset
from taskhg.model import init_embeddings
from taskhg.tasks import NodeSide, TaskHypergraph, TaskKind
from taskhg.train import finetune, pretrain

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_bench_module("tracer")


@pytest.fixture(scope="module")
def pipeline():
    """perfbench/pipeline.py, which imports its sibling modules by name."""
    sys.path.insert(0, str(BENCH))
    try:
        return load_bench_module("pipeline")
    finally:
        sys.path.remove(str(BENCH))


def test_pretraining_on_the_batch_rows_passes_the_benchmark_check(pipeline, wide_dataset):
    # On the eval-wide shape the user-side TA stack's final layer runs on
    # the batch's rows, so the audit sees fewer attention rows than the
    # dense 4000 per step; they must still lie on the simplex.
    cfg = TrainConfig(epochs_pretrain=1, seed=4)
    result = pretrain(wide_dataset, cfg)
    steps = math.ceil(len(wide_dataset.train_array) / cfg.batch_size)
    assert 0 < result.log.attention.vectors_seen < steps * wide_dataset.num_items
    assert pipeline.check_pretrain(result) is None


def test_untraced_smoke_run_is_correct(tmp_path):
    # As the benchmark runs: a fresh copy of the sources, the harness and
    # its spec, nothing else.
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_*")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "7",
         "--seconds", "0.5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {metric["name"] for metric in spec["end_to_end"]}


@pytest.mark.parametrize(
    "module_name, attr",
    [(p[1], p[2]) for p in tracer.WRAP_POINTS],
    ids=[f"{p[1]}.{p[2]}" for p in tracer.WRAP_POINTS],
)
def test_wrap_point_resolves(module_name, attr):
    assert tracer._resolve(module_name, attr) is not None


def test_set_up_builds_each_task_through_a_wrapped_name(tmp_path):
    # Two auxiliary tasks from the files and the recommendation pair.
    root = write_synthetic_dataset(tmp_path, 30, 12, 3, 0.1, seed=2, interactions_per_user=3)
    traced = tracer.Tracer()
    with tracer.installed(traced) as absent:
        dataset, _ = load_dataset(root, "manifest.json", train_fraction=0.8, split_seed=2)
        dataset.rec_pair()
    assert absent == []
    assert traced.broken == set()
    calls, _ = traced.layer_totals()
    assert len(dataset.auxiliary_tasks) == 2
    assert calls["tasks.build"] == len(dataset.auxiliary_tasks) + 1


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


def test_aggregation_calls_do_not_depend_on_the_final_layers_path(monkeypatch):
    # Each path's (`_reaches_few_hyperedges`, `_holds_few_incidences`)
    # answers. The tasks are item-side, so the user-side TA stack attends
    # and takes the reached rows on that path; every other stack takes
    # node rows. A restricted layer runs the same four wrapped products
    # as a dense one, on operands that hold fewer incidences.
    ds = generate_synthetic_dataset(30, 12, 3, 0.1, seed=2, interactions_per_user=3)
    cfg = TrainConfig(dim=4, epochs_pretrain=1, epochs_finetune=1, batch_size=16, seed=2)
    paths = {"dense": (False, False), "node rows": (False, True), "reached": (True, True)}
    calls_by_path = {}
    nnz_d = {}
    for path, (reaches, holds) in paths.items():
        monkeypatch.setattr(taskhg.gradients, "_reaches_few_hyperedges", lambda *a, r=reaches: r)
        monkeypatch.setattr(taskhg.gradients, "_holds_few_incidences", lambda *a, h=holds: h)
        traced = tracer.Tracer()
        with tracer.installed(traced) as absent:
            finetune(pretrain(ds, cfg).table, ds, cfg)
        assert absent == []
        assert traced.broken == set()
        calls, _ = traced.layer_totals()
        calls_by_path[path] = {name: calls[name] for name in tracer._AGGREGATIONS}
        nnz_d[path] = traced.counts["nnz_d"]
    assert calls_by_path["node rows"] == calls_by_path["reached"] == calls_by_path["dense"]
    assert min(calls_by_path["dense"].values()) > 0
    assert nnz_d["dense"] > max(nnz_d["node rows"], nnz_d["reached"])


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
