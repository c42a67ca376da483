"""Smoke tests of the benchmark at the README demo size (200 users x 100 items).

    python3 -m pytest perfbench -q

They run every correctness check and the tracer in seconds. There is no
timing gate.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pipeline  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", "smoke",
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(trace, section):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    record = json.loads((ROOT / ".perfbench_out" / f"smoke-seed7-trace{trace}.json").read_text())
    assert record["absent_metrics"] == [] and record["absent_wrap_points"] == []


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_removed_function_is_reported_absent(monkeypatch):
    # The package re-exports a function named `evaluate`, so fetch the modules.
    evaluate_module = importlib.import_module("taskhg.evaluate")
    model_module = importlib.import_module("taskhg.model")
    kept = model_module.ta_forward_traced
    monkeypatch.delattr(evaluate_module, "rank_items")
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        assert model_module.ta_forward_traced is not kept
    assert model_module.ta_forward_traced is kept
    assert absent == ["taskhg.evaluate.rank_items"]
    metrics = tracing.layer_metrics(tracer, absent)
    assert metrics["evaluate.rank_items.calls"] is None
    assert metrics["evaluate.kept_ratio"] is None
    assert metrics["model.ta_fwd.calls"] == 0


def test_failed_check_is_counted_and_reports_no_timing(monkeypatch, tmp_path):
    real_pretrain = pipeline.pretrain

    def diverging_pretrain(dataset, config):
        result = real_pretrain(dataset, config)
        result.table.user_emb[0, 0] = np.nan
        return result

    monkeypatch.setattr(pipeline, "pretrain", diverging_pretrain)
    result = pipeline.run_workload(WORKLOADS["smoke"], 7, 0.1, 0, tmp_path)
    assert [f.split(":")[0] for f in result["stages"].failures] == ["pretrain"]
    assert result["untraced"] == []


def test_hook_that_no_longer_fits_marks_its_counter_absent():
    def stale_hook(counts, args, result):
        raise TypeError("written for an older signature")

    tracer = tracing.Tracer()
    traced = tracer.wrap("gradients.rec_loss", lambda *args: "ok", None, stale_hook)
    assert traced(1, 2) == "ok"
    metrics = tracing.layer_metrics(tracer, [])
    assert metrics["gradients.rec_loss.calls"] == 1
    assert metrics["train.batch_rows_ratio"] is None


def test_stage_time_is_scaled_by_the_probes_around_it():
    class FixedHost:
        def __init__(self, times):
            self._times = iter(times)

        def probe(self):
            return next(self._times)

    stages = pipeline.Stages(FixedHost([0.06, 0.03, 0.015]))
    _, first = stages.run("a", lambda: 1, lambda result: None)
    _, second = stages.run("b", lambda: 2, lambda result: None)
    (_, wall_a, *probes_a), (_, wall_b, *probes_b) = stages.timings
    assert probes_a == [0.06, 0.03] and probes_b == [0.03, 0.015]
    assert first == pytest.approx(wall_a * pipeline.NOMINAL_S / 0.045)
    assert second == pytest.approx(wall_b * pipeline.NOMINAL_S / 0.0225)
