"""One workload run: untimed prep, repeated set-up, repeated timed pipelines.

The timed chain is the one the CLI runs, called in-process through the
library API: load_dataset -> pretrain -> checkpoint save/load -> finetune
-> checkpoint save/load -> evaluate. One closed-loop client: each repeat
starts when the previous one has finished. Every stage is checked; a stage
that raises or fails a check is counted as failed, stops the run, and no
timing of its repeat is reported. Stage times are scaled to the host's usual
speed by a probe timed around each stage (hostspeed.py).
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import math
import os
import statistics
import sys
import threading
import time
import traceback
from contextlib import nullcontext

from taskhg.config import LossKind, TrainConfig
from taskhg.evaluate import evaluate
from taskhg.io import load_checkpoint, load_dataset, save_checkpoint, write_synthetic_dataset
from taskhg.train import finetune, pretrain

import tracer as tracing
from hostspeed import NOMINAL_S, HostSpeed
from workloads import EVAL_KS, NOISE, TRAIN_FRACTION

SETUP_REPEATS = 5  # set-up only, before the timed pipelines
MIN_REPEATS = 2  # the determinism check needs two pipelines
ATTENTION_TOL = 1e-12
RSS_INTERVAL_S = 0.005
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)


class PeakRss:
    """Highest resident set size of this process while the block runs.

    A thread samples /proc/self/statm every RSS_INTERVAL_S. Unlike the
    process-wide high-water mark, this gives one peak per pipeline, so the
    reported median does not grow with the number of repeats in a run.
    """

    def __enter__(self):
        self.peak_bytes = self._rss()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()
        self.peak_bytes = max(self.peak_bytes, self._rss())

    def _sample(self):
        while not self._stop.wait(RSS_INTERVAL_S):
            self.peak_bytes = max(self.peak_bytes, self._rss())

    @staticmethod
    def _rss():
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * PAGE_BYTES


def trim_heap():
    """Hand freed heap back to the OS before each stage.

    The CLI runs each stage as its own process; without this, heap that one
    stage freed but the allocator kept would count in the next stage's peak,
    by an amount that varies from run to run.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def release_garbage():
    gc.collect()
    trim_heap()


class StageFailure(Exception):
    pass


class Stages:
    """Runs and times stages; counts those attempted and those that failed.

    A stage's wall time is scaled by NOMINAL_S over the mean of the host-speed
    probes timed just before and just after it; the probe after one stage is
    the probe before the next. Raw times and probes are kept in `timings`.
    """

    def __init__(self, host):
        self.attempted = 0
        self.failures = []
        self.timings = []  # [stage, wall s, probe before s, probe after s]
        self._host = host
        self._probe_s = None

    def run(self, name, fn, check):
        self.attempted += 1
        trim_heap()
        before = self._host.probe() if self._probe_s is None else self._probe_s
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising stage is a failed stage, reported below
            traceback.print_exc(file=sys.stderr)
            self._fail(name, f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        self._probe_s = self._host.probe()
        self.timings.append([name, elapsed, before, self._probe_s])
        problem = check(result)
        if problem:
            self._fail(name, problem)
        return result, elapsed * 2.0 * NOMINAL_S / (before + self._probe_s)

    def _fail(self, name, problem):
        self.failures.append(f"{name}: {problem}")
        raise StageFailure(self.failures[-1])


def config_for(workload, seed):
    return TrainConfig(
        seed=seed,
        epochs_pretrain=workload.epochs_pretrain,
        epochs_finetune=workload.epochs_finetune,
        pretrain_loss=LossKind(workload.pretrain_loss),
        finetune_loss=LossKind(workload.finetune_loss),
        eval_ks=EVAL_KS,
    )


# ---------------------------------------------------------------------------
# Checks. Each returns None or a description of what is wrong.


def check_dataset(workload):
    def check(dataset):
        shape = (dataset.num_users, dataset.num_items)
        if shape != (workload.users, workload.items):
            return f"loaded {shape}, expected {(workload.users, workload.items)}"
        if not dataset.train_edges or not dataset.test_edges:
            return "empty train or test split"
        return None

    return check


def check_finite(table):
    return None if table.allfinite() else "trained table holds non-finite values"


def check_pretrain(result):
    audit = result.log.attention
    if audit.vectors_seen == 0:
        return "no attention vectors recorded"
    if audit.max_sum_deviation > ATTENTION_TOL or audit.min_weight < 0.0:
        return (f"attention rows off the simplex: max |sum - 1| = {audit.max_sum_deviation}, "
                f"min weight = {audit.min_weight}")
    return check_finite(result.table)


def check_round_trip(original):
    def check(loaded):
        for name in ("user_emb", "item_emb"):
            a, b = getattr(original, name), getattr(loaded, name)
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                return f"checkpoint round-trip changed {name}"
        return None

    return check


def check_report(dataset, reference):
    """Metrics in [0, 1], one row per evaluable user, same outcome as `reference`."""
    expected_users = len({u for u, _ in dataset.test_edges} & {u for u, _ in dataset.train_edges})

    def check(outcome):
        row = outcome["row"]
        values = [*row.recall.values(), *row.ndcg.values()]
        if not all(0.0 <= v <= 1.0 for v in values):
            return f"metric outside [0, 1]: {values}"
        if row.num_users != expected_users:
            return f"evaluated {row.num_users} users, dataset has {expected_users}"
        if reference is not None and outcome["fingerprint"] != reference:
            return "same seed gave a different model or ranking than the first repeat"
        return None

    return check


# ---------------------------------------------------------------------------


def table_digest(table):
    h = hashlib.sha256()
    h.update(table.user_emb.tobytes())
    h.update(table.item_emb.tobytes())
    return h.hexdigest()


def setup_once(stages, workload, data_dir, seed, span):
    def setup():
        with span("io.load_dataset"):
            dataset, _ = load_dataset(
                data_dir, "manifest.json", train_fraction=TRAIN_FRACTION, split_seed=seed
            )
        dataset.rec_pair()
        return dataset

    return stages.run("setup", setup, check_dataset(workload))


def checkpoint_round_trip(stages, table, config, path, span):
    def round_trip():
        with span("io.checkpoint"):
            save_checkpoint(table, config, path)
            return load_checkpoint(path).to_table()

    return stages.run("checkpoint", round_trip, check_round_trip(table))


def run_pipeline(stages, workload, data_dir, work_dir, seed, reference, span):
    """One timed chain; returns its sample (scaled stage times, pairs, outcome)."""
    config = config_for(workload, seed)
    start = time.perf_counter()
    dataset, setup_s = setup_once(stages, workload, data_dir, seed, span)

    def train_pre():
        with span("train.loop"):
            return pretrain(dataset, config)

    pre, pretrain_s = stages.run("pretrain", train_pre, check_pretrain)
    table, save_pre_s = checkpoint_round_trip(
        stages, pre.table, config, work_dir / "pre.ckpt", span
    )

    def train_fine():
        with span("train.loop"):
            return finetune(table, dataset, config)

    fine, finetune_s = stages.run("finetune", train_fine, lambda r: check_finite(r.table))
    table, save_fine_s = checkpoint_round_trip(
        stages, fine.table, config, work_dir / "fine.ckpt", span
    )

    def run_eval():
        with span("evaluate.score"):
            row = evaluate(table, dataset, EVAL_KS, seed=seed).rows[0]
        fingerprint = (table_digest(table), tuple(row.recall.items()), tuple(row.ndcg.items()))
        return {"row": row, "fingerprint": fingerprint}

    outcome, evaluate_s = stages.run("evaluate", run_eval, check_report(dataset, reference))
    wall_s = time.perf_counter() - start
    pipeline_s = setup_s + pretrain_s + save_pre_s + finetune_s + save_fine_s + evaluate_s
    pairs = len(dataset.train_edges)
    return {
        "setup_s": setup_s,
        "pretrain_s": pretrain_s,
        "finetune_s": finetune_s,
        "evaluate_s": evaluate_s,
        "pipeline_s": pipeline_s,
        "wall_s": wall_s,
        "pairs": pairs,
        "epochs_pretrain": config.epochs_pretrain,
        "epochs_finetune": config.epochs_finetune,
        "recall_at_20": outcome["row"].recall[20],
        "ndcg_at_20": outcome["row"].ndcg[20],
        "fingerprint": outcome["fingerprint"],
        "shape": {
            "users": dataset.num_users,
            "items": dataset.num_items,
            "train_edges": pairs,
            "test_edges": len(dataset.test_edges),
            "steps_per_epoch": max(1, math.ceil(pairs / config.batch_size)),
        },
    }


def run_workload(workload, seed, seconds, trace, work_dir):
    """Prep, set-up repeats and timed pipelines; returns everything measured."""
    data_dir = work_dir / "data"
    write_synthetic_dataset(
        data_dir, workload.users, workload.items, workload.blocks, NOISE, seed,
        interactions_per_user=workload.interactions_per_user,
    )
    stages = Stages(HostSpeed())
    setup_s = []
    untraced, traced, layer_samples, spans = [], [], [], []
    absent = []
    reference = None
    deadline = time.perf_counter() + seconds
    try:
        for _ in range(SETUP_REPEATS):
            release_garbage()
            setup_s.append(setup_once(stages, workload, data_dir, seed, nullcontext)[1])
        while True:
            use_trace = trace and len(untraced) > len(traced)
            release_garbage()
            if use_trace:
                tracer = tracing.Tracer()
                with tracing.installed(tracer) as absent:
                    sample = run_pipeline(
                        stages, workload, data_dir, work_dir, seed, reference, tracer.span
                    )
                sample["traced"] = True
                traced.append(sample)
                layer_samples.append(tracing.layer_metrics(tracer, absent))
                spans.extend([len(traced) - 1, *s] for s in tracer.spans)
            else:
                with PeakRss() as rss:
                    sample = run_pipeline(
                        stages, workload, data_dir, work_dir, seed, reference, nullcontext
                    )
                sample["peak_rss_mb"] = rss.peak_bytes / 2**20
                sample["traced"] = False
                untraced.append(sample)
            setup_s.append(sample["setup_s"])
            reference = sample["fingerprint"]
            enough = len(untraced) + len(traced) >= MIN_REPEATS and (traced or not trace)
            # Stop when another pipeline like the last one would end past the deadline.
            if enough and time.perf_counter() + sample["wall_s"] > deadline:
                break
    except StageFailure:
        pass
    return {
        "stages": stages,
        "setup_s": setup_s,
        "untraced": untraced,
        "traced": traced,
        "layer_samples": layer_samples,
        "absent": absent,
        "spans": spans,
    }


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def throughput(samples, stage):
    """Pairs trained per second at the median time of the stage."""
    first = samples[0]
    return first["pairs"] * first[f"epochs_{stage}"] / median_of(samples, f"{stage}_s")


def end_to_end_metrics(result):
    """Medians over the run's pipelines; recall and NDCG are the same in all."""
    samples = result["untraced"]
    first = samples[0]
    stages = result["stages"]
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "pretrain_pairs_per_s": (throughput(samples, "pretrain"), "1/s"),
        "finetune_pairs_per_s": (throughput(samples, "finetune"), "1/s"),
        "evaluate_s": (median_of(samples, "evaluate_s"), "s"),
        "pipeline_s": (median_of(samples, "pipeline_s"), "s"),
        "peak_rss_mb": (median_of(samples, "peak_rss_mb"), "MB"),
        "recall_at_20": (first["recall_at_20"], "ratio"),
        "ndcg_at_20": (first["ndcg_at_20"], "ratio"),
        "stage_pass_ratio": (1.0 - len(stages.failures) / stages.attempted, "ratio"),
    }


def per_layer_metrics(result):
    """Median over traced pipelines of each layer metric; absent ones are None."""
    merged = {}
    for name in result["layer_samples"][0]:
        values = [s[name] for s in result["layer_samples"]]
        merged[name] = None if None in values else statistics.median(values)
    # Pipelines alternate untraced, traced: pair each traced one with the one before it.
    merged["trace.overhead_s"] = statistics.median(
        t["pipeline_s"] - u["pipeline_s"] for u, t in zip(result["untraced"], result["traced"])
    )
    return merged
