"""Benchmark entry point. Run from the repository root:

    python3 perfbench/run.py --workload train-medium --seed 1 --seconds 20 --trace 0

It builds nothing: the package is imported from ./src. Diagnostics and the
run record go to stderr and to .perfbench_out/; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced run, plus its overhead over an untraced run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BLAS_THREADS = 1  # pinned for every BLAS/OpenMP pool; <= nproc on any machine
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"

# Units of per-layer metrics by the last part of their name.
LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "draws": "count",
    "nnz_d": "count",
    "overhead_s": "s",
    "rows_with_grad_ratio": "ratio",
    "batch_rows_ratio": "ratio",
    "kept_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_identity(root):
    """Git sha when the checkout is a repository, and a digest of the sources."""
    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=30,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == root.resolve():
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted((root / "src" / "taskhg").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": h.hexdigest()}


def machine():
    mem_kb = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": None if mem_kb is None else round(mem_kb / 1024),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "taskhg" / "__init__.py").is_file():
        print("perfbench: ./src/taskhg not found; run from the repository root", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is imported, so the pools start pinned
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    import taskhg

    if src.resolve() not in Path(taskhg.__file__).resolve().parents:
        print(f"perfbench: imported taskhg from {taskhg.__file__}, not ./src", file=sys.stderr)
        return 2
    import pipeline
    from hostspeed import NOMINAL_S
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    (root / WORK_DIR).mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / WORK_DIR))
    try:
        result = pipeline.run_workload(workload, args.seed, args.seconds, args.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    stages = result["stages"]
    samples = result["untraced"] + result["traced"]
    correct = not stages.failures and bool(result["untraced"]) and (
        bool(result["traced"]) or not args.trace
    )
    if correct and args.trace:
        metrics = {name: (value, LAYER_UNITS[name.rsplit(".", 1)[-1]])
                   for name, value in pipeline.per_layer_metrics(result).items()}
    elif correct:
        metrics = pipeline.end_to_end_metrics(result)
    else:  # no timings from a run that failed a stage
        metrics = {"stage_pass_ratio": (1.0 - len(stages.failures) / stages.attempted, "ratio")}
    absent_metrics = sorted(n for n, (v, _) in metrics.items() if v is None)

    record = {
        "workload": dataclasses.asdict(workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source": source_identity(root),
        "machine": machine(),
        "dataset": samples[0]["shape"] if samples else None,
        "stages_attempted": stages.attempted,
        "stage_failures": stages.failures,
        "absent_wrap_points": result["absent"],
        "absent_metrics": absent_metrics,
        "setup_s": result["setup_s"],
        "probe_nominal_s": NOMINAL_S,
        "stage_timings": {"fields": ["stage", "wall_s", "probe_before_s", "probe_after_s"],
                          "rows": stages.timings},
        "pipelines": [
            {k: v for k, v in s.items() if k not in ("fingerprint", "shape")} for s in samples
        ],
        "process_max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["repeat", "name", "start", "end", "parent"], "spans": result["spans"]}
        ))
    print(json.dumps({k: record[k] for k in ("source", "machine", "dataset", "absent_wrap_points",
                                             "stage_failures")}), file=sys.stderr)

    print(json.dumps({
        "correct": correct,
        "attempted": stages.attempted,
        "failed": len(stages.failures),
        # An absent layer reports 0; the record lists it under absent_metrics.
        "metrics": {name: {"value": 0.0 if value is None else value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
