"""Two-thread schedule for the independent halves of a training step or an evaluation.

Inside a stage's `step_pool` block, `run_pair` runs one half on the
pool's single worker and the other on the calling thread; the sparse
products, BLAS calls and ufuncs release the interpreter lock, so the
halves overlap on two CPUs. Each half makes its arrays with the same
operations, in the same order, as the serial schedule, and the caller
combines the results in a fixed order, so no result depends on the
schedule. The calling thread allocates the `au` Gram buffers and
evaluation's score blocks: the allocator keeps what a thread frees for
that thread, so the worker's arena stays small.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

THREAD_NAME_PREFIX = "taskhg-step"


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The pool of the stage running in this context, set by `step_pool`.
_pool = contextvars.ContextVar("taskhg_step_pool", default=None)


@contextmanager
def step_pool():
    """Give `run_pair` a one-worker pool for one training stage or
    evaluation, joined and uninstalled when the block exits; below two
    CPUs, none."""
    if usable_cpus() < 2:
        yield
        return
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix=THREAD_NAME_PREFIX) as pool:
        token = _pool.set(pool)
        try:
            yield
        finally:
            _pool.reset(token)


def pairs_overlap() -> bool:
    """Whether `run_pair` here hands its first half to a worker."""
    return _pool.get() is not None


def run_pair(first, second):
    """Return (first(), second()); under `step_pool`, `first` runs on its worker.

    `first` runs in a pool-less copy of the caller's context (so NumPy's
    errstate holds there too) and always finishes before this returns or
    raises. An exception from `second` wins over one from `first`; without
    a pool, `first` raising means `second` never runs.
    """
    pool = _pool.get()
    if pool is None:
        return first(), second()
    context = contextvars.copy_context()
    context.run(_pool.set, None)
    future = pool.submit(context.run, first)
    try:
        second_result = second()
    finally:
        wait((future,))
    return future.result(), second_result
