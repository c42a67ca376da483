"""Two-thread schedule for the independent halves of a training step or an evaluation.

Several parts of a step come in two halves that share no array until they
meet in the loss or in the update. Inside a stage's `step_pool` block,
`run_pair` runs one half on the pool's single worker and the other on
the calling thread; no function between the two takes the pool. The sparse
products, BLAS products and ufuncs that do the work release the
interpreter lock, so the halves overlap on two CPUs. Each caller of
`run_pair` says which halves it pairs: `au_grad`, `pretrain_loss_and_grad`,
`finetune_loss_and_grad`, `AdamState.apply`, `encode_for_inference` and
`evaluate_scores`. Between the pairs the calling thread does only
batch-sized work.

Each table-sized array lives only until its last reader is done
(`test_step_peak_memory_is_bounded_in_table_sizes` bounds a step's peak).
The calling thread allocates the `au` Gram buffers and evaluation's
score-block buffers: the allocator keeps what a thread frees for that
thread's later use, so the worker's arena stays small. The worker makes
and frees only its halves' arrays, such as the user table's loss
gradient, and reuses them the next step. Each half makes its arrays with
the same operations, in the same order, as the serial schedule, and the
caller combines the results in a fixed order, so no result depends on
the schedule.
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
    """Give `run_pair` a one-worker pool for one training stage or evaluation.

    Below two CPUs there is no pool and every pair runs on the calling
    thread. The worker thread starts at the first submitted half and is
    joined when the block exits; the pool is uninstalled whether the
    block returns or raises.
    """
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

    The worker runs `first` in a copy of the caller's context, so settings
    held in context variables, such as NumPy's errstate, apply on both
    threads. That copy has no pool, so a pair inside `first` runs both its
    halves on the worker. The worker's half is always finished before this
    returns or raises. An exception from `second` is raised in preference
    to one from `first`; without a pool, `first` raising means `second`
    never runs.
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
