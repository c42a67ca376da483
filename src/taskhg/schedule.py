"""Two-thread schedule for the independent halves of a training step.

Several parts of a step come in two halves that share no array until they
meet in the loss or in the update: the user-side and item-side convolution
stacks, forward and reverse, and the row slices of the Adam update.
`run_pair` runs one half on the single worker of a stage's pool and the
other on the calling thread. The sparse products and ufuncs that do the
work release the interpreter lock, so the halves overlap on two CPUs. Each
half makes its arrays with the same operations, in the same order, as the
serial schedule, and the caller combines the results in a fixed order, so
no result depends on the schedule.
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


@contextmanager
def step_pool():
    """A one-worker pool for one training stage, or None below two CPUs.

    The worker thread starts at the first submitted half and is joined
    when the block exits.
    """
    if usable_cpus() < 2:
        yield None
        return
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix=THREAD_NAME_PREFIX) as pool:
        yield pool


def run_pair(pool, first, second):
    """Return (first(), second()); with a pool, `first` runs on its worker.

    The worker runs `first` in a copy of the caller's context, so settings
    held in context variables, such as NumPy's errstate, apply on both
    threads. The worker's half is always finished before this returns or
    raises. An exception from `second` is raised in preference to one
    from `first`; without a pool, `first` raising means `second` never runs.
    Neither half may call run_pair on the same pool: its one worker would
    wait for itself.
    """
    if pool is None:
        return first(), second()
    future = pool.submit(contextvars.copy_context().run, first)
    try:
        second_result = second()
    finally:
        wait((future,))
    return future.result(), second_result
