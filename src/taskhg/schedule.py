"""Two-thread schedule for the independent halves of a training step or an evaluation.

Several parts of a step come in two halves that share no array until they
meet in the loss or in the update. `run_pair` runs one half on the single
worker of a stage's pool and the other on the calling thread. The sparse
products, BLAS products and ufuncs that do the work release the
interpreter lock, so the halves overlap on two CPUs. The pairs, worker
half first:

- pretraining forward: item-side encoders -> user-side TA stack, beside
  user-side encoders -> item-side TA stack;
- the `au` loss: the uniformity term of the side with more unique batch
  rows, beside the other side's term, the alignment term and that side's
  reverse;
- pretraining reverse, stage 1: the user-side TA backward, beside the
  item-side TA backward, every auxiliary loss and both L2 terms;
- pretraining reverse, stage 2: the backward of every encoder that reads
  the item table and the sum of that table's gradient, beside the same
  for the user table;
- finetuning: the user encoder beside the item encoder, forward, then
  backward with its L2 term;
- the Adam update: the first half of its row slices, beside the second;
- evaluation: the user encoder beside the item encoder, then the
  even-numbered score blocks beside the odd-numbered ones, each thread
  scoring and ranking one block at a time. The blocks keep the rows of
  the serial schedule, since BLAS picks its kernel by the product's shape.

On data whose auxiliary tasks are all item-side, as the synthetic
generator makes them, only the user-side TA stack attends; stage 1 gives
the calling thread the rest of the reverse work while the worker runs
that stack. The calling thread
allocates the arrays that outlive a pair, such as the L2 terms, the
`au` Gram buffers and gradients and evaluation's score-block buffers:
the allocator keeps what a thread frees for that
thread's later use, so the worker's arena stays small. Each half makes
its arrays with the same operations, in the same order, as the serial
schedule, and the caller combines the results in a fixed order, so no
result depends on the schedule.
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
    """A one-worker pool for one training stage or evaluation, or None below two CPUs.

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
