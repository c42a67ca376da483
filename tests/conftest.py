import threading

import pytest

from taskhg import schedule


class CountingPool:
    """A step pool that counts the halves handed to its worker."""

    def __init__(self, pool):
        self._pool = pool
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        return self._pool.submit(fn, *args)


@pytest.fixture
def pool(monkeypatch):
    # Two CPUs as far as the schedule knows, so the pool exists on any host.
    monkeypatch.setattr(schedule, "usable_cpus", lambda: 2)
    with schedule.step_pool() as real:
        assert real is not None
        yield CountingPool(real)


@pytest.fixture(autouse=True)
def no_step_thread_outlives_the_test():
    # A training stage joins its worker when it ends, whether it returns
    # or raises; a worker left running would race the next test.
    yield
    prefix = schedule.THREAD_NAME_PREFIX
    alive = [t.name for t in threading.enumerate() if t.name.startswith(prefix)]
    if alive:
        pytest.fail(f"step threads still alive after the test: {alive}")
