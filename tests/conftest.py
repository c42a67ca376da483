import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from taskhg import schedule
from taskhg.data import generate_synthetic_dataset


class CountingPool:
    """A step pool that counts the halves handed to its worker.

    `with pool:` installs it for `run_pair`, as `step_pool` installs a
    stage's pool; outside the block, pairs run on the calling thread.
    """

    def __init__(self, pool):
        self._pool = pool
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        return self._pool.submit(fn, *args)

    def __enter__(self):
        self._token = schedule._pool.set(self)
        return self

    def __exit__(self, *exc_info):
        schedule._pool.reset(self._token)


@pytest.fixture
def pool():
    prefix = schedule.THREAD_NAME_PREFIX
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix=prefix) as real:
        yield CountingPool(real)


@pytest.fixture(scope="session")
def wide_dataset():
    """Shaped like the benchmark's eval-wide set: each 1024-pair batch's
    users reach under half of the item hyperedges."""
    return generate_synthetic_dataset(8000, 4000, 400, 0.05, 21, interactions_per_user=3)


@pytest.fixture(autouse=True)
def no_step_thread_outlives_the_test():
    # A training stage joins its worker when it ends, whether it returns
    # or raises; a worker left running would race the next test.
    yield
    prefix = schedule.THREAD_NAME_PREFIX
    alive = [t.name for t in threading.enumerate() if t.name.startswith(prefix)]
    if alive:
        pytest.fail(f"step threads still alive after the test: {alive}")
