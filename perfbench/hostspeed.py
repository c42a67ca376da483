"""Host-speed probe: a fixed calibration kernel timed around every stage.

On a shared host, other tenants slow this process in phases that last from
seconds to minutes, by up to 40 %. A stage time divided by the probe time
measured around it cancels most of that, because both run at the host's
speed of the moment. The probe uses only numpy and scipy, never the package
under test, so a change to the package moves a stage time and leaves the
probe alone. README.md has the measurements behind this.

The kernel mixes the kinds of work the pipeline does: a gather of random
rows (memory-bound, like the hypergraph aggregations), small dense products
through BLAS, a sort (like ranking) and an interpreted loop. It writes into
buffers made once, so its time does not depend on the state of the
allocator, which the stages leave different from one repeat to the next.
"""

from __future__ import annotations

import time

import numpy as np

# About the probe's median time between stages on the machine the README
# baseline was measured on, so scaled times read as seconds on that machine
# at its usual speed. It is a fixed unit: changing it rescales every time.
NOMINAL_S = 0.040


class HostSpeed:
    """Holds the probe's fixed inputs and buffers; `probe()` times one pass."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._features = rng.standard_normal((2000, 64))
        self._rows = rng.integers(0, 2000, size=8000)
        self._gathered = np.empty((8000, 64))
        self._square = rng.standard_normal((256, 256))
        self._panel = rng.standard_normal((256, 64))
        self._product = np.empty((256, 64))
        self._keys = rng.standard_normal(200_000)
        self._sorted = np.empty_like(self._keys)

    def probe(self):
        start = time.perf_counter()
        for _ in range(6):
            np.take(self._features, self._rows, axis=0, out=self._gathered)
        for _ in range(30):
            np.dot(self._square, self._panel, out=self._product)
        for _ in range(5):
            self._sorted[:] = self._keys
            self._sorted.sort()
        acc = 0
        for i in range(200_000):
            acc += i * i
        return time.perf_counter() - start
