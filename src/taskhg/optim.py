"""Adam optimizer over named parameter blocks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .schedule import run_pair

# Cells per row slice of the in-place update: 2**16 float64 cells is 512 KB
# per scratch buffer. A slice always holds at least one whole row.
BLOCK_CELLS = 1 << 16


def _row_cells(block) -> int:
    return math.prod(block.shape[1:])


@dataclass
class AdamState:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)
    scratch: tuple = field(default=(), repr=False)

    @classmethod
    def for_params(cls, params: dict, lr=0.01, beta1=0.9, beta2=0.999, epsilon=1e-8):
        state = cls(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)
        for name, p in params.items():
            state.first_moment[name] = np.zeros_like(p)
            state.second_moment[name] = np.zeros_like(p)
        cells = max([BLOCK_CELLS, *(_row_cells(p) for p in params.values())])
        # One pair of buffers for each half of the slices.
        state.scratch = tuple((np.empty(cells), np.empty(cells)) for _ in range(2))
        return state

    def apply(self, grads: dict, params: dict):
        """Bias-corrected Adam update, in place, one step for all blocks.

        Each block is updated in row slices of about BLOCK_CELLS cells; every
        intermediate goes to a pair of scratch buffers, and `grads` is only
        read. The operations and their order are those of the textbook
        expression, so the result does not depend on the slice size. The
        first half of every block's rows runs on the step pool's worker and
        the second half on the calling thread, each in its own slices and
        with its own scratch pair, so the two threads update the same
        number of rows to within one per block.

        The same halves are first checked for non-finite values as a pair
        of their own; DivergenceError names the first non-finite block in
        `grads` order, and then no parameter, moment or count has changed.
        """
        halves = ([], [])  # (worker's, this thread's) row slices
        for name, g in grads.items():
            rows = max(1, BLOCK_CELLS // max(1, _row_cells(g)))
            mid = len(g) // 2
            for half, lo, hi in ((halves[0], 0, mid), (halves[1], mid, len(g))):
                half += [(name, slice(r, min(r + rows, hi))) for r in range(lo, hi, rows)]

        def first_nonfinite(part):
            for name, rs in part:
                if not np.isfinite(grads[name][rs]).all():
                    return name
            return None

        found = run_pair(
            lambda: first_nonfinite(halves[0]),
            lambda: first_nonfinite(halves[1]),
        )
        for name in grads:
            if name in found:
                raise DivergenceError(f"non-finite gradient in parameter block '{name}'")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t

        def update(part, scratch):
            for name, rs in part:
                g = grads[name][rs]
                m = self.first_moment[name][rs]
                v = self.second_moment[name][rs]
                self._update_rows(g, m, v, params[name][rs], bc1, bc2, scratch)

        run_pair(
            lambda: update(halves[0], self.scratch[1]),
            lambda: update(halves[1], self.scratch[0]),
        )

    def _update_rows(self, g, m, v, p, bc1, bc2, scratch):
        # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
        # p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
        a = scratch[0][: g.size].reshape(g.shape)
        b = scratch[1][: g.size].reshape(g.shape)
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=a)
        a *= g
        v += a
        np.divide(m, bc1, out=a)
        a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.epsilon
        a /= b
        p -= a
