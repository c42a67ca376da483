"""Adam optimizer over named parameter blocks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError


@dataclass
class AdamState:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict, lr=0.01, beta1=0.9, beta2=0.999, epsilon=1e-8):
        state = cls(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)
        for name, p in params.items():
            state.first_moment[name] = np.zeros_like(p)
            state.second_moment[name] = np.zeros_like(p)
        return state

    def apply(self, grads: dict, params: dict):
        """Bias-corrected Adam update, in place, one step for all blocks."""
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise DivergenceError(f"non-finite gradient in parameter block '{name}'")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, g in grads.items():
            m = self.first_moment[name]
            v = self.second_moment[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            params[name] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)
