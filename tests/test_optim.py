import numpy as np
import pytest

from taskhg.errors import DivergenceError
from taskhg.optim import AdamState


def scalar_params(u=0.0, i=0.0):
    return {"user": np.array([[u]]), "item": np.array([[i]])}


def test_first_step_analytic():
    # With g=1 the bias-corrected moments are both exactly 1, so the update
    # is -lr * 1 / (1 + eps) ~ -lr.
    params = scalar_params()
    state = AdamState.for_params(params, lr=0.001)
    state.apply({"user": np.array([[1.0]]), "item": np.array([[0.0]])}, params)
    assert state.step_count == 1
    assert params["user"][0, 0] == pytest.approx(-0.001, rel=1e-7)
    assert params["item"][0, 0] == 0.0


def test_zero_gradient_is_noop():
    params = scalar_params(0.5, -0.25)
    state = AdamState.for_params(params)
    state.apply({"user": np.zeros((1, 1)), "item": np.zeros((1, 1))}, params)
    assert params["user"][0, 0] == 0.5
    assert params["item"][0, 0] == -0.25
    assert state.step_count == 1


def test_identical_runs_identical_trajectories():
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=(3, 2)) for _ in range(10)]

    def run():
        params = {"user": np.ones((3, 2)), "item": np.ones((2, 2))}
        state = AdamState.for_params(params, lr=0.05)
        for g in grads:
            state.apply({"user": g.copy(), "item": np.zeros((2, 2))}, params)
        return params["user"].copy()

    assert np.array_equal(run(), run())


def test_nonfinite_gradient_names_block():
    params = scalar_params()
    state = AdamState.for_params(params)
    with pytest.raises(DivergenceError, match="user"):
        state.apply({"user": np.array([[np.nan]]), "item": np.zeros((1, 1))}, params)


def test_extra_blocks_updated():
    params = {**scalar_params(), "head": np.array([[1.0, 2.0]])}
    state = AdamState.for_params(params, lr=0.1)
    grads = {"user": np.zeros((1, 1)), "item": np.zeros((1, 1)), "head": np.array([[1.0, 0.0]])}
    state.apply(grads, params)
    assert params["head"][0, 0] == pytest.approx(1.0 - 0.1, rel=1e-6)
    assert params["head"][0, 1] == 2.0


def test_moments_start_at_zero_and_step_counts():
    params = {"user": np.zeros((2, 2)), "item": np.zeros((2, 2))}
    state = AdamState.for_params(params)
    assert all((m == 0).all() for m in state.first_moment.values())
    assert all((v == 0).all() for v in state.second_moment.values())
    for expected in (1, 2, 3):
        state.apply({"user": np.ones((2, 2)), "item": np.ones((2, 2))}, params)
        assert state.step_count == expected
