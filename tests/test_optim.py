import contextlib
import itertools
import threading
import tracemalloc

import numpy as np
import pytest
from oracles import adam_step

import taskhg.optim
import taskhg.schedule
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
    state = AdamState.for_params(params, lr=0.01)
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


def state_bytes(state, params):
    blocks = (params, state.first_moment, state.second_moment)
    return state.step_count, [{name: b.tobytes() for name, b in d.items()} for d in blocks]


def test_nonfinite_gradient_names_block(pool):
    params = scalar_params()
    state = AdamState.for_params(params, lr=0.01)
    with pytest.raises(DivergenceError, match="user"):
        state.apply({"user": np.array([[np.nan]]), "item": np.zeros((1, 1))}, params)
    # The worker checks rows 0-17 of the 37-row user block and rows 0-10 of
    # the 23-row item block; the calling thread checks the rest. Each case
    # is (bad cells, the block named), the first non-finite in grads order.
    cases = [
        ([("user", 3)], "user"),
        ([("user", 30)], "user"),
        ([("item", 20), ("attr_head:item_block", 1)], "item"),
        ([("user", 30), ("item", 2), ("ta_concat_item", 0)], "user"),
        ([("attr_head:item_block", 6)], "attr_head:item_block"),
    ]
    rng = np.random.default_rng(15)
    params = training_blocks(rng)
    state = AdamState.for_params(params, lr=0.01)
    state.apply(sparse_grads(rng, params), params)  # moments and count not at their start
    for (cells, named), paired in itertools.product(cases, (False, True)):
        grads = sparse_grads(rng, params)
        for value, (name, row) in zip(itertools.cycle((np.nan, np.inf, -np.inf)), cells):
            grads[name][row, -1] = value
        before = state_bytes(state, params)
        message = f"non-finite gradient in parameter block '{named}'"
        with pool if paired else contextlib.nullcontext():
            with pytest.raises(DivergenceError) as info:
                state.apply(grads, params)
        assert str(info.value) == message, (cells, paired)
        assert state_bytes(state, params) == before, (cells, paired)
    assert pool.submitted == len(cases)


def test_extra_blocks_updated():
    params = {**scalar_params(), "head": np.array([[1.0, 2.0]])}
    state = AdamState.for_params(params, lr=0.1)
    grads = {"user": np.zeros((1, 1)), "item": np.zeros((1, 1)), "head": np.array([[1.0, 0.0]])}
    state.apply(grads, params)
    assert params["head"][0, 0] == pytest.approx(1.0 - 0.1, rel=1e-6)
    assert params["head"][0, 1] == 2.0


def test_moments_start_at_zero_and_step_counts():
    params = {"user": np.zeros((2, 2)), "item": np.zeros((2, 2))}
    state = AdamState.for_params(params, lr=0.01)
    assert all((m == 0).all() for m in state.first_moment.values())
    assert all((v == 0).all() for v in state.second_moment.values())
    for expected in (1, 2, 3):
        state.apply({"user": np.ones((2, 2)), "item": np.ones((2, 2))}, params)
        assert state.step_count == expected


def training_blocks(rng):
    # The two embedding tables, a CONCAT head (tasks * d, d) and an
    # attribute head (d, n_values), as the training loop passes them.
    d = 8
    return {
        "user": rng.normal(size=(37, d)),
        "item": rng.normal(size=(23, d)),
        "ta_concat_item": rng.normal(size=(2 * d, d)),
        "attr_head:item_block": rng.normal(size=(d, 5)),
    }


def sparse_grads(rng, params):
    # Most rows carry no gradient, as in a minibatch step.
    return {
        name: rng.normal(size=p.shape) * (rng.random((p.shape[0], 1)) < 0.4)
        for name, p in params.items()
    }


@pytest.mark.parametrize("block_cells", [1, 1 << 20], ids=["one-row", "whole-block"])
def test_apply_is_bit_identical_to_the_textbook_step(block_cells, monkeypatch):
    # Constants other than the defaults show that every term reads them.
    monkeypatch.setattr(taskhg.optim, "BLOCK_CELLS", block_cells)
    for name, value in (("ADAM_BETA1", 0.8), ("ADAM_BETA2", 0.99), ("ADAM_EPSILON", 1e-7)):
        monkeypatch.setattr(taskhg.optim, name, value)
    rng = np.random.default_rng(11)
    params = training_blocks(rng)
    expected = {name: p.copy() for name, p in params.items()}
    m_ref = {name: np.zeros_like(p) for name, p in params.items()}
    v_ref = {name: np.zeros_like(p) for name, p in params.items()}
    state = AdamState.for_params(params, lr=0.03)
    for t in range(1, 7):
        grads = sparse_grads(rng, params)
        before = {name: g.tobytes() for name, g in grads.items()}
        state.apply(grads, params)
        assert {name: g.tobytes() for name, g in grads.items()} == before
        adam_step(expected, grads, m_ref, v_ref, t, 0.03, 0.8, 0.99, 1e-7)
    for name in params:
        assert params[name].tobytes() == expected[name].tobytes(), name
        assert state.first_moment[name].tobytes() == m_ref[name].tobytes(), name
        assert state.second_moment[name].tobytes() == v_ref[name].tobytes(), name


def test_apply_updates_non_contiguous_blocks_in_place(monkeypatch):
    monkeypatch.setattr(taskhg.optim, "BLOCK_CELLS", 16)
    rng = np.random.default_rng(12)
    base = rng.normal(size=(10, 12))
    untouched = base[:, 1::2].copy()
    params = {"user": base[:, ::2]}
    expected = {"user": params["user"].copy()}
    m_ref, v_ref = {"user": np.zeros((10, 6))}, {"user": np.zeros((10, 6))}
    state = AdamState.for_params(params, lr=0.01)
    for t in range(1, 6):
        grads = {"user": rng.normal(size=(20, 6))[::2]}
        state.apply(grads, params)
        adam_step(expected, grads, m_ref, v_ref, t, 0.01, 0.9, 0.999, 1e-8)
    assert base[:, ::2].tobytes() == expected["user"].tobytes()
    assert base[:, 1::2].tobytes() == untouched.tobytes()


def test_apply_allocates_no_full_table_temporary():
    # After the first step the scratch exists; a step over an 8000 x 64 and
    # a 4000 x 64 table (6 MB of parameters) must stay within it, not build
    # table-sized intermediates (an out-of-place step peaks near 12 MB).
    rng = np.random.default_rng(13)
    params = {"user": rng.normal(size=(8000, 64)), "item": rng.normal(size=(4000, 64))}
    grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
    state = AdamState.for_params(params, lr=0.01)
    state.apply(grads, params)
    tracemalloc.start()
    try:
        state.apply(grads, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"AdamState.apply peaked at {peak / 2**20:.1f} MB"


def test_paired_apply_halves_every_block_by_rows(pool, monkeypatch):
    # Slices of 8 rows (12 for the 5-column head) cut the blocks into
    # 5 + 3 + 2 + 1 = 11 slices; halving that count would give the worker
    # the user block's 5 (37 rows) and this thread the other 47 rows. Each
    # thread must update half of every block's rows, and the bytes must be
    # those of the serial update.
    monkeypatch.setattr(taskhg.optim, "BLOCK_CELLS", 64)
    rng = np.random.default_rng(14)
    params = training_blocks(rng)
    grads = sparse_grads(rng, params)
    serial = {name: p.copy() for name, p in params.items()}
    serial_state = AdamState.for_params(serial, lr=0.03)
    paired_state = AdamState.for_params(params, lr=0.03)
    rows = {}
    real = AdamState._update_rows

    def counting(self, g, *args):
        key = threading.current_thread().name.startswith(taskhg.schedule.THREAD_NAME_PREFIX)
        rows[key] = rows.get(key, 0) + len(g)
        return real(self, g, *args)

    for _ in range(3):
        serial_state.apply(grads, serial)
        monkeypatch.setattr(AdamState, "_update_rows", counting)
        with pool:
            paired_state.apply(grads, params)
        monkeypatch.setattr(AdamState, "_update_rows", real)
    assert pool.submitted == 6  # each step's check pair and update pair
    # 37, 23, 16 and 8 rows: the worker takes 18 + 11 + 8 + 4 of each step's 84.
    assert rows == {True: 3 * 41, False: 3 * 43}
    for name in params:
        assert params[name].tobytes() == serial[name].tobytes(), name
        for moments in ("first_moment", "second_moment"):
            got = getattr(paired_state, moments)[name].tobytes()
            assert got == getattr(serial_state, moments)[name].tobytes(), (name, moments)
