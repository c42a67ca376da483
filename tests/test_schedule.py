"""The two-thread step schedule: same bits as the serial one, clean threads.

Every comparison runs the same computation with a pool and without one and
asks for byte-identical losses, gradient blocks (in the same key order),
tables and epoch losses. Most instances hold auxiliary tasks on both sides,
so both TA stacks attend and both halves of each pair do real work; the
step sweep adds instances whose tasks are all item-side, the layout of the
synthetic data, where only the user-side stack attends.
"""

import itertools
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from instances import make_joint_instance

import taskhg.gradients
import taskhg.model
import taskhg.optim
import taskhg.train
from taskhg import schedule
from taskhg.config import LossKind, TAVariant, TrainConfig
from taskhg.data import InteractionDataset, generate_synthetic_dataset
from taskhg.gradients import BatchRows, finetune_loss_and_grad, pretrain_loss_and_grad
from taskhg.hypergraph import build_hypergraph
from taskhg.tasks import NodeSide, TaskHypergraph, TaskKind, build_relation_hypergraph
from taskhg.train import finetune, pretrain

SRC = Path(__file__).resolve().parents[1] / "src"


def two_sided_instance(rng, **kwargs):
    """A random joint instance with auxiliary tasks on both sides."""
    while True:
        instance = make_joint_instance(rng, min_tasks=2, max_tasks=4, **kwargs)
        if {task.side for task in instance[3]} == {NodeSide.USERS, NodeSide.ITEMS}:
            return instance


def item_side_instance(rng, **kwargs):
    """A random joint instance whose auxiliary tasks are all item-side."""
    while True:
        instance = make_joint_instance(rng, min_tasks=1, max_tasks=3, **kwargs)
        if {task.side for task in instance[3]} == {NodeSide.ITEMS}:
            return instance


def two_sided_dataset():
    base = generate_synthetic_dataset(40, 20, 4, noise=0.1, seed=11, interactions_per_user=6)
    anchors = range(0, 39, 2)
    relation, _ = build_relation_hypergraph(
        "user_pairs", NodeSide.USERS, anchors, [u + 1 for u in anchors], [1] * 20, 40
    )
    groups = build_hypergraph([(u, u % 3) for u in range(40)], 40, 3)
    attribute = TaskHypergraph("user_group", TaskKind.ATTRIBUTE_PREDICTION, NodeSide.USERS, groups)
    return InteractionDataset(
        40, 20, set(base.train_edges), set(base.test_edges),
        base.auxiliary_tasks + [relation, attribute],
    )


def assert_same_step(a, b):
    loss_a, grads_a, _ = a
    loss_b, grads_b, _ = b
    assert np.float64(loss_a).tobytes() == np.float64(loss_b).tobytes()
    assert list(grads_a) == list(grads_b)
    for name in grads_a:
        assert grads_a[name].tobytes() == grads_b[name].tobytes(), name


@pytest.mark.parametrize("loss", list(LossKind), ids=lambda k: k.value)
@pytest.mark.parametrize("variant", list(TAVariant), ids=lambda v: v.value)
def test_pretrain_step_is_the_same_on_both_schedules(pool, variant, loss):
    rng = np.random.default_rng([7, list(TAVariant).index(variant), list(LossKind).index(loss)])
    for make_instance, layers, unified in itertools.product(
        (two_sided_instance, item_side_instance), (1, 2), (True, False)
    ):
        table, rec_u, rec_i, aux, cfg, batch, extra = make_instance(
            rng, loss=loss, variant=variant, unified=unified,
            ta_layers=layers, aux_layers=layers,
        )
        serial = pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, batch, extra)
        with pool:
            paired = pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, batch, extra)
        assert_same_step(serial, paired)
        attention = serial[2].attention_arrays()
        assert [a.tobytes() for a in paired[2].attention_arrays()] == [
            a.tobytes() for a in attention
        ]
        assert list(paired[2].encoder_traces) == [task.task_id for task in aux]
    assert pool.submitted > 0


@pytest.mark.parametrize("loss", list(LossKind), ids=lambda k: k.value)
def test_finetune_step_is_the_same_on_both_schedules(pool, loss):
    rng = np.random.default_rng([8, list(LossKind).index(loss)])
    for _ in range(3):
        table, rec_u, rec_i, _, cfg, batch, _ = make_joint_instance(rng, loss=loss)
        args = (table, rec_u, rec_i, cfg, batch.rec_users, batch.rec_pos_items,
                batch.rec_neg_items)
        serial = finetune_loss_and_grad(*args)
        with pool:
            assert_same_step(serial, finetune_loss_and_grad(*args))
    assert pool.submitted > 0


@pytest.mark.parametrize(
    "loss, pretrain_halves, finetune_halves",
    [(LossKind.ALIGNMENT, 3, 2), (LossKind.AU, 4, 3)],
    ids=["align", "au"],
)
def test_one_step_hands_every_pair_to_the_worker(pool, loss, pretrain_halves, finetune_halves):
    # Pretraining pairs its forward halves and its two reverse stages;
    # finetuning its encodes and its backwards; `au` adds one pair to both
    # (see `au_grad`). A pair that falls back to serial lowers the count.
    rng = np.random.default_rng(9)
    table, rec_u, rec_i, aux, cfg, batch, extra = item_side_instance(rng, loss=loss)
    with pool:
        pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, batch, extra)
        assert pool.submitted == pretrain_halves
        pool.submitted = 0
        finetune_loss_and_grad(table, rec_u, rec_i, cfg, batch.rec_users, batch.rec_pos_items,
                               batch.rec_neg_items)
    assert pool.submitted == finetune_halves


@pytest.mark.parametrize("loss", list(LossKind), ids=lambda k: k.value)
def test_each_table_loss_gradient_is_made_on_its_sides_thread(pool, monkeypatch, loss):
    # The losses return batch rows; under the pool, the worker makes the
    # user table's gradient and the calling thread the item table's, in
    # pretraining's stage 1 and in finetuning's backward pair.
    returned = []
    made = {}
    real_loss = taskhg.gradients.rec_loss_grad
    real_dense = BatchRows.dense

    def loss_spy(*args, **kwargs):
        result = real_loss(*args, **kwargs)
        returned.append(result[1:])
        return result

    def dense_spy(rows):
        made[id(rows)] = threading.current_thread().name
        return real_dense(rows)

    monkeypatch.setattr(taskhg.gradients, "rec_loss_grad", loss_spy)
    monkeypatch.setattr(BatchRows, "dense", dense_spy)
    rng = np.random.default_rng([10, list(LossKind).index(loss)])
    table, rec_u, rec_i, aux, cfg, batch, extra = two_sided_instance(rng, loss=loss)
    with pool:
        pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, batch, extra)
        finetune_loss_and_grad(table, rec_u, rec_i, cfg, batch.rec_users, batch.rec_pos_items,
                               batch.rec_neg_items)
    assert len(returned) == 2
    here = threading.current_thread().name
    for user_rows, item_rows in returned:
        assert made[id(user_rows)].startswith(schedule.THREAD_NAME_PREFIX)
        assert made[id(item_rows)] == here


@pytest.fixture(scope="module")
def wide_dataset():
    """Shaped like the benchmark's eval-wide set: each 1024-pair batch's
    users reach under half of the item hyperedges."""
    return generate_synthetic_dataset(8000, 4000, 400, 0.05, 21, interactions_per_user=3)


def test_pretraining_on_the_reached_rows_gives_the_same_bits(monkeypatch, wide_dataset):
    # The user-side TA stack's final layer reverses the reached hyperedges
    # or all of them, on one thread or two: every table byte, epoch loss
    # and attention bound is the same.
    cfg = TrainConfig(epochs_pretrain=1, seed=4)
    runs = []
    for on_reached_rows, cpus in itertools.product((True, False), (1, 2)):
        monkeypatch.setattr(taskhg.gradients, "_reaches_few_hyperedges",
                            lambda *args, forced=on_reached_rows: forced)
        monkeypatch.setattr(schedule, "usable_cpus", lambda cpus=cpus: cpus)
        runs.append(pretrain(wide_dataset, cfg))
    first = runs[0]
    for run in runs[1:]:
        assert run.table.user_emb.tobytes() == first.table.user_emb.tobytes()
        assert run.table.item_emb.tobytes() == first.table.item_emb.tobytes()
        assert run.log.epoch_losses == first.log.epoch_losses
        assert run.log.attention == first.log.attention


@pytest.mark.parametrize("shape", ["eval-wide", "train-medium"])
def test_the_reverse_takes_the_reached_rows_only_where_batches_reach_few(
    monkeypatch, wide_dataset, shape
):
    # On the eval-wide shape every step's batch users have degrees summing
    # to about 0.6 of the item count; with 10 interactions per user the
    # sum is above it, and every step stays dense.
    if shape == "eval-wide":
        dataset = wide_dataset
    else:
        dataset = generate_synthetic_dataset(4000, 2000, 20, 0.05, 21, interactions_per_user=10)
    calls = {"steps": 0, "reached": 0}
    real_step = taskhg.train.pretrain_loss_and_grad
    real_reached = taskhg.gradients._reverse_on_reached_rows

    def step(*args, **kwargs):
        calls["steps"] += 1
        return real_step(*args, **kwargs)

    def reached(*args, **kwargs):
        calls["reached"] += 1
        return real_reached(*args, **kwargs)

    monkeypatch.setattr(taskhg.train, "pretrain_loss_and_grad", step)
    monkeypatch.setattr(taskhg.gradients, "_reverse_on_reached_rows", reached)
    pretrain(dataset, TrainConfig(epochs_pretrain=1, seed=4))
    assert calls["steps"] > 1
    assert calls["reached"] == (calls["steps"] if shape == "eval-wide" else 0)


def run_stages(dataset, cfg):
    pre = pretrain(dataset, cfg)
    fine = finetune(pre.table, dataset, cfg)
    return pre, fine


def assert_same_stages(a, b):
    for x, y in zip(a, b):
        assert x.table.user_emb.tobytes() == y.table.user_emb.tobytes()
        assert x.table.item_emb.tobytes() == y.table.item_emb.tobytes()
        assert x.log.epoch_losses == y.log.epoch_losses
    assert a[0].log.attention == b[0].log.attention
    assert list(a[0].extra_params) == list(b[0].extra_params)
    for name, p in a[0].extra_params.items():
        assert p.tobytes() == b[0].extra_params[name].tobytes(), name


def worker_names(monkeypatch):
    """Names of the threads that run a TA forward, recorded as they run."""
    names = []
    real = taskhg.model.ta_forward_traced

    def spy(*args, **kwargs):
        names.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(taskhg.model, "ta_forward_traced", spy)
    return names


@pytest.mark.parametrize(
    "variant, loss, layers, unified",
    [
        (TAVariant.FULL, LossKind.BPR, 1, True),
        (TAVariant.SUM, LossKind.AU, 2, False),
        (TAVariant.CONCAT, LossKind.BPR_POS, 2, True),
        (TAVariant.NO_TA, LossKind.ALIGNMENT, 1, False),
    ],
    ids=["full-bpr", "sum-au", "concat-bpr_pos", "no_ta-align"],
)
def test_training_runs_are_the_same_on_both_schedules(monkeypatch, variant, loss, layers, unified):
    # Small Adam slices give the update many slices to split.
    monkeypatch.setattr(taskhg.optim, "BLOCK_CELLS", 64)
    dataset = two_sided_dataset()
    cfg = TrainConfig(
        dim=8, epochs_pretrain=3, epochs_finetune=2, batch_size=64, seed=3,
        ta_variant=variant, pretrain_loss=loss, finetune_loss=loss,
        ta_layers=layers, aux_encoder_layers=layers, unified_attributes=unified,
        lambda_reg=1e-3,
    )
    names = worker_names(monkeypatch)
    monkeypatch.setattr(schedule, "usable_cpus", lambda: 1)
    serial = run_stages(dataset, cfg)
    assert not [n for n in names if n.startswith(schedule.THREAD_NAME_PREFIX)]
    monkeypatch.setattr(schedule, "usable_cpus", lambda: 2)
    paired = run_stages(dataset, cfg)
    assert [n for n in names if n.startswith(schedule.THREAD_NAME_PREFIX)]
    assert_same_stages(serial, paired)


def test_same_bits_under_frequent_thread_switches(monkeypatch):
    # Switching threads every microsecond interleaves the halves far more
    # finely than the default 5 ms; any shared intermediate would show.
    monkeypatch.setattr(taskhg.optim, "BLOCK_CELLS", 32)
    dataset = two_sided_dataset()
    cfg = TrainConfig(dim=8, epochs_pretrain=2, epochs_finetune=2, batch_size=32, seed=5,
                      pretrain_loss=LossKind.BPR, lambda_reg=1e-3)
    monkeypatch.setattr(schedule, "usable_cpus", lambda: 1)
    serial = run_stages(dataset, cfg)
    monkeypatch.setattr(schedule, "usable_cpus", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2.0
        runs = 0
        while runs == 0 or time.monotonic() < deadline:
            assert_same_stages(serial, run_stages(dataset, cfg))
            runs += 1
    finally:
        sys.setswitchinterval(interval)
    assert runs >= 1


class Boom(Exception):
    pass


@pytest.mark.parametrize("raising", ["first", "second"])
def test_run_pair_raises_only_after_both_halves_finished(pool, raising):
    error = Boom("half failed")
    finished = []

    def fail():
        raise error

    def slow():
        time.sleep(0.05)
        finished.append(threading.current_thread().name)

    halves = (fail, slow) if raising == "first" else (slow, fail)
    with pool, pytest.raises(Boom) as info:
        schedule.run_pair(*halves)
    assert info.value is error
    assert len(finished) == 1
    assert finished[0].startswith(schedule.THREAD_NAME_PREFIX) == (raising == "second")


@pytest.mark.parametrize("raising", ["worker", "caller"])
def test_error_on_one_side_surfaces_unchanged_after_the_other_finished(monkeypatch, raising):
    # The raising side fails at once; the other side sleeps before its TA
    # stack runs, so an error raised before it finished would show.
    monkeypatch.setattr(schedule, "usable_cpus", lambda: 2)
    error = Boom("encoder failed")
    finished = []
    real_encode = taskhg.model.encode_auxiliary_task_traced
    real_ta = taskhg.model.ta_forward_traced

    def on_worker():
        return threading.current_thread().name.startswith(schedule.THREAD_NAME_PREFIX)

    def encode(*args, **kwargs):
        if on_worker() == (raising == "worker"):
            raise error
        return real_encode(*args, **kwargs)

    def ta(*args, **kwargs):
        time.sleep(0.05)
        out = real_ta(*args, **kwargs)
        finished.append(on_worker())
        return out

    monkeypatch.setattr(taskhg.model, "encode_auxiliary_task_traced", encode)
    monkeypatch.setattr(taskhg.model, "ta_forward_traced", ta)
    with pytest.raises(Boom) as info:
        pretrain(two_sided_dataset(), TrainConfig(dim=4, epochs_pretrain=1, seed=1))
    assert info.value is error
    assert finished == [raising == "caller"]


class TestCpuCount:
    def test_one_cpu_takes_the_serial_schedule(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-CPU host started a step pool")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(schedule, "ThreadPoolExecutor", no_pool)
        assert schedule.usable_cpus() == 1
        with schedule.step_pool():
            assert not schedule.pairs_overlap()
        pre, fine = run_stages(two_sided_dataset(),
                               TrainConfig(dim=4, epochs_pretrain=1, epochs_finetune=1, seed=1))
        assert pre.table.allfinite() and fine.table.allfinite()

    def test_two_cpus_take_the_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        with schedule.step_pool():
            assert schedule.pairs_overlap()
            here = threading.current_thread
            worker, caller = schedule.run_pair(here, here)
            assert worker.name.startswith(schedule.THREAD_NAME_PREFIX)
            assert caller is here()
        assert not [t for t in threading.enumerate()
                    if t.name.startswith(schedule.THREAD_NAME_PREFIX)]

    @pytest.mark.parametrize("count, expected", [(None, 1), (1, 1), (4, 4)])
    def test_cpu_count_is_the_fallback(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert schedule.usable_cpus() == expected


def test_worker_inherits_the_callers_errstate(pool):
    def overflow():
        return np.float64(1e300) * np.float64(1e300)

    with pool, np.errstate(over="ignore"):
        left, right = schedule.run_pair(overflow, overflow)
    assert left == right == np.inf
    with pool, np.errstate(over="raise"), pytest.raises(FloatingPointError):
        schedule.run_pair(overflow, lambda: None)
    assert pool.submitted == 2


def test_a_pair_inside_the_workers_half_runs_on_the_worker(monkeypatch):
    # The worker's half sees no pool, so a pair inside it runs both halves
    # there instead of queueing behind itself on the one worker.
    monkeypatch.setattr(schedule, "usable_cpus", lambda: 2)
    here = threading.current_thread
    results = []

    def stage():
        with schedule.step_pool():
            results.append(schedule.run_pair(lambda: schedule.run_pair(here, here), here))

    runner = threading.Thread(target=stage, daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "a pair inside the worker's half deadlocked"
    [((inner_first, inner_second), caller)] = results
    assert inner_first is inner_second
    assert inner_first.name.startswith(schedule.THREAD_NAME_PREFIX)
    assert caller is runner


def test_outside_a_stage_pairs_start_no_thread(monkeypatch):
    monkeypatch.setattr(schedule, "usable_cpus", lambda: 2)
    before = threading.active_count()
    here = threading.current_thread
    assert not schedule.pairs_overlap()
    assert schedule.run_pair(here, here) == (here(), here())
    assert threading.active_count() == before


def test_a_stage_that_raises_leaves_pairs_serial(monkeypatch):
    monkeypatch.setattr(schedule, "usable_cpus", lambda: 2)
    with pytest.raises(Boom), schedule.step_pool():
        assert schedule.pairs_overlap()
        raise Boom("stage failed")
    here = threading.current_thread
    assert not schedule.pairs_overlap()
    assert schedule.run_pair(here, here) == (here(), here())
    assert not [t for t in threading.enumerate()
                if t.name.startswith(schedule.THREAD_NAME_PREFIX)]


def test_importing_the_package_starts_no_thread():
    code = ("import threading, taskhg, taskhg.cli; "
            "print(threading.active_count(), [t.name for t in threading.enumerate()])")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.split()[0] == "1", out
