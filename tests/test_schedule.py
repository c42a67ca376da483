"""The two-thread step schedule: same bits as the serial one, clean threads.

Every comparison runs the same computation with a pool and without one and
asks for byte-identical losses, gradient blocks (in the same key order),
tables and epoch losses. Most instances hold auxiliary tasks on both sides,
so both TA stacks attend and both halves of each pair do real work; the
step sweep adds instances whose tasks are all item-side, the layout of the
synthetic data, where only the user-side stack attends.
"""

import itertools
import math
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
from taskhg.hypergraph import Restriction, build_hypergraph
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


# Each path's (`_reaches_few_hyperedges`, `_holds_few_incidences`) answers.
PATHS = {"dense": (False, False), "node rows": (False, True), "reached": (True, True)}


def force_path(monkeypatch, path):
    """Make `_final_rows` choose `path` for every stack that may take it."""
    reaches, holds = PATHS[path]
    monkeypatch.setattr(taskhg.gradients, "_reaches_few_hyperedges", lambda *args: reaches)
    monkeypatch.setattr(taskhg.gradients, "_holds_few_incidences", lambda *args: holds)


def path_of(rows):
    """The path of a final layer run on `rows` (a `Restriction` or None)."""
    return "dense" if rows is None else "node rows" if rows.edges is None else "reached"


def assert_same_attention(trace, dense):
    """`trace`'s attention arrays are the dense trace's, or their rows at
    the reached hyperedges in a final layer on the reached path."""
    want = dense.attention
    if path_of(trace.restriction) == "reached" and want:
        want = [*want[:-1], want[-1][trace.restriction.edges]]
    assert [a.tobytes() for a in trace.attention] == [a.tobytes() for a in want]


@pytest.mark.parametrize("loss", list(LossKind), ids=lambda k: k.value)
@pytest.mark.parametrize("variant", list(TAVariant), ids=lambda v: v.value)
def test_pretrain_step_is_the_same_on_both_schedules(pool, monkeypatch, variant, loss):
    # Each forced path runs each TA stack's final layer dense, on the
    # batch's rows with every hyperedge, or on the rows and the hyperedges
    # they reach (a stack attending with `full` or `sum` only; any other
    # takes node rows), and the loss reads the compact output. Every path,
    # on one thread or two, gives the dense step's bits.
    rng = np.random.default_rng([7, list(TAVariant).index(variant), list(LossKind).index(loss)])
    full_or_sum = variant in (TAVariant.FULL, TAVariant.SUM)
    forwards = traces_made(monkeypatch, "forward_pretrain")
    for make_instance, layers, unified in itertools.product(
        (two_sided_instance, item_side_instance), (1, 2), (True, False)
    ):
        table, rec_u, rec_i, aux, cfg, batch, extra = make_instance(
            rng, loss=loss, variant=variant, unified=unified,
            ta_layers=layers, aux_layers=layers,
        )
        items = batch.rec_pos_items
        if batch.rec_neg_items is not None:
            items = np.append(items, batch.rec_neg_items)
        item_side_attends = make_instance is two_sided_instance
        stacks = (
            (lambda acts: acts.ta_user_trace, np.unique(batch.rec_users), True),
            (lambda acts: acts.ta_item_trace, np.unique(items), item_side_attends),
        )
        dense = None
        for path in PATHS:
            force_path(monkeypatch, path)
            forwards.clear()
            serial = pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, batch, extra)
            with pool:
                paired = pretrain_loss_and_grad(table, rec_u, rec_i, aux, cfg, batch, extra)
            assert len(forwards) == 2
            dense = dense or (serial, forwards[0])
            for step, acts in zip((serial, paired), forwards):
                assert_same_step(dense[0], step)
                assert [a.tobytes() for a in step[2]] == [
                    a.tobytes() for a in acts.attention_arrays()
                ]
                assert list(acts.encoder_traces) == [task.task_id for task in aux]
                for trace_of, nodes, attends in stacks:
                    trace = trace_of(acts)
                    want = path
                    if path == "reached" and not (full_or_sum and attends):
                        want = "node rows"
                    assert path_of(trace.restriction) == want
                    if trace.restriction is not None:
                        assert trace.restriction.nodes.tolist() == nodes.tolist()
                    assert_same_attention(trace, trace_of(dense[1]))
    assert pool.submitted > 0


def traces_made(monkeypatch, name):
    """Every trace that `taskhg.gradients.<name>` returns, as it returns."""
    traces = []
    real = getattr(taskhg.gradients, name)

    def spy(*args, **kwargs):
        traces.append(real(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(taskhg.gradients, name, spy)
    return traces


@pytest.mark.parametrize("loss", list(LossKind), ids=lambda k: k.value)
def test_finetune_step_is_the_same_on_both_schedules(pool, monkeypatch, loss):
    # Each forced path runs both encoders dense or on the batch's rows with
    # every hyperedge; an encoder never takes the reached path.
    rng = np.random.default_rng([8, list(LossKind).index(loss)])
    traces = traces_made(monkeypatch, "encode_auxiliary_task_traced")
    for _ in range(3):
        table, rec_u, rec_i, _, cfg, batch, _ = make_joint_instance(rng, loss=loss)
        args = (table, rec_u, rec_i, cfg, batch.rec_users, batch.rec_pos_items,
                batch.rec_neg_items)
        dense = None
        for path in PATHS:
            force_path(monkeypatch, path)
            traces.clear()
            serial = finetune_loss_and_grad(*args)
            with pool:
                paired = finetune_loss_and_grad(*args)
            dense = dense or serial
            assert_same_step(dense, serial)
            assert_same_step(dense, paired)
            want = "dense" if path == "dense" else "node rows"
            assert [path_of(t.restriction) for t in traces] == [want] * 4
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


def restrictions(monkeypatch):
    """(node count, reached-hyperedge count or None with every hyperedge)
    of every restricted layer made."""
    counts = []
    real = taskhg.model.Restriction

    def spy(*args):
        rows = real(*args)
        counts.append((rows.graph.num_nodes, None if rows.edges is None else len(rows.edges)))
        return rows

    monkeypatch.setattr(taskhg.model, "Restriction", spy)
    return counts


def test_pretraining_on_the_reached_rows_gives_the_same_bits(monkeypatch, wide_dataset):
    # Both stages run every final layer on each path, on one thread or
    # two: every table byte and epoch loss is the same. The attention
    # audit counts what was computed: on the reached rows, each step's
    # reached hyperedges only, whose weights are among the dense ones, so
    # its bounds can only tighten; on node rows, every hyperedge.
    cfg = TrainConfig(epochs_pretrain=1, epochs_finetune=1, seed=4)
    counts = restrictions(monkeypatch)
    runs = {}
    reached = {}
    for path, cpus in itertools.product(PATHS, (1, 2)):
        force_path(monkeypatch, path)
        monkeypatch.setattr(schedule, "usable_cpus", lambda cpus=cpus: cpus)
        counts.clear()
        runs[path, cpus] = run_stages(wide_dataset, cfg)
        reached[path, cpus] = counts[:]
    first = runs["dense", 1]
    for run in runs.values():
        for stage, want in zip(run, first):
            assert stage.table.user_emb.tobytes() == want.table.user_emb.tobytes()
            assert stage.table.item_emb.tobytes() == want.table.item_emb.tobytes()
            assert stage.log.epoch_losses == want.log.epoch_losses
    audits = {key: run[0].log.attention for key, run in runs.items()}
    steps = math.ceil(len(wide_dataset.train_array) / cfg.batch_size)
    dense = audits["dense", 1]
    assert dense.vectors_seen == steps * wide_dataset.num_items
    for cpus in (1, 2):
        assert audits["dense", cpus] == audits["node rows", cpus] == dense
        assert reached["dense", cpus] == []
        # Pretraining's two stacks and finetuning's two encoders, per step.
        assert [count for _, count in reached["node rows", cpus]] == [None] * (4 * steps)
        # Only the pretraining user-side stack attends (the tasks are item-side).
        on_reached = [(n, count) for n, count in reached["reached", cpus] if count is not None]
        assert len(reached["reached", cpus]) - len(on_reached) == 3 * steps
        assert {n for n, _ in on_reached} == {wide_dataset.num_users}
        assert len(on_reached) == steps
        assert sum(count for _, count in on_reached) == audits["reached", cpus].vectors_seen
    rows = audits["reached", 1]
    assert audits["reached", 2] == rows
    assert 0 < rows.vectors_seen < dense.vectors_seen
    assert rows.min_weight >= dense.min_weight
    assert rows.max_sum_deviation <= dense.max_sum_deviation


# The path each stage's stack takes on a full batch, by benchmark shape;
# every other stack stays dense.
SHAPE_PATHS = {
    "eval-wide": {
        ("pretrain", "users"): "reached",
        ("pretrain", "items"): "node rows",
        ("finetune", "users"): "node rows",
    },
    "train-medium": {("pretrain", "users"): "node rows", ("finetune", "users"): "node rows"},
    "au-small": {},
}


@pytest.mark.parametrize("shape", list(SHAPE_PATHS))
def test_the_reverse_takes_the_reached_rows_only_where_batches_reach_few(
    monkeypatch, wide_dataset, shape
):
    # Shares of a graph's incidences that a full batch's distinct nodes
    # hold, users / pretraining items / finetuning items (positives and
    # negatives): eval-wide 0.13 / 0.26 / 0.43, train-medium 0.23 / 0.42 /
    # 0.65, au-small 0.44 / 0.69 / 0.89. eval-wide's users also reach
    # under 0.6 of the items, so its attending user-side TA stack takes
    # the reached rows; its item-side stack attends over no task. A stack
    # on rows runs both passes on them.
    loss = LossKind.ALIGNMENT
    if shape == "eval-wide":
        dataset = wide_dataset
    elif shape == "train-medium":
        dataset = generate_synthetic_dataset(4000, 2000, 20, 0.05, 21, interactions_per_user=10)
    else:
        dataset = generate_synthetic_dataset(2000, 1000, 20, 0.05, 21, interactions_per_user=5)
        loss = LossKind.AU
    stage = ["pretrain"]
    chosen = []
    calls = {"forward": 0, "reverse": 0}
    real_rows = taskhg.gradients._final_rows
    real_forward = taskhg.model.aggregate_hyperedges_to_nodes
    real_reverse = taskhg.gradients.aggregate_hyperedges_to_nodes_adjoint

    def final_rows(graph, index, may_reach):
        rows = real_rows(graph, index, may_reach)
        side = "users" if graph.num_nodes == dataset.num_users else "items"
        path = "dense" if rows is None else "reached" if rows[1] else "node rows"
        chosen.append((stage[0], side, path))
        return rows

    def forward(op, q):
        out = real_forward(op, q)
        if isinstance(op, Restriction):
            calls["forward"] += 1
            assert out.shape[0] == len(op.nodes) < op.graph.num_nodes
        return out

    def reverse(op, grad):
        if isinstance(op, Restriction):
            calls["reverse"] += 1
            assert grad.shape[0] == len(op.nodes)
        return real_reverse(op, grad)

    monkeypatch.setattr(taskhg.gradients, "_final_rows", final_rows)
    monkeypatch.setattr(taskhg.model, "aggregate_hyperedges_to_nodes", forward)
    monkeypatch.setattr(taskhg.gradients, "aggregate_hyperedges_to_nodes_adjoint", reverse)
    cfg = TrainConfig(epochs_pretrain=1, epochs_finetune=1, seed=4, pretrain_loss=loss)
    pre = pretrain(dataset, cfg)
    stage[0] = "finetune"
    finetune(pre.table, dataset, cfg)
    steps = math.ceil(len(dataset.train_array) / cfg.batch_size)
    assert len(chosen) == 4 * steps
    # The last step of each stage may hold a short batch.
    full = chosen[: 2 * steps - 2] + chosen[2 * steps : -2]
    for stage_name, side, path in full:
        assert path == SHAPE_PATHS[shape].get((stage_name, side), "dense"), (stage_name, side)
    on_rows = sum(path != "dense" for *_, path in chosen)
    assert calls["forward"] == calls["reverse"] == on_rows


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
