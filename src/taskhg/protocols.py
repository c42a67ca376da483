"""Experiment protocols: ablation grids and cold-start evaluation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import LossKind, TAVariant, TrainConfig
from .data import STREAM_COLD, InteractionDataset, rng_for
from .errors import DataError
from .evaluate import EvalReport, MetricRow, evaluate
from .train import finetune, pretrain

TA_VARIANT_GRID = (TAVariant.FULL, TAVariant.NO_TA, TAVariant.SUM, TAVariant.CONCAT)

# Same loss for both stages, then ranking-loss pretraining, then
# ranking-loss finetuning: 4 + 3 + 3 combinations.
LOSS_GRID = (
    (LossKind.BPR, LossKind.BPR),
    (LossKind.BPR_POS, LossKind.BPR_POS),
    (LossKind.AU, LossKind.AU),
    (LossKind.ALIGNMENT, LossKind.ALIGNMENT),
    (LossKind.BPR, LossKind.BPR_POS),
    (LossKind.BPR, LossKind.AU),
    (LossKind.BPR, LossKind.ALIGNMENT),
    (LossKind.BPR_POS, LossKind.BPR),
    (LossKind.AU, LossKind.BPR),
    (LossKind.ALIGNMENT, LossKind.BPR),
)


def _run_cell(dataset: InteractionDataset, config: TrainConfig, label: str) -> MetricRow:
    pre = pretrain(dataset, config)
    fine = finetune(pre.table, dataset, config)
    return evaluate(fine.table, dataset, config.eval_ks, label=label).rows[0]


def run_ablation(dataset: InteractionDataset, config: TrainConfig) -> EvalReport:
    """Run the TA-variant grid and the loss-combination grid, same seed per cell.

    One report: rows `ta/ta=<variant>` in TA_VARIANT_GRID order, then rows
    `loss/<pretrain>+<finetune>` in LOSS_GRID order.
    """
    config.validate()
    dataset.check_test_edges()
    rows = [
        _run_cell(dataset, replace(config, ta_variant=variant), f"ta/ta={variant.value}")
        for variant in TA_VARIANT_GRID
    ]
    rows += [
        _run_cell(
            dataset,
            replace(config, pretrain_loss=p, finetune_loss=f),
            f"loss/{p.value}+{f.value}",
        )
        for p, f in LOSS_GRID
    ]
    return EvalReport(
        ks=tuple(config.eval_ks),
        rows=rows,
        seed=config.seed,
        epochs_pretrain=config.epochs_pretrain,
        epochs_finetune=config.epochs_finetune,
    )


def cold_start_eval(
    dataset: InteractionDataset, config: TrainConfig, ratio: float
) -> EvalReport:
    """Inductive-user protocol: withhold a ratio of users' edges from training.

    The selected users' train edges are removed from both pretraining and
    finetuning; the users keep their auxiliary-task memberships. At
    inference only, the withheld edges are fed to the downstream encoder,
    and metrics are reported over the cold users, comparing the full
    configuration against one pretrained without auxiliary tasks.
    """
    config.validate()
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    dataset.check_test_edges()
    rng = rng_for(config.seed, STREAM_COLD)
    n_cold = int(round(ratio * dataset.num_users))
    if n_cold < 1 or n_cold >= dataset.num_users:
        raise DataError(f"ratio {ratio} leaves no cold or no warm users")
    cold_users = rng.choice(dataset.num_users, n_cold, replace=False)
    is_cold = np.zeros(dataset.num_users, dtype=bool)
    is_cold[cold_users] = True
    withheld_rows = is_cold[dataset.train_array[:, 0]]
    withheld = dataset.train_array[withheld_rows]
    reduced_train = dataset.train_array[~withheld_rows]
    if not len(reduced_train):
        raise DataError("cold-start removal left no training interactions")
    if not np.isin(withheld[:, 0], dataset.test_array[:, 0]).any():
        raise DataError(
            f"ratio {ratio} leaves no cold user with both a train edge to withhold and "
            f"a test edge to evaluate ({n_cold} cold users)"
        )
    rows = []
    for label, aux_tasks in (("full", dataset.auxiliary_tasks), ("no_auxiliary", [])):
        train_ds = InteractionDataset(
            dataset.num_users,
            dataset.num_items,
            reduced_train,
            dataset.test_array,
            list(aux_tasks),
        )
        pre = pretrain(train_ds, config)
        fine = finetune(pre.table, train_ds, config)
        report = evaluate(
            fine.table,
            train_ds,
            config.eval_ks,
            users=cold_users,
            extra_inference_edges=withheld,
            label=label,
        )
        rows.append(report.rows[0])
    return EvalReport(
        ks=tuple(config.eval_ks),
        rows=rows,
        seed=config.seed,
        epochs_pretrain=config.epochs_pretrain,
        epochs_finetune=config.epochs_finetune,
        cold_start_ratio=ratio,
    )
