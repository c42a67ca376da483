"""Benchmark workloads: synthetic planted block-model datasets plus a config.

Each workload exists to stress a different layer; README.md next to this
file explains the choice and maps each layer to the end-to-end metric it
should move.
"""

from __future__ import annotations

from dataclasses import dataclass

NOISE = 0.05  # the CLI's `synth` default
TRAIN_FRACTION = 0.8  # the CLI's default split
EVAL_KS = (10, 20)


@dataclass(frozen=True)
class Workload:
    name: str
    users: int
    items: int
    blocks: int
    interactions_per_user: int
    epochs_pretrain: int
    epochs_finetune: int
    pretrain_loss: str = "align"
    finetune_loss: str = "bpr"


WORKLOADS = {
    w.name: w
    for w in (
        # Full-graph aggregations, TA, encoder backward and Adam dominate.
        Workload("train-medium", 4000, 2000, 20, 10, 1, 1),
        # au_grad's pairwise uniformity term dominates pretraining; the
        # hypergraph and evaluate layers do little.
        Workload("au-small", 2000, 1000, 20, 5, 1, 1, pretrain_loss="au"),
        # Largest tables, sparsest batches: full-catalogue ranking of a dense
        # users x items score matrix is the biggest single stage.
        Workload("eval-wide", 8000, 4000, 400, 3, 1, 1),
        # README demo size: exercises every check and the tracer in seconds.
        Workload("smoke", 200, 100, 4, 2, 2, 2),
    )
}
