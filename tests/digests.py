"""One sha256 per training cell, so two trees compare bit for bit with one `diff`.

    PYTHONPATH=src python tests/digests.py

For each shape in SHAPES, a synthetic set is pretrained, finetuned and
evaluated once per cell: each `LossKind` as the pretraining and the
finetuning loss, times each `TAVariant`, times unified and non-unified
attribute prediction. A cell's line hashes the finetuned user and item
tables, the pretraining's extra heads, both stages' epoch losses and the
machine report. The `dense` shape trains on one batch that holds every
pair, so each final layer runs dense; the `rows` shape's small batches
over a wider set run the user-side TA stack on the rows its batch reaches
(`full` and `sum`) and every other stack on its batch's node rows.

The package is the one on the import path, so pointing PYTHONPATH at
another tree's `src` hashes that tree. BLAS runs on one thread, as the
CLI's does, since `au` can differ in the last bits across thread counts.
"""

import hashlib
import itertools
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from taskhg.config import LossKind, TAVariant, TrainConfig  # noqa: E402
from taskhg.data import generate_synthetic_dataset  # noqa: E402
from taskhg.evaluate import evaluate  # noqa: E402
from taskhg.io import format_report  # noqa: E402
from taskhg.train import finetune, pretrain  # noqa: E402

# name: (users, items, blocks, interactions per user, batch size)
SHAPES = {"dense": (60, 30, 3, 4, 4096), "rows": (400, 200, 10, 2, 16)}
TINY_SHAPES = {"dense": (12, 6, 3, 3, 4096), "rows": (30, 16, 2, 2, 8)}


def cells():
    """(pretrain loss, finetune loss, TA variant, unified attributes) per cell."""
    for loss, variant, unified in itertools.product(LossKind, TAVariant, (True, False)):
        yield loss, loss, variant, unified


def cell_digest(dataset, config) -> str:
    pre = pretrain(dataset, config)
    fine = finetune(pre.table, dataset, config)
    report = evaluate(fine.table, dataset, config.eval_ks, seed=config.seed)
    h = hashlib.sha256()
    h.update(fine.table.user_emb.tobytes())
    h.update(fine.table.item_emb.tobytes())
    for name, head in pre.extra_params.items():
        h.update(name.encode())
        h.update(head.tobytes())
    for loss in pre.log.epoch_losses + fine.log.epoch_losses:
        h.update(np.float64(loss).tobytes())
    h.update(format_report(report, "machine").encode())
    return h.hexdigest()


def digest_lines(shapes=SHAPES):
    """One `<digest>  <shape> <pretrain>+<finetune> ta=<variant> <attributes>` line per cell."""
    for shape, (users, items, blocks, per_user, batch_size) in shapes.items():
        dataset = generate_synthetic_dataset(
            users, items, blocks, noise=0.1, seed=5, interactions_per_user=per_user
        )
        for pre_loss, fine_loss, variant, unified in cells():
            config = TrainConfig(
                dim=8, epochs_pretrain=2, epochs_finetune=2, batch_size=batch_size, seed=3,
                pretrain_loss=pre_loss, finetune_loss=fine_loss, ta_variant=variant,
                unified_attributes=unified, gamma=0.7, lambda_reg=0.01,
            )
            attributes = "unified" if unified else "non-unified"
            label = f"{shape} {pre_loss.value}+{fine_loss.value} ta={variant.value} {attributes}"
            yield f"{cell_digest(dataset, config)}  {label}"


if __name__ == "__main__":
    for line in digest_lines():
        print(line)
