"""Training configuration: every hyperparameter left open by the method."""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass
from enum import Enum


class LossKind(Enum):
    ALIGNMENT = "align"
    BPR = "bpr"
    BPR_POS = "bpr_pos"
    AU = "au"


class TAVariant(Enum):
    FULL = "full"
    NO_TA = "no_ta"
    SUM = "sum"
    CONCAT = "concat"


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_eval_ks(ks) -> tuple:
    """The cutoffs as a tuple; ValueError unless non-empty, each an integer
    (not a bool) >= 1, strictly ascending."""
    ks = tuple(ks)
    for k in ks:
        if not _is_integer(k):
            raise ValueError(f"eval_ks cutoff {k!r} is not an integer, got {ks}")
    if not ks or any(k < 1 for k in ks) or any(a >= b for a, b in zip(ks, ks[1:])):
        raise ValueError(f"eval_ks must be non-empty, each >= 1 and strictly ascending, got {ks}")
    return ks


# Adam's constants, which no command sets. `TrainConfig.fingerprint`
# hashes them under their `adam_*` keys, so a checkpoint's fingerprint
# covers the whole update rule.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    dim: int = 64
    gamma: float = 1.0
    beta: float = 0.5
    lambda_reg: float = 1e-4
    lr: float = 0.01
    epochs_pretrain: int = 50
    epochs_finetune: int = 50
    batch_size: int = 1024
    negatives_per_positive: int = 1
    seed: int = 0
    pretrain_loss: LossKind = LossKind.ALIGNMENT
    finetune_loss: LossKind = LossKind.BPR
    ta_layers: int = 1
    aux_encoder_layers: int = 1
    eval_ks: tuple = (10, 20)
    quantization_bins: int = 5
    ta_variant: TAVariant = TAVariant.FULL
    unified_attributes: bool = True
    uniformity_weight: float = 1.0

    def validate(self):
        """Raise ValueError naming the first field whose value is of the
        wrong type or out of range."""
        for name, kind in (
            ("pretrain_loss", LossKind), ("finetune_loss", LossKind), ("ta_variant", TAVariant),
            ("unified_attributes", bool),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        for name, low in (
            ("dim", 1), ("epochs_pretrain", 0), ("epochs_finetune", 0), ("batch_size", 1),
            ("negatives_per_positive", 1), ("seed", 0), ("ta_layers", 1),
            ("aux_encoder_layers", 1), ("quantization_bins", 2),
        ):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for name, ok, rule in (
            ("gamma", lambda v: v >= 0.0, "finite and >= 0"),
            ("beta", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
            ("lambda_reg", lambda v: v >= 0.0, "finite and >= 0"),
            ("lr", lambda v: v > 0.0, "finite and > 0"),
            ("uniformity_weight", lambda v: v >= 0.0, "finite and >= 0"),
        ):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not (ok(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be {rule}, got {value}")
        check_eval_ks(self.eval_ks)
        return self

    def fingerprint(self) -> str:
        """Stable hash of the full configuration and Adam's constants,
        stored in checkpoints; NumPy numbers hash as Python ones."""
        payload = {"adam_beta1": ADAM_BETA1, "adam_beta2": ADAM_BETA2, "adam_epsilon": ADAM_EPSILON}
        blob = json.dumps(
            {**payload, **asdict(self)}, sort_keys=True,
            default=lambda v: v.value if isinstance(v, Enum) else v.item(),
        ).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()
