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


def check_eval_ks(ks) -> tuple:
    """The cutoffs as a tuple; ValueError unless non-empty, each an integer
    (not a bool) >= 1, strictly ascending."""
    ks = tuple(ks)
    for k in ks:
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ValueError(f"eval_ks cutoff {k!r} is not an integer, got {ks}")
    if not ks or any(k < 1 for k in ks) or any(a >= b for a, b in zip(ks, ks[1:])):
        raise ValueError(f"eval_ks must be non-empty, each >= 1 and strictly ascending, got {ks}")
    return ks


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8

    def validate(self):
        """Raise ValueError naming the first field whose value is out of range."""
        rules = (
            ("dim", self.dim >= 1, ">= 1"),
            ("gamma", self.gamma >= 0.0, "finite and >= 0"),
            ("beta", 0.0 <= self.beta <= 1.0, "in [0, 1]"),
            ("lambda_reg", self.lambda_reg >= 0.0, "finite and >= 0"),
            ("lr", self.lr > 0.0, "finite and > 0"),
            ("epochs_pretrain", self.epochs_pretrain >= 0, ">= 0"),
            ("epochs_finetune", self.epochs_finetune >= 0, ">= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("negatives_per_positive", self.negatives_per_positive >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("ta_layers", self.ta_layers >= 1, ">= 1"),
            ("aux_encoder_layers", self.aux_encoder_layers >= 1, ">= 1"),
            ("quantization_bins", self.quantization_bins >= 2, ">= 2"),
            ("uniformity_weight", self.uniformity_weight >= 0.0, "finite and >= 0"),
            ("adam_beta1", 0.0 <= self.adam_beta1 < 1.0, "in [0, 1)"),
            ("adam_beta2", 0.0 <= self.adam_beta2 < 1.0, "in [0, 1)"),
            ("adam_epsilon", self.adam_epsilon > 0.0, "finite and > 0"),
        )
        for name, ok, rule in rules:
            value = getattr(self, name)
            if not (ok and math.isfinite(value)):
                raise ValueError(f"{name} must be {rule}, got {value}")
        check_eval_ks(self.eval_ks)
        return self

    def fingerprint(self) -> str:
        """Stable hash of the full configuration, stored in checkpoints."""
        payload = {}
        for key, value in asdict(self).items():
            if isinstance(value, Enum):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            payload[key] = value
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()
