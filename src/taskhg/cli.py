"""Command-line interface.

Subcommands: synth, pretrain, finetune, evaluate, ablate, coldstart.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import LossKind, TAVariant, TrainConfig, check_eval_ks
from .errors import DataError, DivergenceError
from .evaluate import EvalReport, evaluate
from .io import (
    emit_report,
    format_report,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    write_synthetic_dataset,
)
from .protocols import cold_start_eval, run_ablation
from .train import finetune, pretrain


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser):
    defaults = TrainConfig()
    # None lets finetune tell an explicit --dim from the checkpoint's value.
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--gamma", type=float, default=defaults.gamma)
    p.add_argument("--beta", type=float, default=defaults.beta)
    p.add_argument("--lambda-reg", type=float, default=defaults.lambda_reg)
    p.add_argument("--lr", type=float, default=defaults.lr)
    p.add_argument("--epochs-pretrain", type=int, default=defaults.epochs_pretrain)
    p.add_argument("--epochs-finetune", type=int, default=defaults.epochs_finetune)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--negatives-per-positive", type=int, default=defaults.negatives_per_positive)
    p.add_argument(
        "--pretrain-loss",
        choices=[k.value for k in LossKind],
        default=defaults.pretrain_loss.value,
    )
    p.add_argument(
        "--finetune-loss",
        choices=[k.value for k in LossKind],
        default=defaults.finetune_loss.value,
    )
    p.add_argument("--ta-layers", type=int, default=defaults.ta_layers)
    p.add_argument("--aux-encoder-layers", type=int, default=defaults.aux_encoder_layers)
    p.add_argument("--ks", default="10,20", help="comma-separated evaluation cutoffs")
    p.add_argument("--quantization-bins", type=int, default=defaults.quantization_bins)
    p.add_argument(
        "--ta-variant",
        choices=[v.value for v in TAVariant],
        default=defaults.ta_variant.value,
    )
    p.add_argument(
        "--non-unified-attributes",
        action="store_true",
        help="predict attributes through a linear+softmax head instead of hyperedge ranking",
    )
    p.add_argument("--uniformity-weight", type=float, default=defaults.uniformity_weight)


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--manifest", default="manifest.json")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--split-seed", type=int, default=0)


def _parse_ks(text: str) -> tuple:
    """The comma-separated --ks cutoffs; ValueError names a bad one."""
    return check_eval_ks(int(k) for k in text.split(",") if k)


def _config_from(args, seed: int) -> TrainConfig:
    cfg = TrainConfig(
        dim=TrainConfig().dim if args.dim is None else args.dim,
        gamma=args.gamma,
        beta=args.beta,
        lambda_reg=args.lambda_reg,
        lr=args.lr,
        epochs_pretrain=args.epochs_pretrain,
        epochs_finetune=args.epochs_finetune,
        batch_size=args.batch_size,
        negatives_per_positive=args.negatives_per_positive,
        seed=seed,
        pretrain_loss=LossKind(args.pretrain_loss),
        finetune_loss=LossKind(args.finetune_loss),
        ta_layers=args.ta_layers,
        aux_encoder_layers=args.aux_encoder_layers,
        eval_ks=_parse_ks(args.ks),
        quantization_bins=args.quantization_bins,
        ta_variant=TAVariant(args.ta_variant),
        unified_attributes=not args.non_unified_attributes,
        uniformity_weight=args.uniformity_weight,
    )
    cfg.validate()
    return cfg


def _load(args, bins: int):
    dataset, stats = load_dataset(
        args.data,
        args.manifest,
        train_fraction=args.train_fraction,
        split_seed=args.split_seed,
        quantization_bins=bins,
    )
    for line in stats.lines():
        print(line, file=sys.stderr)
    return dataset


def _cmd_synth(args) -> int:
    write_synthetic_dataset(
        args.out,
        num_users=args.users,
        num_items=args.items,
        num_blocks=args.blocks,
        noise=args.noise,
        seed=args.seed,
        interactions_per_user=args.interactions_per_user,
        relation_partners=args.relation_partners,
    )
    print(f"wrote synthetic dataset to {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _config_from(args, args.seed)
    dataset = _load(args, cfg.quantization_bins)
    result = pretrain(dataset, cfg)
    save_checkpoint(result.table, cfg, args.out)
    if result.log.epoch_losses:
        print(f"pretrain: {len(result.log.epoch_losses)} epochs, "
              f"final loss {result.log.epoch_losses[-1]:.6f}")
    print(f"saved checkpoint to {args.out}")
    return 0


def _cmd_finetune(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if args.dim is not None and args.dim != ckpt.dim:
        raise ValueError(f"--dim {args.dim} differs from the checkpoint's dim {ckpt.dim}")
    cfg = replace(_config_from(args, args.seed), dim=ckpt.dim)
    dataset = _load(args, cfg.quantization_bins)
    result = finetune(ckpt.to_table(), dataset, cfg)
    save_checkpoint(result.table, cfg, args.out)
    if result.log.epoch_losses:
        print(f"finetune: {len(result.log.epoch_losses)} epochs, "
              f"final loss {result.log.epoch_losses[-1]:.6f}")
    print(f"saved checkpoint to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    ks = _parse_ks(args.ks)
    ckpt = load_checkpoint(args.checkpoint)
    dataset = _load(args, TrainConfig().quantization_bins)
    report = evaluate(ckpt.to_table(), dataset, ks, seed=ckpt.seed)
    emit_report(report, args.format, args.report)
    print(format_report(report, "table"), end="")
    return 0


def _merged_ablation_report(ablation) -> EvalReport:
    rows = [replace(r, label=f"ta/{r.label}") for r in ablation.ta_variants.rows]
    rows += [replace(r, label=f"loss/{r.label}") for r in ablation.loss_combinations.rows]
    base = ablation.ta_variants
    return EvalReport(
        ks=base.ks,
        rows=rows,
        seed=base.seed,
        epochs_pretrain=base.epochs_pretrain,
        epochs_finetune=base.epochs_finetune,
    )


def _cmd_ablate(args) -> int:
    cfg = _config_from(args, args.seed)
    dataset = _load(args, cfg.quantization_bins)
    merged = _merged_ablation_report(run_ablation(dataset, cfg))
    emit_report(merged, args.format, args.report)
    print(format_report(merged, "table"), end="")
    return 0


def _cmd_coldstart(args) -> int:
    cfg = _config_from(args, args.seed)
    dataset = _load(args, cfg.quantization_bins)
    report = cold_start_eval(dataset, cfg, args.ratio)
    emit_report(report, args.format, args.report)
    print(format_report(report, "table"), end="")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="taskhg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a planted block-model dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--items", type=int, default=100)
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--interactions-per-user", type=int, default=2)
    p.add_argument("--relation-partners", type=int, default=2)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pretrain", help="multitask pretraining")
    _add_data_flags(p)
    _add_config_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="downstream finetuning from a checkpoint")
    _add_data_flags(p)
    _add_config_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("evaluate", help="top-K evaluation of a checkpoint")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ks", default="10,20")
    p.add_argument("--report", required=True)
    p.add_argument("--format", choices=["table", "machine"], default="machine")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ablate", help="TA-variant and loss-combination grids")
    _add_data_flags(p)
    _add_config_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--format", choices=["table", "machine"], default="machine")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("coldstart", help="inductive-user protocol")
    _add_data_flags(p)
    _add_config_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--format", choices=["table", "machine"], default="machine")
    p.set_defaults(func=_cmd_coldstart)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Semantically invalid flag values are usage errors.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # Flags (say, --dim) asked for arrays larger than this machine holds.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
