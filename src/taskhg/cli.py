"""Command-line interface.

Subcommands: synth, pretrain, finetune, evaluate, ablate, coldstart.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical divergence.
Identical commands with identical seeds write byte-identical reports and
checkpoints at a fixed BLAS thread count: one, unless OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS sets another; across thread counts,
`au` pretraining can differ in the last bits.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from dataclasses import fields, replace
from enum import Enum

# One BLAS thread unless the user chose a count: the step pool is the
# command's parallelism, and a BLAS pool beside it made every benchmark
# workload slower. Set before NumPy loads (the package root loads none).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from .config import TrainConfig, check_eval_ks
from .errors import DataError, DivergenceError
from .evaluate import evaluate
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


# Every TrainConfig field has a flag but seed, which each command declares itself.
_FLAG_FIELDS = [f for f in fields(TrainConfig) if f.name != "seed"]
_DEFAULT_KS = ",".join(str(k) for k in TrainConfig().eval_ks)


def _add_config_flags(p: argparse.ArgumentParser):
    """One flag per field of _FLAG_FIELDS, whose dest is the field's name.

    The flag is the field's name, but for --ks and --non-unified-attributes.
    """
    for f in _FLAG_FIELDS:
        flag = "--" + f.name.replace("_", "-")
        if f.name == "eval_ks":
            p.add_argument("--ks", dest=f.name, metavar="KS", default=_DEFAULT_KS,
                           help="comma-separated evaluation cutoffs")
        elif f.name == "unified_attributes":
            p.add_argument("--non-unified-attributes", dest=f.name, action="store_false",
                           help="predict attributes through a linear+softmax head"
                                " instead of hyperedge ranking")
        elif isinstance(f.default, Enum):
            p.add_argument(flag, choices=[v.value for v in type(f.default)],
                           default=f.default.value)
        else:
            # None lets finetune tell an explicit --dim from the checkpoint's value.
            p.add_argument(flag, type=type(f.default),
                           default=None if f.name == "dim" else f.default)


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--manifest", default="manifest.json")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--split-seed", type=int, default=0)


def _add_seed_flag(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, required=True)


def _add_report_flags(p: argparse.ArgumentParser):
    p.add_argument("--report", required=True)
    p.add_argument("--format", choices=["table", "machine"], default="machine")


def _training_parser(sub, name: str, summary: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    _add_data_flags(p)
    _add_config_flags(p)
    _add_seed_flag(p)
    p.set_defaults(trains=True)
    return p


def _parse_ks(text: str) -> tuple:
    """The comma-separated --ks cutoffs; ValueError names a bad one, or the whole value."""
    pieces = text.split(",")
    if "" in pieces:
        raise ValueError(f"--ks has an empty cutoff: {text!r}")
    return check_eval_ks(int(k) for k in pieces)


def _config_from(args) -> TrainConfig:
    cfg = TrainConfig(
        seed=args.seed,
        **{
            f.name: _parse_ks(value) if f.name == "eval_ks" else type(f.default)(value)
            for f in _FLAG_FIELDS
            if (value := getattr(args, f.name)) is not None
        },
    )
    cfg.validate()
    return cfg


def _check_output_dir(flag: str, path: str):
    """Refuse, before any data is read, an output whose directory is missing."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"{flag} {path}: directory {directory} does not exist")


def _load(args):
    dataset, stats = load_dataset(
        args.data, args.manifest, train_fraction=args.train_fraction, split_seed=args.split_seed
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


def _save(args, stage: str, result, cfg: TrainConfig) -> int:
    """Write the trained table to --out and print the stage's summary."""
    save_checkpoint(result.table, cfg, args.out)
    if result.log.epoch_losses:
        print(f"{stage}: {len(result.log.epoch_losses)} epochs, "
              f"final loss {result.log.epoch_losses[-1]:.6f}")
    print(f"saved checkpoint to {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _config_from(args)
    _check_output_dir("--out", args.out)
    dataset = _load(args)
    return _save(args, "pretrain", pretrain(dataset, cfg), cfg)


def _cmd_finetune(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if args.dim is not None and args.dim != ckpt.dim:
        raise ValueError(f"--dim {args.dim} differs from the checkpoint's dim {ckpt.dim}")
    cfg = replace(_config_from(args), dim=ckpt.dim)
    _check_output_dir("--out", args.out)
    dataset = _load(args)
    return _save(args, "finetune", finetune(ckpt.to_table(), dataset, cfg), cfg)


def _write_report(args, report) -> int:
    """Write the report in --format to --report and print it as a table."""
    emit_report(report, args.format, args.report)
    print(format_report(report, "table"), end="")
    return 0


def _cmd_evaluate(args) -> int:
    ks = _parse_ks(args.ks)
    ckpt = load_checkpoint(args.checkpoint)
    _check_output_dir("--report", args.report)
    dataset = _load(args)
    return _write_report(args, evaluate(ckpt.to_table(), dataset, ks, seed=ckpt.seed))


def _cmd_ablate(args) -> int:
    cfg = _config_from(args)
    _check_output_dir("--report", args.report)
    dataset = _load(args)
    return _write_report(args, run_ablation(dataset, cfg))


def _cmd_coldstart(args) -> int:
    cfg = _config_from(args)
    _check_output_dir("--report", args.report)
    dataset = _load(args)
    return _write_report(args, cold_start_eval(dataset, cfg, args.ratio))


def build_parser() -> _Parser:
    parser = _Parser(prog="taskhg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted block-model dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--items", type=int, default=100)
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.05)
    _add_seed_flag(p)
    p.add_argument("--interactions-per-user", type=int, default=2)
    p.add_argument("--relation-partners", type=int, default=2)
    p.set_defaults(func=_cmd_synth)

    p = _training_parser(sub, "pretrain", "multitask pretraining")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=_cmd_pretrain)

    p = _training_parser(sub, "finetune", "downstream finetuning from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("evaluate", help="top-K evaluation of a checkpoint")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ks", default=_DEFAULT_KS)
    _add_report_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = _training_parser(sub, "ablate", "TA-variant and loss-combination grids")
    _add_report_flags(p)
    p.set_defaults(func=_cmd_ablate)

    p = _training_parser(sub, "coldstart", "inductive-user protocol")
    p.add_argument("--ratio", type=float, required=True)
    _add_report_flags(p)
    p.set_defaults(func=_cmd_coldstart)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A diverging run overflows before the finiteness checks stop it (exit
    # 3); NumPy's warnings would only repeat that, ahead of the error line.
    quiet = np.errstate(over="ignore", invalid="ignore")
    try:
        with quiet if getattr(args, "trains", False) else nullcontext():
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
