import argparse
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import taskhg.cli
import taskhg.protocols
import taskhg.train
from taskhg.cli import _config_from, build_parser, main
from taskhg.config import LossKind, TAVariant, TrainConfig
from taskhg.io import (
    _HEADER,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from taskhg.model import EmbeddingTable

TRAIN_FLAGS = [
    "--dim", "8", "--epochs-pretrain", "3", "--epochs-finetune", "3",
]


def run_cli(args):
    return main(list(args))


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(blas=None):
    """This process's environment for a child that imports the package
    under test; with `blas`, the BLAS variables are exactly those given."""
    src = str(Path(taskhg.__file__).resolve().parents[1])
    env = dict(os.environ)
    if blas is not None:
        env = {k: v for k, v in env.items() if k not in BLAS_VARS} | blas
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def run_cli_process(args, blas=None):
    """`python -m taskhg.cli` in a child that imports the package under test."""
    return subprocess.run(
        [sys.executable, "-m", "taskhg.cli", *args], env=child_env(blas), capture_output=True
    )


def write_interactions(tmp_path, edges):
    """A dataset directory holding only `edges` as its interactions file."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "interactions.tsv").write_text("".join(f"{u}\t{i}\n" for u, i in edges))
    (data / "manifest.json").write_text(
        json.dumps({"version": 1, "interactions": "interactions.tsv"})
    )
    return data


def refuse_to_train(*args, **kwargs):
    raise AssertionError("pretrain ran")


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    code = run_cli(["synth", "--out", str(out), "--users", "40", "--items", "20",
                    "--blocks", "4", "--noise", "0.1", "--seed", "5",
                    "--interactions-per-user", "4"])
    assert code == 0
    return out


def continuous_copy(synth_dir, tmp_path, fields):
    """A copy of the dataset whose item_block task is continuous, updated by `fields`."""
    data = tmp_path / "continuous"
    shutil.copytree(synth_dir, data)
    blocks = data / "item_blocks.tsv"
    blocks.write_text(blocks.read_text().replace("block_", ""))
    manifest = json.loads((data / "manifest.json").read_text())
    task = next(t for t in manifest["tasks"] if t["id"] == "item_block")
    task.update({"value_kind": "continuous", **fields})
    (data / "manifest.json").write_text(json.dumps(manifest))
    return data


class TestPipeline:
    def test_full_pipeline(self, synth_dir, tmp_path):
        ckpt = tmp_path / "pre.ckpt"
        code = run_cli(["pretrain", "--data", str(synth_dir), "--seed", "3",
                        "--out", str(ckpt), *TRAIN_FLAGS])
        assert code == 0 and ckpt.exists()
        ckpt2 = tmp_path / "fine.ckpt"
        code = run_cli(["finetune", "--data", str(synth_dir), "--seed", "3",
                        "--checkpoint", str(ckpt), "--out", str(ckpt2), *TRAIN_FLAGS])
        assert code == 0 and ckpt2.exists()
        report = tmp_path / "report.tsv"
        code = run_cli(["evaluate", "--data", str(synth_dir),
                        "--checkpoint", str(ckpt2), "--report", str(report)])
        assert code == 0
        lines = report.read_text().strip().splitlines()
        assert any(line.startswith("overall/recall@10\t") for line in lines)

    def test_identical_seeds_byte_identical_reports(self, synth_dir, tmp_path):
        reports = []
        for tag in ("a", "b"):
            ckpt = tmp_path / f"{tag}.ckpt"
            ckpt2 = tmp_path / f"{tag}2.ckpt"
            report = tmp_path / f"{tag}.tsv"
            assert run_cli(["pretrain", "--data", str(synth_dir), "--seed", "9",
                            "--out", str(ckpt), *TRAIN_FLAGS]) == 0
            assert run_cli(["finetune", "--data", str(synth_dir), "--seed", "9",
                            "--checkpoint", str(ckpt), "--out", str(ckpt2),
                            *TRAIN_FLAGS]) == 0
            assert run_cli(["evaluate", "--data", str(synth_dir),
                            "--checkpoint", str(ckpt2), "--report", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_checkpoints_byte_identical_across_runs(self, synth_dir, tmp_path):
        blobs = []
        for tag in ("x", "y"):
            ckpt = tmp_path / f"{tag}.ckpt"
            assert run_cli(["pretrain", "--data", str(synth_dir), "--seed", "4",
                            "--out", str(ckpt), *TRAIN_FLAGS]) == 0
            blobs.append(ckpt.read_bytes())
        assert blobs[0] == blobs[1]

    def test_checkpoints_byte_identical_across_processes(self, synth_dir, tmp_path):
        blobs = []
        for tag in ("p", "q"):
            ckpt = tmp_path / f"{tag}.ckpt"
            proc = run_cli_process(["pretrain", "--data", str(synth_dir), "--seed", "4",
                                    "--out", str(ckpt), *TRAIN_FLAGS])
            assert proc.returncode == 0, proc.stderr
            blobs.append(ckpt.read_bytes())
        assert blobs[0] == blobs[1]

    def test_ablate_emits_both_grids(self, synth_dir, tmp_path):
        report = tmp_path / "ablate.tsv"
        code = run_cli(["ablate", "--data", str(synth_dir), "--seed", "2",
                        "--report", str(report), "--dim", "8",
                        "--epochs-pretrain", "2", "--epochs-finetune", "2"])
        assert code == 0
        text = report.read_text()
        ta_rows = {line.split("/")[1] for line in text.splitlines()
                   if line.startswith("ta/")}
        loss_rows = {line.split("/")[1] for line in text.splitlines()
                     if line.startswith("loss/")}
        assert ta_rows == {"ta=full", "ta=no_ta", "ta=sum", "ta=concat"}
        assert len(loss_rows) == 10

    def test_variant_flags_accepted(self, synth_dir, tmp_path):
        ckpt = tmp_path / "variant.ckpt"
        code = run_cli(["pretrain", "--data", str(synth_dir), "--seed", "3",
                        "--out", str(ckpt), "--ta-variant", "concat",
                        "--non-unified-attributes", *TRAIN_FLAGS])
        assert code == 0 and ckpt.exists()

    def test_coldstart_reports_both_variants(self, synth_dir, tmp_path):
        report = tmp_path / "cold.tsv"
        code = run_cli(["coldstart", "--data", str(synth_dir), "--seed", "2",
                        "--ratio", "0.2", "--report", str(report), "--dim", "8",
                        "--epochs-pretrain", "2", "--epochs-finetune", "2"])
        assert code == 0
        text = report.read_text()
        assert "full/recall@10\t" in text
        assert "no_auxiliary/recall@10\t" in text
        assert "meta/cold_start_ratio\t0.2" in text

    @pytest.mark.parametrize("extra, skipped", [("", 0), ("0\t\n", 1), ("0\t\n1\t,\n", 2)])
    def test_skipped_relation_records_are_printed_when_any(self, synth_dir, tmp_path, extra,
                                                          skipped, capsys):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        with open(data / "item_partners.tsv", "a") as f:
            f.write(extra)
        code = run_cli(["pretrain", "--data", str(data), "--seed", "1",
                        "--out", str(tmp_path / "c.bin"), "--epochs-pretrain", "0"])
        assert code == 0
        stats = [line for line in capsys.readouterr().err.splitlines() if line.startswith("# ")]
        assert len(stats) == 6 + bool(skipped)
        if skipped:
            assert stats[-1] == f"# skipped relations  {skipped}"
        assert len({line.rindex(" ") for line in stats}) == 1  # one value column


class TestExitCodes:
    def test_usage_error_is_one(self):
        proc = run_cli_process(["pretrain", "--data", "/tmp/x"])
        assert proc.returncode == 1  # --seed and --out missing

    def test_unknown_command_is_one(self):
        proc = run_cli_process(["frobnicate"])
        assert proc.returncode == 1

    def test_data_error_is_two(self, tmp_path):
        code = run_cli(["pretrain", "--data", str(tmp_path), "--seed", "1",
                        "--out", str(tmp_path / "c.bin")])
        assert code == 2

    def test_bad_flag_value_is_one(self, synth_dir, tmp_path):
        code = run_cli(["pretrain", "--data", str(synth_dir), "--seed", "1",
                        "--beta", "1.5", "--out", str(tmp_path / "c.bin")])
        assert code == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--gamma", "inf"],
            ["--lr", "-1"],
            ["--lambda-reg", "-5"],
            ["--uniformity-weight", "nan", "--pretrain-loss", "au"],
            ["--quantization-bins", "1"],
            # No training step runs, so only the config check can reject it.
            ["--gamma", "inf", "--epochs-pretrain", "0"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_bad_config_value_is_one(self, synth_dir, tmp_path, flags, capsys):
        code = run_cli(["pretrain", "--data", str(synth_dir), "--seed", "1",
                        "--out", str(tmp_path / "c.bin"), *flags])
        assert code == 1
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "c.bin").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--blocks", "0"], "num_blocks must be >= 1, got 0"),
            (["--blocks", "-2"], "num_blocks must be >= 1, got -2"),
            (["--users", "-10"], "num_users must be >= 1, got -10"),
            (["--relation-partners", "-1"], "relation_partners must be >= 0, got -1"),
            (["--interactions-per-user", "0"], "interactions_per_user must be >= 1, got 0"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
            (["--blocks", "3", "--users", "10"], "num_blocks (3) must divide"),
        ],
        ids=["blocks 0", "blocks -2", "users -10", "relation-partners -1",
             "interactions-per-user 0", "seed -1", "blocks 3 users 10"],
    )
    def test_bad_synth_value_is_one(self, tmp_path, flags, named, capsys):
        out = tmp_path / "synth"
        code = run_cli(["synth", "--out", str(out), "--seed", "5", *flags])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named}")
        # The values are checked before the output directory is made.
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [(["--seed", "-5"], "seed must be >= 0, got -5"),
         (["--split-seed", "-1"], "split seed must be >= 0, got -1")],
        ids=["seed -5", "split-seed -1"],
    )
    def test_negative_seed_is_one(self, synth_dir, tmp_path, flags, named, capsys):
        code = run_cli(["pretrain", "--data", str(synth_dir), "--seed", "1",
                        "--out", str(tmp_path / "c.bin"), *TRAIN_FLAGS, *flags])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {named}"
        assert not (tmp_path / "c.bin").exists()

    def test_bad_train_fraction_is_one(self, synth_dir, tmp_path):
        code = run_cli(["pretrain", "--data", str(synth_dir), "--seed", "1",
                        "--train-fraction", "1.0", "--out", str(tmp_path / "c.bin")])
        assert code == 1

    def test_divergent_run_is_three(self, synth_dir, tmp_path, capsys):
        # An absurd learning rate overflows the embeddings quickly. The
        # finiteness checks report it; NumPy's overflow warnings, which
        # this suite raises as errors, stay silent on both threads.
        code = run_cli(["pretrain", "--data", str(synth_dir), "--seed", "1",
                        "--lr", "1e300", "--epochs-pretrain", "30",
                        "--out", str(tmp_path / "c.bin"), "--dim", "8"])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: non-finite loss or gradient at pretrain epoch ")
        assert not [line for line in err if "RuntimeWarning" in line]

    def test_out_of_memory_is_one_line(self, synth_dir, tmp_path, monkeypatch, capsys):
        message = ("Unable to allocate 149. GiB for an array with shape "
                   "(200, 100000000) and data type float64")

        def init_embeddings(*args):
            raise MemoryError(message)

        monkeypatch.setattr(taskhg.train, "init_embeddings", init_embeddings)
        code = run_cli(["pretrain", "--data", str(synth_dir), "--seed", "7",
                        "--dim", "100000000", "--epochs-pretrain", "1",
                        "--out", str(tmp_path / "c.bin")])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: out of memory: {message}"
        assert not (tmp_path / "c.bin").exists()

    @pytest.mark.parametrize(
        "fields",
        [
            {"bins": "five"},
            {"bins": 1},
            {"bins": True},
            {"bins": 2.5},
            {"bins": 0},
            {"value_kind": "ordinal"},
        ],
        ids=lambda fields: json.dumps(fields),
    )
    def test_bad_manifest_value_is_two(self, synth_dir, tmp_path, fields, capsys):
        data = continuous_copy(synth_dir, tmp_path, fields)
        code = run_cli(["pretrain", "--data", str(data), "--seed", "1",
                        "--out", str(tmp_path / "c.bin"), "--epochs-pretrain", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'item_block'" in err and repr(*fields.values()) in err
        assert not (tmp_path / "c.bin").exists()

    @pytest.mark.parametrize(
        "manifest, key",
        [
            ('{"version": 1, "interactions": "i.tsv", "tasks": ["x"]}', "'tasks'"),
            ('{"version": 1, "interactions": "i.tsv", "tasks": 5}', "'tasks'"),
            ('{"version": 1, "interactions": "i.tsv", "tasks": [{"id": ["a"], '
             '"kind": "attribute", "side": "items", "path": "a.tsv"}]}', "'id'"),
            ('{"version": 1, "interactions": "i.tsv", "tasks": [{"id": "a", '
             '"kind": "attribute", "side": "items", "path": 5}]}', "'path'"),
            ('{"version": 1, "interactions": 5}', "'interactions'"),
            ("5", "JSON object"),
        ],
        ids=["task-not-object", "tasks-not-list", "id-not-string", "path-not-string",
             "interactions-not-string", "manifest-not-object"],
    )
    def test_manifest_of_wrong_json_type_is_two(self, tmp_path, manifest, key, capsys):
        (tmp_path / "manifest.json").write_text(manifest)
        code = run_cli(["pretrain", "--data", str(tmp_path), "--seed", "1",
                        "--out", str(tmp_path / "c.bin"), "--epochs-pretrain", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and key in err.splitlines()[-1]

    @pytest.mark.parametrize("name", ["interactions.tsv", "manifest.json"])
    def test_file_that_is_not_utf8_is_two_and_named(self, synth_dir, tmp_path, name, capsys):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        with open(data / name, "ab") as f:
            f.write(b"\xff\xfe\t1\n")
        code = run_cli(["pretrain", "--data", str(data), "--seed", "1",
                        "--out", str(tmp_path / "c.bin"), "--epochs-pretrain", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(data / name) in err.splitlines()[-1] and "utf-8" in err

    @pytest.mark.parametrize("fields", [{}, {"bins": None}, {"bins": 2}], ids=json.dumps)
    def test_good_manifest_bins_are_accepted(self, synth_dir, tmp_path, fields):
        data = continuous_copy(synth_dir, tmp_path, fields)
        code = run_cli(["pretrain", "--data", str(data), "--seed", "1",
                        "--out", str(tmp_path / "c.bin"), "--epochs-pretrain", "0"])
        assert code == 0

    @pytest.mark.parametrize(
        "fields",
        [{"value_kind": "continuous", "bins": 3}, {"bins": 3}, {"value_kind": "categorical"}],
        ids=json.dumps,
    )
    def test_value_kind_or_bins_on_a_relation_task_is_two(self, synth_dir, tmp_path, fields,
                                                          capsys):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        next(t for t in manifest["tasks"] if t["id"] == "item_partners").update(fields)
        (data / "manifest.json").write_text(json.dumps(manifest))
        code = run_cli(["pretrain", "--data", str(data), "--seed", "1",
                        "--out", str(tmp_path / "c.bin"), "--epochs-pretrain", "0"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: task 'item_partners': a relation task takes no {' or '.join(fields)}"
        ]
        assert not (tmp_path / "c.bin").exists()

    def test_finetune_dim_differing_from_checkpoint_is_one(self, synth_dir, tmp_path, capsys):
        ckpt = tmp_path / "pre.ckpt"
        assert run_cli(["pretrain", "--data", str(synth_dir), "--seed", "3",
                        "--out", str(ckpt), *TRAIN_FLAGS]) == 0
        code = run_cli(["finetune", "--data", str(synth_dir), "--seed", "3",
                        "--checkpoint", str(ckpt), "--out", str(tmp_path / "fine.ckpt"),
                        "--dim", "16", "--epochs-finetune", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--dim 16" in err and "dim 8" in err
        assert not (tmp_path / "fine.ckpt").exists()

    def test_finetune_without_dim_uses_checkpoint_dim(self, synth_dir, tmp_path):
        ckpt = tmp_path / "pre.ckpt"
        fine = tmp_path / "fine.ckpt"
        assert run_cli(["pretrain", "--data", str(synth_dir), "--seed", "3",
                        "--out", str(ckpt), *TRAIN_FLAGS]) == 0
        assert run_cli(["finetune", "--data", str(synth_dir), "--seed", "3",
                        "--checkpoint", str(ckpt), "--out", str(fine),
                        "--epochs-finetune", "1"]) == 0
        assert load_checkpoint(fine).dim == 8

    @pytest.mark.parametrize(
        "ks, named",
        [("0", "(0,)"), ("-5", "(-5,)"), ("20,10", "(20, 10)"), ("a", "'a'"),
         ("10,10,20", "(10, 10, 20)"), ("10,", "'10,'"), (",10", "',10'"),
         ("10,,20", "'10,,20'")],
    )
    def test_bad_ks_is_one(self, synth_dir, tmp_path, ks, named, capsys):
        ckpt = tmp_path / "pre.ckpt"
        assert run_cli(["pretrain", "--data", str(synth_dir), "--seed", "3",
                        "--out", str(ckpt), *TRAIN_FLAGS]) == 0
        capsys.readouterr()
        report = tmp_path / "report.tsv"
        code = run_cli(["evaluate", "--data", str(synth_dir), "--checkpoint", str(ckpt),
                        "--ks", ks, "--report", str(report)])
        assert code == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: ") and named in last
        assert not report.exists()
        code = run_cli(["pretrain", "--data", str(synth_dir), "--seed", "3", "--ks", ks,
                        "--out", str(tmp_path / "c.bin"), *TRAIN_FLAGS])
        assert code == 1
        assert not (tmp_path / "c.bin").exists()

    def test_bad_ks_is_checked_before_any_file_is_read(self, synth_dir, tmp_path, capsys):
        code = run_cli(["evaluate", "--data", str(synth_dir),
                        "--checkpoint", str(tmp_path / "missing.ckpt"), "--ks", "0",
                        "--report", str(tmp_path / "report.tsv")])
        assert code == 1
        captured = capsys.readouterr()
        # One error line naming the cutoff: no dataset statistics, no checkpoint error.
        assert captured.err.splitlines() == [
            "error: eval_ks must be non-empty, each >= 1 and strictly ascending, got (0,)"
        ]
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["finetune", "evaluate"])
    def test_checkpoint_of_another_shape_is_two(self, synth_dir, tmp_path, command, capsys):
        ckpt = tmp_path / "pre.ckpt"
        assert run_cli(["pretrain", "--data", str(synth_dir), "--seed", "3",
                        "--out", str(ckpt), *TRAIN_FLAGS]) == 0
        other = tmp_path / "other"
        assert run_cli(["synth", "--out", str(other), "--users", "48", "--items", "24",
                        "--blocks", "4", "--seed", "5"]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        flags = {"finetune": ["--seed", "3", "--out", str(out), "--epochs-finetune", "1"],
                 "evaluate": ["--report", str(out)]}[command]
        code = run_cli([command, "--data", str(other), "--checkpoint", str(ckpt), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert "40 users x 20 items" in err and "48 users x 24 items" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["finetune", "evaluate"])
    def test_checkpoint_header_of_dim_zero_is_two(self, synth_dir, tmp_path, command, capsys):
        ckpt = tmp_path / "zero.ckpt"
        ckpt.write_bytes(CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION])
                         + _HEADER.pack(0, 40, 20, 3, bytes(32)))
        out = tmp_path / "out"
        flags = {"finetune": ["--seed", "3", "--out", str(out), "--epochs-finetune", "1"],
                 "evaluate": ["--report", str(out)]}[command]
        code = run_cli([command, "--data", str(synth_dir), "--checkpoint", str(ckpt), *flags])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ckpt}: header dim must be >= 1, got 0"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["finetune", "evaluate"])
    def test_checkpoint_holding_nan_is_two(self, synth_dir, tmp_path, command, capsys):
        ckpt = tmp_path / "pre.ckpt"
        assert run_cli(["pretrain", "--data", str(synth_dir), "--seed", "3",
                        "--out", str(ckpt), *TRAIN_FLAGS]) == 0
        blob = bytearray(ckpt.read_bytes())
        blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()  # the last item's last cell
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        out = tmp_path / "out"
        flags = {"finetune": ["--seed", "3", "--out", str(out), "--epochs-finetune", "1"],
                 "evaluate": ["--report", str(out)]}[command]
        code = run_cli([command, "--data", str(synth_dir), "--checkpoint", str(ckpt), *flags])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ckpt}: item row 19 holds a non-finite value"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "ablate", "coldstart"])
    def test_split_without_test_edges_is_two_before_training(self, tmp_path, command,
                                                             monkeypatch, capsys):
        # Every user has one interaction, and a split never holds that out.
        data = write_interactions(tmp_path, [(0, 0), (1, 1), (2, 0), (3, 1)])
        ckpt = tmp_path / "pre.ckpt"
        save_checkpoint(EmbeddingTable(np.ones((4, 2)), np.ones((2, 2))), TrainConfig(dim=2), ckpt)
        monkeypatch.setattr(taskhg.protocols, "pretrain", refuse_to_train)
        report = tmp_path / "report.tsv"
        flags = {"evaluate": ["--checkpoint", str(ckpt)],
                 "ablate": ["--seed", "1"],
                 "coldstart": ["--seed", "1", "--ratio", "0.5"]}[command]
        code = run_cli([command, "--data", str(data), "--report", str(report), *flags])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: the dataset has no test edges to evaluate; "
            "a split never holds out a user's only interaction"
        )
        assert not report.exists()

    @pytest.mark.parametrize("command, flag", [("pretrain", "--out"), ("ablate", "--report")])
    def test_output_in_a_missing_directory_is_two_before_any_work(
        self, synth_dir, tmp_path, command, flag, monkeypatch, capsys
    ):
        def refuse_to_load(*args, **kwargs):
            raise AssertionError("the dataset was loaded")

        monkeypatch.setattr(taskhg.cli, "load_dataset", refuse_to_load)
        monkeypatch.setattr(taskhg.cli, "pretrain", refuse_to_train)
        monkeypatch.setattr(taskhg.protocols, "pretrain", refuse_to_train)
        out = tmp_path / "missing" / "out.bin"
        code = run_cli([command, "--data", str(synth_dir), "--seed", "1", flag, str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {flag} {out}: directory {out.parent} does not exist"
        ]
        assert not out.parent.exists()

    def test_coldstart_without_an_evaluable_cold_user_is_two_before_training(
        self, tmp_path, monkeypatch, capsys
    ):
        # Only user 0 has more than one interaction, so only user 0 can hold a
        # test edge; under seed 1 the one cold user is user 8.
        data = write_interactions(tmp_path, [(0, 0), (0, 1), (0, 2)]
                                  + [(u, u % 3) for u in range(1, 10)])
        monkeypatch.setattr(taskhg.protocols, "pretrain", refuse_to_train)
        report = tmp_path / "cold.tsv"
        code = run_cli(["coldstart", "--data", str(data), "--seed", "1", "--ratio", "0.1",
                        "--report", str(report)])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: ratio 0.1 leaves no cold user with both a train edge to withhold "
            "and a test edge to evaluate (1 cold users)"
        )
        assert not report.exists()

    def test_help_is_zero(self):
        proc = run_cli_process(["--help"])
        assert proc.returncode == 0


DATA_FLAGS = {"-h", "--help", "--data", "--manifest", "--train-fraction", "--split-seed"}
# The training flags as written out by hand before they were generated from
# TrainConfig; every field but seed and the Adam constants has one.
CONFIG_FLAGS = {
    "--dim", "--gamma", "--beta", "--lambda-reg", "--lr", "--epochs-pretrain",
    "--epochs-finetune", "--batch-size", "--negatives-per-positive", "--pretrain-loss",
    "--finetune-loss", "--ta-layers", "--aux-encoder-layers", "--ks", "--quantization-bins",
    "--ta-variant", "--non-unified-attributes", "--uniformity-weight",
}
COMMAND_FLAGS = {
    "pretrain": {"--seed", "--out"},
    "finetune": {"--seed", "--checkpoint", "--out"},
    "ablate": {"--seed", "--report", "--format"},
    "coldstart": {"--seed", "--ratio", "--report", "--format"},
}


def subparser(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


class TestGeneratedFlags:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_option_strings_are_unchanged(self, command):
        options = {s for a in subparser(command)._actions for s in a.option_strings}
        assert options == DATA_FLAGS | CONFIG_FLAGS | COMMAND_FLAGS[command]

    def test_every_field_has_a_flag(self):
        # seed's flag is the command's own required --seed.
        dests = {a.dest for a in subparser("pretrain")._actions}
        assert {f.name for f in fields(TrainConfig)} <= dests

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_no_config_flags_give_the_default_config(self, command):
        required = {"pretrain": ["--out", "o"], "finetune": ["--checkpoint", "c", "--out", "o"],
                    "ablate": ["--report", "r"], "coldstart": ["--ratio", "0.2", "--report", "r"]}
        args = build_parser().parse_args(
            [command, "--data", "d", "--seed", "5", *required[command]]
        )
        assert _config_from(args) == TrainConfig(seed=5)

    def test_every_flag_sets_its_field(self):
        args = build_parser().parse_args([
            "pretrain", "--data", "d", "--seed", "5", "--out", "o",
            "--dim", "16", "--gamma", "0.25", "--beta", "0.75", "--lambda-reg", "0.001",
            "--lr", "0.5", "--epochs-pretrain", "3", "--epochs-finetune", "4",
            "--batch-size", "32", "--negatives-per-positive", "2", "--pretrain-loss", "au",
            "--finetune-loss", "bpr_pos", "--ta-layers", "2", "--aux-encoder-layers", "3",
            "--ks", "5,50", "--quantization-bins", "7", "--ta-variant", "concat",
            "--non-unified-attributes", "--uniformity-weight", "0.5",
        ])
        assert _config_from(args) == TrainConfig(
            dim=16, gamma=0.25, beta=0.75, lambda_reg=0.001, lr=0.5, epochs_pretrain=3,
            epochs_finetune=4, batch_size=32, negatives_per_positive=2, seed=5,
            pretrain_loss=LossKind.AU, finetune_loss=LossKind.BPR_POS, ta_layers=2,
            aux_encoder_layers=3, eval_ks=(5, 50), quantization_bins=7,
            ta_variant=TAVariant.CONCAT, unified_attributes=False, uniformity_weight=0.5,
        )


class TestBlasThreads:
    def run_python(self, code, blas):
        return subprocess.run([sys.executable, "-c", code], env=child_env(blas),
                              capture_output=True, text=True, timeout=60, check=True).stdout

    def test_importing_the_package_loads_no_numpy(self):
        # So the command can set the BLAS variables before NumPy reads them;
        # the root's `evaluate` stays the function after the submodule loads.
        out = self.run_python(
            "import sys, types, taskhg; print('numpy' in sys.modules); "
            "import taskhg.cli; from taskhg import evaluate; "
            "print(isinstance(evaluate, types.FunctionType), taskhg.pretrain.__module__)",
            {},
        )
        assert out.split() == ["False", "True", "taskhg.train"]

    @pytest.mark.parametrize("blas, want", [({}, "1 1 1"), ({"OMP_NUM_THREADS": "3"}, "1 3 1")])
    def test_the_command_pins_blas_to_one_thread_unless_set(self, blas, want):
        code = f"import os, taskhg.cli; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
        assert self.run_python(code, blas).strip() == want

    def test_the_demo_au_checkpoint_is_the_same_with_blas_unset_and_pinned(self, tmp_path):
        # `au` pretraining's bits depend on the BLAS thread count (README),
        # so an unset environment must take the pinned count.
        data = tmp_path / "demo"
        synth = ["synth", "--out", str(data), "--users", "200", "--items", "100",
                 "--blocks", "4", "--noise", "0.05", "--seed", "7"]
        assert run_cli_process(synth).returncode == 0
        blobs = []
        for name, blas in (("unset", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / f"{name}.ckpt"
            proc = run_cli_process(["pretrain", "--data", str(data), "--seed", "7",
                                    "--pretrain-loss", "au", "--out", str(out)], blas)
            assert proc.returncode == 0, proc.stderr.decode()
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
