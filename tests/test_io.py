import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import taskhg
from taskhg.config import TrainConfig
from taskhg.errors import (
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    DataError,
)
from taskhg.evaluate import EvalReport, MetricRow
from taskhg.io import (
    _HEADER,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    emit_report,
    format_report,
    load_checkpoint,
    load_dataset,
    parse_manifest,
    save_checkpoint,
    write_synthetic_dataset,
)
from taskhg.model import EmbeddingTable


def write_dataset(tmp_path, interactions, tasks=(), files=()):
    (tmp_path / "interactions.tsv").write_text(interactions, encoding="utf-8")
    for name, content in files:
        (tmp_path / name).write_text(content, encoding="utf-8")
    manifest = {"version": 1, "interactions": "interactions.tsv", "tasks": list(tasks)}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return tmp_path


class TestManifest:
    def test_missing_version(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"interactions": "x.tsv"}))
        with pytest.raises(DataError, match="version"):
            parse_manifest(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 99, "interactions": "x.tsv"}))
        with pytest.raises(DataError, match="version"):
            parse_manifest(path)

    def test_duplicate_task_ids(self, tmp_path):
        path = tmp_path / "m.json"
        task = {"id": "a", "kind": "attribute", "side": "items", "path": "a.tsv"}
        path.write_text(json.dumps({"version": 1, "interactions": "x.tsv",
                                    "tasks": [task, task]}))
        with pytest.raises(DataError, match="duplicate"):
            parse_manifest(path)

    def test_recommendation_not_declarable(self, tmp_path):
        path = tmp_path / "m.json"
        task = {"id": "r", "kind": "recommendation", "side": "users", "path": "x.tsv"}
        path.write_text(json.dumps({"version": 1, "interactions": "x.tsv", "tasks": [task]}))
        with pytest.raises(DataError, match="implicit"):
            parse_manifest(path)


class TestLoadDataset:
    def test_counts_from_three_line_fixture(self, tmp_path):
        root = write_dataset(tmp_path, "0\t0\n0\t1\n1\t1\n")
        dataset, stats = load_dataset(root, "manifest.json")
        assert (stats.num_users, stats.num_items, stats.num_interactions) == (2, 2, 3)
        assert dataset.num_users == 2 and dataset.num_items == 2
        assert dataset.train_edges == {(0, 0), (0, 1), (1, 1)}
        assert dataset.test_edges == set()

    def test_duplicate_interactions_counted_once(self, tmp_path):
        root = write_dataset(tmp_path, "0\t0\n0\t0\n1\t1\n0\t0\n")
        _, stats = load_dataset(root, "manifest.json")
        assert stats.num_interactions == 2

    def test_malformed_line_reports_location(self, tmp_path):
        root = write_dataset(tmp_path, "0\t0\nbroken line\n")
        with pytest.raises(DataError, match=r"interactions.tsv:2.*broken line"):
            load_dataset(root, "manifest.json")

    def test_empty_attribute_file_rejected(self, tmp_path):
        root = write_dataset(
            tmp_path,
            "0\t0\n",
            tasks=[{"id": "cat", "kind": "attribute", "side": "items", "path": "cat.tsv"}],
            files=[("cat.tsv", "")],
        )
        with pytest.raises(DataError, match="cat.tsv"):
            load_dataset(root, "manifest.json")

    def test_reload_is_idempotent(self, tmp_path):
        root = write_dataset(
            tmp_path,
            "0\t0\n1\t1\n2\t0\n",
            tasks=[{"id": "cat", "kind": "attribute", "side": "items", "path": "cat.tsv"}],
            files=[("cat.tsv", "0\ttoys\n1\tbooks\n")],
        )
        a, stats_a = load_dataset(root, "manifest.json")
        b, stats_b = load_dataset(root, "manifest.json")
        assert a.train_edges == b.train_edges
        assert stats_a == stats_b
        ga = a.auxiliary_tasks[0].graph
        gb = b.auxiliary_tasks[0].graph
        assert np.array_equal(ga.incidence.toarray(), gb.incidence.toarray())

    def test_string_ids_densified_and_persisted(self, tmp_path):
        root = write_dataset(tmp_path, "alice\tshoe\nbob\tshoe\nalice\that\n")
        dataset, stats = load_dataset(root, "manifest.json")
        assert stats.num_users == 2 and stats.num_items == 2
        users_map = (root / "idmap.users.tsv").read_text()
        assert users_map == "alice\t0\nbob\t1\n"
        items_map = (root / "idmap.items.tsv").read_text()
        assert items_map == "hat\t0\nshoe\t1\n"
        assert dataset.train_edges == {(0, 1), (1, 1), (0, 0)}

    def test_second_load_leaves_id_maps_untouched(self, tmp_path):
        root = write_dataset(tmp_path, "alice\tshoe\nbob\tshoe\nalice\that\n")
        load_dataset(root, "manifest.json")
        maps = [root / "idmap.users.tsv", root / "idmap.items.tsv"]
        # An old mtime makes any rewrite visible whatever the clock's grain.
        for path in maps:
            os.utime(path, ns=(1_000_000_000, 1_000_000_000))
        before = sorted(p.name for p in root.iterdir())
        load_dataset(root, "manifest.json")
        assert [p.stat().st_mtime_ns for p in maps] == [1_000_000_000] * 2
        assert sorted(p.name for p in root.iterdir()) == before

    def test_stale_id_map_is_replaced(self, tmp_path):
        root = write_dataset(tmp_path, "alice\tshoe\nbob\tshoe\nalice\that\n")
        (root / "idmap.users.tsv").write_text("carol\t0\n")
        load_dataset(root, "manifest.json")
        assert (root / "idmap.users.tsv").read_text() == "alice\t0\nbob\t1\n"
        assert not [p for p in root.iterdir() if p.name.endswith(".tmp")]

    def test_sparse_int_ids_densified_numerically(self, tmp_path):
        root = write_dataset(tmp_path, "10\t5\n2\t5\n")
        dataset, stats = load_dataset(root, "manifest.json")
        assert stats.num_users == 2 and stats.num_items == 1
        assert (root / "idmap.users.tsv").read_text() == "2\t0\n10\t1\n"

    @pytest.mark.parametrize(
        "last, users_map",
        [("1", "0\t0\n00\t1\n1\t2\n"), ("2", "0\t0\n00\t1\n2\t2\n")],
        ids=["dense-ints", "sparse-ints"],
    )
    def test_non_canonical_int_ids_are_distinct_users(self, tmp_path, last, users_map):
        # "0" and "00" name two users whether or not int() of the ids is dense.
        root = write_dataset(tmp_path, f"0\t0\n00\t0\n{last}\t1\n")
        dataset, stats = load_dataset(root, "manifest.json")
        assert stats.num_users == 3
        assert (root / "idmap.users.tsv").read_text() == users_map
        assert dataset.train_edges == {(0, 0), (1, 0), (2, 1)}

    def test_id_order_does_not_depend_on_the_hash_seed(self, tmp_path):
        # "0" and "00" tie on int(); these two seeds put them in opposite set
        # orders, so an order taken from the set would differ between them.
        root = write_dataset(tmp_path, "0\t0\n00\t0\n2\t1\n")
        script = (
            "import sys; from taskhg.io import load_dataset; "
            "load_dataset(sys.argv[1], 'manifest.json')"
        )
        src = str(Path(taskhg.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        maps = []
        for seed in ("0", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-c", script, str(root)], env=env, check=True)
            maps.append((root / "idmap.users.tsv").read_text())
        assert maps == ["0\t0\n00\t1\n2\t2\n"] * 2

    def test_relation_and_stats_counters(self, tmp_path):
        root = write_dataset(
            tmp_path,
            "0\t0\n0\t1\n1\t2\n",
            tasks=[
                {"id": "cat", "kind": "attribute", "side": "items", "path": "cat.tsv"},
                {"id": "rel", "kind": "relation", "side": "items", "path": "rel.tsv"},
            ],
            files=[
                ("cat.tsv", "0\ta\n1\ta\n2\tb\n"),
                ("rel.tsv", "0\t1,2\n1\t\n2\t0\n"),
            ],
        )
        dataset, stats = load_dataset(root, "manifest.json")
        assert stats.num_auxiliary_tasks == 2
        assert stats.num_node_attributes == 3
        assert stats.num_homogeneous_edges == 2  # one record skipped
        assert stats.relation_records_skipped == 1
        rel = dataset.auxiliary_tasks[1]
        assert rel.graph.num_hyperedges == 2

    def test_continuous_attributes_quantized(self, tmp_path):
        root = write_dataset(
            tmp_path,
            "0\t0\n0\t1\n",
            tasks=[{
                "id": "rating", "kind": "attribute", "side": "items",
                "path": "r.tsv", "value_kind": "continuous", "bins": 2,
            }],
            files=[("r.tsv", "0\t1.0\n1\t5.0\n")],
        )
        dataset, _ = load_dataset(root, "manifest.json")
        task = dataset.auxiliary_tasks[0]
        assert task.graph.num_hyperedges == 2
        assert task.hyperedge_labels == ("bin_0", "bin_1")

    def test_bad_continuous_value_reports_line(self, tmp_path):
        root = write_dataset(
            tmp_path,
            "0\t0\n",
            tasks=[{
                "id": "rating", "kind": "attribute", "side": "items",
                "path": "r.tsv", "value_kind": "continuous",
            }],
            files=[("r.tsv", "0\tnot-a-number\n")],
        )
        with pytest.raises(DataError, match="r.tsv:1"):
            load_dataset(root, "manifest.json")

    def test_split_applied_when_requested(self, tmp_path):
        lines = "".join(f"{u}\t{i}\n" for u in range(5) for i in range(4))
        root = write_dataset(tmp_path, lines)
        dataset, _ = load_dataset(root, "manifest.json", train_fraction=0.8, split_seed=3)
        assert len(dataset.train_edges) == 16
        assert len(dataset.test_edges) == 4


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        table = EmbeddingTable(rng.normal(size=(7, 5)), rng.normal(size=(4, 5)))
        cfg = TrainConfig(dim=5, seed=42)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(table, cfg, path)
        ckpt = load_checkpoint(path)
        assert ckpt.dim == 5 and ckpt.num_users == 7 and ckpt.num_items == 4
        assert ckpt.seed == 42
        assert ckpt.config_fingerprint == cfg.fingerprint()
        assert np.array_equal(ckpt.user_emb, table.user_emb)
        assert np.array_equal(ckpt.item_emb, table.item_emb)
        assert ckpt.user_emb.tobytes() == table.user_emb.tobytes()

    def test_truncated_body(self, tmp_path):
        table = EmbeddingTable(np.ones((2, 3)), np.ones((2, 3)))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(table, TrainConfig(dim=3), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x01" + b"\x00" * 64)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        table = EmbeddingTable(np.ones((1, 1)), np.ones((1, 1)))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(table, TrainConfig(dim=1), path)
        blob = bytearray(path.read_bytes())
        blob[8] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    @pytest.mark.parametrize("dim, seed, named", [(0, 0, "dim must be >= 1, got 0"),
                                                  (1, -3, "seed must be >= 0, got -3")])
    def test_header_out_of_range_rejected(self, tmp_path, dim, seed, named):
        path = tmp_path / "ckpt.bin"
        header = _HEADER.pack(dim, 1, 1, seed, bytes(32))
        path.write_bytes(CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION]) + header + bytes(16 * dim))
        with pytest.raises(CheckpointFormatError, match=named) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("value, block, row", [(np.nan, "item", 3), (-np.inf, "user", 1)])
    def test_non_finite_value_rejected(self, tmp_path, value, block, row):
        table = EmbeddingTable(np.ones((3, 2)), np.ones((4, 2)))
        getattr(table, f"{block}_emb")[row:, 1] = value  # the first bad row is `row`
        path = tmp_path / "ckpt.bin"
        save_checkpoint(table, TrainConfig(dim=2), path)
        with pytest.raises(CheckpointFormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: {block} row {row} holds a non-finite value"

    def test_trailing_garbage_rejected(self, tmp_path):
        table = EmbeddingTable(np.ones((1, 2)), np.ones((1, 2)))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(table, TrainConfig(dim=2), path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)


def sample_report():
    rows = [MetricRow("overall", {10: 0.25, 20: 0.5}, {10: 0.125, 20: 0.25}, 8)]
    return EvalReport(ks=(10, 20), rows=rows, seed=3, epochs_pretrain=2, epochs_finetune=4)


class TestReports:
    def test_table_header_matches_metric_columns(self):
        text = format_report(sample_report(), "table")
        header = text.splitlines()[0].split()
        assert header == ["label", "R@10", "R@20", "N@10", "N@20", "users"]

    def test_machine_and_table_values_agree(self):
        report = sample_report()
        machine = format_report(report, "machine")
        values = dict(line.split("\t") for line in machine.strip().splitlines())
        assert float(values["overall/recall@10"]) == report.rows[0].recall[10]
        assert float(values["overall/ndcg@20"]) == report.rows[0].ndcg[20]
        assert int(values["meta/seed"]) == 3
        table = format_report(report, "table")
        row = table.splitlines()[1].split()
        assert row[1] == f"{report.rows[0].recall[10]:.4f}"
        assert row[3] == f"{report.rows[0].ndcg[10]:.4f}"

    def test_empty_ks_rejected(self):
        report = EvalReport(ks=(), rows=[])
        with pytest.raises(ValueError):
            format_report(report, "machine")

    def test_emit_writes_files(self, tmp_path):
        emit_report(sample_report(), "machine", tmp_path / "r.tsv")
        emit_report(sample_report(), "table", tmp_path / "r.txt")
        assert (tmp_path / "r.tsv").read_text() == format_report(sample_report(), "machine")
        assert (tmp_path / "r.txt").read_text().startswith("label")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            format_report(sample_report(), "xml")


class TestSyntheticWriter:
    def test_written_dataset_loads_with_matching_counts(self, tmp_path):
        out = tmp_path / "synth"
        write_synthetic_dataset(out, 40, 20, 4, 0.1, seed=5)
        dataset, stats = load_dataset(out, "manifest.json", train_fraction=0.8, split_seed=5)
        assert stats.num_users == 40
        assert stats.num_items == 20
        assert stats.num_auxiliary_tasks == 2
        from taskhg.data import generate_synthetic_dataset

        direct = generate_synthetic_dataset(40, 20, 4, 0.1, seed=5)
        assert dataset.train_edges | dataset.test_edges == direct.train_edges | direct.test_edges
