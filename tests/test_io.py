import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import oracles
import pytest

import taskhg
from taskhg.config import TrainConfig
from taskhg.data import generate_synthetic_dataset
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
from taskhg.tasks import NodeSide


def write_dataset(tmp_path, interactions, tasks=(), files=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
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

    @pytest.mark.parametrize(
        "text, named",
        [
            ("0\tnot-a-number\n", "r.tsv:1: bad continuous value 'not-a-number'"),
            ("0\tinf\n", "r.tsv:1: bad continuous value 'inf'"),
            ("0\t1\n1\t-inf\n", "r.tsv:2: bad continuous value '-inf'"),
            ("0\tnan\n", "r.tsv:1: bad continuous value 'nan'"),
            ("0\t1e400\n", "r.tsv:1: bad continuous value '1e400'"),
            ("\n0\t1\n\n\n1\tinf\n", "r.tsv:5: bad continuous value 'inf'"),
        ],
        ids=["not-a-number", "inf", "minus-inf", "nan", "overflow", "after-blank-lines"],
    )
    def test_bad_continuous_value_reports_line(self, tmp_path, text, named):
        root = write_dataset(
            tmp_path,
            "0\t0\n",
            tasks=[{
                "id": "rating", "kind": "attribute", "side": "items",
                "path": "r.tsv", "value_kind": "continuous",
            }],
            files=[("r.tsv", text)],
        )
        with pytest.raises(DataError) as got:
            load_dataset(root, "manifest.json")
        assert str(got.value) == named

    def test_split_applied_when_requested(self, tmp_path):
        lines = "".join(f"{u}\t{i}\n" for u in range(5) for i in range(4))
        root = write_dataset(tmp_path, lines)
        dataset, _ = load_dataset(root, "manifest.json", train_fraction=0.8, split_seed=3)
        assert len(dataset.train_edges) == 16
        assert len(dataset.test_edges) == 4

    @pytest.mark.parametrize(
        "shape", [(200, 100, 4, 0.05, 7, 2), (400, 200, 8, 0.1, 3, 5)], ids=str
    )
    def test_written_synthetic_set_loads_as_the_generated_one(self, tmp_path, shape):
        # The tests build their data with the generator; the benchmark loads
        # what the writer wrote. Both must be the same dataset.
        want = generate_synthetic_dataset(*shape)
        root = write_synthetic_dataset(tmp_path / "synth", *shape)
        got, _ = load_dataset(root, "manifest.json", train_fraction=0.8, split_seed=shape[4])
        assert (got.num_users, got.num_items) == (want.num_users, want.num_items)
        assert got.train_array.tobytes() == want.train_array.tobytes()
        assert got.test_array.tobytes() == want.test_array.tobytes()
        assert len(got.auxiliary_tasks) == len(want.auxiliary_tasks)
        for a, b in zip(got.auxiliary_tasks, want.auxiliary_tasks):
            assert (a.task_id, a.kind, a.side, a.hyperedge_labels) == (
                b.task_id, b.kind, b.side, b.hyperedge_labels
            )
            for part in ("indptr", "indices", "data"):
                left, right = getattr(a.graph.incidence, part), getattr(b.graph.incidence, part)
                assert left.dtype == right.dtype, (a.task_id, part)
                assert left.tobytes() == right.tobytes(), (a.task_id, part)


def interaction_lines(users, items, seed):
    """Every user with two to four items drawn from `items`, some twice, shuffled."""
    rng = np.random.default_rng(seed)
    pairs = [(u, items[int(j)]) for u in users for j in rng.integers(len(items), size=rng.integers(2, 5))]
    pairs += pairs[:5]
    return "".join(f"{u}\t{i}\n" for u, i in (pairs[int(k)] for k in rng.permutation(len(pairs))))


ID_KINDS = {
    "canonical": ([str(u) for u in range(30)], [str(i) for i in range(12)]),
    # The users parse as ints but are not canonical; the items mix ints and strings.
    "non-canonical": (
        ["0", "00", "+1", " 1", "2", "10", "007", "-3", "5"] + [str(u) for u in range(11, 30)],
        ["a b", "é", "1", "x", "01", "0", "ü ö", "10", "zz", "9", "日本", "B"],
    ),
}


def assert_same_dataset(dataset, want):
    num_users, num_items, train, test, _ = want
    assert (dataset.num_users, dataset.num_items) == (num_users, num_items)
    assert [tuple(r) for r in dataset.train_array.tolist()] == sorted(train)
    assert [tuple(r) for r in dataset.test_array.tolist()] == sorted(test)


def id_map_texts(root):
    return {
        name: (root / name).read_text(encoding="utf-8") if (root / name).exists() else None
        for name in ("idmap.users.tsv", "idmap.items.tsv")
    }


KIND_FILES = {"interactions": "interactions.tsv", "attribute": "cat.tsv", "relation": "rel.tsv"}
KIND_TASKS = {
    "interactions": [],
    "attribute": [{"id": "cat", "kind": "attribute", "side": "items", "path": "cat.tsv"}],
    "relation": [{"id": "rel", "kind": "relation", "side": "users", "path": "rel.tsv"}],
}


def dataset_with(root, kind, text):
    """A dataset whose `kind` file holds `text`: the interactions file alone,
    or two LF interactions plus one attribute or relation task."""
    write_dataset(root, "0\t0\n1\t1\n", tasks=KIND_TASKS[kind])
    (root / KIND_FILES[kind]).write_text(text, encoding="utf-8")
    return root


def loaded(root):
    """Everything `load_dataset` gives for `root`: splits, tasks, labels,
    statistics and id maps."""
    dataset, stats = load_dataset(root, "manifest.json")
    tasks = [
        (t.task_id, t.graph.incidence.toarray().tolist(), t.hyperedge_labels)
        for t in dataset.auxiliary_tasks
    ]
    return (dataset.train_array.tolist(), dataset.test_array.tolist(), tasks, stats.lines(),
            stats.relation_records_skipped, id_map_texts(root))


def each_kind(texts):
    """(kind, text) cases for every file kind; the interactions file keeps the bare id."""
    return [
        pytest.param(kind, text, id=name if kind == "interactions" else f"{kind}-{name}")
        for kind in KIND_FILES
        for name, text in texts.items()
    ]


UNUSUAL_TEXTS = each_kind({
    "crlf": "0\t0\r\n1\t1\r\n0\t1\r\n",
    "blank-lines": "0\t0\n\n1\t1\n\n\n0\t1\n",
    "leading-blank-line": "\n0\t0\n1\t1\n",
    "cr-only": "0\t0\r1\t1\r0\t1\r",
    "form-feed": "0\t0\x0c1\t1\n0\t1\n",
    "next-line": "0\t0\x851\t1\n0\t1\n",
    "line-separator": "0\t0\u20281\t1\n0\t1\n",
    "record-separator": "0\t0\x1e1\t1\n0\t1\n",
    "no-final-newline": "0\t0\n1\t1\n0\t1",
    "nul": "0\t0\n1\x00\t1\n0\x00\x00\t\x001\n",
    "empty-fields": "\t\n0\t\n",
})
MALFORMED_TEXTS = each_kind({
    "one-field": "0\t0\n1\n1\t1\n",
    "three-fields": "0\t0\n1\t1\t1\n0\t1\n",
    "last-line-one-field": "0\t0\n1\t1\n2\n",
    "form-feed-in-id": "0\tab\x0ccd\n",
    "paragraph-separator-in-id": "0\tab\u2029cd\n",
    "crlf-three-fields": "0\t0\r\n1\t1\t2\r\n",
    "after-blank-lines": "0\t0\n\n\n1\n",
})


class TestInteractionParsing:
    @pytest.mark.parametrize("kind", list(ID_KINDS))
    @pytest.mark.parametrize("train_fraction", [None, 0.7])
    def test_matches_line_by_line_reference(self, tmp_path, kind, train_fraction):
        users, items = ID_KINDS[kind]
        text = interaction_lines(users, items, seed=len(kind))
        lf = write_dataset(tmp_path / "lf", text)
        crlf = write_dataset(tmp_path / "crlf", text.replace("\n", "\r\n"))
        got, stats = load_dataset(lf, "manifest.json", train_fraction, split_seed=4)
        want = oracles.load_interactions(lf, train_fraction, seed=4)
        assert_same_dataset(got, want)
        assert stats.num_interactions == len(want[2]) + len(want[3])
        assert id_map_texts(lf) == want[4]
        assert (want[4]["idmap.users.tsv"] is None) == (kind == "canonical")
        # CRLF lines take the line-by-line scan: the same dataset, statistics and maps.
        slow, slow_stats = load_dataset(crlf, "manifest.json", train_fraction, split_seed=4)
        assert_same_dataset(slow, want)
        assert slow_stats.lines() == stats.lines()
        assert id_map_texts(crlf) == id_map_texts(lf)

    def test_auxiliary_ids_join_the_id_space(self, tmp_path):
        # Item "q" occurs only in the attribute file; both reads agree on it.
        tasks = [{"id": "cat", "kind": "attribute", "side": "items", "path": "cat.tsv"}]
        files = [("cat.tsv", "q\ttoys\nb\tbooks\n")]
        texts = {"lf": "x\tb\ny\ta\n", "crlf": "x\tb\r\ny\ta\r\n"}
        loaded = {}
        for name, text in texts.items():
            root = write_dataset(tmp_path / name, text, tasks=tasks, files=files)
            dataset, stats = load_dataset(root, "manifest.json")
            loaded[name] = (dataset.train_array.tolist(), stats.lines(), id_map_texts(root))
        assert loaded["lf"] == loaded["crlf"]
        assert loaded["lf"][0] == [[0, 1], [1, 0]]
        assert loaded["lf"][2]["idmap.items.tsv"] == "a\t0\nb\t1\nq\t2\n"

    @pytest.mark.parametrize("kind, text", UNUSUAL_TEXTS)
    def test_unusual_text_reads_as_the_reference(self, tmp_path, kind, text):
        root = dataset_with(tmp_path / "text", kind, text)
        lf = dataset_with(tmp_path / "lf", kind, "".join(f"{line}\n" for line in text.splitlines() if line))
        assert loaded(root) == loaded(lf)
        if kind == "interactions":
            dataset, stats = load_dataset(root, "manifest.json")
            want = oracles.load_interactions(root)
            assert_same_dataset(dataset, want)
            assert stats.num_interactions == len(want[2])
            assert id_map_texts(root) == want[4]

    @pytest.mark.parametrize("kind, text", MALFORMED_TEXTS)
    def test_malformed_line_named_as_the_reference(self, tmp_path, kind, text):
        root = dataset_with(tmp_path, kind, text)
        path = root / KIND_FILES[kind]
        with pytest.raises(DataError) as want:
            oracles.read_pairs(path)
        with pytest.raises(DataError) as got:
            load_dataset(root, "manifest.json")
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{path}:")

    @pytest.mark.parametrize(
        "name", ["interactions.tsv", "manifest.json", "item_blocks.tsv", "item_partners.tsv"]
    )
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, name):
        # Read as part of the first id, a mark in interactions.tsv made a
        # 201st user, a string-ordered user map and another split.
        plain = write_synthetic_dataset(tmp_path / "plain", 200, 100, 4, 0.05, seed=7)
        marked = write_synthetic_dataset(tmp_path / "marked", 200, 100, 4, 0.05, seed=7)
        (marked / name).write_bytes(b"\xef\xbb\xbf" + (marked / name).read_bytes())
        assert loaded(marked) == loaded(plain)
        split = [load_dataset(root, "manifest.json", 0.8, split_seed=7)[0]
                 for root in (plain, marked)]
        assert split[1].train_array.tolist() == split[0].train_array.tolist()
        assert split[1].test_array.tolist() == split[0].test_array.tolist()
        assert id_map_texts(marked) == {"idmap.users.tsv": None, "idmap.items.tsv": None}

    def test_relation_fields_split_as_the_reference(self, tmp_path):
        # Empty pieces are dropped, so a field of commas alone is a skipped
        # record; repeated ids and the anchor itself count once.
        lines = [("a", "b,c"), ("b", ""), ("c", ","), ("d", ",,a,,\u00e9,"), ("\u00e9", "\u00e9"),
                 (" x", "a, x"), ("a", "b,c"), ("b", "a,a,b"), ("c", "d")]
        root = write_dataset(
            tmp_path, "u\ta\nu\t x\n",
            tasks=[{"id": "rel", "kind": "relation", "side": "items", "path": "rel.tsv"}],
            files=[("rel.tsv", "".join(f"{a}\t{f}\n" for a, f in lines))],
        )
        dataset, stats = load_dataset(root, "manifest.json")
        members = [[r for r in f.split(",") if r] for _, f in lines]
        ids = oracles._id_map([" x", *(a for a, _ in lines), *(r for m in members for r in m)])
        records = [(ids[a], [ids[r] for r in m]) for (a, _), m in zip(lines, members)]
        want, skipped = oracles.build_relation_hypergraph("rel", NodeSide.ITEMS, records, len(ids))
        task = dataset.auxiliary_tasks[0]
        assert stats.relation_records_skipped == skipped == 2
        assert task.hyperedge_labels == want.hyperedge_labels
        assert task.graph.incidence.toarray().tolist() == want.graph.incidence.toarray().tolist()

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        root = write_dataset(tmp_path, "")
        (root / "interactions.tsv").write_bytes(b"0\t0\n\xff\t1\n")
        with pytest.raises(DataError, match=r"cannot read .*interactions.tsv"):
            load_dataset(root, "manifest.json")


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

    def test_file_bytes_are_the_header_then_each_table_row_major(self, tmp_path):
        # The writer's chunks give the bytes of one concatenated blob, also
        # for a column-major table; the loaded table holds them, writably.
        rng = np.random.default_rng(1)
        table = EmbeddingTable(np.asfortranarray(rng.normal(size=(6, 4))), rng.normal(size=(3, 4)))
        cfg = TrainConfig(dim=4, seed=9)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(table, cfg, path)
        header = _HEADER.pack(4, 6, 3, 9, bytes.fromhex(cfg.fingerprint()))
        assert path.read_bytes() == (
            CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION]) + header
            + table.user_emb.astype("<f8").tobytes() + table.item_emb.astype("<f8").tobytes()
        )
        loaded = load_checkpoint(path).to_table()
        for got, want in ((loaded.user_emb, table.user_emb), (loaded.item_emb, table.item_emb)):
            assert got.dtype == np.float64 and got.flags.writeable
            assert got.tobytes() == want.tobytes()

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

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(EmbeddingTable(np.ones((2, 3)), np.ones((1, 3))), TrainConfig(dim=3), path)
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        newer = EmbeddingTable(np.zeros((4, 3)), np.zeros((5, 3)))
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(newer, TrainConfig(dim=3), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

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
