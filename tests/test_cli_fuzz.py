"""Property test of the command line: generated manifests, TSVs and flags.

Whatever the inputs, `cli.main` returns one of its documented exit codes
(0 success, 1 usage, 2 data, 3 divergence) and no exception escapes it.
The examples are derandomized and few, so the suite stays deterministic
and fast.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskhg.cli import main

EXIT_CODES = {0, 1, 2, 3}

ids = st.sampled_from(["0", "1", "2", "3", "u7", "-1", "01", "1.5", "", " 2"])
pair_lines = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 4)), min_size=10, max_size=30
).map(lambda pairs: "".join(f"{u}\t{i}\n" for u, i in pairs))
garbage_lines = st.lists(st.lists(ids, max_size=3).map("\t".join), max_size=8).map(
    lambda lines: "".join(line + "\n" for line in lines)
)
attribute_lines = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from(["a", "b", "0.5", "-3", "nan", "inf", "x"])),
    max_size=8,
).map(lambda rows: "".join(f"{n}\t{v}\n" for n, v in rows))
relation_lines = st.lists(
    st.tuples(st.integers(0, 5), st.lists(st.integers(0, 5), max_size=3)), max_size=6
).map(lambda rows: "".join(f"{a}\t{','.join(map(str, r))}\n" for a, r in rows))

valid_tasks = st.lists(
    st.sampled_from([
        {"id": "a", "kind": "attribute", "side": "items", "path": "attr.tsv"},
        {"id": "a", "kind": "attribute", "side": "users", "path": "attr.tsv",
         "value_kind": "continuous", "bins": 2},
        {"id": "b", "kind": "relation", "side": "items", "path": "rel.tsv"},
        {"id": "b", "kind": "relation", "side": "users", "path": "rel.tsv"},
    ]),
    max_size=2,
    unique_by=lambda entry: entry["id"],
)
# Each example breaks at most one thing, so that most of them reach training.
MANIFEST_FAULTS = [
    ("kind", "recommendation"), ("kind", "x"), ("id", 5), ("id", "rec"), ("side", "x"),
    ("path", "missing.tsv"), ("path", 7), ("bins", 1), ("bins", 2.5), ("value_kind", "x"),
    "{", "[]", "5", '{"version": 1}', '{"version": 2, "interactions": "inter.tsv"}',
]


@st.composite
def manifests(draw):
    tasks = [dict(task) for task in draw(valid_tasks)]
    fault = draw(st.sampled_from([None] * 2 * len(MANIFEST_FAULTS) + MANIFEST_FAULTS))
    if isinstance(fault, str):
        return fault
    if fault and tasks:
        key, value = fault
        tasks[0][key] = value
    return json.dumps({"version": 1, "interactions": "inter.tsv", "tasks": tasks})


# Valid training flags, kept small, plus at most one flag set to a bad value.
config_flags = st.fixed_dictionaries(
    {
        "--epochs-pretrain": st.sampled_from(["0", "1", "2"]),
        "--epochs-finetune": st.sampled_from(["0", "1"]),
        "--dim": st.sampled_from(["1", "4"]),
        "--seed": st.sampled_from(["0", "7"]),
    },
    optional={
        "--batch-size": st.sampled_from(["1", "7"]),
        "--ks": st.sampled_from(["1,2", "10,20"]),
        "--pretrain-loss": st.sampled_from(["align", "bpr", "bpr_pos", "au"]),
        "--finetune-loss": st.sampled_from(["align", "bpr", "bpr_pos", "au"]),
        "--ta-variant": st.sampled_from(["full", "no_ta", "sum", "concat"]),
        "--gamma": st.sampled_from(["0", "0.5"]),
        "--negatives-per-positive": st.sampled_from(["1", "2"]),
        "--ta-layers": st.sampled_from(["1", "2"]),
        "--train-fraction": st.sampled_from(["0.5", "0.8", "1.0"]),
        "--split-seed": st.sampled_from(["0", "3"]),
    },
)
BAD_FLAGS = [
    {"--dim": "0"}, {"--dim": "x"}, {"--batch-size": "0"}, {"--lr": "1e300"},
    {"--lr": "nan"}, {"--ks": "3,3"}, {"--ks": ""}, {"--pretrain-loss": "x"},
    {"--gamma": "inf"}, {"--train-fraction": "0"}, {"--train-fraction": "nan"},
    {"--split-seed": "-1"}, {"--negatives-per-positive": "0"}, {"--seed": "-1"},
    {"--seed": "9223372036854775808"},
]
bad_flags = st.sampled_from([{}] * 2 * len(BAD_FLAGS) + BAD_FLAGS)
CHAIN = ("pretrain", "finetune", "evaluate")


def run(argv) -> int:
    """main(argv)'s exit code, with argparse's SystemExit read as one."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def command_argv(command, data, tmp, flags, ratio):
    if command == "synth":
        # --dim doubles as the user count, so a bad dim is a bad count too.
        return ["synth", "--out", str(tmp / "synth"), "--users", flags["--dim"], "--items", "4",
                "--blocks", flags.get("--ta-layers", "2"), "--seed", flags["--seed"]]
    if command == "evaluate":
        own = ("--train-fraction", "--split-seed", "--ks")
        flags = {k: v for k, v in flags.items() if k in own}
        flags.update({"--checkpoint": str(tmp / "fine.ckpt"), "--report": str(tmp / "r")})
    else:
        flags = {**flags, **{
            "pretrain": {"--out": str(tmp / "pre.ckpt")},
            "finetune": {"--checkpoint": str(tmp / "pre.ckpt"), "--out": str(tmp / "fine.ckpt")},
            "ablate": {"--report": str(tmp / "r")},
            "coldstart": {"--ratio": ratio, "--report": str(tmp / "r")},
        }[command]}
    return [command, "--data", str(data), *(part for item in flags.items() for part in item)]


@settings(max_examples=30, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    manifest=manifests(),
    interactions=st.one_of(pair_lines, pair_lines, pair_lines, garbage_lines),
    attributes=attribute_lines,
    relations=relation_lines,
    flags=config_flags,
    bad=bad_flags,
    command=st.sampled_from(["ablate", "coldstart", "synth"]),
    ratio=st.sampled_from(["0.2", "0.5", "1.0", "0"]),
)
def test_main_exits_with_a_documented_code(
    manifest, interactions, attributes, relations, flags, bad, command, ratio
):
    flags = {**flags, **bad}
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        data = tmp / "data"
        data.mkdir()
        (data / "manifest.json").write_text(manifest)
        (data / "inter.tsv").write_text(interactions)
        (data / "attr.tsv").write_text(attributes)
        (data / "rel.tsv").write_text(relations)
        # Each command of the chain reads the checkpoint the one before it
        # wrote, if it did.
        for name in (*CHAIN, command):
            assert run(command_argv(name, data, tmp, flags, ratio)) in EXIT_CODES, name
