"""The README's library example and command-line block run as written.

`python tests/test_readme.py` runs the command-line block in a temporary
directory and prints each command's exit code, stdout and stderr, then the
sha256 of every file the block wrote, so two trees compare with one `diff`.
"""

import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def section(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def library_block() -> str:
    """The first python code block under README's `## Library` heading."""
    match = re.search(r"```python\n(.*?)```", section("Library"), re.DOTALL)
    assert match, "README's Library section has no python block"
    return match.group(1)


def cli_commands() -> list:
    """The commands of the first bash block under `## Command line`, as argv
    lists, with `\\` continuations joined."""
    match = re.search(r"```bash\n(.*?)```", section("Command line"), re.DOTALL)
    assert match, "README's Command line section has no bash block"
    lines = match.group(1).replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip()]


def run_cli_block(workdir) -> list:
    """(argv, completed process) per command, each run in `workdir` with
    `taskhg` as `python -m taskhg.cli` on this tree's package."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    runs = []
    for argv in cli_commands():
        assert argv[0] == "taskhg", argv
        proc = subprocess.run(
            [sys.executable, "-m", "taskhg.cli", *argv[1:]],
            cwd=workdir, env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        )
        runs.append((argv, proc))
    return runs


def test_library_example_runs(capsys):
    exec(compile(library_block(), f"{README}:Library", "exec"), {})
    recall, ndcg = map(float, capsys.readouterr().out.split())
    assert 0.0 <= recall <= 1.0 and 0.0 <= ndcg <= 1.0


ROOT_EXPORTS = {
    "TrainConfig", "LossKind", "TAVariant",
    "InteractionDataset", "generate_synthetic_dataset",
    "load_dataset", "write_synthetic_dataset", "save_checkpoint", "load_checkpoint",
    "build_hypergraph", "NodeSide", "build_attribute_hypergraph", "build_relation_hypergraph",
    "EmbeddingTable", "init_embeddings",
    "pretrain", "finetune", "TrainResult", "evaluate", "EvalReport",
    "run_ablation", "cold_start_eval",
    "TaskHGError", "DataError", "DivergenceError",
}


def test_root_exports_are_the_ones_the_library_section_names():
    import taskhg

    assert set(taskhg.__all__) - {"__version__"} == ROOT_EXPORTS
    library = section("Library")
    assert [n for n in sorted(ROOT_EXPORTS) if not re.search(rf"\b{n}\b", library)] == []


def test_cli_block_runs(tmp_path):
    for argv, proc in run_cli_block(tmp_path):
        assert proc.returncode == 0, (argv, proc.stderr.decode())
        for flag in ("--out", "--report"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).exists(), argv


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for argv, proc in run_cli_block(tmp):
            print(f"$ {shlex.join(argv)}\nexit {proc.returncode}")
            for name, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
                sys.stdout.write(f"--- {name}\n{data.decode()}")
        for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(tmp)}")
