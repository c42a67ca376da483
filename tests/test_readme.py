"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first python code block under README's `## Library` heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library section has no python block"
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(library_block(), f"{README}:Library", "exec"), {})
    recall, ndcg = map(float, capsys.readouterr().out.split())
    assert 0.0 <= recall <= 1.0 and 0.0 <= ndcg <= 1.0
