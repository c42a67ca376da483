"""`tests/digests.py` at a tiny size: one line per cell, and every path of
`_final_rows` taken."""

import re

from digests import TINY_SHAPES, cells, digest_lines

import taskhg.gradients


def test_digests_cover_every_cell_and_every_final_layer_path(monkeypatch):
    paths = set()
    real = taskhg.gradients._final_rows

    def spy(*args):
        rows = real(*args)
        paths.add("dense" if rows is None else "reached" if rows[1] else "node rows")
        return rows

    monkeypatch.setattr(taskhg.gradients, "_final_rows", spy)
    lines = list(digest_lines(TINY_SHAPES))
    assert paths == {"dense", "node rows", "reached"}
    assert len(lines) == len(TINY_SHAPES) * len(list(cells())) == 64
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+ \S+\+\S+ ta=\S+ \S+", line) for line in lines)
    labels = [line.split("  ", 1)[1] for line in lines]
    assert len(set(labels)) == len(labels)
