"""Golden output of `fans --list` and `complex` on D4 d=2 and A3 d=3.

The files under tests/golden were written by the CLI before the face table
replaced the per-face memos; these tests hold the listing order, the fans
and the complex's statistics and exports to the same bytes.  D4 is taken in
the orientation of tests/golden/d4_orientation.json, drawn with
numpy.random.default_rng(5) (one coin per edge), A3 in the default one.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from dcluster.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "D4d2": ["--diagram", "D", "--rank", "4", "--d", "2",
             "--orientation", str(GOLDEN / "d4_orientation.json")],
    "A3d3": ["--diagram", "A", "--rank", "3", "--d", "3"],
}

# sha256 of the --out JSON and the --dot file of `complex`
EXPORTS = {
    "D4d2": ("4c1c1a39314fae8f3c8334ac41bb6c0c1d1f4cc6b94c887746cda781687812e0",
             "bbf9646195bc3992abaeba29623d719bc97fb87bbf8b2013529859a9c9313791"),
    "A3d3": ("78ccde2f57badd24a1e6fbe40c8f3e04795f60232f5909d3a3aad2bf9ae04a84",
             "942456e7c210145010708f250f8891c7ab86d5d052ad1a2bbc27deb2cb22e2a8"),
}

# sha256 of the --dot file of `complex --positive` and of `mutation-graph`,
# recorded before the DOT edges were read from the face groups
GRAPH_DOTS = {
    "D4d2": ("f3e8ed9174803a50598b489c104a8da756fa7f33973c073e1d13ccd9c0dff5c1",
             "2a9952393b8ce660ab6fb56ca9bbb9e725d6d09159d3ff4ff73da4cd20dc667e"),
    "A3d3": ("6ce398ee637686bcf5da9f06a77eab50f41b2ff63bf790dcf6bd6b5be3a8a823",
             "9c4a3c81e70d92ad1f5bb5f2a1cc1050d4a2067b59281cc263153b8fc4b289b8"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fans_list_matches_golden(case, capsys):
    assert run(["fans", "--list"] + CASES[case]) == 0
    assert capsys.readouterr().out == (GOLDEN / ("fans_%s.txt" % case)).read_text()


@pytest.mark.parametrize("case", sorted(CASES))
def test_complex_matches_golden(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out, dot = "complex_%s.json" % case, "complex_%s.dot" % case
    assert run(["complex", "--out", out, "--dot", dot] + CASES[case]) == 0
    assert capsys.readouterr().out == (GOLDEN / ("complex_%s.txt" % case)).read_text()
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in (out, dot))
    assert digests == EXPORTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_graph_dots_match_golden(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["complex", "--positive", "--dot", "positive.dot"] + CASES[case]) == 0
    assert run(["mutation-graph", "--dot", "mutation.dot"] + CASES[case]) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("positive.dot", "mutation.dot"))
    assert digests == GRAPH_DOTS[case]
