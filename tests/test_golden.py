"""Structured reports compared byte for byte with recorded ones.

The files under ``tests/golden/`` were recorded with the commands below,
``corpus-d4-cap256.json`` at commit 7d2b318,
``corpus-d4-cap128.json`` at commit e656da1, ``corpus-d4.json`` at
commit 04e7d27, ``corpus-d3.json`` at commit 829d310 and the others at
commit e961f8e.  A change that means to alter a report re-records them
and says why; any other difference is a regression.  Each command is run
twice in one process, from an empty memo of accepted tables, and both
runs must match: the second reads the tables and the constructions the
first left in the memo.
"""

import pathlib

import pytest

from modlab import rings
from modlab.cli import main

from conftest import memo_cells

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMO = str(ROOT / "demo.job")


@pytest.mark.parametrize("name, argv", [
    ("corpus-actions20.json",
     ["corpus", "--format", "structured", "--actions", "20"]),
    ("check-demo.json", ["check", DEMO, "--format", "structured"]),
    ("verify-demo.json", ["verify", DEMO, "--format", "structured"]),
    ("corpus-d3.json",
     ["corpus", "--format", "structured", "--universe-depth", "3"]),
    ("corpus-d4.json",
     ["corpus", "--format", "structured", "--universe-depth", "4"]),
    ("corpus-d4-cap128.json",
     ["corpus", "--format", "structured", "--universe-depth", "4",
      "--cap-module", "128"]),
    ("corpus-d4-cap256.json",
     ["corpus", "--format", "structured", "--universe-depth", "4",
      "--cap-module", "256"]),
])
def test_structured_report_is_unchanged(name, argv, capsys, empty_memo,
                                        count_builds, monkeypatch):
    # cold, then warm: the second run takes the tables and constructions
    # still in the memo of accepted tables and must print the same report.
    # Where the first run stays under the memo's bound, the second builds
    # no table; the cap-256 run reaches it (its distinct tables alone are
    # 2.5 million cells), and its oldest entries go first.  After each run
    # the memo's cells, counted afresh, are the running count and within
    # the bound
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    builds = count_builds(monkeypatch)
    counts = []
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out == golden
        assert (memo_cells(empty_memo) == rings._accepted.cells
                <= rings.MAX_ACCEPTED_CELLS)
        counts.append(len(builds))
        builds.clear()
    assert counts[0] > 0
    assert counts[1] == 0 or name == "corpus-d4-cap256.json"
    assert counts[1] <= counts[0]


def test_a_repeated_check_certifies_nothing(empty_memo, count_certificates,
                                            count_builds, monkeypatch):
    # nor does it build a table: every derived ring and module of the
    # second run is a remembered construction
    argv = ["check", DEMO, "--format", "structured"]
    assert main(argv) == 0
    calls = count_certificates(monkeypatch)
    builds = count_builds(monkeypatch)
    assert main(argv) == 0
    assert calls == {"ring": [], "module": []}
    assert builds == []
