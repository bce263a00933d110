"""Structured reports compared byte for byte with recorded ones.

The files under ``tests/golden/`` were recorded with the commands below,
``corpus-d4-cap128.json`` at commit e656da1, ``corpus-d4.json`` at
commit 04e7d27, ``corpus-d3.json`` at commit 829d310 and the others at
commit e961f8e.  A change that means to alter a report re-records them
and says why; any other difference is a regression.  Each command is run
twice in one process, from an empty memo of accepted tables, and both
runs must match.
"""

import pathlib

import pytest

from modlab.cli import main

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
])
def test_structured_report_is_unchanged(name, argv, capsys, empty_memo):
    # cold, then warm: the second run takes every table from the memo of
    # accepted tables and must print the same report
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out == golden


def test_a_repeated_check_certifies_nothing(empty_memo, count_certificates,
                                            monkeypatch):
    argv = ["check", DEMO, "--format", "structured"]
    assert main(argv) == 0
    calls = count_certificates(monkeypatch)
    assert main(argv) == 0
    assert calls == {"ring": [], "module": []}
