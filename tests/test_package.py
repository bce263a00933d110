"""The package's public surface: every exported name resolves, once; and
no process-wide store but the memo of accepted tables grows with jobs."""

import pathlib
import sys

import modlab
from modlab.cli import main

DEMO = str(pathlib.Path(__file__).resolve().parent.parent / "demo.job")


def test_all_names_resolve_without_duplicates():
    assert len(modlab.__all__) == len(set(modlab.__all__))
    missing = [name for name in modlab.__all__ if not hasattr(modlab, name)]
    assert missing == []


def module_level_sizes():
    """The size of every module-level dict, list and set in ``modlab.*``."""
    return {(name, attr): len(value)
            for name, module in list(sys.modules.items())
            if name == "modlab" or name.startswith("modlab.")
            for attr, value in vars(module).items()
            if isinstance(value, (dict, list, set))
            and not attr.startswith("__")}


def test_only_the_table_memo_grows_across_jobs(empty_memo):
    before = module_level_sizes()
    for _ in range(2):
        assert main(["check", DEMO, "--format", "structured"]) == 0
    after = module_level_sizes()
    grown = {key for key in after if after[key] != before.get(key)}
    assert grown == {("modlab.rings", "_accepted")}
