"""The package's public surface: every exported name resolves, once; no
module of the package imports a name it does not use; and no
process-wide store but the memo of accepted tables grows with jobs."""

import ast
import pathlib
import sys

import modlab
from modlab.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO = str(ROOT / "demo.job")


def test_all_names_resolve_without_duplicates():
    assert len(modlab.__all__) == len(set(modlab.__all__))
    missing = [name for name in modlab.__all__ if not hasattr(modlab, name)]
    assert missing == []


def unused_imports(source):
    """The names bound by module-level imports of ``source`` that no name
    in it reads and its ``__all__`` does not list."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_no_unused_module_level_imports():
    source = ("import os, os.path as p\nfrom a import b, c as d\n"
              "__all__ = ['b']\nos = d()\n")
    assert unused_imports(source) == [(1, "os"), (1, "p")]
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "modlab").glob("*.py"))}
    assert len(found) > 10
    assert {name: hits for name, hits in found.items() if hits} == {}


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
