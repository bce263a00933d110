"""The package's public surface: every exported name resolves, once; no
module of the package imports a name it does not use; ring and module
tables, maps, submodule carriers, orders, lattices and actions from
outside are checked in one place each; a whole Hom-set is listed, and
generator images searched, only where needed; additive spans are formed
one way each, and so is a module's partition into cosets; a submodule
handle keeps only its mask, and a linear filter only its two-sided
ideal; the theorem harness and the class memberships
check again nothing their constructions prove; the routes of every notion
are compared in one function, and the CLI raises no inconsistency of its
own; no universe is cached on its ring; and no process-wide store but the
memo of accepted tables grows with jobs."""

import ast
import inspect
import pathlib
import sys

import modlab
from modlab.actions import FiniteBoundedLattice, FinitePoset, PosetAction
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


def name_uses(source, name):
    """(function, called) for each read of ``name`` in ``source``, as a
    name or an attribute: the outermost function around it (``""`` at
    module level), and whether it is the callee of a call."""
    tree = ast.parse(source)
    callees = {id(node.func) for node in ast.walk(tree)
               if isinstance(node, ast.Call)}
    found = set()

    def walk(node, function):
        if not function and isinstance(node, (ast.FunctionDef,
                                              ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(getattr(node, "ctx", None), ast.Load)
                and name in (getattr(node, "id", None),
                             getattr(node, "attr", None))):
            found.add((function, id(node) in callees))
        for child in ast.iter_child_nodes(node):
            walk(child, function)

    walk(tree, "")
    return found


def test_module_tables_are_scanned_only_where_they_enter():
    source = ("def f():\n    def g():\n        x.FiniteModule(1)\n"
              "isinstance(m, FiniteModule)\n")
    assert name_uses(source, "FiniteModule") == {("f", True), ("", False)}
    # a raw table reaches the scan only through module_from_tables, and no
    # other constructor can skip it by building FiniteModule directly
    paths = [path for part in ("src", "tests", "perfbench")
             for path in sorted((ROOT / part).rglob("*.py"))]
    builders = {path.relative_to(ROOT).as_posix() for path in paths
                if any(called for _, called in name_uses(
                    path.read_text(encoding="utf-8"), "FiniteModule"))}
    assert builders == {"src/modlab/modules.py"}
    scanners = {(path.name, function)
                for path in (ROOT / "src" / "modlab").glob("*.py")
                for function, _ in name_uses(path.read_text(encoding="utf-8"),
                                             "_scan_module_axioms")}
    assert scanners == {("modules.py", "module_from_tables")}


def callers(name):
    """(file, function) for each call of ``name`` in ``src/modlab``."""
    return {(path.name, function)
            for path in (ROOT / "src" / "modlab").glob("*.py")
            for function, called in name_uses(
                path.read_text(encoding="utf-8"), name) if called}


def test_ring_tables_are_scanned_only_where_they_enter():
    # raw tables reach the ring scan only through ring_from_tables; every
    # other ring is built by construction, in rings.py or as End(M), and
    # neither a ring nor a map takes a switch that skips or bounds a check
    paths = [path for part in ("src", "tests", "perfbench")
             for path in sorted((ROOT / part).rglob("*.py"))]
    builders = {(path.relative_to(ROOT).as_posix(), function)
                for path in paths
                for function, called in name_uses(
                    path.read_text(encoding="utf-8"), "FiniteRing") if called}
    assert builders == {("src/modlab/rings.py", name) for name in (
        "cyclic_ring", "matrix_ring", "product_ring", "quotient_ring",
        "ring_from_tables")} | {("src/modlab/modules.py",
                                 "endomorphism_ring")}
    assert callers("_scan_ring_axioms") == {("rings.py", "ring_from_tables")}
    assert callers("_proven_ring") == {
        ("rings.py", "_cyclic_tables"), ("rings.py", "_matrix_tables"),
        ("rings.py", "_product_tables"), ("rings.py", "quotient_ring"),
        ("modules.py", "endomorphism_ring")}
    assert [list(inspect.signature(cls).parameters)
            for cls in (modlab.FiniteRing, modlab.ModuleMorphism)] == [
        ["entry", "labels", "provenance", "projection"],
        ["source", "target", "map_"]]


def test_class_memberships_are_read_off_one_scan():
    # the four classes come from one evaluation of each member and the
    # family scan, with no identity between them checked again
    source = inspect.getsource(modlab.firstness.class_membership)
    assert name_uses(source, "InternalInconsistency") == set()
    assert name_uses(source, "class_membership") == set()


def test_submodule_carriers_are_checked_only_where_they_enter():
    # a mask from outside is checked for closure only by submodule(),
    # which the engine never calls on the masks its constructions prove,
    # and every handle is interned by the one function those go through,
    # so no use of a handle needs to check it again
    assert callers("is_submodule_mask") == {("modules.py", "submodule")}
    assert callers("Submodule") == {("modules.py", "_intern_submodule")}
    assert callers("submodule") == set()


def test_orders_lattices_and_actions_are_checked_only_where_they_enter():
    # the three public constructors take one argument list each, and run
    # the order, lattice and action scans on outside input; what the
    # engine derives is made by _proven, which only reads the tables, and
    # the one engine object a public constructor builds is a module
    # instance's action, whose axioms no construction proves
    assert [list(inspect.signature(cls).parameters)
            for cls in (FinitePoset, FiniteBoundedLattice, PosetAction)] == [
        ["leq"], ["leq"], ["poset", "lattice", "act"]]
    assert callers("FinitePoset") == callers("FiniteBoundedLattice") == set()
    assert callers("PosetAction") == {("actions.py", "module_action_instance")}
    assert {path for path, _ in callers("_proven")} == {"actions.py"}
    assert callers("_derive") == {("actions.py", "__init__"),
                                  ("actions.py", "_derive"),
                                  ("actions.py", "_proven")}


def test_hom_is_listed_only_for_the_endomorphism_ring():
    # every other Hom question reads hom_generators, and only the two
    # early-exit questions search generator images
    assert callers("hom_set") == {("modules.py", "endomorphism_ring")}
    assert callers("_search_images") == {
        ("modules.py", "hom_nonzero_exists"),
        ("modules.py", "find_isomorphism")}


def test_additive_spans_are_formed_one_way():
    # a sum of subgroups is sum_masks, I.N among them, and a greedy
    # generating set is rings._additive_generators, with its candidates
    # named at each call
    from modlab import modules, rings
    assert not hasattr(modules, "additive_closure_mask")
    assert not hasattr(modules, "_extend_additive_span")
    assert callers("_additive_generators") == {
        ("rings.py", "_abelian_group_certificate"),
        ("rings.py", "_proven_ring"), ("modules.py", "_hom_chain"),
        ("modules.py", "_generator_data")}
    assert str(inspect.signature(rings._additive_generators)) == (
        "(n, add, zero, candidates)")
    source = inspect.getsource(modules.trad_mask)
    assert ("trad_mask", True) in name_uses(source, "sum_masks")


def test_a_module_is_split_into_cosets_one_way():
    # the lattice closure and the quotient module read their cosets from
    # one kernel, and neither keeps a partition loop of its own: the
    # lattice's loops are the closure and the one that interns its handles
    from modlab import modules
    assert callers("_cosets") == {("modules.py", "enumerate_submodules"),
                                  ("modules.py", "_quotient_tables")}

    def loops(function):
        return [type(node).__name__
                for node in ast.walk(ast.parse(inspect.getsource(function)))
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert loops(modules._quotient_tables) == []
    assert sorted(loops(modules.enumerate_submodules)) == [
        "For", "For", "While", "comprehension"]


def test_only_the_command_line_collects_garbage():
    # the collection policy lives in one place: cli.main freezes what
    # predates a command and collects what the command made
    importers = set()
    for path in (ROOT / "src" / "modlab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "gc" in names:
                importers.add(path.name)
    assert importers == {"cli.py"}


def test_a_submodule_is_its_mask_and_a_filter_its_ideal():
    # a handle keeps its mask alone, images of element lists are formed by
    # one helper, a linear filter is given by its two-sided ideal, and
    # s_T(M) = {x : T.x = 0} is computed in one place, for the socle and
    # for the filters
    from modlab import modules, preradicals
    assert modules.Submodule.__slots__ == ("module", "mask", "_mod")
    assert not hasattr(modules, "_coset_mask")
    assert list(inspect.signature(modlab.LinearFilter).parameters) == [
        "ideal"]
    assert callers("killed_mask") == {("modules.py", "structural_summary"),
                                      ("preradicals.py", "_compute")}
    source = inspect.getsource(preradicals.LinearFilter)
    assert name_uses(source, "killed_mask") == {("_compute", True)}


def test_classification_reads_the_ring_alone():
    # BKN is left locality, read off the simple modules, so the early-exit
    # Hom search has one engine caller left, and no universe is passed
    assert callers("hom_nonzero_exists") == {("firstness.py",
                                              "is_retractable")}
    assert list(inspect.signature(modlab.classify_ring).parameters) == [
        "ring"]


def test_theorems_are_replayed_without_rechecking_constructions():
    # the P14.1 hulls are chosen injective and the T14 filter operators
    # are left exact by construction, so no caller passes pairs to check
    # again and left exactness is decided only for the preradical
    # calculus; sides that disagree are reported in the verdict, which
    # the CLI turns into exit 4, and never raised
    assert list(inspect.signature(modlab.verify_theorem).parameters) == [
        "theorem_id", "ring", "universe"]
    assert callers("left_exact_at") == {("preradicals.py", "property_flags")}
    source = (ROOT / "src" / "modlab" / "classify.py").read_text(
        encoding="utf-8")
    assert name_uses(source, "InternalInconsistency") == set()


def test_one_function_compares_the_routes_of_a_notion():
    # each decider passes its routes to firstness._agreed, the one place
    # a route disagreement is raised; BJKN's missing witness and the check
    # between notions in firstness_report are the other raises, and the
    # CLI only reports what the engine raised
    source = (ROOT / "src" / "modlab" / "firstness.py").read_text(
        encoding="utf-8")
    assert name_uses(source, "InternalInconsistency") == {
        ("_agreed", True), ("bjkn_prime_detail", True),
        ("firstness_report", True)}
    assert [name for name in ("_agreed", "bjkn_prime_detail",
                              "firstness_report")
            if "routes disagree" in inspect.getsource(
                getattr(modlab.firstness, name))] == ["_agreed"]
    assert callers("_agreed") == {("firstness.py", name) for name in (
        "bjkn_prime_detail", "prime_module_detail", "rpid_first_detail",
        "diuniform_detail")}
    cli_source = (ROOT / "src" / "modlab" / "cli.py").read_text(
        encoding="utf-8")
    assert not any(called for _, called in name_uses(
        cli_source, "InternalInconsistency"))


def test_a_universe_is_not_cached_on_its_ring():
    ring = modlab.cyclic_ring(4)
    modlab.generate_universe(ring, depth=3)
    assert not any(isinstance(value, modlab.Universe)
                   for value in ring._cache.values())


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
