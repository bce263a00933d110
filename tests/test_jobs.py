"""Job-document parsing pinned at its edges: the error (message, line and
column) of each malformed document, the refusal of caps and depths passed
in that a document may not hold, the canonical round trip of every
well-formed document the repository ships, the check table kept in step
with the demo and the README, and a universe built only for the checks
that read it."""

import json
import pathlib
import re

import pytest

from modlab import jobs
from modlab.classify import THEOREM_IDS, generate_universe
from modlab.cli import main
from modlab.errors import JobParseError
from modlab.firstness import NOTIONS
from modlab.jobs import CHECKS, parse_job, run_job

from test_cli import DEMO

ROOT = pathlib.Path(__file__).resolve().parent.parent

R = "[ring]\ncyclic(4)\n"
M = R + "[modules]\nM = regular\n"
P = M + "[preradicals]\na = alpha(S1@M)\n"
TWO = "[ring]\ncyclic(2)\n[modules]\n"
ZERO = M + "Z = quotient(M, S2)\n"
RAW_RING = "[ring]\nraw\nadd = 0 1 / 1 0\n"

# (document, message, line, column), one or more per error branch
MALFORMED = [
    # sections
    ("[nonsense]\nx\n", "unknown section [nonsense]", 1, 1),
    ("[ring]\ncyclic(4)\n[ring]\ncyclic(2)\n", "duplicate section [ring]", 3, 1),
    ("cyclic(4)\n", "content before any section header", 1, 1),
    ("[modules]\nM = regular\n", "missing [ring] section", 1, 1),
    ("[ring]\n[modules]\nM = regular\n", "missing [ring] section", 1, 1),
    # ring
    (RAW_RING + "plus = 0 0 / 0 1\n", "raw ring lines must be add/mul tables",
     4, 1),
    (RAW_RING, "raw ring needs both add and mul tables", 2, 1),
    ("[ring]\nraw\nadd = 0 1 / / 1 0\nmul = 0 0 / 0 1\n", "empty table row",
     3, 13),
    ("[ring]\nraw\nadd = 0 1 / 1 x\nmul = 0 0 / 0 1\n",
     "table entries must be integers", 3, 15),
    ("[ring]\ncyclic(4)\ncyclic(2)\n",
     "ring section must be a single constructor line", 3, 1),
    ("[ring]\ncyclic(4) x\n", "trailing input after ring constructor", 2, 11),
    ("[ring]\nfield(4)\n", "unknown ring constructor 'field'", 2, 6),
    ("[ring]\n(4)\n", "expected a name", 2, 1),
    ("[ring]\ncyclic(x)\n", "expected a number", 2, 8),
    ("[ring]\ncyclic 4\n", "expected '('", 2, 7),
    ("[ring]\ncyclic(4\n", "expected ')'", 2, 9),
    ("[ring]\nmatrix(cyclic(2) 2)\n", "expected ','", 2, 18),
    ("[ring]\nproduct(cyclic(2), cyclic(3)\n", "expected ')'", 2, 29),
    ("[ring]\nquotient(cyclic(8), I9)\n",
     "ring has 4 two-sided ideals, I9 unresolved", 2, 24),
    # modules
    (R + "[modules]\n= regular\n",
     "module lines look like `name = constructor`", 4, 1),
    (M + "M = regular\n", "duplicate module name 'M'", 5, 1),
    (R + "[modules]\nQ = quotient(N, S1)\n", "unknown module 'N'", 4, 15),
    (M + "X = sub(M, S9)\n", "module has 3 submodules, S9 unresolved", 5, 15),
    (M + "C = cyclic(M, 9)\n", "element 9 out of range for 'M'", 5, 17),
    (M + "D = direct_sum(M M)\n", "expected ')'", 5, 18),
    (R + "[modules]\nX = twisted(M)\n", "unknown module constructor 'twisted'",
     4, 12),
    (TWO + "X = raw(add = 0 1 / 1 0 ; mul = 0 0 / 0 1)\n",
     "raw module needs `add = ...; act = ...`", 4, 27),
    (TWO + "X = raw()\n", "raw module needs `add = ...; act = ...`", 4, 9),
    (TWO + "X = raw(add = 0 1 / 1 0)\n",
     "raw module needs both add and act tables", 4, 9),
    (TWO + "X = raw(add = 0 1 / 1 0 ; act = 0 0 / x 1)\n",
     "table entries must be integers", 4, 39),
    (TWO + "X = raw(add = 0 1 / 1 0 ; act = 0 0 / / 0 1)\n", "empty table row",
     4, 39),
    # preradicals
    (M + "[preradicals]\nbad line\n",
     "preradical lines look like `name = expression`", 6, 1),
    (M + "[preradicals]\na = soc\na = rad\n", "duplicate preradical name 'a'",
     7, 1),
    (M + "[preradicals]\na = rad extra\n",
     "trailing input after preradical expression", 6, 9),
    (M + "[preradicals]\na = alpha(S1@N)\n", "unknown module 'N'", 6, 15),
    (M + "[preradicals]\na = alpha(S1 M)\n", "expected '@'", 6, 14),
    (M + "[preradicals]\na = alpha(S9@M)\n",
     "module has 3 submodules, S9 unresolved", 6, 16),
    (TWO + "M = regular\nD = direct_sum(M, M)\n[preradicals]\n"
     "a = omega(S1@D)\n",
     "Submodule({(0,0),(0,1)} of sum(regular(cyclic(2))+regular(cyclic(2))))"
     " is not fully invariant", 7, 16),
    (M + "[preradicals]\na = trad(I9)\n",
     "ring has 3 two-sided ideals, I9 unresolved", 6, 13),
    (M + "[preradicals]\na = frob\n", "unknown preradical 'frob'", 6, 9),
    (M + "[preradicals]\na = comp(soc)\n", "expected ','", 6, 13),
    (M + "[preradicals]\na = join(soc, rad\n", "expected ')'", 6, 18),
    # checks
    (P + "[checks]\nbogus M\n", "unknown check 'bogus'", 8, 1),
    (P + "[checks]\nbjkn_prime\n", "bjkn_prime takes one module", 8, 11),
    (P + "[checks]\nbjkn_prime N\n", "unknown module 'N'", 8, 12),
    (P + "[checks]\na_first M\n", "a_first takes a module and preradicals",
     8, 10),
    (P + "[checks]\na_first M b\n", "unknown preradical 'b'", 8, 11),
    (P + "[checks]\nevaluate a\n", "evaluate takes a preradical and a module",
     8, 11),
    (P + "[checks]\nflags\n", "flags takes one preradical", 8, 6),
    (P + "[checks]\ncompare a\n", "compare takes two preradicals", 8, 10),
    (P + "[checks]\nclassify M\n", "classify takes no arguments", 8, 10),
    (P + "[checks]\nlep x\n", "lep takes no arguments", 8, 5),
    (P + "[checks]\nverify T99\n",
     "verify takes one of T15, T14, T14.3, P14.1, Perror1, P12, P8.5", 8, 8),
    # universe and output
    (R + "[universe]\ndepth two\n",
     "universe lines are `depth = n` or `cap = n`", 4, 1),
    (R + "[output]\nformat = html\n",
     "output lines are `format = text|structured`", 4, 1),
    # columns are those of the physical line, leading blanks included
    (M + "  X = sub(M, S9)\n", "module has 3 submodules, S9 unresolved", 5, 17),
    (P + "[checks]\n  a_first M b\n", "unknown preradical 'b'", 8, 13),
    (P + "[checks]\n\tbjkn_prime\n", "bjkn_prime takes one module", 8, 12),
    (R + "  [bogus]\n", "unknown section [bogus]", 3, 3),
    ("[ring]\n  cyclic(4) x\n", "trailing input after ring constructor", 2,
     13),
    ("[ring]\n raw\n add = 0 1 / 1 x\nmul = 0 0 / 0 1\n",
     "table entries must be integers", 3, 16),
    (M + "   M = regular\n", "duplicate module name 'M'", 5, 4),
    (R + "[universe]\n  depth two\n",
     "universe lines are `depth = n` or `cap = n`", 4, 3),
    # a table error points at its entry, or at what closes an empty row,
    # in whichever piece of a raw module body it sits
    (TWO + "X = raw(add = 0 y / 1 0 ; act = 0 0 / 0 1)\n",
     "table entries must be integers", 4, 17),
    (TWO + "X = raw( act = 0 0 / 0 1 ;add = 0 1 / 1 0 /)\n",
     "empty table row", 4, 44),
    (TWO + "X = raw(add = / 0 1 / 1 0 ; act = 0 0 / 0 1)\n",
     "empty table row", 4, 15),
    (TWO + "X = raw(add = 0 1 / 1 0 ;; act = 0 0 / 0 1)\n",
     "raw module needs `add = ...; act = ...`", 4, 26),
    (TWO + "X = raw(add = 0 1 / 1 0 ; act =)\n",
     "raw module needs `add = ...; act = ...`", 4, 27),
    (TWO + "X = raw(add = 0 1 / 1 0 ; act = )\n", "empty table row", 4, 33),
    ("[ring]\nraw\nadd = 0 1 / 1 0\nmul = 0 0 / 0 1 /  \n",
     "empty table row", 4, 18),
    # a definition may not take a built-in's name, in any case: an
    # expression reads the name as the built-in, a check as the definition
    (M + "[preradicals]\nsoc = rad\n",
     "preradical name 'soc' is a built-in preradical", 6, 1),
    (M + "[preradicals]\na = soc\n  Rad = a\n",
     "preradical name 'Rad' is a built-in preradical", 7, 3),
    *((M + f"[preradicals]\n{name} = soc\n",
       f"preradical name {name!r} is a built-in preradical", 6, 1)
      for name in ("zero", "ONE", "alpha", "Omega", "beta", "trad", "join",
                   "meet", "comp")),
]


def _ids(table):
    return [f"{i}-" + re.sub(r"\W+", "_", message).strip("_")[:40]
            for i, (_, message, _, _) in enumerate(table)]


@pytest.mark.parametrize("document, message, line, column", MALFORMED,
                         ids=_ids(MALFORMED))
def test_malformed_document_error(document, message, line, column):
    with pytest.raises(JobParseError) as exc:
        parse_job(document)
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        f"{message} at line {line}, column {column}", line, column)


@pytest.mark.parametrize("document", [2.0, b"[ring]\ncyclic(2)\n", None])
def test_a_document_that_is_not_text_is_refused(document):
    # unchecked, a float raised a bare AttributeError and bytes a bare
    # TypeError from the section splitter
    with pytest.raises(JobParseError) as exc:
        parse_job(document)
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        f"a job document is a str, not {type(document).__name__}",
        None, None)


# documents that were accepted, silently canonicalised, or failed only in
# the engine: each definition line holds one expression, a raw table is
# given once, and [universe]/[output] lines must match in full
REFUSED = [
    (R + "[modules]\nM = regular junk\n",
     "trailing input after module constructor", 4, 13),
    (M + "Q = quotient(M, S1) extra\n",
     "trailing input after module constructor", 5, 21),
    (M + "C = cyclic(M, 2) q\n", "trailing input after module constructor",
     5, 18),
    (TWO + "X = raw(add = 0 1 / 1 0 ; act = 0 0 / 0 1) zzz\n",
     "trailing input after module constructor", 4, 44),
    (R + "[modules]\nM = regular, sub(M, S1)\n",
     "trailing input after module constructor", 4, 12),
    (TWO + "X = raw(add = 0 1 / 1 0 ; act = 0 0 / 0 1\n", "expected ')'", 4, 42),
    (R + "[universe]\ndepth = 1 cap = 8\n",
     "universe lines are `depth = n` or `cap = n`", 4, 1),
    (R + "[output]\nformat = structuredXYZ\n",
     "output lines are `format = text|structured`", 4, 1),
    (RAW_RING + "add = 0 1 / 1 0\nmul = 0 0 / 0 1\n", "duplicate add table",
     4, 1),
    (TWO + "X = raw(add = 0 1 / 1 0 ; add = 0 1 / 1 0 ; act = 0 0 / 0 1)\n",
     "duplicate add table", 4, 27),
    # the body of raw( ends at its first ')'
    (TWO + "X = raw(add = 0 1) / 1 0 ; act = 0 0 / 0 1)\n",
     "raw module needs both add and act tables", 4, 9),
    # int() reads these; a table entry is digits only
    (TWO + "X = raw(add = 0 1 / 1 0 ; act = 0 0 / 0_0 1)\n",
     "table entries are written in the digits 0-9 only", 4, 39),
    ("[ring]\nraw\nadd = 0 1 / 1 0\nmul = 0 0 / 0 +1\n",
     "table entries are written in the digits 0-9 only", 4, 15),
    (TWO + "X = raw(add = 0 1 / 1 0 ; act = 0 0 / -1 1)\n",
     "table entries are written in the digits 0-9 only", 4, 39),
    # a setting given twice was silently overridden by the later line
    (R + "[universe]\ndepth = 1\ndepth = 3\n",
     "duplicate universe setting 'depth'", 5, 1),
    (R + "[universe]\ncap = 8\ndepth = 1\ncap = 8\n",
     "duplicate universe setting 'cap'", 6, 1),
    (R + "[output]\nformat = text\nformat = structured\n",
     "duplicate output setting 'format'", 5, 1),
    # a depth below 1 ran depth 1 and was reported as given
    (R + "[universe]\ndepth = 0\n", "universe depth must be at least 1", 4, 9),
    # a cap below 1 fits no sum, so it ran depth 1 and was reported as given
    (R + "[universe]\ncap = 0\n", "universe cap must be at least 1", 4, 7),
    # a notion on a zero module was reported as routes disagreeing (exit 4)
    *[(ZERO + f"[checks]\n{kind} Z\n",
       f"{kind} is defined for nonzero modules only", 7, len(kind) + 2)
      for kind in NOTIONS],
    (ZERO + "[preradicals]\na = alpha(S1@M)\n[checks]\na_first Z a\n",
     "a_first is defined for nonzero modules only", 9, 9),
    # a non-ASCII digit was read as its ASCII one: cyclic(\u0663) ran as
    # cyclic(3), and so on for the indices
    ("[ring]\ncyclic(\u0663)\n", "expected a number", 2, 8),
    (M + "X = sub(M, S\u0662)\n", "expected a number", 5, 13),
    ("[ring]\nquotient(cyclic(8), I\u0662)\n", "expected a number", 2, 22),
    (M + "[preradicals]\na = trad(I\u0661)\n", "expected a number", 6, 11),
]


@pytest.mark.parametrize("document, message, line, column", REFUSED,
                         ids=_ids(REFUSED))
def test_malformed_line_is_refused(document, message, line, column, tmp_path,
                                   capsys):
    test_malformed_document_error(document, message, line, column)
    path = tmp_path / "job.txt"
    path.write_text(document)
    assert main(["define", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"parse error: {message} at line {line}, column {column}\n")


NESTED = [
    ("[ring]\n" + "product(" * 1000 + "cyclic(2)" + ")" * 1000 + "\n",
     "ring constructor", 2),
    (M + "[preradicals]\na = " + "comp(" * 1000 + "soc" + ", rad)" * 1000
     + "\n", "preradical expression", 6),
    (M + "[preradicals]\na = " + "join(" * 1000 + "soc" + ")" * 1000 + "\n",
     "preradical expression", 6),
]


@pytest.mark.parametrize("document, what, line", NESTED,
                         ids=["product", "comp", "join"])
def test_deep_nesting_is_refused_on_its_line(document, what, line, tmp_path,
                                             capsys):
    # nesting past the recursion limit died with a RecursionError traceback,
    # none of the documented exit codes; the column is wherever the limit
    # was reached, which depends on the caller's stack
    message = f"{what} nested too deeply at line {line}, column "
    with pytest.raises(JobParseError) as exc:
        parse_job(document)
    assert str(exc.value).startswith(message) and exc.value.line == line
    path = tmp_path / "job.txt"
    path.write_text(document)
    for command in ("define", "check"):
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err.startswith("parse error: " + message)


@pytest.mark.parametrize("override, value, what", [
    ("universe_depth", 0, "universe depth"),
    ("universe_depth", "3", "universe depth"),
    ("universe_depth", 2.0, "universe depth"),
    ("module_cap", 2.5, "module cap"),
    ("module_cap", -1, "module cap"),
    ("ring_cap", 2.5, "ring cap"),
    ("ring_cap", 0, "ring cap")])
def test_an_override_a_document_may_not_hold_is_refused(override, value,
                                                        what, monkeypatch):
    # unchecked, depth 0 parsed and failed in run_job, a cap of 2.5 was
    # cut to 2 or reached the ring constructors, and "3" was read as 3
    def no_work(*args):
        raise AssertionError("the document was read")

    monkeypatch.setattr(jobs, "_split_sections", no_work)
    with pytest.raises(ValueError) as exc:
        parse_job(M, **{override: value})
    assert str(exc.value) == (
        f"{what} must be at least 1 and an int, not {value!r}")


def test_an_override_left_at_none_keeps_its_meaning():
    # None takes the cap and depth from the document and caps no ring
    spec = parse_job("[ring]\ncyclic(32)\n[universe]\ndepth = 3\ncap = 8\n",
                     ring_cap=None, module_cap=None, universe_depth=None)
    assert (spec.ring.order, spec.ring_cap, spec.universe_depth,
            spec.module_cap) == (32, None, 3, 8)


def _counted_universes(monkeypatch):
    """Count ``run_job``'s calls of ``generate_universe``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return generate_universe(*args, **kwargs)

    monkeypatch.setattr(jobs, "generate_universe", counted)
    return calls


@pytest.mark.parametrize("checks, kinds, built", [
    ("bjkn_prime M\nclassify\nlep\nevaluate a M\nclasses M a\n", None, 0),
    # ``modlab verify`` on a document whose readers are all check lines
    ("flags a\ncompare a a\nprime M\n", ["verify"], 0),
    ("flags a\ncompare a a\nverify T15\nverify P12\n", None, 1)])
def test_a_universe_is_built_only_when_a_check_reads_it(checks, kinds, built,
                                                        monkeypatch):
    calls = _counted_universes(monkeypatch)
    spec = parse_job(P + "[checks]\n" + checks)
    report, code = run_job(spec, kinds)
    assert (code, len(calls)) == (0, built)
    assert report["universe_size"] == len(
        generate_universe(spec.ring, 2, 64).modules) == 6


def test_zero_module_checks_defined_on_it_are_accepted():
    spec = parse_job(ZERO + "[preradicals]\na = alpha(S1@M)\n[checks]\n"
                     "classes Z a\na_fully_first Z a\n")
    report, code = run_job(spec)
    assert code == 0
    assert [e["status"] for e in report["checks"]] == ["ok", "ok"]
    assert report["checks"][1]["verdict"] is True


def test_indented_document_parses_like_its_canonical_form():
    document = "".join("  " + line for line in
                       (ROOT / "demo.job").read_text(encoding="utf-8")
                       .splitlines(keepends=True))
    assert parse_job(document) == parse_job(
        (ROOT / "demo.job").read_text(encoding="utf-8"))


def _well_formed_documents():
    jobs = json.loads((ROOT / "perfbench" / "reference" / "jobs-mix.json")
                      .read_text(encoding="utf-8"))["jobs"]
    return ([("demo.job", (ROOT / "demo.job").read_text(encoding="utf-8")),
             ("DEMO", DEMO)]
            + [(key, job["document"]) for key, job in sorted(jobs.items())])


def test_canonical_round_trip():
    documents = _well_formed_documents()
    assert len(documents) == 338
    for key, document in documents:
        spec = parse_job(document)
        canon = spec.canonical_document()
        again = parse_job(canon)
        assert again == spec, key
        assert again.canonical_document() == canon, key


def test_demo_and_readme_cover_the_check_table():
    # a check kind cannot be added without a demo line and documentation
    demo = parse_job((ROOT / "demo.job").read_text(encoding="utf-8"))
    assert {kind for kind, _, _ in demo.checks} == set(CHECKS)
    assert {args[0] for kind, args, _ in demo.checks
            if kind == "verify"} == set(THEOREM_IDS)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Job documents", 1)[1].split("```", 2)[1]
    assert {kind for kind, _, _ in parse_job(example).checks} == set(CHECKS)
