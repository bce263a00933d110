"""Job documents: parsing, resolution, execution, and report rendering.

A job document is section-based text (sections: ring, modules, preradicals,
checks, universe, output).  The language is declared here once:

- expressions are read through the primitives of ``_Cursor``: a
  comma-separated list, an indexed reference (``S<k>`` resolved by
  ``_submodule``, ``I<k>`` by ``_ideal``) and a raw table with its
  canonical text, read by a cursor of its own line or ``;`` piece, so an
  error points at the bad entry;
- ``[modules]`` and ``[preradicals]`` lines go through one ``name =
  expression`` reader, and every definition line, like the ring line,
  holds exactly one expression;
- ``CHECKS`` gives each check kind its argument signature, its runner and
  the command (``check`` or ``verify``) that runs it.

``parse_job`` fully resolves a document into live objects or raises a parse
error carrying line/column; ``run_job`` executes the checks in declaration
order and assembles a report that is byte-identical across runs for the
structured format.  Mathematical negatives are successful runs; only
cross-check disagreements (engine bugs) make the exit status nonzero.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

from . import __version__
from .classify import (THEOREM_IDS, _at_least_one, classify_ring,
                       enumerate_lep, generate_universe, plan_universe,
                       verify_theorem)
from .config import (DEFAULT_MODULE_CAP, DEFAULT_RING_CAP,
                     DEFAULT_UNIVERSE_DEPTH)
from .errors import InternalInconsistency, JobParseError, ModlabError
from .firstness import (NOTIONS, a_first_detail, a_fully_first_detail,
                        class_membership, decide)
from .modules import (cyclic_module, direct_sum_module, enumerate_submodules,
                      module_from_tables, quotient_module, regular_module)
from .preradicals import (Alpha, Beta, Compose, Join, Meet, Omega, ONE, RAD,
                          SOC, Trad, ZERO, compare, property_flags)
from .rings import (cyclic_ring, enumerate_ideals, matrix_ring, product_ring,
                    quotient_ring, ring_from_tables)

SCHEMA_VERSION = "1"

SECTIONS = ("ring", "modules", "preradicals", "checks", "universe", "output")

_CONSTANTS = {"soc": SOC, "rad": RAD, "zero": ZERO, "one": ONE}

_FILTERS = {"alpha": Alpha, "omega": Omega, "beta": Beta}

_LATTICE_OPS = {"join": Join, "meet": Meet}

# every word a preradical expression reads as a built-in, in any case: a
# definition may not take one, or the name would mean two things
_BUILTINS = {*_CONSTANTS, *_FILTERS, "trad", *_LATTICE_OPS, "comp"}

_DIGITS = re.compile(r"[0-9]+")

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9.]*")

_ARGUMENT = re.compile(r"\S+")

# a table token after optional blanks: an entry, a row break, or the end
_TABLE_TOKEN = re.compile(r"\s*([^\s/]+|/|$)")

_DEFINITION = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.+)")

_UNIVERSE_SETTING = re.compile(r"(depth|cap)\s*=\s*([0-9]+)")

_OUTPUT_SETTING = re.compile(r"(format)\s*=\s*(text|structured)")


@dataclass
class JobSpec:
    """A fully resolved job: live objects plus canonical source text."""
    ring: object
    ring_text: str
    modules: dict
    module_texts: list
    preradicals: dict
    preradical_texts: list
    checks: list                       # (kind, argument names, canonical_text)
    universe_depth: int = DEFAULT_UNIVERSE_DEPTH
    ring_cap: int = DEFAULT_RING_CAP
    module_cap: int = DEFAULT_MODULE_CAP
    output_format: str = "text"

    def canonical_document(self):
        lines = ["[ring]", self.ring_text, "", "[modules]"]
        lines += [f"{name} = {text}" for name, text in self.module_texts]
        lines += ["", "[preradicals]"]
        lines += [f"{name} = {text}" for name, text in self.preradical_texts]
        lines += ["", "[checks]"]
        lines += [text for _, _, text in self.checks]
        lines += ["", "[universe]", f"depth = {self.universe_depth}",
                  f"cap = {self.module_cap}", "", "[output]",
                  f"format = {self.output_format}", ""]
        return "\n".join(lines)

    def __eq__(self, other):
        return (isinstance(other, JobSpec)
                and self.canonical_document() == other.canonical_document())


class _Cursor:
    """A position in one physical line of a document, starting at its first
    non-blank; an error reports the 1-based column in that line.  ``text``
    may be a prefix of the line, which bounds what the cursor reads."""

    def __init__(self, text, line):
        self.text = text
        self.pos = len(text) - len(text.lstrip())
        self.line = line

    def error(self, message):
        raise JobParseError(message, self.line, self.pos + 1)

    def peek(self):
        # the sentinel is never a substring match, unlike ""
        return self.text[self.pos] if self.pos < len(self.text) else "\0"

    def eat(self, ch):
        if not self.text.startswith(ch, self.pos):
            self.error(f"expected {ch!r}")
        self.pos += 1

    def expect(self, ch):
        """``ch`` after optional blanks.  An opening parenthesis is eaten
        directly instead: it follows its constructor's name without a gap."""
        self.skip_ws()
        self.eat(ch)

    def skip_ws(self):
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos] in " \t":
            pos += 1
        self.pos = pos

    def word(self):
        self.skip_ws()
        m = _NAME.match(self.text, self.pos)
        if not m:
            self.error("expected a name")
        self.pos = m.end()
        return m.group(0)

    def integer(self):
        self.skip_ws()
        # \d would also match non-ASCII digits, which int() reads
        m = _DIGITS.match(self.text, self.pos)
        if not m:
            self.error("expected a number")
        self.pos = m.end()
        return int(m.group(0))

    def done(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def items(self, item):
        """``(a, b, ...)``: one or more comma-separated entries, each read by
        ``item()`` as a (value, canonical text) pair.  Returns the values
        and the texts joined by commas."""
        self.eat("(")
        parts = [item()]
        self.skip_ws()
        while self.peek() == ",":
            self.pos += 1
            parts.append(item())
            self.skip_ws()
        self.eat(")")
        return [v for v, _ in parts], ",".join(t for _, t in parts)

    def index(self, prefix):
        """An index written ``<prefix><k>`` (prefix in either case) or ``<k>``."""
        self.skip_ws()
        if self.peek() in (prefix, prefix.lower()):
            self.pos += 1
        return self.integer()

    def pieces(self, end, sep):
        """One cursor per ``sep``-separated piece of the text from here to
        ``end``, each at its piece's first non-blank and reading no further
        than its piece."""
        cursors = []
        start = self.pos
        for piece in self.text[start:end].split(sep):
            cur = _Cursor(self.text[:start + len(piece)], self.line)
            cur.pos = start
            cur.skip_ws()
            cursors.append(cur)
            start += len(piece) + len(sep)
        return cursors

    def table(self):
        """The integer rows written ``a b / c d`` from here to the end of
        the text, and their canonical text.  An error points at the bad
        entry, or at the ``/`` or end that closes an empty row."""
        rows, row = [], []
        for m in _TABLE_TOKEN.finditer(self.text, self.pos):
            self.pos, token = m.start(1), m.group(1)
            if token in ("/", ""):
                if not row:
                    self.error("empty table row")
                rows.append(row)
                row = []
                if not token:
                    break
                continue
            try:
                row.append(int(token))
            except ValueError:
                self.error("table entries must be integers")
            # int() also takes signs, underscores and non-ASCII digits
            if not _DIGITS.fullmatch(token):
                self.error("table entries are written in the digits 0-9 only")
        return rows, " / ".join(" ".join(map(str, row)) for row in rows)


# ---------------------------------------------------------------------------
# section splitting

def _split_sections(document):
    """The ``(line number, line)`` pairs of each section, comments and
    trailing blanks cut; leading blanks are kept, so columns stay those of
    the physical line."""
    sections = {}
    current = None
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        stripped = line.lstrip()
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip().lower()
            if name not in SECTIONS:
                _Cursor(line, lineno).error(f"unknown section [{name}]")
            if name in sections:
                _Cursor(line, lineno).error(f"duplicate section [{name}]")
            current = name
            sections[name] = []
            continue
        if current is None:
            _Cursor(line, lineno).error("content before any section header")
        sections[current].append((lineno, line))
    if "ring" not in sections or not sections["ring"]:
        raise JobParseError("missing [ring] section", 1, 1)
    return sections


# ---------------------------------------------------------------------------
# what every constructor shares

def _expression(cur, parse, what):
    """``parse(cur)`` over the rest of the line: trailing input is an error,
    and so is nesting deeper than the interpreter's recursion limit."""
    try:
        value = parse(cur)
    except RecursionError:
        cur.error(f"{what} nested too deeply")
    if not cur.done():
        cur.error(f"trailing input after {what}")
    return value


def _definitions(lines, kind, noun, parse, reserved=()):
    """``name = expression`` lines, in order, each name defined once and
    none in ``reserved`` in any case.

    ``parse(cursor, defined)`` reads one expression and may refer to the
    names defined above it.  Returns the definitions by name and their
    canonical ``(name, text)`` pairs.
    """
    defined = {}
    texts = []
    for lineno, line in lines:
        cur = _Cursor(line, lineno)
        m = _DEFINITION.match(line, cur.pos)
        if not m:
            cur.error(f"{kind} lines look like `name = {noun}`")
        name = m.group(1)
        if name in defined:
            cur.error(f"duplicate {kind} name {name!r}")
        if name.lower() in reserved:
            cur.error(f"{kind} name {name!r} is a built-in {kind}")
        cur.pos = m.start(2)
        value, text = _expression(cur, lambda cur: parse(cur, defined),
                                  f"{kind} {noun}")
        defined[name] = value
        texts.append((name, text))
    return defined, texts


def _module_ref(cur, modules):
    """A module named above: (module, name)."""
    name = cur.word()
    if name not in modules:
        cur.error(f"unknown module {name!r}")
    return modules[name], name


def _submodule(cur, module, idx):
    """``S<idx>``: the submodule at canonical index ``idx`` of ``module``."""
    subs = enumerate_submodules(module).submodules
    if not 0 <= idx < len(subs):
        cur.error(f"module has {len(subs)} submodules, S{idx} unresolved")
    return subs[idx]


def _ideal(cur, ring, idx):
    """``I<idx>``: the two-sided ideal at canonical index ``idx`` of ``ring``."""
    ideals = enumerate_ideals(ring, "two-sided")
    if not 0 <= idx < len(ideals):
        cur.error(f"ring has {len(ideals)} two-sided ideals, I{idx} unresolved")
    return ideals[idx]


def _raw_tables(pieces, second, what, usage, cur):
    """The ``add`` and ``second`` tables of a raw ring or module, each
    written once as a ``name = rows`` piece and read by the piece's own
    cursor; a missing table is reported at ``cur``."""
    tables = {}
    named = re.compile(rf"(add|{second})\s*=(?=.)")
    for piece in pieces:
        m = named.match(piece.text, piece.pos)
        if not m:
            piece.error(usage)
        if m.group(1) in tables:
            piece.error(f"duplicate {m.group(1)} table")
        piece.pos = m.end()
        tables[m.group(1)] = piece.table()
    if len(tables) < 2:
        cur.error(f"raw {what} needs both add and {second} tables")
    return tables["add"], tables[second]


# ---------------------------------------------------------------------------
# ring expressions

def _parse_ring_expr(cur, cap):
    name = cur.word().lower()
    if name == "cyclic":
        cur.eat("(")
        n = cur.integer()
        cur.expect(")")
        return cyclic_ring(n, cap=cap), f"cyclic({n})"
    if name == "matrix":
        cur.eat("(")
        base, base_text = _parse_ring_expr(cur, cap)
        cur.expect(",")
        k = cur.integer()
        cur.expect(")")
        return matrix_ring(base, k, cap=cap), f"matrix({base_text},{k})"
    if name == "product":
        factors, text = cur.items(lambda: _parse_ring_expr(cur, cap))
        return product_ring(factors, cap=cap), f"product({text})"
    if name == "quotient":
        cur.eat("(")
        base, base_text = _parse_ring_expr(cur, cap)
        cur.expect(",")
        idx = cur.index("I")
        cur.expect(")")
        return (quotient_ring(base, _ideal(cur, base, idx), cap=cap),
                f"quotient({base_text},I{idx})")
    cur.error(f"unknown ring constructor {name!r}")


def _parse_ring_section(lines, cap):
    lineno, first = lines[0]
    if first.lstrip().lower() == "raw":
        (add, add_text), (mul, mul_text) = _raw_tables(
            [_Cursor(line, lno) for lno, line in lines[1:]], "mul",
            "ring", "raw ring lines must be add/mul tables",
            _Cursor(first, lineno))
        return (ring_from_tables(add, mul, cap=cap),
                f"raw\nadd = {add_text}\nmul = {mul_text}")
    if len(lines) > 1:
        _Cursor(lines[1][1], lines[1][0]).error(
            "ring section must be a single constructor line")
    return _expression(_Cursor(first, lineno),
                       lambda cur: _parse_ring_expr(cur, cap),
                       "ring constructor")


# ---------------------------------------------------------------------------
# module expressions

def _parse_module_expr(cur, ring, modules, cap):
    kind = cur.word().lower()
    if kind == "regular":
        return regular_module(ring), "regular"
    if kind in ("quotient", "sub"):
        cur.eat("(")
        module, ref = _module_ref(cur, modules)
        cur.expect(",")
        idx = cur.index("S")
        cur.expect(")")
        sub = _submodule(cur, module, idx)
        return (quotient_module(module, sub) if kind == "quotient"
                else sub.as_module()), f"{kind}({ref},S{idx})"
    if kind == "direct_sum":
        parts, text = cur.items(lambda: _module_ref(cur, modules))
        return direct_sum_module(parts, cap=cap), f"direct_sum({text})"
    if kind == "cyclic":
        cur.eat("(")
        module, ref = _module_ref(cur, modules)
        cur.expect(",")
        el = cur.integer()
        cur.expect(")")
        if not 0 <= el < module.order:
            cur.error(f"element {el} out of range for {ref!r}")
        return cyclic_module(module, el), f"cyclic({ref},{el})"
    if kind == "raw":
        cur.eat("(")
        end = cur.text.find(")", cur.pos)
        if end < 0:
            cur.pos = len(cur.text)
            cur.error("expected ')'")
        (add, add_text), (act, act_text) = _raw_tables(
            cur.pieces(end, ";"), "act", "module",
            "raw module needs `add = ...; act = ...`", cur)
        cur.pos = end + 1
        return (module_from_tables(ring, add, act, cap=cap),
                f"raw(add = {add_text} ; act = {act_text})")
    cur.error(f"unknown module constructor {kind!r}")


# ---------------------------------------------------------------------------
# preradical expressions

def _parse_preradical_expr(cur, ring, modules, preradicals):
    def operand():
        return _parse_preradical_expr(cur, ring, modules, preradicals)

    name = cur.word()
    lowered = name.lower()
    if lowered in _CONSTANTS:
        return _CONSTANTS[lowered], lowered
    if lowered in _FILTERS:
        cur.eat("(")
        idx = cur.index("S")
        cur.expect("@")
        module, ref = _module_ref(cur, modules)
        cur.expect(")")
        sub = _submodule(cur, module, idx)
        try:
            pr = _FILTERS[lowered](sub)
        except ModlabError as exc:
            cur.error(str(exc))
        return pr, f"{lowered}(S{idx}@{ref})"
    if lowered == "trad":
        cur.eat("(")
        idx = cur.index("I")
        cur.expect(")")
        return Trad(_ideal(cur, ring, idx)), f"trad(I{idx})"
    if lowered in _LATTICE_OPS:
        parts, text = cur.items(operand)
        return _LATTICE_OPS[lowered](parts), f"{lowered}({text})"
    if lowered == "comp":
        cur.eat("(")
        outer, outer_text = operand()
        cur.expect(",")
        inner, inner_text = operand()
        cur.expect(")")
        return Compose(outer, inner), f"comp({outer_text},{inner_text})"
    if name in preradicals:
        return preradicals[name], name
    cur.error(f"unknown preradical {name!r}")


# ---------------------------------------------------------------------------
# checks
#
# A runner takes the spec, a function of no arguments that returns the
# job's universe, the check kind and the argument names, and returns the
# fields of the check's report entry.  Only ``flags``, ``compare`` and
# ``verify`` call that function, so a job whose checks are all others
# builds no universe.  A runner calls the engine through this module's
# globals, looked up at call time.

def _verdict(verdict, witness):
    out = {"verdict": verdict}
    if witness is not None:
        out["witness"] = witness
    return out


def _family(spec, names):
    return [spec.preradicals[n] for n in names]


def _run_notion(spec, universe, kind, module):
    return _verdict(*decide(spec.modules[module], kind))


def _run_a_first(spec, universe, kind, module, *family):
    return _verdict(*a_first_detail(spec.modules[module],
                                    _family(spec, family)))


def _run_a_fully_first(spec, universe, kind, module, *family):
    return _verdict(*a_fully_first_detail(spec.modules[module],
                                          _family(spec, family)))


def _run_classes(spec, universe, kind, module, *family):
    return asdict(class_membership(spec.modules[module],
                                   _family(spec, family)))


def _run_evaluate(spec, universe, kind, preradical, module):
    value = spec.preradicals[preradical].evaluate(spec.modules[module])
    return {"carrier": list(value.labels())}


def _run_flags(spec, universe, kind, preradical):
    return asdict(property_flags(spec.preradicals[preradical], universe()))


def _run_compare(spec, universe, kind, left, right):
    return {"relation": compare(spec.preradicals[left],
                                spec.preradicals[right], universe())}


def _run_classify(spec, universe, kind):
    return classify_ring(spec.ring).to_dict()


def _run_lep(spec, universe, kind):
    evaluators = enumerate_lep(spec.ring)
    return {"count": len(evaluators),
            "filters": [p.describe() for p in evaluators]}


def _run_verify(spec, universe, kind, theorem):
    verdict = verify_theorem(theorem, spec.ring, universe())
    if not verdict.consistent:
        raise InternalInconsistency(
            f"theorem {theorem} sides disagree: {verdict.sides}")
    return verdict.to_dict()


class Check(NamedTuple):
    """One check kind: ``signature`` names the role of each argument
    ("[nonzero] module", "preradical", "theorem"; a last "preradicals"
    takes one or more), ``usage`` is what an arity error says it takes,
    ``run`` is its runner and ``command`` the CLI command that runs it."""
    signature: tuple
    usage: str
    run: Callable
    command: str


CHECKS = {
    **{notion: Check(("nonzero module",), "one module", _run_notion, "check")
       for notion in NOTIONS},
    "a_first": Check(("nonzero module", "preradicals"),
                     "a module and preradicals", _run_a_first, "check"),
    "a_fully_first": Check(("module", "preradicals"),
                           "a module and preradicals", _run_a_fully_first,
                           "check"),
    "classes": Check(("module", "preradicals"), "a module and preradicals",
                     _run_classes, "check"),
    "evaluate": Check(("preradical", "module"), "a preradical and a module",
                      _run_evaluate, "check"),
    "flags": Check(("preradical",), "one preradical", _run_flags, "check"),
    "compare": Check(("preradical", "preradical"), "two preradicals",
                     _run_compare, "check"),
    "classify": Check((), "no arguments", _run_classify, "check"),
    "lep": Check((), "no arguments", _run_lep, "check"),
    "verify": Check(("theorem",), "one of " + ", ".join(THEOREM_IDS),
                    _run_verify, "verify"),
}


def _parse_check(line, lineno, modules, preradicals):
    """``kind arg ...``.  An unknown name, or a zero module where the
    notion is defined for nonzero modules only, is reported at the name, a
    surplus argument at the first one and a missing one at the line's
    end."""
    cur = _Cursor(line, lineno)
    kind, *args = _ARGUMENT.finditer(line)
    kind = kind.group().lower()
    if kind not in CHECKS:
        cur.error(f"unknown check {kind!r}")
    names = [m.group() for m in args]
    roles = list(CHECKS[kind].signature)
    if roles[-1:] == ["preradicals"]:
        roles[-1:] = ["preradical"] * max(1, len(names) - len(roles) + 1)
    usage = f"{kind} takes {CHECKS[kind].usage}"
    if len(names) != len(roles):
        cur.pos = args[len(roles)].start() if args[len(roles):] else len(line)
        cur.error(usage)
    scopes = {"module": modules, "nonzero module": modules,
              "preradical": preradicals, "theorem": THEOREM_IDS}
    for role, m in zip(roles, args):
        cur.pos = m.start()
        if m.group() not in scopes[role]:
            cur.error(usage if role == "theorem"
                      else f"unknown {role.split()[-1]} {m.group()!r}")
        if role == "nonzero module" and modules[m.group()].is_zero():
            cur.error(f"{kind} is defined for nonzero modules only")
    return kind, tuple(names), " ".join([kind] + names)


# ---------------------------------------------------------------------------
# top-level parse

def _settings(sections, section, pattern, usage, least=None):
    """The ``key = value`` lines of a settings section, each key given at
    most once; every line must match the compiled ``pattern`` (groups:
    key, value).
    ``least`` maps a key to the least integer value it may take."""
    values = {}
    for lineno, line in sections.get(section, []):
        cur = _Cursor(line, lineno)
        m = pattern.fullmatch(line, cur.pos)
        if not m:
            cur.error(usage)
        key, value = m.groups()
        if key in values:
            cur.error(f"duplicate {section} setting {key!r}")
        if key in (least or {}) and int(value) < least[key]:
            cur.pos += m.start(2)
            cur.error(f"{section} {key} must be at least {least[key]}")
        values[key] = value
    return values


def parse_job(document, ring_cap=DEFAULT_RING_CAP, module_cap=None,
              universe_depth=None):
    """Parse and fully resolve a job document.

    Caps provided here (e.g. from CLI flags) override the document's own
    universe section; those left at None come from the document, or else
    from the package defaults, and a ``ring_cap`` of None caps no ring.
    An override that is not None must be an int of at least 1, or
    ``ValueError`` is raised before any work.  A document that is not a
    ``str`` (bytes, say) is refused as a ``JobParseError`` with no
    position.
    """
    for what, value in (("ring cap", ring_cap), ("module cap", module_cap),
                        ("universe depth", universe_depth)):
        if value is not None:
            _at_least_one(what, value)
    if not isinstance(document, str):
        raise JobParseError(f"a job document is a str, not "
                            f"{type(document).__name__}")
    sections = _split_sections(document)
    universe = _settings(
        sections, "universe", _UNIVERSE_SETTING,
        "universe lines are `depth = n` or `cap = n`",
        least={"depth": 1, "cap": 1})
    depth = (int(universe.get("depth", DEFAULT_UNIVERSE_DEPTH))
             if universe_depth is None else universe_depth)
    mod_cap = (int(universe.get("cap", DEFAULT_MODULE_CAP))
               if module_cap is None else module_cap)
    output_format = _settings(
        sections, "output", _OUTPUT_SETTING,
        "output lines are `format = text|structured`").get("format", "text")

    ring, ring_text = _parse_ring_section(sections["ring"], ring_cap)
    modules, module_texts = _definitions(
        sections.get("modules", []), "module", "constructor",
        lambda cur, defined: _parse_module_expr(cur, ring, defined, mod_cap))
    preradicals, preradical_texts = _definitions(
        sections.get("preradicals", []), "preradical", "expression",
        lambda cur, defined: _parse_preradical_expr(cur, ring, modules,
                                                    defined), _BUILTINS)
    checks = [_parse_check(line, lineno, modules, preradicals)
              for lineno, line in sections.get("checks", [])]

    return JobSpec(ring, ring_text, modules, module_texts, preradicals,
                   preradical_texts, checks, depth, ring_cap, mod_cap,
                   output_format)


# ---------------------------------------------------------------------------
# execution

def run_job(spec, kinds=None):
    """Execute the checks; returns (report_dict, exit_code).

    ``kinds`` restricts execution (the CLI runs the kinds whose ``CHECKS``
    command is the one given).  Exit code 4 signals at least one internal
    inconsistency; math negatives leave it at 0.

    The universe is built at the first check that reads it, and at most
    once.  A job that reads none builds none: its ``universe_size`` is
    counted off ``plan_universe``, which builds no module.
    """
    results = []
    exit_code = 0
    built = []

    def universe():
        if not built:
            built.append(generate_universe(spec.ring, depth=spec.universe_depth,
                                           module_cap=spec.module_cap))
        return built[0]

    for kind, args, text in spec.checks:
        if kinds is not None and kind not in kinds:
            continue
        entry = {"check": text, "kind": kind}
        try:
            entry.update(CHECKS[kind].run(spec, universe, kind, *args))
            entry["status"] = "ok"
        except InternalInconsistency as exc:
            entry["status"] = "inconsistent"
            entry["error"] = str(exc)
            exit_code = 4
        results.append(entry)
    report = {
        "schema_version": SCHEMA_VERSION,
        "engine": {"name": "modlab", "version": __version__},
        "ring": spec.ring_text,
        "caps": {"ring": spec.ring_cap, "module": spec.module_cap,
                 "universe_depth": spec.universe_depth},
        "universe_size": len(built[0].modules) if built else len(
            plan_universe(spec.ring, spec.universe_depth, spec.module_cap)),
        "checks": results,
    }
    return report, exit_code


# ---------------------------------------------------------------------------
# rendering

def render_structured(report):
    """Deterministic JSON: sorted keys, fixed layout, trailing newline."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_text(report, runtime=None):
    lines = [f"modlab {report['engine']['version']} report",
             f"ring: {report['ring']}",
             "caps: ring={ring} module={module} universe-depth={universe_depth}"
             .format(**report["caps"]),
             f"universe: {report['universe_size']} modules", ""]
    for entry in report["checks"]:
        status = "" if entry["status"] == "ok" else "  [INCONSISTENT]"
        lines.append(f"* {entry['check']}{status}")
        for key, value in entry.items():
            if key in ("check", "kind", "status"):
                continue
            lines.append(f"    {key}: {value}")
    if runtime is not None:
        lines += ["", f"runtime: {runtime:.2f}s"]
    return "\n".join(lines) + "\n"
