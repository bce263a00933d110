"""Job documents: parsing, resolution, execution, and report rendering.

A job document is section-based text (sections: ring, modules, preradicals,
checks, universe, output).  ``parse_job`` fully resolves it into live
objects or raises a parse error carrying line/column; ``run_job`` executes
the checks in declaration order and assembles a report that is
byte-identical across runs for the structured format.  Mathematical
negatives are successful runs; only cross-check disagreements (engine
bugs) make the exit status nonzero.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from . import __version__
from .classify import (THEOREM_IDS, classify_ring, enumerate_lep,
                       generate_universe, verify_theorem)
from .config import (DEFAULT_MODULE_CAP, DEFAULT_RING_CAP,
                     DEFAULT_UNIVERSE_DEPTH)
from .errors import InternalInconsistency, JobParseError, ModlabError
from .firstness import (NOTIONS, a_first_detail, a_fully_first_detail,
                        class_membership, firstness_report)
from .modules import (cyclic_module, direct_sum_module, enumerate_submodules,
                      module_from_tables, quotient_module, regular_module)
from .preradicals import (Alpha, Beta, Compose, Join, Meet, Omega, ONE, RAD,
                          SOC, Trad, ZERO, compare, property_flags)
from .rings import (cyclic_ring, enumerate_ideals, matrix_ring, product_ring,
                    quotient_ring, ring_from_tables)

SCHEMA_VERSION = "1"

SECTIONS = ("ring", "modules", "preradicals", "checks", "universe", "output")

CHECK_KINDS = NOTIONS + ("a_first", "a_fully_first", "classes", "evaluate",
                         "flags", "compare", "classify", "lep", "verify")


@dataclass
class JobSpec:
    """A fully resolved job: live objects plus canonical source text."""
    ring: object
    ring_text: str
    modules: dict
    module_texts: list
    preradicals: dict
    preradical_texts: list
    checks: list                       # (kind, args, canonical_text)
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
    def __init__(self, text, line):
        self.text = text
        self.pos = 0
        self.line = line

    def error(self, message):
        raise JobParseError(message, self.line, self.pos + 1)

    def peek(self):
        # the sentinel is never a substring match, unlike ""
        return self.text[self.pos] if self.pos < len(self.text) else "\0"

    def eat(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def skip_ws(self):
        while self.peek() in " \t":
            self.pos += 1

    def word(self):
        self.skip_ws()
        m = re.match(r"[A-Za-z_][A-Za-z_0-9.]*", self.text[self.pos:])
        if not m:
            self.error("expected a name")
        self.pos += m.end()
        return m.group(0)

    def integer(self):
        self.skip_ws()
        m = re.match(r"\d+", self.text[self.pos:])
        if not m:
            self.error("expected a number")
        self.pos += m.end()
        return int(m.group(0))

    def done(self):
        self.skip_ws()
        return self.pos >= len(self.text)


# ---------------------------------------------------------------------------
# section splitting

def _split_sections(document):
    sections = {}
    current = None
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip().lower()
            if name not in SECTIONS:
                raise JobParseError(f"unknown section [{name}]", lineno, 1)
            if name in sections:
                raise JobParseError(f"duplicate section [{name}]", lineno, 1)
            current = name
            sections[name] = []
            continue
        if current is None:
            raise JobParseError("content before any section header", lineno, 1)
        sections[current].append((lineno, stripped))
    if "ring" not in sections or not sections["ring"]:
        raise JobParseError("missing [ring] section", 1, 1)
    return sections


# ---------------------------------------------------------------------------
# ring expressions

def _parse_table_rows(text, cur):
    rows = []
    for chunk in text.split("/"):
        entries = chunk.split()
        if not entries:
            cur.error("empty table row")
        try:
            rows.append([int(e) for e in entries])
        except ValueError:
            cur.error("table entries must be integers")
    return rows


def _parse_ring_expr(cur, cap):
    name = cur.word().lower()
    if name == "cyclic":
        cur.eat("(")
        n = cur.integer()
        cur.skip_ws()
        cur.eat(")")
        return cyclic_ring(n, cap=cap), f"cyclic({n})"
    if name == "matrix":
        cur.eat("(")
        base, base_text = _parse_ring_expr(cur, cap)
        cur.skip_ws()
        cur.eat(",")
        k = cur.integer()
        cur.skip_ws()
        cur.eat(")")
        return matrix_ring(base, k, cap=cap), f"matrix({base_text},{k})"
    if name == "product":
        cur.eat("(")
        factors = []
        texts = []
        while True:
            ring, text = _parse_ring_expr(cur, cap)
            factors.append(ring)
            texts.append(text)
            cur.skip_ws()
            if cur.peek() == ",":
                cur.eat(",")
                continue
            cur.eat(")")
            break
        return (product_ring(factors, cap=cap),
                "product(" + ",".join(texts) + ")")
    if name == "quotient":
        cur.eat("(")
        base, base_text = _parse_ring_expr(cur, cap)
        cur.skip_ws()
        cur.eat(",")
        cur.skip_ws()
        if cur.peek() in "Ii":
            cur.pos += 1
        idx = cur.integer()
        cur.skip_ws()
        cur.eat(")")
        ideals = enumerate_ideals(base, "two-sided")
        if not 0 <= idx < len(ideals):
            cur.error(f"ring has {len(ideals)} two-sided ideals, I{idx} unresolved")
        return (quotient_ring(base, ideals[idx], cap=cap),
                f"quotient({base_text},I{idx})")
    cur.error(f"unknown ring constructor {name!r}")


def _parse_ring_section(lines, cap):
    lineno, first = lines[0]
    if first.lower() == "raw":
        tables = {}
        for lno, line in lines[1:]:
            m = re.match(r"(add|mul)\s*=\s*(.+)", line)
            if not m:
                raise JobParseError("raw ring lines must be add/mul tables", lno, 1)
            tables[m.group(1)] = _parse_table_rows(m.group(2), _Cursor(line, lno))
        if "add" not in tables or "mul" not in tables:
            raise JobParseError("raw ring needs both add and mul tables", lineno, 1)
        ring = ring_from_tables(tables["add"], tables["mul"], cap=cap)
        add_text = " / ".join(" ".join(map(str, r)) for r in tables["add"])
        mul_text = " / ".join(" ".join(map(str, r)) for r in tables["mul"])
        return ring, f"raw\nadd = {add_text}\nmul = {mul_text}"
    if len(lines) > 1:
        raise JobParseError("ring section must be a single constructor line",
                            lines[1][0], 1)
    cur = _Cursor(first, lineno)
    ring, text = _parse_ring_expr(cur, cap)
    if not cur.done():
        cur.error("trailing input after ring constructor")
    return ring, text


# ---------------------------------------------------------------------------
# module definitions

def _submodule_by_index(module, idx, cur):
    lat = enumerate_submodules(module)
    if not 0 <= idx < len(lat):
        cur.error(f"module has {len(lat)} submodules, S{idx} unresolved")
    return lat.submodules[idx]


def _parse_module_def(line, lineno, ring, modules, module_cap):
    m = re.match(r"([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.+)", line)
    if not m:
        raise JobParseError("module lines look like `name = constructor`",
                            lineno, 1)
    name, rhs = m.group(1), m.group(2)
    if name in modules:
        raise JobParseError(f"duplicate module name {name!r}", lineno, 1)
    cur = _Cursor(rhs, lineno)
    kind = cur.word().lower()

    def module_ref():
        ref = cur.word()
        if ref not in modules:
            cur.error(f"unknown module {ref!r}")
        return ref

    if kind == "regular":
        return name, regular_module(ring), "regular"
    if kind in ("quotient", "sub"):
        cur.eat("(")
        ref = module_ref()
        cur.skip_ws()
        cur.eat(",")
        cur.skip_ws()
        if cur.peek() in "Ss":
            cur.pos += 1
        idx = cur.integer()
        cur.skip_ws()
        cur.eat(")")
        sub = _submodule_by_index(modules[ref], idx, cur)
        mod = (quotient_module(modules[ref], sub) if kind == "quotient"
               else sub.as_module())
        return name, mod, f"{kind}({ref},S{idx})"
    if kind == "direct_sum":
        cur.eat("(")
        refs = []
        while True:
            refs.append(module_ref())
            cur.skip_ws()
            if cur.peek() == ",":
                cur.eat(",")
                continue
            cur.eat(")")
            break
        return (name, direct_sum_module([modules[r] for r in refs],
                                        cap=module_cap),
                "direct_sum(" + ",".join(refs) + ")")
    if kind == "cyclic":
        cur.eat("(")
        ref = module_ref()
        cur.skip_ws()
        cur.eat(",")
        el = cur.integer()
        cur.skip_ws()
        cur.eat(")")
        if not 0 <= el < modules[ref].order:
            cur.error(f"element {el} out of range for {ref!r}")
        return name, cyclic_module(modules[ref], el), f"cyclic({ref},{el})"
    if kind == "raw":
        cur.eat("(")
        body = rhs[cur.pos:rhs.rfind(")")]
        parts = dict()
        for piece in body.split(";"):
            mm = re.match(r"\s*(add|act)\s*=\s*(.+)", piece)
            if not mm:
                cur.error("raw module needs `add = ...; act = ...`")
            parts[mm.group(1)] = _parse_table_rows(mm.group(2), cur)
        if "add" not in parts or "act" not in parts:
            cur.error("raw module needs both add and act tables")
        mod = module_from_tables(ring, parts["add"], parts["act"],
                                 cap=module_cap)
        add_text = " / ".join(" ".join(map(str, r)) for r in parts["add"])
        act_text = " / ".join(" ".join(map(str, r)) for r in parts["act"])
        return name, mod, f"raw(add = {add_text} ; act = {act_text})"
    cur.error(f"unknown module constructor {kind!r}")


# ---------------------------------------------------------------------------
# preradical expressions

def _parse_preradical_expr(cur, ring, modules, preradicals):
    name = cur.word()
    lowered = name.lower()
    if lowered == "soc":
        return SOC, "soc"
    if lowered == "rad":
        return RAD, "rad"
    if lowered == "zero":
        return ZERO, "zero"
    if lowered == "one":
        return ONE, "one"
    if lowered in ("alpha", "omega", "beta"):
        cur.eat("(")
        cur.skip_ws()
        if cur.peek() in "Ss":
            cur.pos += 1
        idx = cur.integer()
        cur.skip_ws()
        cur.eat("@")
        ref = cur.word()
        if ref not in modules:
            cur.error(f"unknown module {ref!r}")
        cur.skip_ws()
        cur.eat(")")
        sub = _submodule_by_index(modules[ref], idx, cur)
        try:
            pr = {"alpha": Alpha, "omega": Omega, "beta": Beta}[lowered](sub)
        except ModlabError as exc:
            cur.error(str(exc))
        return pr, f"{lowered}(S{idx}@{ref})"
    if lowered == "trad":
        cur.eat("(")
        cur.skip_ws()
        if cur.peek() in "Ii":
            cur.pos += 1
        idx = cur.integer()
        cur.skip_ws()
        cur.eat(")")
        ideals = enumerate_ideals(ring, "two-sided")
        if not 0 <= idx < len(ideals):
            cur.error(f"ring has {len(ideals)} two-sided ideals, I{idx} unresolved")
        return Trad(ideals[idx]), f"trad(I{idx})"
    if lowered in ("join", "meet"):
        cur.eat("(")
        parts = []
        texts = []
        while True:
            pr, text = _parse_preradical_expr(cur, ring, modules, preradicals)
            parts.append(pr)
            texts.append(text)
            cur.skip_ws()
            if cur.peek() == ",":
                cur.eat(",")
                continue
            cur.eat(")")
            break
        node = Join(parts) if lowered == "join" else Meet(parts)
        return node, f"{lowered}(" + ",".join(texts) + ")"
    if lowered == "comp":
        cur.eat("(")
        outer, outer_text = _parse_preradical_expr(cur, ring, modules, preradicals)
        cur.skip_ws()
        cur.eat(",")
        inner, inner_text = _parse_preradical_expr(cur, ring, modules, preradicals)
        cur.skip_ws()
        cur.eat(")")
        return Compose(outer, inner), f"comp({outer_text},{inner_text})"
    if name in preradicals:
        return preradicals[name], name
    cur.error(f"unknown preradical {name!r}")


def _parse_preradical_def(line, lineno, ring, modules, preradicals):
    m = re.match(r"([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.+)", line)
    if not m:
        raise JobParseError("preradical lines look like `name = expression`",
                            lineno, 1)
    name, rhs = m.group(1), m.group(2)
    if name in preradicals:
        raise JobParseError(f"duplicate preradical name {name!r}", lineno, 1)
    cur = _Cursor(rhs, lineno)
    pr, text = _parse_preradical_expr(cur, ring, modules, preradicals)
    if not cur.done():
        cur.error("trailing input after preradical expression")
    return name, pr, text


# ---------------------------------------------------------------------------
# checks

def _parse_check(line, lineno, modules, preradicals):
    tokens = line.split()
    kind = tokens[0].lower()
    if kind not in CHECK_KINDS:
        raise JobParseError(f"unknown check {kind!r}", lineno, 1)

    def need_module(tok):
        if tok not in modules:
            raise JobParseError(f"unknown module {tok!r}", lineno, 1)
        return tok

    def need_preradical(tok):
        if tok not in preradicals:
            raise JobParseError(f"unknown preradical {tok!r}", lineno, 1)
        return tok

    if kind in NOTIONS:
        if len(tokens) != 2:
            raise JobParseError(f"{kind} takes one module", lineno, 1)
        args = (need_module(tokens[1]),)
    elif kind in ("a_first", "a_fully_first", "classes"):
        if len(tokens) < 3:
            raise JobParseError(f"{kind} takes a module and preradicals",
                                lineno, 1)
        args = (need_module(tokens[1]),
                tuple(need_preradical(t) for t in tokens[2:]))
    elif kind == "evaluate":
        if len(tokens) != 3:
            raise JobParseError("evaluate takes a preradical and a module",
                                lineno, 1)
        args = (need_preradical(tokens[1]), need_module(tokens[2]))
    elif kind == "flags":
        if len(tokens) != 2:
            raise JobParseError("flags takes one preradical", lineno, 1)
        args = (need_preradical(tokens[1]),)
    elif kind == "compare":
        if len(tokens) != 3:
            raise JobParseError("compare takes two preradicals", lineno, 1)
        args = (need_preradical(tokens[1]), need_preradical(tokens[2]))
    elif kind in ("classify", "lep"):
        if len(tokens) != 1:
            raise JobParseError(f"{kind} takes no arguments", lineno, 1)
        args = ()
    else:  # verify
        if len(tokens) != 2 or tokens[1] not in THEOREM_IDS:
            raise JobParseError(
                f"verify takes one of {', '.join(THEOREM_IDS)}", lineno, 1)
        args = (tokens[1],)
    canonical = " ".join([kind] + _flatten(args))
    return kind, args, canonical


def _flatten(args):
    out = []
    for a in args:
        if isinstance(a, tuple):
            out.extend(a)
        else:
            out.append(a)
    return out


# ---------------------------------------------------------------------------
# top-level parse

def parse_job(document, ring_cap=DEFAULT_RING_CAP, module_cap=None,
              universe_depth=None):
    """Parse and fully resolve a job document.

    Caps provided here (e.g. from CLI flags) override the document's own
    universe section; those left at None come from the document, or else
    from the package defaults.
    """
    sections = _split_sections(document)
    universe = {"depth": DEFAULT_UNIVERSE_DEPTH, "cap": DEFAULT_MODULE_CAP}
    for lineno, line in sections.get("universe", []):
        m = re.match(r"(depth|cap)\s*=\s*(\d+)", line)
        if not m:
            raise JobParseError("universe lines are `depth = n` or `cap = n`",
                                lineno, 1)
        universe[m.group(1)] = int(m.group(2))
    depth = universe["depth"] if universe_depth is None else universe_depth
    mod_cap = universe["cap"] if module_cap is None else module_cap
    output_format = "text"
    for lineno, line in sections.get("output", []):
        m = re.match(r"format\s*=\s*(text|structured)", line)
        if not m:
            raise JobParseError("output lines are `format = text|structured`",
                                lineno, 1)
        output_format = m.group(1)

    ring, ring_text = _parse_ring_section(sections["ring"], ring_cap)

    modules = {}
    module_texts = []
    for lineno, line in sections.get("modules", []):
        name, mod, text = _parse_module_def(line, lineno, ring, modules,
                                            mod_cap)
        modules[name] = mod
        module_texts.append((name, text))

    preradicals = {}
    preradical_texts = []
    for lineno, line in sections.get("preradicals", []):
        name, pr, text = _parse_preradical_def(line, lineno, ring, modules,
                                               preradicals)
        preradicals[name] = pr
        preradical_texts.append((name, text))

    checks = []
    for lineno, line in sections.get("checks", []):
        checks.append(_parse_check(line, lineno, modules, preradicals))

    return JobSpec(ring, ring_text, modules, module_texts, preradicals,
                   preradical_texts, checks, depth, ring_cap, mod_cap,
                   output_format)


# ---------------------------------------------------------------------------
# execution

def _run_one_check(spec, kind, args, universe):
    modules = spec.modules
    preradicals = spec.preradicals
    if kind in NOTIONS:
        report = firstness_report(modules[args[0]], (kind,))
        out = {"verdict": report.verdicts[kind]}
        if kind in report.witnesses:
            out["witness"] = report.witnesses[kind]
        return out
    if kind in ("a_first", "a_fully_first"):
        family = [preradicals[n] for n in args[1]]
        detail = a_first_detail if kind == "a_first" else a_fully_first_detail
        verdict, witness = detail(modules[args[0]], family)
        out = {"verdict": verdict}
        if witness:
            out["witness"] = witness
        return out
    if kind == "classes":
        family = [preradicals[n] for n in args[1]]
        cm = class_membership(modules[args[0]], family)
        return {"in_pretorsion": cm.in_pretorsion,
                "in_pretorsion_free": cm.in_pretorsion_free,
                "in_first_class": cm.in_first_class,
                "in_fully_first": cm.in_fully_first}
    if kind == "evaluate":
        val = preradicals[args[0]].evaluate(modules[args[1]])
        return {"carrier": list(val.labels())}
    if kind == "flags":
        flags = property_flags(preradicals[args[0]], universe)
        return {"idempotent": flags.idempotent, "radical": flags.radical,
                "left_exact": flags.left_exact, "t_radical": flags.t_radical,
                "universe_size": flags.universe_size}
    if kind == "compare":
        rel = compare(preradicals[args[0]], preradicals[args[1]], universe)
        return {"relation": rel}
    if kind == "classify":
        return classify_ring(spec.ring, universe).to_dict()
    if kind == "lep":
        evaluators = enumerate_lep(spec.ring)
        return {"count": len(evaluators),
                "filters": [p.describe() for p in evaluators]}
    if kind == "verify":
        verdict = verify_theorem(args[0], spec.ring, universe)
        out = verdict.to_dict()
        if not verdict.consistent:
            raise InternalInconsistency(
                f"theorem {args[0]} sides disagree: {verdict.sides}")
        return out
    raise InternalInconsistency(f"unhandled check kind {kind!r}")


def run_job(spec, kinds=None):
    """Execute the checks; returns (report_dict, exit_code).

    ``kinds`` restricts execution (the CLI `check` command skips verify
    entries, `verify` runs only them).  Exit code 4 signals at least one
    internal inconsistency; math negatives leave it at 0.
    """
    results = []
    exit_code = 0
    universe = generate_universe(spec.ring, depth=spec.universe_depth,
                                 module_cap=spec.module_cap)
    for kind, args, text in spec.checks:
        if kinds is not None and kind not in kinds:
            continue
        entry = {"check": text, "kind": kind}
        try:
            entry.update(_run_one_check(spec, kind, args, universe))
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
        "universe_size": len(universe.modules),
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
