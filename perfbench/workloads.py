"""The benchmark's three workloads and the reference check of their outputs.

A workload builds the inputs of one pass from a seed (``build``), runs one
unit of user work at a time (``run_unit``), and splits each outcome into
the verdicts that the reference recorded from the seed commit
(``verdicts``).  Units are timed by the runner; nothing here reads a clock.

corpus-d2  the ``modlab corpus`` sweep at depth 2, in-process through
           ``modlab.cli.main`` with structured output captured.  One unit
           is one command.  Passes share the process, so the global
           preradical cache they leave behind shows in peak RSS.
deep-d3    (module, notion) decisions on depth-3 universe modules with at
           least three generators, each on a freshly built module.  Hom-set
           enumeration dominates, and some decisions hit the size cap.
jobs-mix   job documents over eight small rings, parsed, run and rendered
           in structured form.  Every parse builds new ring objects, so
           caches start cold.  Module axiom scans take most of the time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

DETAIL_FUNCTIONS = {"bjkn_prime": "bjkn_prime_detail",
                    "prime": "prime_module_detail",
                    "rpid_first": "rpid_first_detail",
                    "diuniform": "diuniform_detail"}


class Modlab:
    """The imported modlab submodules the workloads call.

    Attributes are the module objects themselves, and workloads look
    functions up on them at call time, so the tracer's patches apply.
    """

    SUBMODULES = ("errors", "rings", "modules", "preradicals", "actions",
                  "firstness", "classify", "jobs", "cli")

    def __init__(self):
        for name in self.SUBMODULES:
            setattr(self, name, sys.modules[f"modlab.{name}"])


def load_reference(workload):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def normalize(value):
    """The JSON form of a result (tuples become lists, keys strings)."""
    return json.loads(json.dumps(value, sort_keys=True))


def drop_engine_version(report):
    engine = report.get("engine")
    if isinstance(engine, dict):
        report["engine"] = {k: v for k, v in engine.items() if k != "version"}
    return report


# ---------------------------------------------------------------------------
# reference check: fields, not bytes


def field_mismatch(ref, got, path="$"):
    """First path where ``got`` lacks or differs from a field of ``ref``.

    Fields that ``got`` has and ``ref`` lacks are ignored, so a later
    engine may add report fields without failing the check.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return path
        for key, value in ref.items():
            if key not in got:
                return f"{path}.{key} missing"
            bad = field_mismatch(value, got[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return path
        for i, (r, g) in enumerate(zip(ref, got)):
            bad = field_mismatch(r, g, f"{path}[{i}]")
            if bad:
                return bad
        return None
    return None if ref == got else path


def judge(ref, got):
    """Classify one verdict against its reference.

    Returns ``(status, detail)`` with status one of ``decided`` (matches
    the reference, or decides what the seed refused: ``detail`` is then
    "unreferenced"), ``refused`` (over the size cap, as the seed was), or
    ``failed`` (a mismatch, an error, or a verdict the seed gave and this
    run did not).
    """
    if "refused" in ref:
        if "refused" in got:
            return "refused", None
        if "error" in got:
            return "failed", f"error {got['error']}"
        return "decided", "unreferenced"
    if "refused" in got:
        return "failed", "refused a decision the reference decided"
    if "error" in got:
        return "failed", f"error {got['error']}: {got.get('message', '')}"
    bad = field_mismatch(ref, got)
    return ("failed", f"mismatch at {bad}") if bad else ("decided", None)


def guarded(ml, fn):
    """Run one unit, turning engine refusals and errors into outcomes."""
    try:
        return fn()
    except ml.errors.SizeCapExceeded as exc:
        return {"refused": "SizeCapExceeded", "message": str(exc)}
    except Exception as exc:  # noqa: BLE001 - one broken unit must not end the run
        return {"error": type(exc).__name__, "message": str(exc)}


# ---------------------------------------------------------------------------
# inputs rebuilt with public constructors

def build_ring(ml, spec):
    """Ring from a nested spec: ["cyclic", n], ["product", [specs]],
    ["matrix", spec, k] or ["quotient", spec, ideal_index]."""
    rings = ml.rings
    tag = spec[0]
    if tag == "cyclic":
        return rings.cyclic_ring(spec[1])
    if tag == "product":
        return rings.product_ring([build_ring(ml, s) for s in spec[1]])
    if tag == "matrix":
        return rings.matrix_ring(build_ring(ml, spec[1]), spec[2])
    if tag == "quotient":
        base = build_ring(ml, spec[1])
        return rings.quotient_ring(base, rings.enumerate_ideals(base)[spec[2]])
    raise ValueError(f"unknown ring spec {spec!r}")


def build_module(ml, ring, recipe):
    """Module from a recipe: ["regular"], ["quotient", recipe, kernel_mask]
    or ["sum", [recipes]]."""
    mods = ml.modules
    tag = recipe[0]
    if tag == "regular":
        return mods.regular_module(ring)
    if tag == "quotient":
        parent = build_module(ml, ring, recipe[1])
        return mods.quotient_module(parent, mods.submodule(parent, recipe[2]))
    if tag == "sum":
        return mods.direct_sum_module([build_module(ml, ring, r)
                                       for r in recipe[1]])
    raise ValueError(f"unknown module recipe {recipe!r}")


class Workload:
    """Inputs, runs and verdicts of one workload, against its reference."""

    nominal_pass_s = 1.0   # seconds one pass takes at the reference commit
    setup_reps = 11        # set-ups per run; setup_s is their median

    def __init__(self, reference):
        self.reference = reference

    def passes(self, seconds):
        return max(1, round(seconds / self.nominal_pass_s))


# ---------------------------------------------------------------------------
# corpus-d2

class CorpusD2(Workload):
    name = "corpus-d2"
    nominal_pass_s = 3.5
    actions = 20

    def build(self, ml, seed, pass_index):
        action_seed = seed * 1000 + pass_index * self.actions
        argv = ["corpus", "--format", "structured", "--actions",
                str(self.actions), "--seed", str(action_seed)]
        return [{"key": f"corpus pass {pass_index}", "argv": argv}]

    def run_unit(self, ml, unit):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ml.cli.main(unit["argv"])
            if code != 0:
                return {"error": f"exit {code}", "message": err.getvalue().strip()}
            return drop_engine_version(json.loads(out.getvalue()))
        return guarded(ml, call)

    def verdicts(self, unit, outcome):
        """One verdict per ring classification, module entry and theorem,
        plus the gap witnesses and the action-instance tally."""
        ref = self.reference["report"]
        broken = "error" in outcome or "refused" in outcome

        def part(*path):
            if broken:
                return outcome
            node = outcome
            for step in path:
                try:
                    node = node[step]
                except (KeyError, IndexError, TypeError):
                    return {"error": "missing from the report"}
            return node

        pairs = []
        for r, block in enumerate(ref["rings"]):
            where = f"{unit['key']}: {block['ring']}"
            pairs.append((f"{where} classification", block["classification"],
                          part("rings", r, "classification")))
            for listname in ("modules", "theorems"):
                for i, entry in enumerate(block[listname]):
                    pairs.append((f"{where} {listname}[{i}]", entry,
                                  part("rings", r, listname, i)))
        pairs.append((f"{unit['key']}: gap witnesses", ref["gap_witnesses"],
                      part("gap_witnesses")))
        tally = {"action_failures": 0, "inconsistencies": []}
        pairs.append((f"{unit['key']}: action instances", tally,
                      outcome if broken else {k: part(k) for k in tally}))
        return pairs


# ---------------------------------------------------------------------------
# deep-d3

# Sub-second decisions on modules with 3-5 generators, run first, each
# twice, in a seed-shuffled order.  The last three are refused at the size
# cap within half a second.
DEEP_LIGHT = (
    "cyclic(2)#4:diuniform", "cyclic(8)#10:diuniform",
    "cyclic(4)#12:diuniform", "product(cyclic(2),cyclic(2))#20:diuniform",
    "cyclic(4)#7:bjkn_prime", "cyclic(8)#12:bjkn_prime",
    "cyclic(8)#13:bjkn_prime",
    "cyclic(8)#12:prime", "cyclic(6)#13:prime", "cyclic(8)#10:prime",
    "cyclic(4)#8:rpid_first", "cyclic(8)#14:rpid_first",
    "matrix(cyclic(2),2)#3:rpid_first",
    "cyclic(6)#10:rpid_first", "cyclic(8)#11:diuniform",
    "product(cyclic(2),cyclic(2))#12:rpid_first", "cyclic(2)#3:bjkn_prime",
    "product(cyclic(2),cyclic(2))#10:rpid_first",
    "product(cyclic(2),cyclic(2))#18:diuniform", "cyclic(6)#13:diuniform",
)

# Seconds-scale decisions, run after the light ones in this order: diuniform
# on Z4+Z4+Z2+Z2 (refused at the size cap after about a second), Z3^3 over
# Z6 and Z4+Z4+Z2 (the three-generator cases), then F2^4.  F2^4 runs last
# because it leaves the largest heap behind in the global preradical cache.
# Left out: bjkn_prime on F2^4 (25-30 s and more memory-bound than the
# rest; with it in the pass, run-to-run spreads on the 2-core host
# exceeded the largest bound allowed), and refusals that burn minutes
# first (bjkn_prime on Z4+Z4+Z2+Z2, rpid_first on Z4^3).
DEEP_HEAVY = ("cyclic(4)#10:diuniform", "cyclic(6)#11:rpid_first",
              "cyclic(4)#7:rpid_first", "cyclic(6)#11:bjkn_prime",
              "cyclic(2)#4:rpid_first")


class DeepD3(Workload):
    name = "deep-d3"
    nominal_pass_s = 36.0
    setup_reps = 5

    def draw(self, seed, pass_index):
        """Every light decision twice, in an order the seed shuffles, then
        every heavy one once.  Timing the light decisions twice puts more
        samples where ``job_p50_ms`` and ``job_p90_ms`` fall."""
        light = list(DEEP_LIGHT) * 2
        random.Random(f"deep-d3:{seed}:{pass_index}").shuffle(light)
        return light + list(DEEP_HEAVY)

    def build(self, ml, seed, pass_index):
        """A fresh ring and module per decision, so no decision reuses
        another's caches."""
        units = []
        for key in self.draw(seed, pass_index):
            item = self.reference["items"][key]
            ring = build_ring(ml, item["ring"])
            module = build_module(ml, ring, item["recipe"])
            if module.order != item["order"]:
                raise RuntimeError(f"{key}: rebuilt module has order {module.order}")
            units.append({"key": key, "module": module, "notion": item["notion"]})
        return units

    def run_unit(self, ml, unit):
        detail = getattr(ml.firstness, DETAIL_FUNCTIONS[unit["notion"]])

        def call():
            verdict, witness = detail(unit["module"])
            return normalize({"verdict": verdict, "witness": witness})
        return guarded(ml, call)

    def verdicts(self, unit, outcome):
        return [(unit["key"], self.reference["items"][unit["key"]]["outcome"],
                 outcome)]


# ---------------------------------------------------------------------------
# jobs-mix

class JobsMix(Workload):
    name = "jobs-mix"
    nominal_pass_s = 4.5
    variants = 3

    def passes(self, seconds):
        """Whole rounds of ``variants`` passes, so that every run runs each
        pool document exactly once per round and the seed changes only
        which documents share a pass, not the total work."""
        rounds = max(1, round(seconds / (self.variants * self.nominal_pass_s)))
        return rounds * self.variants

    def draw(self, seed, pass_index):
        """One variant per (ring, check kind) slot, in the pool's order."""
        rng = random.Random(f"jobs-mix:{seed}")
        offsets = [rng.randrange(len(slot)) for slot in self.reference["slots"]]
        return [slot[(offset + pass_index) % len(slot)]
                for slot, offset in zip(self.reference["slots"], offsets)]

    def build(self, ml, seed, pass_index):
        jobs = self.reference["jobs"]
        return [{"key": key, "document": jobs[key]["document"]}
                for key in self.draw(seed, pass_index)]

    def run_unit(self, ml, unit):
        jobs = ml.jobs

        def call():
            spec = jobs.parse_job(unit["document"])
            report, code = jobs.run_job(spec)
            text = jobs.render_structured(report)
            if code != 0:
                return {"error": f"exit {code}", "message": text}
            return drop_engine_version(json.loads(text))
        return guarded(ml, call)

    def verdicts(self, unit, outcome):
        return [(unit["key"], self.reference["jobs"][unit["key"]]["outcome"],
                 outcome)]


WORKLOADS = {w.name: w for w in (CorpusD2, DeepD3, JobsMix)}
