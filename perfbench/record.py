"""Record the benchmark's input pools and reference verdicts.

Run from the repository root against the commit whose verdicts become the
reference (the reference files say which):

    python3 perfbench/record.py [corpus-d2|deep-d3|jobs-mix ...]

It writes ``perfbench/reference/<workload>.json``.  The runner only reads
these files.  Recording again on a later commit would move the reference
to that commit's verdicts, so do it only when the benchmark itself changes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads as wl  # noqa: E402

RING_SPECS = {
    "cyclic(2)": ["cyclic", 2],
    "cyclic(4)": ["cyclic", 4],
    "cyclic(6)": ["cyclic", 6],
    "cyclic(8)": ["cyclic", 8],
    "product(cyclic(2),cyclic(2))": ["product", [["cyclic", 2], ["cyclic", 2]]],
    "matrix(cyclic(2),2)": ["matrix", ["cyclic", 2], 2],
    "quotient(cyclic(8),I1)": ["quotient", ["cyclic", 8], 1],
    "product(cyclic(2),cyclic(3))": ["product", [["cyclic", 2], ["cyclic", 3]]],
}

JOB_KINDS = ("bjkn_prime", "prime", "rpid_first", "diuniform", "a_first",
             "a_fully_first", "classes", "evaluate", "flags", "compare",
             "classify", "lep", "verify", "all")
JOB_VARIANTS = 3
JOB_MODULES = ("M", "S", "Q", "C", "D")
JOB_PRERADICALS = ("t", "a", "w", "b", "s", "j", "m", "z")


def commit_note():
    return {"python": sys.version.split()[0],
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------

def record_corpus(ml):
    wk = wl.CorpusD2({})
    unit = wk.build(ml, 0, 0)[0]
    outcome, seconds = timed(lambda: wk.run_unit(ml, unit))
    if "error" in outcome:
        raise SystemExit(f"corpus failed at the reference commit: {outcome}")
    return {"argv": unit["argv"], "seed_seconds": round(seconds, 3),
            "report": outcome}


def recipe_of(module):
    tag = module.origin[0]
    if tag == "regular":
        return ["regular"]
    if tag == "quotient":
        return ["quotient", recipe_of(module.origin[1]), module.origin[2].mask]
    if tag == "direct_sum":
        return ["sum", [recipe_of(s) for s in module.origin[1]]]
    raise ValueError(f"no recipe for origin {tag!r}")


def record_deep(ml):
    keys = list(wl.DEEP_LIGHT) + list(wl.DEEP_HEAVY)
    items = {}
    for key in keys:
        where, notion = key.split(":")
        ring_text, index = where.split("#")
        spec = RING_SPECS[ring_text]
        universe = ml.classify.generate_universe(wl.build_ring(ml, spec), depth=3)
        module = universe.modules[int(index)]
        recipe = recipe_of(module)
        fresh = wl.build_module(ml, wl.build_ring(ml, spec), recipe)
        unit = {"key": key, "module": fresh, "notion": notion}
        outcome, seconds = timed(lambda: wl.DeepD3({}).run_unit(ml, unit))
        if "error" in outcome:
            raise SystemExit(f"{key} failed at the reference commit: {outcome}")
        if "refused" in outcome:
            outcome = {"refused": outcome["refused"]}
        items[key] = {"ring": spec, "recipe": recipe,
                      "provenance": module.provenance, "order": module.order,
                      "notion": notion, "seed_seconds": round(seconds, 3),
                      "outcome": outcome}
        print(f"{key:50s} {seconds:7.2f}s {json.dumps(outcome)[:60]}", flush=True)
    return {"items": items}


def job_preamble(ml, ring_text, rng):
    ring = wl.build_ring(ml, RING_SPECS[ring_text])
    lat = ml.modules.enumerate_submodules(ml.modules.regular_module(ring))
    n = len(lat)
    proper = list(range(1, n - 1)) or [n - 1]
    fi = [i for i, f in enumerate(lat.fully_invariant) if f and 0 < i < n - 1]
    fi = fi or [n - 1]
    ideals = ml.rings.enumerate_ideals(ring)
    element = rng.choice([x for x in range(ring.order) if x != ring.zero])
    return [
        "[ring]", ring_text, "",
        "[modules]", "M = regular",
        f"S = sub(M, S{rng.choice(proper)})",
        f"Q = quotient(M, S{rng.choice(proper) if n > 2 else 0})",
        f"C = cyclic(M, {element})",
        "D = direct_sum(M, S)", "",
        "[preradicals]",
        f"t = trad(I{rng.randrange(len(ideals))})",
        f"a = alpha(S{rng.choice(fi)}@M)",
        f"w = omega(S{rng.choice(fi)}@M)",
        f"b = beta(S{rng.randrange(1, n)}@M)",
        "s = comp(soc, t)", "j = join(a, w)", "m = meet(rad, b)",
        "z = comp(zero, one)", ""]


def job_check(ml, kind, rng):
    if kind in wl.DETAIL_FUNCTIONS:
        return f"{kind} {rng.choice(JOB_MODULES)}"
    if kind in ("a_first", "a_fully_first", "classes"):
        family = rng.sample(JOB_PRERADICALS, rng.choice((1, 2)))
        return f"{kind} {rng.choice(JOB_MODULES)} " + " ".join(family)
    if kind == "evaluate":
        return f"evaluate {rng.choice(JOB_PRERADICALS)} {rng.choice(JOB_MODULES)}"
    if kind == "flags":
        return f"flags {rng.choice(JOB_PRERADICALS)}"
    if kind == "compare":
        return "compare " + " ".join(rng.sample(JOB_PRERADICALS, 2))
    if kind == "verify":
        return f"verify {rng.choice(ml.classify.THEOREM_IDS)}"
    if kind == "all":
        # every check kind in one document, as in demo.job
        lines = [job_check(ml, k, rng) for k in JOB_KINDS[:-2]]
        return "\n".join(lines + [f"verify {t}" for t in ml.classify.THEOREM_IDS])
    return kind


def record_jobs(ml):
    jobs = {}
    slots = []
    wk = wl.JobsMix({})
    for ring_text in RING_SPECS:
        for kind in JOB_KINDS:
            slot = []
            for v in range(JOB_VARIANTS):
                pre = job_preamble(ml, ring_text, random.Random(f"{ring_text}|v{v}"))
                check = job_check(ml, kind, random.Random(f"{ring_text}|{kind}|v{v}"))
                doc = "\n".join(pre + ["[checks]", check, "", "[universe]",
                                       "depth = 2", "", "[output]",
                                       "format = structured"]) + "\n"
                key = f"{ring_text}|{kind}|v{v}"
                unit = {"key": key, "document": doc}
                outcome, seconds = timed(lambda: wk.run_unit(ml, unit))
                if "error" in outcome or "refused" in outcome:
                    raise SystemExit(f"{key} failed at the reference commit: {outcome}")
                jobs[key] = {"document": doc, "seed_seconds": round(seconds, 4),
                             "outcome": outcome}
                slot.append(key)
                print(f"{key:60s} {seconds:7.3f}s  {check.splitlines()[0]}", flush=True)
            slots.append(slot)
    return {"slots": slots, "jobs": jobs}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(wl.WORKLOADS))
    args = parser.parse_args()
    import modlab.cli  # noqa: F401 - imports the package and its CLI
    ml = wl.Modlab()
    recorders = {"corpus-d2": record_corpus, "deep-d3": record_deep,
                 "jobs-mix": record_jobs}
    for name in args.workloads:
        data = recorders[name](ml)
        data["recorded"] = commit_note()
        path = os.path.join(wl.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
