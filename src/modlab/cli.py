"""Batch command line front end.

Commands: ``define`` validates a job document, ``check`` and ``verify``
run the checks of a job that ``jobs.CHECKS`` gives to that command (the
firstness/classification checks, the equivalence verifications), and
``corpus`` generates the built-in ring corpus and sweeps every decider plus
the randomized order-action properties over it, one ring at a time.

Exit codes: 0 ok (negative mathematical verdicts included), 1 parse error,
2 size cap exceeded, 3 engine error, 4 internal inconsistency (independent
routes to one verdict disagreed: an engine bug, never mathematics).  The
engine raises every inconsistency (``firstness`` compares the routes of
each notion and checks one notion against another); this module only
reports them.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from . import __version__
from .actions import random_instance_holds
from .classify import (THEOREM_IDS, classify_ring, generate_universe,
                       verify_theorem)
from .config import (DEFAULT_MODULE_CAP, DEFAULT_RING_CAP,
                     DEFAULT_UNIVERSE_DEPTH)
from .errors import (InternalInconsistency, JobParseError, ModlabError,
                     SizeCapExceeded)
from .firstness import NOTIONS, firstness_report
from .jobs import (CHECKS, SCHEMA_VERSION, parse_job, render_structured,
                   render_text, run_job)
from .rings import cyclic_ring, matrix_ring, product_ring

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAP = 2
EXIT_ENGINE = 3
EXIT_INCONSISTENT = 4


def corpus_rings(ring_cap=DEFAULT_RING_CAP):
    """The built-in corpus: the rings every acceptance sweep runs over."""
    return [
        cyclic_ring(2, cap=ring_cap),
        cyclic_ring(4, cap=ring_cap),
        cyclic_ring(6, cap=ring_cap),
        cyclic_ring(8, cap=ring_cap),
        product_ring([cyclic_ring(2), cyclic_ring(2)], cap=ring_cap),
        matrix_ring(cyclic_ring(2), 2, cap=ring_cap),
    ]


def _int_at_least(least):
    """An argparse type: an int no smaller than ``least``."""
    def parse(text):
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}")
        return int(text)
    parse.__name__ = "int"  # argparse names the type when int() refuses
    return parse


def _add_common_flags(sub):
    sub.add_argument("--cap-ring", type=_int_at_least(1),
                     default=DEFAULT_RING_CAP,
                     help="largest allowed ring order")
    # unset (None) leaves these to the job document's [universe] section
    sub.add_argument("--cap-module", type=_int_at_least(1), default=None,
                     help="largest allowed module order")
    sub.add_argument("--universe-depth", type=_int_at_least(1), default=None,
                     help="direct-sum generation depth of universes")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modlab",
        description="module-theory laboratory over explicit finite rings")
    parser.add_argument("--version", action="version",
                        version=f"modlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for command, help_text in (
            ("define", "validate a job document"),
            ("check", "run the firstness/classification checks of a job"),
            ("verify", "run the equivalence verifications of a job")):
        p_job = subs.add_parser(command, help=help_text)
        p_job.add_argument("job", help="path to the job document")
        _add_common_flags(p_job)

    p_corpus = subs.add_parser(
        "corpus", help="generate and sweep the built-in ring/module corpus")
    _add_common_flags(p_corpus)
    for command in ("check", "verify", "corpus"):
        subs.choices[command].add_argument(
            "--format", choices=("text", "structured"), default=None,
            help="override the document's output format")
    # corpus has no job document to fall back on
    p_corpus.set_defaults(cap_module=DEFAULT_MODULE_CAP,
                          universe_depth=DEFAULT_UNIVERSE_DEPTH)
    p_corpus.add_argument("--actions", type=_int_at_least(0), default=0,
                          metavar="N",
                          help="also run N randomized order-action instances")
    p_corpus.add_argument("--seed", type=int, default=0,
                          help="seed for randomized property sweeps")
    return parser


def _load_spec(args):
    with open(args.job, encoding="utf-8") as fh:
        try:
            document = fh.read()
        except UnicodeDecodeError as exc:
            raise JobParseError(f"job file is not UTF-8 text: {exc.reason} "
                                f"at offset {exc.start}") from None
    return parse_job(document, ring_cap=args.cap_ring,
                     module_cap=args.cap_module,
                     universe_depth=args.universe_depth)


def cmd_define(args):
    spec = _load_spec(args)
    sys.stdout.write(
        f"ok: ring {spec.ring_text} (order {spec.ring.order}), "
        f"{len(spec.modules)} modules, {len(spec.preradicals)} preradicals, "
        f"{len(spec.checks)} checks\n")
    return EXIT_OK


def cmd_run(args):
    """``check`` and ``verify``: run the checks ``CHECKS`` gives the command."""
    spec = _load_spec(args)
    if args.format:
        spec.output_format = args.format
    start = time.perf_counter()
    report, code = run_job(spec, kinds=[kind for kind, check in CHECKS.items()
                                        if check.command == args.command])
    if spec.output_format == "structured":
        sys.stdout.write(render_structured(report))
    else:
        sys.stdout.write(render_text(report,
                                     runtime=time.perf_counter() - start))
    return code


def _ring_block(ring, args):
    """The report block of one corpus ring: its universe, classification,
    every module's firstness report and the theorems, a function of the
    ring and the caps alone.  The universe is a local, so nothing of the
    ring outlives the block."""
    universe = generate_universe(ring, depth=args.universe_depth,
                                 module_cap=args.cap_module)
    block = {"ring": ring.provenance,
             "universe_size": len(universe.modules),
             "classification": classify_ring(ring).to_dict(),
             "modules": [], "theorems": []}
    for mod in universe.nonzero_modules():
        try:
            entry = firstness_report(mod).to_dict()
        except InternalInconsistency as exc:
            entry = {"module": mod.provenance, "error": str(exc),
                     "status": "inconsistent"}
        block["modules"].append(entry)
    for tid in THEOREM_IDS:
        block["theorems"].append(verify_theorem(tid, ring, universe).to_dict())
    return block


def cmd_corpus(args):
    """Sweep the corpus one ring at a time: each ring is popped off the
    list into its block (``_ring_block``), so the ring and its universe
    are garbage once the block is done, before the next ring's universe
    is built."""
    start = time.perf_counter()
    ring_blocks = []
    rings = corpus_rings(args.cap_ring)
    while rings:
        ring_blocks.append(_ring_block(rings.pop(0), args))
    inconsistencies = []
    for block in ring_blocks:
        inconsistencies += [entry["error"] for entry in block["modules"]
                            if entry.get("status") == "inconsistent"]
        inconsistencies += [f"{t['theorem']} inconsistent over {block['ring']}"
                            for t in block["theorems"] if not t["consistent"]]
    # BJKN-prime implies each other notion (firstness_report raises when
    # it does not hold); the sweep looks for a module with the notion that
    # is not BJKN-prime, and reports the first finite witness inside the
    # corpus or "not witnessed at these caps", in the report's key order
    gap_witnesses = {
        f"{notion}_not_bjkn_prime": next(
            (f"{entry['module']} over {block['ring']}"
             for block in ring_blocks for entry in block["modules"]
             if "verdicts" in entry and entry["verdicts"][notion]
             and not entry["verdicts"]["bjkn_prime"]),
            "not witnessed at these caps")
        for notion in sorted(NOTIONS) if notion != "bjkn_prime"}
    action_failures = []
    for i in range(args.actions):
        action_failures.extend(random_instance_holds(args.seed + i))
    if action_failures:
        inconsistencies.append(f"{len(action_failures)} action-instance failures")
    report = {
        "schema_version": SCHEMA_VERSION,
        "engine": {"name": "modlab", "version": __version__},
        "caps": {"ring": args.cap_ring, "module": args.cap_module,
                 "universe_depth": args.universe_depth},
        "rings": ring_blocks,
        "gap_witnesses": gap_witnesses,
        "action_instances": args.actions,
        "action_failures": len(action_failures),
        "inconsistencies": inconsistencies,
    }
    runtime = time.perf_counter() - start
    if args.format == "structured":
        sys.stdout.write(render_structured(report))
    else:
        lines = [f"modlab {__version__} corpus sweep",
                 f"caps: ring={args.cap_ring} module={args.cap_module} "
                 f"universe-depth={args.universe_depth}", ""]
        for block in ring_blocks:
            lines.append(f"== {block['ring']} "
                         f"(universe of {block['universe_size']})")
            cls = block["classification"]
            flags = [k for k, v in cls.items()
                     if isinstance(v, bool) and v]
            lines.append("   classification: " + ", ".join(flags))
            for entry in block["modules"]:
                if "verdicts" in entry:
                    verd = " ".join(f"{k}={'y' if v else 'n'}"
                                    for k, v in entry["verdicts"].items())
                    lines.append(f"   {entry['module']} (order "
                                 f"{entry['order']}): {verd}")
                else:
                    lines.append(f"   {entry['module']}: {entry['error']}")
            bad = [t["theorem"] for t in block["theorems"] if not t["consistent"]]
            lines.append("   theorems: " +
                         ("all consistent" if not bad else
                          "INCONSISTENT: " + ", ".join(bad)))
        lines.append("converse gaps:")
        for key, where in report["gap_witnesses"].items():
            lines.append(f"   {key}: {where}")
        if args.actions:
            lines.append(f"action instances: {args.actions}, "
                         f"failures: {len(action_failures)}")
        lines.append(f"runtime: {runtime:.2f}s")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_INCONSISTENT if inconsistencies else EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"define": cmd_define, "check": cmd_run, "verify": cmd_run,
                "corpus": cmd_corpus}
    try:
        return handlers[args.command](args)
    except JobParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except SizeCapExceeded as exc:
        sys.stderr.write(f"size cap: {exc}\n")
        return EXIT_CAP
    except InternalInconsistency as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INCONSISTENT
    except ModlabError as exc:
        sys.stderr.write(f"engine error: {exc}\n")
        return EXIT_ENGINE
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_ENGINE
    finally:
        # rings, modules and submodules refer to each other in cycles
        # (ring -> regular module -> ring, module -> submodule -> module),
        # so only the cyclic collector frees them; collecting here, after
        # the handler's frame is gone, frees the command's objects when it
        # returns rather than whenever the collector next runs
        gc.collect()


if __name__ == "__main__":
    sys.exit(main())
