"""Span tracing around modlab's layer boundaries, from outside the package.

The traced run wraps public functions and class members of the layers
``rings``, ``modules``, ``preradicals``, ``firstness``, ``classify``,
``actions``, ``jobs`` and ``cli``.  Every call records one span (name, span
id, parent span id, item id, start, end).  Spans stay in memory until the
run ends; ``layer_metrics`` reduces them to per-layer counts and self
times, and ``write_spans`` writes them out.

A function imported by name into several modules (``hom_set`` is bound in
``modules``, ``preradicals``, ``firstness`` and ``classify``) is replaced
in every ``modlab.*`` namespace that binds it, so calls through any of
those globals are seen.  ``install`` then scans every namespace again and
fails if an original is still reachable.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# span name -> (defining module, attribute).  Every modlab.* global bound to
# the same object is patched.
FUNCTIONS = {
    "rings.enumerate_ideals": ("modlab.rings", "enumerate_ideals"),
    "modules.hom_set": ("modlab.modules", "hom_set"),
    "modules.hom_nonzero_exists": ("modlab.modules", "hom_nonzero_exists"),
    "modules.cogenerates": ("modlab.modules", "cogenerates"),
    "modules.structural_summary": ("modlab.modules", "structural_summary"),
    "modules.is_injective": ("modlab.modules", "is_injective"),
    "modules.enumerate_submodules": ("modlab.modules", "enumerate_submodules"),
    "modules.find_isomorphism": ("modlab.modules", "find_isomorphism"),
    "preradicals.product_in": ("modlab.preradicals", "product_in"),
    "preradicals.property_flags": ("modlab.preradicals", "property_flags"),
    "preradicals.compare": ("modlab.preradicals", "compare"),
    "firstness.bjkn_prime": ("modlab.firstness", "bjkn_prime_detail"),
    "firstness.prime": ("modlab.firstness", "prime_module_detail"),
    "firstness.rpid_first": ("modlab.firstness", "rpid_first_detail"),
    "firstness.diuniform": ("modlab.firstness", "diuniform_detail"),
    "firstness.family": [("modlab.firstness", "a_first_detail"),
                         ("modlab.firstness", "a_fully_first_detail"),
                         ("modlab.firstness", "class_membership")],
    "classify.generate_universe": ("modlab.classify", "generate_universe"),
    "classify.classify_ring": ("modlab.classify", "classify_ring"),
    "classify.verify_theorem": ("modlab.classify", "verify_theorem"),
    "classify.enumerate_lep": ("modlab.classify", "enumerate_lep"),
    "actions.random_instance": ("modlab.actions", "random_instance_holds"),
    "cli.corpus": ("modlab.cli", "cmd_corpus"),
    "jobs.parse": ("modlab.jobs", "parse_job"),
    "jobs.run": ("modlab.jobs", "run_job"),
    "jobs.render": ("modlab.jobs", "render_structured"),
}

# span name -> (defining module, class, member).  Properties wrap their getter.
MEMBERS = {
    "rings.construct": ("modlab.rings", "FiniteRing", "__init__"),
    "modules.construct": ("modlab.modules", "FiniteModule", "__init__"),
    "modules.fully_invariant": ("modlab.modules", "SubmoduleLattice",
                                "fully_invariant"),
    "preradicals.evaluate": ("modlab.preradicals", "Preradical", "evaluate"),
}

# Members called millions of times per run (once per Hom-set element in
# trace sums) are counted, not timed: a span each would cost more than the
# call.  Their time stays in the self time of the span that calls them.
COUNT_ONLY = {
    "modules.morphism_image": ("modlab.modules", "ModuleMorphism",
                               "image_of_mask"),
}

# span names whose call counts are reported; the others report self time only
COUNTED = ("rings.construct", "modules.construct", "modules.hom_set",
           "modules.hom_nonzero_exists", "modules.cogenerates",
           "modules.fully_invariant", "modules.structural_summary",
           "modules.is_injective", "modules.enumerate_submodules",
           "modules.find_isomorphism", "preradicals.evaluate",
           "preradicals.product_in", "firstness.bjkn_prime",
           "firstness.prime", "firstness.rpid_first", "firstness.diuniform",
           "firstness.family", "actions.random_instance")

ITEM_SPAN = "bench.item"


def _modlab_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "modlab" or name.startswith("modlab."))]


class CoverageError(RuntimeError):
    """A wrapped name is missing or still reachable unwrapped."""


class Tracer:
    """In-memory span recorder plus the outcome counters of a few layers.

    Counters that need "first call for this argument" (Hom-set pairs,
    lattices built, preradical values computed, universes generated) key
    on object identity and keep the objects alive, so an id is never
    reused while the tracer runs.
    """

    def __init__(self):
        self.spans = []          # (span_id, parent_id, item_id, name, t0, t1)
        self._stack = [0]
        self._next_id = 1
        self.item_id = 0
        self._seen = {}          # counter name -> {key: kept objects}
        self.counts = {"modules.hom_set.pairs": 0, "modules.hom_set.maps": 0,
                       "modules.enumerate_submodules.lattices": 0,
                       "modules.enumerate_submodules.submodules": 0,
                       "modules.find_isomorphism.hits": 0,
                       "preradicals.evaluate.computed": 0,
                       "classify.generate_universe.modules": 0}
        self._originals = []     # (span name, original object)
        self._count_only = {name: 0 for name in COUNT_ONLY}

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.item_id, name, t0, t1))

    def _first(self, counter, key, keep):
        seen = self._seen.setdefault(counter, {})
        if key in seen:
            return False
        seen[key] = keep
        return True

    def _observe(self, name, args, result):
        counts = self.counts
        if name == "modules.hom_set":
            if self._first(name, (id(args[0]), id(args[1])), args[:2]):
                counts["modules.hom_set.pairs"] += 1
                counts["modules.hom_set.maps"] += len(result)
        elif name == "modules.enumerate_submodules":
            if self._first(name, id(args[0]), args[0]):
                counts["modules.enumerate_submodules.lattices"] += 1
                counts["modules.enumerate_submodules.submodules"] += len(result)
        elif name == "modules.find_isomorphism":
            counts["modules.find_isomorphism.hits"] += result is not None
        elif name == "preradicals.evaluate":
            if self._first(name, (id(args[0]), id(args[1])), args[:2]):
                counts["preradicals.evaluate.computed"] += 1
        elif name == "classify.generate_universe":
            if self._first(name, id(result), result):
                counts["classify.generate_universe.modules"] += len(result.modules)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _wrap_counted(self, name, fn):
        calls = self._count_only

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        """Patch every binding of every traced name; fail if one is missed."""
        namespaces = _modlab_namespaces()
        for name, targets in FUNCTIONS.items():
            if isinstance(targets, tuple):
                targets = [targets]
            for modname, attr in targets:
                home = sys.modules.get(modname)
                original = getattr(home, attr, None)
                if original is None:
                    raise CoverageError(f"{modname}.{attr} not found")
                wrapper = self._wrap(name, original)
                patched = 0
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
                            patched += 1
                if not patched:
                    raise CoverageError(f"{modname}.{attr} bound nowhere")
                self._originals.append((name, original))
        members = [(name, target, self._wrap) for name, target in MEMBERS.items()]
        members += [(name, target, self._wrap_counted)
                    for name, target in COUNT_ONLY.items()]
        for name, (modname, clsname, member), wrap in members:
            cls = getattr(sys.modules.get(modname), clsname, None)
            if cls is None or member not in vars(cls):
                raise CoverageError(f"{modname}.{clsname}.{member} not found")
            original = vars(cls)[member]
            if isinstance(original, property):
                getter = original.fget
                setattr(cls, member, property(wrap(name, getter), original.fset,
                                              original.fdel, original.__doc__))
                self._originals.append((name, getter))
            else:
                setattr(cls, member, wrap(name, original))
                self._originals.append((name, original))
        self.check_coverage()

    def check_coverage(self):
        """No modlab namespace, class or module-level container may still
        hold an unwrapped original."""
        originals = {id(obj): name for name, obj in self._originals}
        left = []

        def visit(where, value, depth=0):
            if id(value) in originals and callable(value):
                left.append(f"{where} ({originals[id(value)]})")
            elif isinstance(value, property) and id(value.fget) in originals:
                left.append(f"{where} ({originals[id(value.fget)]})")
            elif depth == 0 and isinstance(value, type):
                for key, member in vars(value).items():
                    visit(f"{where}.{key}", member, 1)
            elif depth == 0 and isinstance(value, (dict, list, tuple)):
                items = value.items() if isinstance(value, dict) else enumerate(value)
                for key, member in items:
                    visit(f"{where}[{key!r}]", member, 1)

        for ns in _modlab_namespaces():
            for key, value in vars(ns).items():
                visit(f"{ns.__name__}.{key}", value)
        if left:
            raise CoverageError("unwrapped bindings left: " + ", ".join(left))

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer calls, self seconds, and outcome counters and ratios."""
        child_ns = {}
        for sid, parent, _item, _name, t0, t1 in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        self_ns = {}
        calls = {}
        for sid, _parent, _item, name, t0, t1 in self.spans:
            self_ns[name] = self_ns.get(name, 0) + (t1 - t0) - child_ns.get(sid, 0)
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for name in list(FUNCTIONS) + list(MEMBERS):
            out[f"{name}.self_s"] = (self_ns.get(name, 0) / 1e9, "s")
            if name in COUNTED:
                out[f"{name}.calls"] = (calls.get(name, 0), "count")
        for name, value in self._count_only.items():
            out[f"{name}.calls"] = (value, "count")
        for key, value in self.counts.items():
            out[key] = (value, "count")
        out["modules.hom_set.hit_ratio"] = (
            _ratio(calls.get("modules.hom_set", 0) - self.counts["modules.hom_set.pairs"],
                   calls.get("modules.hom_set", 0)), "ratio")
        out["preradicals.evaluate.hit_ratio"] = (
            _ratio(calls.get("preradicals.evaluate", 0)
                   - self.counts["preradicals.evaluate.computed"],
                   calls.get("preradicals.evaluate", 0)), "ratio")
        out["bench.unwrapped.self_s"] = (self_ns.get(ITEM_SPAN, 0) / 1e9, "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write_spans(self, path, header):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"header": header,
                       "fields": ["span_id", "parent_id", "item_id", "name",
                                  "start_ns", "end_ns"],
                       "spans": self.spans,
                       "counted_calls": self._count_only},
                      fh, separators=(",", ":"))


def _ratio(part, base):
    return part / base if base else 0.0
