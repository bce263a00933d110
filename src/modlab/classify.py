"""Ring classification and the equivalence-verification harness.

A ``Universe`` is a deterministic finite family of modules standing in for
the whole module category in class-level statements: the regular module,
its quotients by all submodules (this includes every simple module), and
iterated pairwise direct sums up to the order cap, one module per
isomorphism class.  The classes are told apart by keys read off the
regular module's lattice, with no isomorphism search (the proof is in
``generate_universe``).  The harness checks the finite instances of each
equivalence "at universe scale", never the statement about all modules.
A module-level side of a theorem ("every universe module is prime", "...
is lep-first", ...) is asked of the deciders in ``firstness`` one module
at a time, by ``verify_theorem``'s side evaluator.  A ring-level side is
a flag of ``classify_ring``, which reads no universe: each flag holds for
R over every generated universe, by a theorem ``_classify`` proves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .config import DEFAULT_MODULE_CAP, DEFAULT_UNIVERSE_DEPTH
from .errors import RingMismatch
from .firstness import a_first_detail, a_fully_first_detail, decide
from .modules import (_preimage, atoms, direct_sum_module,
                      enumerate_submodules, is_injective, is_superfluous,
                      is_essential, quotient_module, regular_module,
                      simple_modules, structural_summary)
from .preradicals import SOC, LinearFilter
from .rings import enumerate_ideals, is_simple_ring


@dataclass(frozen=True)
class Universe:
    """A finite generated family of modules over one ring.

    The theorems replayed over it compare its modules with the flags of
    ``classify_ring``, which describe R and match every generated
    universe, as each holds the simple modules.  A hand-built universe
    that leaves out a simple module can fail Perror1, where a scan of
    the universe passed it: over Z6, a universe of the simple module Z2
    alone has every module BJKN-prime, while Z6 is not left local.
    """
    ring: object
    modules: tuple
    depth: int
    module_cap: int

    def nonzero_modules(self):
        return tuple(m for m in self.modules if not m.is_zero())

    def __repr__(self):
        return (f"Universe({self.ring.provenance}, {len(self.modules)} modules, "
                f"depth={self.depth}, cap={self.module_cap})")


def generate_universe(ring, depth=DEFAULT_UNIVERSE_DEPTH,
                      module_cap=DEFAULT_MODULE_CAP):
    """Deterministic universe: regular module, quotients, then direct sums.

    The modules are those of ``plan_universe``, built in its order from
    its recipes: R/I by ``quotient_module`` (R itself for I = 0), a sum
    by ``direct_sum_module`` of the two entries it names, both built
    before it.  A depth or a module cap that is not an int, or is below
    1, raises ``ValueError`` before any work.  Nothing is cached on the
    ring: each call builds the universe again, so it lives only as long
    as its caller holds it (``cli.cmd_corpus`` sweeps one ring at a
    time).
    """
    built = []
    for _, recipe in plan_universe(ring, depth, module_cap).values():
        if isinstance(recipe, tuple):
            i, j = recipe
            built.append(direct_sum_module([built[i], built[j]],
                                           cap=module_cap))
        else:
            built.append(recipe.module if recipe.is_zero()
                         else quotient_module(recipe.module, recipe))
    return Universe(ring, tuple(built), depth, module_cap)


def plan_universe(ring, depth=DEFAULT_UNIVERSE_DEPTH,
                  module_cap=DEFAULT_MODULE_CAP):
    """The universe's classes, in order, with no module built: a dict
    from each class's key to its order and its recipe.  A recipe is a
    left ideal I for R/I (I = 0 gives the regular module) or the
    positions (i, j) of the two earlier entries it is the direct sum of.
    Its length is the universe's size.  Refuses as ``generate_universe``
    does.

    Quotients of the regular module by maximal submodules are the simple
    modules, so those are always present.  Each extra depth level adds the
    pairwise direct sums of everything present at the level's start (zero
    summands are skipped; the zero module itself stays in the universe).
    Candidates are visited in that order, the regular module first, and
    the first module of each isomorphism class is kept, so a level that
    adds no class leaves every later one the same and ends the loop.

    Classes are told apart by a key, with no isomorphism search:

    - A cyclic module Ry is R/ann(y), and an isomorphism maps generators
      to generators and keeps annihilators.  So G(M), the sorted set of
      the annihilators of the generators of a cyclic M, is a complete
      invariant of cyclic modules: two of them are isomorphic exactly
      when their G are equal.
    - Finite modules have finite length, so by Krull-Schmidt (Anderson
      and Fuller, *Rings and Categories of Modules*, section 12) the
      multiset of the classes of the indecomposable summands is a
      complete invariant.  Every universe module is a sum of quotients
      R/I, and every indecomposable summand of R/I is itself some R/K
      (see ``_quotient_keys``).  So the key of a module, the sorted
      tuple of the G of its indecomposable summands, is complete, and
      key(A + B) = sorted(key(A) + key(B)).

    The key is exact only for sums of cyclic modules, as every universe
    module is; it does not replace ``is_isomorphic`` for arbitrary
    modules.

    The walk builds no module but R and its lattice, yet keeps the keys
    that a walk building every candidate would keep, in the same order.
    That walk visits the same candidates in the same order, and keeps
    one exactly when its key is new and, for a sum, its order is within
    the cap; a level's summands are its nonzero entries.  So it reads a
    candidate's key and order alone, and the plan reads both off the
    entries a candidate comes from: the key by the rule above, the order
    as |R/I| = |R|/|I| and |A + B| = |A|.|B|, and a module is zero
    exactly when its order is 1.  Testing the cap before the key keeps
    the same sums, as a sum is kept only when both tests pass.  The
    lattice is sorted by size, so the zero ideal comes first, and R/0 is
    R itself, the regular module that walk puts first.
    """
    _at_least_one("universe depth", depth)
    _at_least_one("module cap", module_cap)
    reg = regular_module(ring)
    ideals = enumerate_submodules(reg).submodules
    keys = _quotient_keys(reg, ideals)
    plan = {}  # key -> (order, recipe), the first of each class, in order
    for ideal in ideals:
        if keys[ideal.mask] not in plan:
            plan[keys[ideal.mask]] = (reg.order // ideal.order, ideal)
    for _ in range(depth - 1):
        current = [(i, k, order)
                   for i, (k, (order, _)) in enumerate(plan.items())
                   if order > 1]
        size = len(plan)
        for n, (i, ka, a) in enumerate(current):
            for j, kb, b in current[n:]:
                if a * b <= module_cap:
                    k = tuple(sorted(ka + kb))
                    if k not in plan:
                        plan[k] = (a * b, (i, j))
        if len(plan) == size:
            break  # the fixpoint: every later level would add nothing too
    return plan


def _at_least_one(what, value):
    """Refuse, as ``ValueError``, a ``value`` of ``what`` that is not an
    int of at least 1."""
    if not isinstance(value, int) or value < 1:
        raise ValueError(
            f"{what} must be at least 1 and an int, not {value!r}")


def _quotient_keys(reg, ideals):
    """The key of R/I (see ``generate_universe``) for each left ideal I,
    by mask, read off the lattice ``ideals`` from larger ideals to smaller.

    R/R has key ().  If ideals J, K above I have J & K = I and J + K = R,
    then R/I = J/I + K/I with J/I = J/(J & K) isomorphic to R/K and K/I to
    R/J, and the key of R/I merges theirs.  Any splitting of R/I is of
    this form, so otherwise R/I is indecomposable, and its key holds one
    G: the annihilators {r : rx in I} of the generators x + I.  The ideal
    {r : rx in I} is the kernel of r -> rx + I onto (Rx + I)/I, so x + I
    generates R/I exactly when that ideal has the order of I.  The size
    test |J|.|K| = |I|.|R| stands for J + K = R, since |J + K| =
    |J|.|K| / |J & K|.
    """
    n = reg.order
    columns = list(zip(*reg.act))  # r -> rx, for each x
    keys = {ideals[-1].mask: ()}  # R/R
    for ideal in reversed(ideals[:-1]):
        mask, size = ideal.mask, ideal.order
        above = [j for j in keys if j & mask == mask]
        split = next(((j, k) for j in above for k in above
                      if j & k == mask
                      and j.bit_count() * k.bit_count() == size * n), None)
        if split is not None:
            keys[mask] = tuple(sorted(keys[split[0]] + keys[split[1]]))
        else:
            anns = {_preimage(column, mask) for column in columns}
            keys[mask] = (tuple(sorted(a for a in anns
                                       if a.bit_count() == size)),)
    return keys


# ---------------------------------------------------------------------------
# ring classification

@dataclass(frozen=True)
class RingClassification:
    """Flags of the ring, with the witnesses of the false ones.

    Every flag is read off the ring.  The two that keep "on_universe" in
    their names hold for R over every generated universe, each by a
    theorem for finite rings that ``_classify`` proves; the scans they
    stand for are the oracles of ``tests/oracles.py``.
    """
    ring_provenance: str
    is_simple: bool
    is_semisimple: bool
    is_homogeneous_semisimple: bool
    is_left_local: bool
    is_left_semiartinian_on_universe: bool
    is_V_ring: bool
    is_BKN_on_universe: bool
    simple_module_count: int
    witnesses: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "ring": self.ring_provenance,
            "is_simple": self.is_simple,
            "is_semisimple": self.is_semisimple,
            "is_homogeneous_semisimple": self.is_homogeneous_semisimple,
            "is_left_local": self.is_left_local,
            "is_left_semiartinian_on_universe":
                self.is_left_semiartinian_on_universe,
            "is_V_ring": self.is_V_ring,
            "is_BKN_on_universe": self.is_BKN_on_universe,
            "simple_module_count": self.simple_module_count,
            "witnesses": copy.deepcopy(self.witnesses),
        }


def classify_ring(ring):
    """The ring's classification, computed once and cached on the ring."""
    if "classification" not in ring._cache:
        ring._cache["classification"] = _classify(ring)
    return ring._cache["classification"]


def _classify(ring):
    """The flags of R, read off its regular module and simple modules.

    - BKN (Hom(M, N) != 0 for all nonzero universe modules M and N) is
      left locality.  A nonzero finite M has a maximal submodule, so a
      simple quotient, and a nonzero finite N has an atom, a simple
      submodule.  With one simple module S, M -> S -> N is nonzero.  Two
      non-isomorphic simples S and T have Hom(S, T) = 0, as a nonzero map
      between simples is an isomorphism, and both are in every generated
      universe, which adds each quotient R/I with no cap.  So the first
      two simples are the witness.
    - Left semiartinian (every nonzero universe module has a nonzero
      socle) holds: J = J(R) is nilpotent, so for M != 0 the last nonzero
      J^k.M lies in Soc(M) = {x : Jx = 0} (Anderson and Fuller, *Rings
      and Categories of Modules*, sections 9 and 15).
    """
    witnesses = {}
    simple = is_simple_ring(ring)
    semisimple = structural_summary(regular_module(ring)).is_semisimple
    simples = simple_modules(ring)
    left_local = len(simples) == 1
    if not left_local:
        witnesses["left_local"] = {
            "kind": "non_isomorphic_simples",
            "orders": [s.order for s in simples[:2]]}
    v_ring = True
    for s in simples:
        if not is_injective(s):
            v_ring = False
            witnesses["V_ring"] = {"kind": "non_injective_simple",
                                   "order": s.order}
            break
    if not left_local:
        witnesses["BKN"] = {"kind": "hom_zero",
                            "source": simples[0].provenance,
                            "target": simples[1].provenance}
    return RingClassification(
        ring.provenance, simple, semisimple, semisimple and left_local,
        left_local, True, v_ring, left_local, len(simples), witnesses)


# ---------------------------------------------------------------------------
# left exact preradicals through linear filters of left ideals

def enumerate_lep(ring):
    """All linear filters of left ideals, as evaluable operators, one
    ``LinearFilter`` per two-sided ideal.

    A linear filter is a nonempty upward-closed family of left ideals,
    closed under finite intersections and under the shifts
    (I : a) = {r | r.a in I}; the attached operator s picks the elements
    whose annihilator lies in the filter.  s is left exact: the
    annihilator {r | r.x = 0} of an element x is the same in every
    submodule that holds x, so for N <= M, s(N) = {x in N | ann(x) in
    the filter} = N & s(M).  That holds for the operator of any set of
    left ideals; the oracle tests check it on the corpus universes.

    Over a finite ring a filter F is closed under finite intersections, so
    it is the up-set of its least member T.  The shifts then ask that
    (T : a) contain T for every a, that is T.a <= T: T is two-sided.
    Conversely the up-set of a two-sided T is a filter, as I >= T gives
    (I : a) >= (T : a) >= T.  So the filters are the up-sets of the
    two-sided ideals, one each, and an element lies in the value of the
    filter of T exactly when T kills it.  They are sorted by the size of
    the filter, then by its member masks, sorted as ints.
    """
    lefts = sorted(i.mask for i in enumerate_ideals(ring, "left"))

    def size_and_members(t):
        members = [m for m in lefts if t.mask & ~m == 0]
        return len(members), members

    return tuple(map(LinearFilter, sorted(enumerate_ideals(ring, "two-sided"),
                                          key=size_and_members)))


# ---------------------------------------------------------------------------
# the verification harness

THEOREM_IDS = ("T15", "T14", "T14.3", "P14.1", "Perror1", "P12", "P8.5")


@dataclass
class TheoremVerdict:
    """The sides of one named statement, evaluated at universe scale.

    ``consistent`` holds when the sides agree.  The two exceptions are
    Perror1, an implication (its first side forces its second), and
    P14.1, whose one claim is that every (simple, hull) pair is
    superfluous.  False here means an engine bug, not a mathematical
    discovery.
    """
    theorem_id: str
    ring_provenance: str
    sides: dict
    consistent: bool
    witnesses: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {"theorem": self.theorem_id, "ring": self.ring_provenance,
                "sides": dict(self.sides), "consistent": self.consistent,
                "witnesses": dict(self.witnesses), "details": dict(self.details)}


def _first_failure(universe, decider):
    """Run a ``(verdict, witness)`` decider over the nonzero universe modules.

    Returns (True, None), or False with the first failing module's
    provenance merged into its witness.
    """
    for m in universe.nonzero_modules():
        verdict, witness = decider(m)
        if not verdict:
            return False, {"module": m.provenance, **(witness or {})}
    return True, None


def _lep_first(module, filters):
    """``a_first_detail`` for the filter operators, its witness named as
    T14 reports it."""
    verdict, witness = a_first_detail(module, filters)
    return verdict, witness and {"filter": witness["member"],
                                 "submodule": witness["submodule"]}


def verify_theorem(theorem_id, ring, universe=None):
    """Replay one named statement over a ring at universe scale.

    A module-level side ("every nonzero universe module is ...") is
    ``every(decider, witness_key)``: the first failing module's witness
    goes under ``witness_key``.  A ring-level side is a flag of
    ``classify_ring``.  The verdict is consistent when the sides agree,
    except for Perror1 and P14.1 (see ``TheoremVerdict``).

    An id outside ``THEOREM_IDS`` raises ``ValueError``, and a universe
    over another ring ``RingMismatch``, both before any work.  P14.1's
    hulls are the injective nonzero universe modules and its simples
    their proper essential atoms; the linear-filter operators of T14 are
    left exact by construction (``enumerate_lep``).
    """
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if universe is None:
        universe = generate_universe(ring)
    elif universe.ring is not ring:
        raise RingMismatch("universe over a different ring")
    cls = classify_ring(ring)
    witnesses = {}
    details = {}

    def every(decider, witness_key):
        holds, witness = _first_failure(universe, decider)
        if witness and witness_key:
            witnesses[witness_key] = witness
        return holds

    local_semiartinian = (cls.is_left_semiartinian_on_universe
                          and cls.is_left_local)
    if theorem_id == "T15":
        sides = {"ring_is_simple": cls.is_simple,
                 "all_universe_modules_prime":
                     every(lambda m: decide(m, "prime"), "non_prime_module")}
    elif theorem_id == "T14":
        filters = enumerate_lep(ring)
        details["filter_count"] = len(filters)
        sides = {"left_semiartinian_and_left_local": local_semiartinian,
                 "all_universe_modules_lep_first":
                     every(lambda m: _lep_first(m, filters), "non_lep_first")}
    elif theorem_id == "T14.3":
        sides = {"semiartinian_local_V_ring":
                     local_semiartinian and cls.is_V_ring,
                 "all_universe_modules_bjkn_prime":
                     every(lambda m: decide(m, "bjkn_prime"),
                           "non_bjkn_module"),
                 "homogeneous_semisimple": cls.is_homogeneous_semisimple}
    elif theorem_id == "P14.1":
        pairs = [{"simple": s.labels(), "hull": e.provenance,
                  "superfluous": is_superfluous(s)}
                 for e in universe.nonzero_modules() if is_injective(e)
                 for s in atoms(e) if not s.is_full() and is_essential(s)]
        failed = [pair for pair in pairs if not pair["superfluous"]]
        if failed:
            witnesses["non_superfluous"] = failed[-1]
        details["pairs"] = pairs
        sides = {"pairs_checked": len(pairs), "all_superfluous": not failed}
    elif theorem_id == "Perror1":
        sides = {"all_universe_modules_bjkn_prime":
                     every(lambda m: decide(m, "bjkn_prime"),
                           "non_bjkn_module"),
                 "BKN_on_universe": cls.is_BKN_on_universe}
    elif theorem_id == "P12":
        # Both sides hold over every finite ring: a nonzero submodule of a
        # finite module contains an atom A, and soc(A) = A, so soc kills
        # none.  The report keeps the scans, as checks of the deciders.
        sides = {"universe_in_socle_first_class":
                     every(lambda m: a_first_detail(m, [SOC]),
                           "module_not_in_first_class"),
                 "universe_in_socle_fully_first_class":
                     every(lambda m: a_fully_first_detail(m, [SOC]), None)}
    else:  # P8.5
        # Both sides hold over every finite ring: see P12, and no finite
        # module has a zero socle (see ``_classify``; the oracle test
        # ``test_no_universe_module_has_a_zero_socle`` scans for one).
        sides = {"universe_in_socle_fully_first_class":
                     every(lambda m: a_fully_first_detail(m, [SOC]),
                           "socle_gap"),
                 "left_semiartinian_on_universe":
                     cls.is_left_semiartinian_on_universe}

    if theorem_id == "Perror1":
        bjkn, bkn = sides.values()
        consistent = bkn or not bjkn
        details["converse_fails_here"] = bkn and not bjkn
    elif theorem_id == "P14.1":
        consistent = sides["all_superfluous"]
    else:
        consistent = len(set(sides.values())) == 1
    return TheoremVerdict(theorem_id, ring.provenance, sides, consistent,
                          witnesses, details)
