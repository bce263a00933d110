"""Deciders for firstness and primeness notions of finite modules.

Each notion is decided through the finite characterization that makes it
checkable without quantifying over all preradicals: BJKN-primeness
through two separately computed equivalent conditions, homogeneous
semisimplicity read off J(R) and cogeneration by the atoms over
generating sets of Hom groups, with the witness of a negative verdict
read off the rejects of the distinct cyclic submodules and no Hom-set
enumerated; primeness through both the annihilator and the ideal-action
route; trace-firstness through nonzero homs from the distinct cyclic
submodules to the atoms, decided by the action of the atoms'
annihilators, cross-checked against the traces of the cyclic
submodules, one per distinct pair of tables, with no isomorphism search;
diuniformity over the fully invariant hulls of the atoms, the least
failing hull being its first failure.
Each decider passes its routes, by name, to ``_agreed``, the one
function that compares routes: verdicts that differ raise one
``InternalInconsistency`` naming each route's verdict.  The one check
between notions, that a BJKN-prime module has the other three, is
``firstness_report``'s.  ``decide`` caches each notion's verdict per
module.  Firstness relative to a finite family is one scan,
``a_fully_first_detail``; ``a_first_detail`` runs it over the members
that do not kill the module, and ``class_membership`` reads all four
classes of a family off one evaluation of each member and that scan.
These deciders are also the module-level sides of the theorems replayed
by ``classify.verify_theorem``.

Every "for all nonzero submodules" quantifier whose failure passes down
to smaller submodules (an ideal, a preradical or an annihilator jump that
hits N also hits the atoms of N) runs over ``modules.atoms``, which builds
no lattice; by the scan-order argument given there, the first failure,
and so the witness, is the one a scan of every nonzero submodule in
lattice order finds.  Negative verdicts always carry that first witness.
Trace-firstness's quantifier does not pass down, but its least failures
are cyclic, so it runs over ``modules.cyclic_submodules`` with the same
first witness (the argument is in ``_rpid_pairwise``).  No decider
builds the lattice of a module other than the regular one, whose
lattice holds the ideals.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .errors import AxiomViolation, InternalInconsistency
from .modules import (_elements, _intern_submodule, _reject_mask,
                      annihilator_mask, atoms, cogenerates, cyclic_mask,
                      cyclic_submodules, hom_nonzero_exists, regular_module,
                      structural_summary, trad_mask)
from .preradicals import Alpha, Beta
from .rings import enumerate_ideals


def _require_nonzero(module, notion):
    """Refuse the zero module as a ``"nonzero module"`` violation: the
    fault is the caller's, as in ``modules.endomorphism_ring``."""
    if module.is_zero():
        raise AxiomViolation("nonzero module", module.provenance,
                             f"{notion} is defined for nonzero modules only")


def _agreed(module, notion, **routes):
    """Each route's ``(verdict, witness)`` on ``module``, by name, once
    every verdict agrees.

    The one place where independent routes to a notion's verdict are
    compared.  The zero module is refused first (``_require_nonzero``);
    the routes run in the order given; verdicts that differ raise one
    ``InternalInconsistency`` naming every route's verdict.  Each decider
    passes its routes by name, looked up when it runs, and picks the
    witness it returns.
    """
    _require_nonzero(module, notion)
    results = {name: route(module) for name, route in routes.items()}
    if len({verdict for verdict, _ in results.values()}) > 1:
        verdicts = {name: verdict for name, (verdict, _) in results.items()}
        raise InternalInconsistency(
            f"{notion} routes disagree on {module!r}: {verdicts}")
    return results


# ---------------------------------------------------------------------------
# BJKN-primeness: two equivalent conditions computed independently

def _cond_homogeneous_semisimple(module):
    """M is a direct sum of copies of one simple module.

    All nonzero submodules cogenerate M exactly when all atoms do, since a
    map into an atom A <= N is a map into N.  An atom S that cogenerates M
    embeds M in a power of S, so M is homogeneous semisimple; conversely
    every atom of S^n is a copy of S, and S cogenerates S^n.  The flag is
    read off J(R) by ``structural_summary``, with no Hom group.
    """
    return structural_summary(module).is_homogeneous_semisimple, None


def _cond_atoms_cogenerate(module):
    """Every atom cogenerates M, with Hom read off ``hom_generators``, one
    atom per annihilator.

    Every cyclic submodule, and so every nonzero submodule, cogenerates M
    exactly when every atom does: atoms are cyclic, and an atom A <= C
    that cogenerates M makes C cogenerate it (a map into A is a map into
    C).  Atoms with one annihilator P are isomorphic: an atom is a simple
    module, so P is a primitive ideal, and R/P, a finite primitive ring,
    is simple Artinian with a unique simple module up to isomorphism
    (Anderson and Fuller, *Rings and Categories of Modules*, sections 13
    and 14); both atoms are simple R/P-modules.  Cogeneration is
    invariant under isomorphism: an isomorphism A -> A' composed with the
    maps M -> A gives the maps M -> A', with the same kernels, so the two
    rejects agree.  So an atom fails exactly when the first atom with its
    annihilator fails, and the first failing atom in atom order is the
    first failing one of those.  Only the verdict is read.
    """
    seen = set()
    for a in atoms(module):
        ann = annihilator_mask(module, a.mask)
        if ann in seen:
            continue
        seen.add(ann)
        if not cogenerates(a, module):
            return False, None
    return True, None


def _inseparable_pair(module):
    """The first (x, y) such that every map M -> Ry kills x: y the least
    element whose Ry has a nonzero reject, x the least nonzero element of
    that reject; None when every reject is zero."""
    zmask = module.zero_mask()
    seen = set()
    for y in _elements(module.full_mask() & ~zmask):
        mask = cyclic_mask(module, y)
        if mask in seen:
            continue
        seen.add(mask)
        missed = _reject_mask(module,
                              _intern_submodule(module, mask).as_module())
        missed &= ~zmask
        if missed:
            x = (missed & -missed).bit_length() - 1
            return {"kind": "inseparable_pair",
                    "x": module.labels[x], "y": module.labels[y]}
    return None


def bjkn_prime_detail(module):
    """Verdict plus witness, the two routes agreeing (``_agreed``).

    Every nonzero submodule cogenerates M, decided from J(R) and from the
    rejects of the atoms.  Two equivalent conditions need no route of
    their own.  Products: the product of A and A', Beta(A) evaluated at
    A', is the sum of g(A) over the generators g of Hom(M, A'), zero
    exactly when A <= Rej(A'); a nonzero reject contains an atom, so some
    product of nonzero submodules is zero exactly when some reject is
    nonzero, the cogeneration route rearranged.  Pointwise separation:
    the x that every map M -> Ry kills form the meet of the kernels over
    Hom(M, Ry), which is the meet over ``hom_generators(M, Ry)``, the
    reject of Ry.

    So the witness of a negative verdict, the first pair (x, y) in index
    order with x killed by every map into Ry, is read off the rejects of
    the distinct Ry in order of their least generator y
    (``_inseparable_pair``).  A negative verdict without one raises.
    """
    results = _agreed(module, "BJKN-primeness",
                      homogeneous_semisimple=_cond_homogeneous_semisimple,
                      atoms_cogenerate=_cond_atoms_cogenerate)
    if results["homogeneous_semisimple"][0]:
        return True, None
    witness = _inseparable_pair(module)
    if witness is None:
        raise InternalInconsistency(
            f"BJKN-primeness routes find no inseparable pair on {module!r}: "
            f"{dict.fromkeys(results, False)}")
    return False, witness


def is_bjkn_prime(module):
    return bjkn_prime_detail(module)[0]


# ---------------------------------------------------------------------------
# primeness (= firstness under the two-sided-ideal action)

def _prime_via_annihilators(module):
    """All nonzero submodules have the module's annihilator, decided on
    the atoms: ann(N) <= ann(A) for an atom A <= N."""
    ann_m = annihilator_mask(module, module.full_mask())
    for n in atoms(module):
        if annihilator_mask(module, n.mask) != ann_m:
            return False, {"kind": "annihilator_jump", "submodule": n.labels()}
    return True, None


def _prime_via_ideals(module):
    """No two-sided ideal kills a nonzero submodule without killing the
    module, decided on the atoms: an ideal that kills N kills its atoms."""
    zmask = module.zero_mask()
    for ideal in enumerate_ideals(module.ring, "two-sided"):
        if trad_mask(module, ideal) == zmask:
            continue  # kills the module, nothing to check
        for n in atoms(module):
            if trad_mask(module, ideal, n.mask) == zmask:
                return False, {"kind": "ideal_kills_submodule_not_module",
                               "ideal": list(ideal.labels()),
                               "submodule": n.labels()}
    return True, None


def prime_module_detail(module):
    """Verdict plus the ideal-action route's witness, the annihilator and
    ideal-action routes agreeing (``_agreed``)."""
    return _agreed(module, "primeness",
                   annihilators=_prime_via_annihilators,
                   ideal_action=_prime_via_ideals)["ideal_action"]


def is_prime_module(module):
    return prime_module_detail(module)[0]


# ---------------------------------------------------------------------------
# firstness for idempotent preradicals

def _rpid_pairwise(module):
    """A nonzero map between every ordered pair of nonzero submodules,
    decided on the cyclic submodules and the atoms by the action of the
    atoms' annihilators.

    The witness route of trace-firstness.  Hom(N, K) = 0 gives
    Hom(N, A) = 0 for every atom A <= K (a map into A is a map into K), so
    for each N the first K in lattice order with no nonzero map from N is
    an atom (the scan-order argument of ``modules.atoms``), and scanning
    the pairs (N, atom) finds the same first failing pair, the witness.
    For an atom A with P = ann(A), Hom(N, A) != 0 exactly when P.N != N:
    P is a maximal two-sided ideal containing J = J(R), a map onto the
    simple A factors through the semisimple N/JN, and P.(N/JN) is the sum
    of the homogeneous components of N/JN other than A's; since J <= P,
    P.N = N exactly when P.(N/JN) = N/JN.  One regular-module ideal
    handle serves each distinct atom annihilator.

    The sources N run over the distinct cyclic submodules only.  For a
    two-sided ideal P, let N0 be a nonzero submodule of least order with
    P.N0 = N0.  The chain P >= P^2 >= ... stops at an ideal I = P^k with
    I^2 = I, and N0 = I.N0 is the sum of the Ix over x in N0.  Each Ix has
    P.(Ix) = Ix, as it contains I.(Ix) = I^2 x = Ix; some Ix is nonzero,
    so Ix = N0 by minimality.  Then x = ix for some i in I <= P, so
    Rx = Px, P.Rx = Rx and Rx <= N0, and minimality gives N0 = Rx.  The
    first failing N in lattice order has least order among the failures
    of each atom it fails on, so it is cyclic; scanning the cyclic
    submodules in lattice order finds the same first N, and then the same
    first atom.  The route reads no Hom-set and no isomorphism class, so
    it checks the family route independently.
    """
    reg = regular_module(module.ring)
    found = atoms(module)
    anns = {}  # annihilator mask -> its index in ideals
    which = [anns.setdefault(annihilator_mask(module, a.mask), len(anns))
             for a in found]
    ideals = [_intern_submodule(reg, mask) for mask in anns]
    for n in cyclic_submodules(module):
        reached = [trad_mask(module, p, n.mask) != n.mask for p in ideals]
        if all(reached):
            continue
        for a, i in zip(found, which):
            if not reached[i]:
                return False, {"kind": "hom_vanishes",
                               "source": n.labels(), "target": a.labels()}
    return True, None


def _one_per_table(subs):
    """The first submodule, as a module, of each ``serial`` among
    ``subs``, in order: one per distinct pair of ``(add, act)`` tables.

    Equal tables make the identity of indices an isomorphism.  The
    serial names one table entry of the memo (``rings.accepted_tables``),
    so different tables never share it, and equal tables over one ring,
    as all of ``subs`` are, share it while their entry is alive.  After
    an eviction equal tables may carry two serials.  That only repeats a
    member whose values equal another's, so an ``any`` over the members,
    as in ``_rpid_family``, is unchanged and the verdict stays exact."""
    firsts = {}
    for n in subs:
        m = n.as_module()
        firsts.setdefault(m.serial, m)
    return list(firsts.values())


def _rpid_family(module):
    """Quantification over a generated family of idempotent operators,
    the route that checks ``_rpid_pairwise``; only the verdict is read.

    The family is the trace alpha_C of one nonzero cyclic submodule C per
    distinct pair of tables (``_one_per_table``).  Every member leaves
    the module nonzero, as alpha_C(M) contains C != 0, so none is
    filtered out.  The members are tested on the atoms, one per distinct
    pair of tables; alpha_C(A) != 0 exactly when Hom(C, A) != 0.  Some
    nonzero N has Hom(N, A) = 0 for an atom A exactly when some cyclic C
    does (the least-order argument of ``_rpid_pairwise``), so the verdict
    is exact.  The reductions to one per table are exact, because a
    preradical t commutes with isomorphisms: for an isomorphism
    f: N -> N', naturality along f and along its inverse gives
    f(t(N)) = t(N').  So t kills N exactly when it kills every N'
    isomorphic to N, and alpha_N = alpha_N' (a map from N' is a map from
    N composed with f, with the same image).  Adding the socle or joins
    of members would change nothing: Soc(A) = A != 0 for an atom A, and
    a join is zero on A only when each part is.  The route reads no
    annihilator and searches for no isomorphism, so it checks the
    pairwise route independently.
    """
    family = [Alpha(_intern_submodule(c, c.full_mask()))
              for c in _one_per_table(cyclic_submodules(module))]
    simple = _one_per_table(atoms(module))
    return not any(pr.evaluate(a).is_zero()
                   for pr in family for a in simple), None


def rpid_first_detail(module):
    """Verdict plus the pairwise route's witness, the pairwise and
    family routes agreeing (``_agreed``)."""
    return _agreed(module, "trace-firstness", pairwise=_rpid_pairwise,
                   family=_rpid_family)["pairwise"]


def is_rpid_first(module):
    return rpid_first_detail(module)[0]


def is_retractable(module):
    """Nonzero maps from the module into every nonzero submodule, decided
    on the atoms: a map into an atom A <= N is a map into N."""
    return all(hom_nonzero_exists(module, a.as_module())
               for a in atoms(module))


# ---------------------------------------------------------------------------
# firstness relative to a finite family

def a_first_detail(module, family):
    """No member that leaves the module nonzero kills a nonzero submodule.

    The members are filtered lazily, so each one is evaluated on the module
    just before its submodule scan and the scan stops at the first witness.
    """
    _require_nonzero(module, "family-firstness")
    return a_fully_first_detail(
        module, (pr for pr in family if not pr.evaluate(module).is_zero()))


def is_A_first(module, family):
    return a_first_detail(module, family)[0]


def a_fully_first_detail(module, family):
    """No member of the family kills a nonzero submodule, decided on the
    atoms: a preradical that kills N kills every atom A <= N, as
    naturality along the inclusion gives t(A) <= t(N)."""
    for pr in family:
        for n in atoms(module):
            if pr.evaluate(n.as_module()).is_zero():
                return False, {"kind": "member_kills_submodule",
                               "member": pr.describe(),
                               "submodule": n.labels()}
    return True, None


def is_A_fully_first(module, family):
    return a_fully_first_detail(module, family)[0]


def _least_failing_hull(module):
    """Every nonzero fully invariant submodule is essential, decided on the
    fully invariant hulls End(M)A of the atoms A, with no lattice of M.

    N is essential exactly when Soc(M) <= N (``modules.is_essential``).
    The first failure N in lattice order (size, carrier) lies in Soc(M):
    N & Soc(M) is fully invariant (a meet of two), nonzero (N contains an
    atom) and not essential, and comes no later.  An atom A <= N has its
    hull, the least fully invariant submodule containing A, inside N, so
    the hull fails too and comes no later: it is N.  Every hull lies in
    Soc(M), where only Soc(M) is essential, so the witness is the least
    hull other than Soc(M).  The hull of A is ``Beta(A)`` on M.
    """
    socle = structural_summary(module).socle
    failing = [hull for hull in (Beta(a).evaluate(module)
                                 for a in atoms(module)) if hull != socle]
    if failing:
        hull = min(failing, key=lambda s: (s.order, s.carrier))
        return False, {"kind": "non_essential_fully_invariant",
                       "submodule": hull.labels()}
    return True, None


def diuniform_detail(module):
    """Verdict plus witness of diuniformity's one route, the least
    failing hull (``_agreed``)."""
    return _agreed(module, "diuniformity",
                   hulls=_least_failing_hull)["hulls"]


def is_diuniform(module):
    return diuniform_detail(module)[0]


# ---------------------------------------------------------------------------
# the torsion/torsion-free/first classes of a family

@dataclass(frozen=True)
class ClassMembership:
    """Membership of one module in the four classes attached to a family.

    in_pretorsion: every member fixes the module; in_pretorsion_free: every
    member kills it; in_first_class: zero or family-first; in_fully_first:
    no member kills a nonzero submodule.
    """
    in_pretorsion: bool
    in_pretorsion_free: bool
    in_first_class: bool
    in_fully_first: bool


def class_membership(module, family):
    """Membership record, each member evaluated on the module once.

    Pretorsion and pretorsion-free are read off those values.  The module
    is first when it is zero or no member that leaves it nonzero kills a
    nonzero submodule (``a_first_detail``'s scan over those members), and
    fully first when it is first and no member kills it: a member that
    kills M != 0 kills every atom, by naturality along the inclusion.
    """
    family = list(family)
    values = [pr.evaluate(module) for pr in family]
    kept = [pr for pr, v in zip(family, values) if not v.is_zero()]
    if module.is_zero():
        in_first = in_fully_first = True
    else:
        in_first = a_fully_first_detail(module, kept)[0]
        in_fully_first = in_first and len(kept) == len(family)
    return ClassMembership(all(v.is_full() for v in values), not kept,
                           in_first, in_fully_first)


# ---------------------------------------------------------------------------
# reports

@dataclass
class FirstnessReport:
    """Verdicts per notion with a concrete witness for each negative."""
    module_provenance: str
    module_order: int
    verdicts: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    def to_dict(self):
        return {"module": self.module_provenance,
                "order": self.module_order,
                "verdicts": dict(self.verdicts),
                "witnesses": dict(self.witnesses)}


# notion -> the name of its decider in this module; ``decide`` looks the
# decider up per call, so a decider patched in this module is used
NOTIONS = {"bjkn_prime": "bjkn_prime_detail", "prime": "prime_module_detail",
           "rpid_first": "rpid_first_detail", "diuniform": "diuniform_detail"}


def decide(module, notion):
    """``(verdict, witness)`` of one of the ``NOTIONS`` deciders, computed
    once per module and cached in it.

    A notion outside ``NOTIONS`` raises ``ValueError`` before any work.
    Each call returns its own copy of the witness, so a caller cannot
    change what later callers read.
    """
    if notion not in NOTIONS:
        raise ValueError(f"unknown notion {notion!r}; the notions are "
                         f"{', '.join(NOTIONS)}")
    decided = module._cache.setdefault("decided", {})
    if notion not in decided:
        decided[notion] = globals()[NOTIONS[notion]](module)
    verdict, witness = decided[notion]
    return verdict, copy.deepcopy(witness)


def firstness_report(module):
    """Run every decider and collect verdicts plus witnesses.

    A BJKN-prime module is homogeneous semisimple, S^n, so each nonzero
    submodule is some S^k: all have one annihilator, Hom(S^k, S^j) != 0
    for k, j > 0, and S^n is the only nonzero fully invariant submodule.
    So it is prime, trace-first and diuniform, and a report in which a
    BJKN-prime module fails another notion raises
    ``InternalInconsistency``.  This is the one check between deciders;
    each decider's own routes agree through ``_agreed``.
    """
    report = FirstnessReport(module.provenance, module.order)
    for notion in NOTIONS:
        verdict, witness = decide(module, notion)
        report.verdicts[notion] = verdict
        if witness is not None:
            report.witnesses[notion] = witness
    if report.verdicts["bjkn_prime"]:
        for notion, verdict in report.verdicts.items():
            if not verdict:
                raise InternalInconsistency(
                    f"bjkn-prime module fails {notion}")
    return report
