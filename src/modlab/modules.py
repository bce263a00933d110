"""Finite left modules over explicit finite rings.

Modules carry full addition and scalar-action tables over a ``FiniteRing``.
Submodules are bitmasks over the element indices, interned per module so
they can cache derived data (their own module structure, for instance).
A submodule is its mask: its carrier and order are read off the mask.
Every loop over the elements of a mask goes through ``_elements``, which
pays for set bits only; every image of a list of elements under a table
row or a map is ``_image``, every preimage ``_preimage``, and every
partition into the cosets of a subgroup ``_cosets``.
Maps are described through a greedy generating set, the step that first
reached each element (e = e' + r.g_i, e' reached earlier), and a basis of
the relations among the generators, found while the generators are
chosen; a generator-image tuple that kills every basis relation kills
every relation, so it extends to a unique well-defined R-map, filled along
the steps with one addition and one action per element, and no further
scan is needed (the test suite still compares against an all-functions
oracle on small instances).

Hom(M, T) is an abelian group under pointwise addition, and trace sums,
rejects, preimage meets, fully-invariant flags, Baer's criterion,
naturality checks and the Hom(A, B) product variant need only a
generating set of it: ``hom_generators`` computes one, of at most
log2|Hom| maps, as the kernel of the relation map without listing Hom,
and is capped by the size of the chain it builds (``MAX_HOM_CHAIN``).
The same chain gives |Hom|.  Only End(M) as a ring needs every map:
``hom_set`` lists the span of the generators, and refuses before listing
when |Hom| exceeds ``MAX_HOM_MAPS``.  The nonzero-map test and
isomorphism search exit early, so they search generator images
directly; they differ only in the candidate images, an optional
per-image test, and what happens at a complete tuple.

The full submodule lattice (``enumerate_submodules``) serves submodule
references, actions, ideals and universes.  The deciders quantify over
the distinct nonzero cyclic submodules instead (``cyclic_submodules``)
and over their minimal members, the atoms; the only lattice they read is
the regular module's, which holds the ideals.

Four facts read off tables are kept in the memo of accepted tables
(``rings.derived``), as ints keyed by the serials of the tables they
read, so that modules on equal tables compute each once per process:
generator data, element annihilators, the masks of the cyclic
submodules, and the generator images and order of each Hom chain.  A
module keeps only what is made from them, its submodule handles and its
maps.

Module tables from outside the engine enter through ``module_from_tables``,
the one place that checks the module axioms (``_scan_module_axioms``).
Regular and zero modules, submodules, quotients and direct sums are
modules by construction and carry the zero and negation that construction
gives, unscanned (``FiniteModule``); the last three build their tables
once per process for each construction on the same operands, named by
serial number (``rings.derived``).  Carrier masks are checked
where they enter, in ``submodule``, as tables are (``Submodule``).

Additive spans are formed one way each: a sum of subgroups by
``sum_masks`` (joins, traces, and I.N in ``trad_mask`` as the sum of the
subgroups iN), and a generating set by the greedy
``rings._additive_generators`` (of each relation ideal in
``_generator_data`` and of the target in ``_hom_chain``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import getitem

from .config import DEFAULT_MODULE_CAP, MAX_HOM_CHAIN, MAX_HOM_MAPS
from .errors import (AxiomViolation, InternalInconsistency, RingMismatch,
                     SizeCapExceeded)
from .rings import (ANNIHILATORS, CYCLIC_MASKS, DIRECT_SUM, GENERATOR_DATA,
                    HOM_CHAIN, QUOTIENT_MODULE, SUBMODULE, FiniteRing,
                    _additive_generators, _integer_table, _proven_ring,
                    accepted_tables, certified_scan, derived, differ,
                    element_labels, enumerate_ideals, scan_abelian_group,
                    scan_abelian_group_exhaustive, table_in_range)


class FiniteModule:
    """A finite left module with explicit tables.

    ``add[a][b]`` is the index of a+b; ``act[r][m]`` is the index of r.m
    for a ring element index r; both are tuples of row tuples of ints.
    ``zero`` is the index of 0 and ``neg[a]`` that of -a.  The constructor
    checks and looks up nothing: it takes an entry of the memo of accepted
    tables (``rings.accepted_tables``), which its caller has looked up.
    Tables from outside the engine enter through ``module_from_tables``,
    the one place that scans them (``_scan_module_axioms``).  Every other
    instance is built by the engine from modules it already holds, and
    its construction proves the axioms and gives its zero and negation:
    the regular module has the ring's own tables; the zero module is
    trivial; a submodule is closed under + and the action
    (``Submodule``), so every law holds on it; a quotient by a
    submodule adds and acts on cosets through any representatives; a
    direct sum adds and acts componentwise.  The test suite still runs
    the exhaustive scan on such modules as an oracle.

    Equal tables are stored once per process for each distinct
    (``ring.serial``, ``add``, ``act``), scanned or not: a module built on
    tables equal to stored ones, over any ring object of that serial,
    takes those tables, their zero, their negation and their ``serial``,
    the number that names those tables in construction keys.  A
    submodule, quotient or direct sum is also remembered by its
    construction, keyed by the serials of its operands
    (``rings.derived``), so building it again from the same
    tables builds nothing and hashes no table.  Labels, provenance and
    ``origin`` are made per instance.  ``origin`` records how the module
    was built (enough to re-embed carriers of submodules, preimages of
    quotients, and direct-sum components).  Instances hash by identity
    and can be weakly referenced.
    """

    __slots__ = ("ring", "order", "add", "act", "zero", "neg", "serial",
                 "labels", "provenance", "origin", "_cache", "__weakref__")

    def __init__(self, ring, add, act, zero, neg, serial, labels,
                 provenance, origin):
        self.ring = ring
        self.order = len(add)
        self.add, self.act, self.zero, self.neg = add, act, zero, neg
        self.serial = serial
        self.labels = labels
        self.provenance = provenance
        self.origin = origin
        self._cache = {}

    def is_zero(self):
        return self.order == 1

    def full_mask(self):
        return (1 << self.order) - 1

    def zero_mask(self):
        return 1 << self.zero

    def __repr__(self):
        return f"FiniteModule({self.provenance}, order={self.order}, over {self.ring.provenance})"


def _scan_module_axioms(ring, n, add, act):
    """Check the module axioms; return (zero, neg).

    ``rings.scan_abelian_group`` checks the additive group and yields its
    greedy additive generators G_M; G_R are those of the ring.  Shape,
    closure and the unit action are checked at every element; the other
    laws are checked against additive generators only, in
    O(|R| n log(n |R|)) beyond the group.  Each reduced check is complete,
    in this order, because the elements satisfying the law for all other
    arguments are closed under addition and contain the generators:

    - module distributivity r(a+b) = ra+rb, b in G_M: r(a+(b+b')) =
      r((a+b)+b') = (ra+rb)+rb' = ra+(rb+rb') = ra+r(b+b'), by additive
      associativity of M;
    - scalar distributivity (r+s)m = rm+sm, s in G_R: (r+(s+s'))m =
      ((r+s)+s')m = (rm+sm)+s'm = rm+(s+s')m, by additive associativity
      of R and of M;
    - action associativity (rs)m = r(sm), s in G_R: (r(s+s'))m =
      (rs+rs')m = (rs)m+(rs')m = r(sm)+r(s'm) = r(sm+s'm) = r((s+s')m),
      by the distributive laws of R and the two above.

    When a reduced check fails, ``_scan_module_axioms_exhaustive`` names
    the violation, so a rejected table reports the same axiom and witness
    as the full O(|R|^2 n + |R| n^2 + n^3) scan would.

    Only ``module_from_tables`` runs this, once per process for each
    distinct pair of tables over rings of one serial
    (``rings.accepted_tables`` says why that is exact); the modules the
    engine derives from others are modules by construction
    (``FiniteModule``).
    """
    return certified_scan(_module_certificate,
                          _scan_module_axioms_exhaustive, ring, n, add, act)


def _module_certificate(ring, n, add, act):
    """(zero, neg) if every reduced check passes, else None."""
    if n == 0 or not (table_in_range(n, n, add)
                      and table_in_range(ring.order, n, act)):
        return None
    zero, neg, gens = scan_abelian_group(n, add)
    if act[ring.one] != tuple(range(n)):
        return None
    radd, rmul = ring.add, ring.mul
    ring_gens = ring._cache["addgens"]
    for r, act_r in enumerate(act):
        for b in gens:
            if differ(map(act_r.__getitem__, add[b]),
                      map(add[act_r[b]].__getitem__, act_r)):
                return None
        for s in ring_gens:
            act_s = act[s]
            if (differ(act[radd[r][s]],
                       map(getitem, map(add.__getitem__, act_r), act_s))
                    or differ(act[rmul[r][s]],
                              map(act_r.__getitem__, act_s))):
                return None
    return zero, neg


def _scan_module_axioms_exhaustive(ring, n, add, act):
    """Check every module axiom at every element tuple; return (zero, neg)."""
    if n == 0:
        raise AxiomViolation("nonempty carrier", None, "module has no elements")
    rng = range(n)
    if any(len(row) != n for row in add) or len(add) != n:
        raise AxiomViolation("table shape", "add", "add table is not square")
    if len(act) != ring.order or any(len(row) != n for row in act):
        raise AxiomViolation("table shape", "act",
                             "act table is not |R| x |M|")
    for a in rng:
        for b in rng:
            v = add[a][b]
            if not (0 <= v < n):
                raise AxiomViolation("closure", (a, b, v), "add out of range")
    for r in range(ring.order):
        for m in rng:
            v = act[r][m]
            if not (0 <= v < n):
                raise AxiomViolation("closure", (r, m, v), "act out of range")
    zero, neg = scan_abelian_group_exhaustive(n, add)
    one = ring.one
    for m in rng:
        if act[one][m] != m:
            raise AxiomViolation("unit action", (m,))
    radd, rmul = ring.add, ring.mul
    for r in range(ring.order):
        for s in range(ring.order):
            for m in rng:
                if act[radd[r][s]][m] != add[act[r][m]][act[s][m]]:
                    raise AxiomViolation("scalar distributivity", (r, s, m))
                if act[rmul[r][s]][m] != act[r][act[s][m]]:
                    raise AxiomViolation("action associativity", (r, s, m))
        for a in rng:
            for b in rng:
                if act[r][add[a][b]] != add[act[r][a]][act[r][b]]:
                    raise AxiomViolation("module distributivity", (r, a, b))
    return zero, neg


# ---------------------------------------------------------------------------
# submodules as bitmasks

class Submodule:
    """A submodule of a fixed parent, as an interned bitmask: closed and
    within the parent, as only ``submodule`` (which checks a mask from
    outside) and ``_intern_submodule`` (masks the engine proves closed)
    make one, so no use of a handle checks closure again.

    The mask is the one representation: ``carrier``, the increasing tuple
    of its set bits, and ``order``, their number, are read off it on each
    use and kept nowhere."""

    __slots__ = ("module", "mask", "_mod")

    def __init__(self, module, mask, key=None):
        if key is not _intern_submodule:  # the one maker of handles
            raise TypeError("submodule handles come from submodule()")
        self.module = module
        self.mask = mask
        self._mod = None

    @property
    def carrier(self):
        return tuple(_elements(self.mask))

    @property
    def order(self):
        return self.mask.bit_count()

    def is_zero(self):
        return self.mask == self.module.zero_mask()

    def is_full(self):
        return self.mask == self.module.full_mask()

    def as_module(self):
        """This submodule as a module in its own right (cached).

        The result's ``origin`` is ``("sub", parent, carrier)``, which is
        what re-embedding of its submodules back into the parent uses.
        """
        if self._mod is None:
            parent, carrier = self.module, self.carrier
            self._mod = FiniteModule(
                parent.ring,
                *derived((SUBMODULE, parent.serial, self.mask),
                         lambda: _induced_tables(
                             parent, carrier,
                             {e: i for i, e in enumerate(carrier)})),
                self.labels(), f"sub(of {parent.provenance})",
                ("sub", parent, carrier))
        return self._mod

    def labels(self):
        return tuple(self.module.labels[i] for i in self.carrier)

    def __eq__(self, other):
        return (isinstance(other, Submodule) and self.module is other.module
                and self.mask == other.mask)

    def __hash__(self):
        return hash((id(self.module), self.mask))

    def __repr__(self):
        els = "{" + ",".join(self.labels()) + "}"
        return f"Submodule({els} of {self.module.provenance})"


def submodule(module, mask):
    """The interned handle of a mask from outside: refused as a
    ``"submodule"`` violation unless an int within the module and closed."""
    if not isinstance(mask, int):
        raise AxiomViolation("submodule", mask, "mask is not an int")
    if mask < 0 or mask >> module.order:
        raise AxiomViolation("submodule", mask, "bits outside the module")
    if not is_submodule_mask(module, mask):
        raise AxiomViolation("submodule", tuple(_elements(mask)),
                             "carrier is not a submodule")
    return _intern_submodule(module, mask)


def _intern_submodule(module, mask):
    """``submodule`` for a mask the engine proves closed: no check."""
    subs = module._cache.setdefault("subs", {})
    s = subs.get(mask)
    if s is None:
        s = Submodule(module, mask, _intern_submodule)
        subs[mask] = s
    return s


def is_submodule_mask(module, mask):
    """Whether ``mask`` holds 0 and is closed under + and the action."""
    if not mask >> module.zero & 1:
        return False
    els = _elements(mask)
    rows = [module.add[a] for a in els] + list(module.act)
    return all(_image(row, els) & ~mask == 0 for row in rows)


def cyclic_mask(module, x):
    """Carrier of Rx; already a submodule since rx + sx = (r+s)x."""
    mask = 0
    for row in module.act:
        mask |= 1 << row[x]
    return mask


def _elements(mask):
    """The indices of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _image(row, els):
    """The mask of the entries ``row[a]`` for a in ``els``: the image of
    a set of elements under a table row or a map."""
    out = 0
    for a in els:
        out |= 1 << row[a]
    return out


def _preimage(row, mask):
    """The mask of the indices x with ``row[x]`` in ``mask``: the
    preimage of a set of elements under a table row or a map."""
    out = 0
    for x, y in enumerate(row):
        if mask >> y & 1:
            out |= 1 << x
    return out


def _cosets(module, mask):
    """The cosets x + N of the additive subgroup N = ``mask``: the least
    member of each, in increasing order; each coset's mask; and the index
    of each element's coset, in element order.

    The least element x not covered by the cosets found so far is the
    least member of its coset: every element below x is covered, so lies
    in an earlier coset, and distinct cosets are disjoint.  So taking x
    and covering x + N, the image of N under y -> x + y, lists each coset
    once, in the order of its least member.
    """
    els = _elements(mask)
    add = module.add
    reps, masks = [], []
    label = [0] * module.order
    uncovered = module.full_mask()
    while uncovered:
        x = (uncovered & -uncovered).bit_length() - 1
        row = add[x]
        i = len(reps)
        coset = 0
        for a in els:
            y = row[a]
            coset |= 1 << y
            label[y] = i
        reps.append(x)
        masks.append(coset)
        uncovered &= ~coset
    return reps, masks, label


def sum_masks(module, mask_a, mask_b):
    """Sum of two additive subgroups, as a union of cosets of the larger.

    Both masks need only be subgroups, not submodules.  With A the larger,
    A + B is the union of the cosets A + y for y in B, and A + y = A + y'
    whenever y' lies in A + y, since then y' - y lies in the subgroup A;
    so each element of B already covered by a coset is skipped, and the
    cost is about |A + B| additions rather than |A|.|B|.  The sum of two
    subgroups is a subgroup, and of two submodules a submodule.
    """
    if mask_b & ~mask_a == 0:
        return mask_a
    if mask_a & ~mask_b == 0:
        return mask_b
    if mask_a.bit_count() < mask_b.bit_count():
        mask_a, mask_b = mask_b, mask_a
    els_a = _elements(mask_a)
    out = mask_a
    rest = mask_b & ~mask_a
    while rest:
        coset = _image(module.add[(rest & -rest).bit_length() - 1], els_a)
        out |= coset
        rest &= ~coset
    return out


def trad_mask(module, ideal, mask=None):
    """I.N for a two-sided ideal I and a submodule carrier N (all of M
    when ``mask`` is None), as the sum of the subgroups iN, i in I.

    Each iN = {iu : u in N} is a subgroup, since u -> iu is additive, and
    their sum (``sum_masks``) is the additive span of the products iu,
    which is I.N; it is a submodule, as r(iu) = (ri)u with ri in I.
    """
    act = module.act
    els = range(module.order) if mask is None else _elements(mask)
    out = module.zero_mask()
    for i in _elements(ideal.mask):
        out = sum_masks(module, out, _image(act[i], els))
    return out


def killed_mask(module, ideal):
    """s_T(M) = {x : T.x = 0} for a two-sided ideal T, the dual of
    ``trad_mask``: the elements whose annihilator contains T, read off
    the element annihilators.

    It is a submodule: t.(x + y) = t.x + t.y for each t in T, and
    T.(r.x) = (T.r).x <= T.x, as T is a right ideal.  It is the value
    of the linear filter of the left ideals containing T
    (``preradicals.LinearFilter``), and s_J(M) is Soc(M)
    (``structural_summary``)."""
    t = ideal.mask
    return sum(1 << x for x, a in enumerate(_element_annihilators(module))
               if t & ~a == 0)


# ---------------------------------------------------------------------------
# the submodule lattice

class SubmoduleLattice:
    """All submodules of a module, their order and fully-invariant flags.

    Canonical order is (size, carrier); index 0 is the zero submodule and
    the last index is the whole module.  Join and meet are ``sum_masks``
    and ``&`` on the carriers, so no tables are kept.  A proper submodule
    is maximal when it lies in no maximal listed after it, since a larger
    proper submodule comes later and lies in a maximal; the atoms are the
    minimal cyclic submodules (``atoms``), found with no lattice.
    ``fully_invariant`` is computed lazily by ``is_fully_invariant``.
    """

    def __init__(self, module, submodules):
        self.module = module
        self.submodules = tuple(submodules)
        self.index = {s.mask: i for i, s in enumerate(self.submodules)}
        self._fi = None

    def __len__(self):
        return len(self.submodules)

    def leq(self, i, j):
        return self.submodules[i].mask & ~self.submodules[j].mask == 0

    @property
    def fully_invariant(self):
        if self._fi is None:
            self._fi = tuple(map(is_fully_invariant, self.submodules))
        return self._fi

    def maximal_indices(self):
        found = []
        for s in reversed(self.submodules[:-1]):
            if all(s.mask & ~m for m in found):
                found.append(s.mask)
        return sorted(self.index[m] for m in found)

    def nonzero(self):
        return self.submodules[1:]


def enumerate_submodules(module):
    """The full submodule lattice, closed from zero under adding cyclics.

    Every submodule is a sum Rx_1 + ... + Rx_k, so closing {0} under
    m -> m + Rx reaches all of them.  For a submodule m, m + Rx depends
    only on the coset x + m: for a in m, m + R(x + a) = m + Rx, as each
    side contains both x and x + a.  So each m is summed with the cyclic
    of one representative per coset of m (``_cosets``) outside m, not
    with one per element; m + Rx is the union of the cosets m + rx, so
    it is read off the coset labels of the distinct elements rx, the
    entries of column x of the action table, |Rx| lookups.
    """
    if "lattice" in module._cache:
        return module._cache["lattice"]
    cyclics = list(map(set, zip(*module.act)))
    seen = {module.zero_mask()}
    queue = list(seen)
    while queue:
        m = queue.pop()
        reps, cosets, label = _cosets(module, m)
        del reps[label[module.zero]]  # m itself, the coset of 0
        for x in reps:
            s = m
            for y in cyclics[x]:
                s |= cosets[label[y]]
            if s not in seen:
                seen.add(s)
                queue.append(s)
    lat = SubmoduleLattice(module, [_intern_submodule(module, m)
                                    for m in _lattice_order(seen)])
    module._cache["lattice"] = lat
    return lat


def cyclic_submodules(module):
    """The distinct nonzero cyclic submodules Rx, in lattice order (size,
    carrier), with no lattice built (cached).

    The deciders quantify over these, not over every nonzero submodule:
    the atoms are the minimal ones (``atoms``), and trace-firstness and
    left exactness are decided on them (see ``firstness._rpid_pairwise``
    and ``preradicals.left_exact_at`` for why that is exact).  Their
    masks are a fact of the memo (``rings.derived``), keyed by the
    module's serial: Rx is read off the action table's column at x, so
    they depend on the module's tables and its ring's order alone.  The
    handles are the module's own.
    """
    if "cyclics" in module._cache:
        return module._cache["cyclics"]
    result = tuple(_intern_submodule(module, m) for m in derived(
        (CYCLIC_MASKS, module.serial), lambda: _cyclic_masks(module)))
    module._cache["cyclics"] = result
    return result


def _cyclic_masks(module):
    return tuple(_lattice_order({cyclic_mask(module, x)
                                 for x in range(module.order)
                                 if x != module.zero}))


def _lattice_order(masks):
    """The masks sorted in lattice order, (size, carrier)."""
    return sorted(masks, key=lambda m: (m.bit_count(), _elements(m)))


def atoms(module):
    """The atoms (simple submodules) in lattice order, with no lattice built
    (cached).

    An atom is Rx for each of its nonzero x, so the atoms are the minimal
    members of ``cyclic_submodules``.  Every nonzero submodule contains
    an atom, which is smaller and so listed before it: a member is an
    atom exactly when it contains no atom found before it.

    Scan order.  In lattice order (size, carrier) an atom of a submodule
    K comes before K, being smaller.  So for a test that fails on every
    nonzero submodule of a submodule it fails on (such as "is killed by"
    for an ideal, a preradical or an annihilator jump), the first nonzero
    submodule in lattice order that fails it is an atom, and scanning the
    atoms finds the same first failure, the same witness, as scanning
    every nonzero submodule.
    """
    if "atoms" in module._cache:
        return module._cache["atoms"]
    found = []
    for c in cyclic_submodules(module):
        if all(a.mask & ~c.mask for a in found):
            found.append(c)
    result = tuple(found)
    module._cache["atoms"] = result
    return result


# ---------------------------------------------------------------------------
# morphisms and hom-sets

class ModuleMorphism:
    """An R-linear map, stored as an image tuple indexed by source element.

    A map from outside is read as ``actions.pullback`` reads its map
    (``rings._integer_table``: an entry not equal to its int value is a
    ``"table shape"`` violation) and checked (``check``).  The engine's
    maps are R-linear by construction and made unchecked, by
    ``_morphism_from_images`` alone.
    """

    __slots__ = ("source", "target", "map")

    def __init__(self, source, target, map_):
        self.source = source
        self.target = target
        self.map = _integer_table("map", [map_])[0]
        self.check()

    def check(self):
        src, tgt, f = self.source, self.target, self.map
        if src.ring is not tgt.ring:
            raise RingMismatch("morphism endpoints over different rings")
        if len(f) != src.order or any(not 0 <= v < tgt.order for v in f):
            raise AxiomViolation("map shape", None)
        for a in range(src.order):
            for b in range(src.order):
                if f[src.add[a][b]] != tgt.add[f[a]][f[b]]:
                    raise AxiomViolation("additivity", (a, b))
        for r in range(src.ring.order):
            for a in range(src.order):
                if f[src.act[r][a]] != tgt.act[r][f[a]]:
                    raise AxiomViolation("linearity", (r, a))

    def is_zero(self):
        z = self.target.zero
        return all(v == z for v in self.map)

    def image_of_mask(self, mask):
        return _image(self.map, _elements(mask))

    def preimage_of_mask(self, mask):
        return _preimage(self.map, mask)

    def kernel_mask(self):
        return self.preimage_of_mask(1 << self.target.zero)

    def is_injective(self):
        return self.kernel_mask() == 1 << self.source.zero

    def __eq__(self, other):
        return (isinstance(other, ModuleMorphism) and self.source is other.source
                and self.target is other.target and self.map == other.map)

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.map))

    def __repr__(self):
        return f"Morphism({self.source.provenance}->{self.target.provenance}, {self.map})"


def _generator_data(module):
    """Greedy generators, one step per element, and a relation basis.

    Returns ``(gens, steps, rel_levels)``.  ``steps`` lists every nonzero
    element once, as ``(e, e', r, i)`` with e = e' + r.g_i, in the order
    the greedy loop first reaches them; e' lies in the span of the earlier
    generators, so it is zero or listed before e.  ``rel_levels[i]`` lists
    relations r (sum r_j.g_j = 0) whose last nonzero slot is i.  Adding a
    generator at least doubles the span, so the number of generators is at
    most log2(order).  The coefficient tuples that express each element of
    the current span are kept only while the generators are chosen, for
    the lifts below.

    The relations ending at slot i form, modulo those ending earlier, a
    copy of the left ideal {c : c.g_i in span(g_1..g_{i-1})}; so lifting
    greedy additive generators of each of these ideals
    (``rings._additive_generators``), c -> rep(-c.g_i) + c.e_i, gives
    relations that additively generate every relation.

    A fact of the memo (``rings.derived``), keyed by the module's serial:
    it reads the module's ``add``, ``act``, ``zero`` and ``neg`` and the
    ring's ``order``, ``add`` and ``zero``, all given by the module's
    tables and its ring's, which that serial names.
    """
    def greedy():
        ring = module.ring
        add, act, neg = module.add, module.act, module.neg
        gens = []
        reps = {module.zero: ()}
        steps = []
        lifts = [[]]
        for x in range(module.order):
            if x in reps:
                continue
            i = len(gens)
            gens.append(x)
            ideal = [c for c in range(ring.order) if act[c][x] in reps]
            lifts.append([reps[neg[act[c][x]]] + (c,) for c in
                          _additive_generators(ring.order, ring.add,
                                               ring.zero, ideal)])
            new_reps = {}
            for e in sorted(reps):
                vec = reps[e]
                row_e = add[e]
                for r in range(ring.order):
                    e2 = row_e[act[r][x]]
                    if e2 not in new_reps:
                        new_reps[e2] = vec + (r,)
                        if e2 not in reps:
                            steps.append((e2, e, r, i))
            reps = new_reps
        k = len(gens)
        pad = (ring.zero,) * k
        rel_levels = tuple(tuple(vec + pad[len(vec):] for vec in level)
                           for level in lifts)
        return tuple(gens), tuple(steps), rel_levels

    return derived((GENERATOR_DATA, module.serial), greedy)


def _search_images(target, rel_levels, candidates, on_full, accept=None):
    """Depth-first search over generator images in ``target``.

    ``candidates[i]`` lists the images tried for generator i, in order.  An
    image is kept only if it kills every basis relation whose last nonzero
    slot is generator i (``rel_levels[i + 1]``) and, when ``accept`` is
    given, ``accept(i, h)`` holds.  ``on_full`` sees each complete image
    tuple; the first tuple it returns true for ends the search and is
    returned.
    Returns None when the search runs to the end.
    """
    k = len(candidates)
    rzero = target.ring.zero
    tadd, tact, tzero = target.add, target.act, target.zero
    hvec = [tzero] * k

    def extend(level):
        if level == k:
            hv = tuple(hvec)
            return hv if on_full(hv) else None
        rels = rel_levels[level + 1]
        for h in candidates[level]:
            hvec[level] = h
            for vec in rels:
                s = tzero
                for j in range(level + 1):
                    rj = vec[j]
                    if rj != rzero:
                        s = tadd[s][tact[rj][hvec[j]]]
                if s != tzero:
                    break
            else:
                if accept is None or accept(level, h):
                    found = extend(level + 1)
                    if found is not None:
                        return found
        return None

    return extend(0)


def _morphism_from_images(source, target, images):
    """The map sending generator i of ``source`` to ``images[i]``.

    Filled along the steps of ``_generator_data``: f(e) = f(e') + r.h_i
    for e = e' + r.g_i, one addition and one action per element.  Callers
    pass only image tuples that kill every basis relation, so the map is
    well defined, every expression of e gives this value, and it is the
    R-map with these images: it is made without ``ModuleMorphism.check``.
    """
    tadd, tact = target.add, target.act
    fmap = [target.zero] * source.order
    for e, prev, r, i in _generator_data(source)[1]:
        fmap[e] = tadd[fmap[prev]][tact[r][images[i]]]
    f = object.__new__(ModuleMorphism)
    f.source, f.target, f.map = source, target, tuple(fmap)
    return f


def hom_set(source, target):
    """All R-linear maps source -> target, ordered by ``map``.

    The span of ``hom_generators`` under pointwise addition, listed on the
    generator images of ``source`` and filled once per map.  The chain
    behind the generators gives |Hom|, so a Hom of more than
    ``MAX_HOM_MAPS`` maps is refused before any is listed.  Only
    ``endomorphism_ring`` needs every map; every other question about
    Hom is answered from the generators.  The tests check this list
    against a search over all |T|^k generator-image tuples.
    """
    generators, order = _hom_chain(source, target)
    if order > MAX_HOM_MAPS:
        raise SizeCapExceeded(f"hom set of {order} maps is out of range")
    gens = _generator_data(source)[0]
    rows = target.add.__getitem__
    summands = [tuple(f.map[g] for g in gens) for f in generators]
    images = [(target.zero,) * len(gens)]
    seen = set(images)
    for x in images:
        for v in summands:
            y = tuple(map(getitem, map(rows, x), v))
            if y not in seen:
                seen.add(y)
                images.append(y)
    return tuple(sorted((_morphism_from_images(source, target, hv)
                         for hv in images), key=lambda f: f.map))


def hom_generators(source, target):
    """Maps generating the group Hom(source, target) under pointwise
    addition, at most log2|Hom| of them (cached).

    Hom is the kernel of the relation map Phi: T^k -> T^m sending images
    of the k generators to the values of the m basis relations (the
    flattened ``rel_levels`` of ``_generator_data``).  An
    abelian Schreier-Sims chain (one level per coordinate, relation
    coordinates first) of the graph {(Phi(x), x)} is grown from the graph
    of every t.e_j, t a greedy additive generator of T
    (``rings._additive_generators``).  The elements that chain
    inserts at levels >= m have zero relation values, generate the kernel,
    and each at least doubles its level's orbit, whose sizes multiply to
    |Hom|.  Every map is an integer combination of the result, so f(N) <=
    sum g(N), the kernels meet in the same submodule, and the preimages of
    a submodule meet in the same submodule.

    Each level's orbit is a subset of T, so the chain of width w = m + k
    stores at most w.|T| vectors of length w; it is refused when w^2.|T|
    exceeds ``MAX_HOM_CHAIN``.  The bound on |Hom| of ``hom_set`` does
    not apply: nothing here lists Hom.
    """
    return _hom_chain(source, target)[0]


def _hom_chain(source, target):
    """``(hom_generators(source, target), |Hom|)``, read off one chain
    (cached): |Hom| is the product of the orbit sizes at levels >= m.

    The chain's cap is checked on every call, before any cache.  The
    generator images and |Hom| are a fact of the memo
    (``rings.derived``), keyed by the serials of source and target: the
    chain reads the source's generator data (a fact of its serial), the
    target's ``order``, ``add``, ``act``, ``zero`` and ``neg``, and
    nothing else, and the ring check makes both serials name tables over
    one ring's.  The maps are the source's own, filled from the images.
    """
    if source.ring is not target.ring:
        raise RingMismatch("hom-set endpoints over different rings")
    gens, _, rel_levels = _generator_data(source)
    width = len(gens) + sum(map(len, rel_levels))
    if width * width * target.order > MAX_HOM_CHAIN:
        raise SizeCapExceeded(
            f"hom generator chain of width {width} over a target of order "
            f"{target.order} is out of range")
    cache = source._cache.setdefault("homgens", {})
    if target in cache:
        return cache[target]

    def chain():
        """The generator images of the maps, and |Hom|."""
        k = len(gens)
        rels = [r for level in rel_levels for r in level]
        m = len(rels)
        tadd, tact, tzero = target.add, target.act, target.zero
        rows, negs = tadd.__getitem__, target.neg.__getitem__

        def add(x, y):
            return tuple(map(getitem, map(rows, x), y))

        def sub(x, y):
            return tuple(map(getitem, map(rows, x), map(negs, y)))

        zero = (tzero,) * width
        orbits = [{tzero: zero} for _ in range(width)]
        images = []

        def sift(x, level):
            while level < width:
                v = x[level]
                orbit = orbits[level]
                if v not in orbit:
                    # x is a new basic generator: extend the orbit by its
                    # multiples, then sift n.x - rep(n.v) one level down
                    if level >= m:
                        images.append(x[m:])
                    old = dict(orbit)
                    mult = x
                    while mult[level] not in old:
                        for p, rep in old.items():
                            orbit[tadd[p][mult[level]]] = add(rep, mult)
                        mult = add(mult, x)
                    x = sub(mult, old[mult[level]])
                else:
                    x = sub(x, orbit[v])
                level += 1

        for t in _additive_generators(target.order, tadd, tzero,
                                      range(target.order)):
            for j in range(k):
                sift(tuple(tact[r[j]][t] for r in rels)
                     + tuple(t if i == j else tzero for i in range(k)), 0)
        return tuple(images), math.prod(map(len, orbits[m:]))

    images, order = derived((HOM_CHAIN, source.serial, target.serial),
                            chain)
    cache[target] = (tuple(_morphism_from_images(source, target, hv)
                           for hv in images), order)
    return cache[target]


def hom_nonzero_exists(source, target):
    """Whether a nonzero map source -> target exists (early exit)."""
    if source.ring is not target.ring:
        raise RingMismatch("hom-set endpoints over different rings")
    gens, _, rel_levels = _generator_data(source)
    tzero = target.zero
    # try nonzero images first so a hit surfaces early
    preferred = [h for h in range(target.order) if h != tzero] + [tzero]
    found = _search_images(target, rel_levels, [preferred] * len(gens),
                           lambda hv: any(h != tzero for h in hv))
    return found is not None


def _element_annihilators(module):
    """The mask of ring elements killing each element, in element order.

    A fact of the memo (``rings.derived``), keyed by the module's serial:
    it reads the module's ``act`` and ``zero`` and the ring's ``order``,
    given by the tables that serial names.
    """
    return derived((ANNIHILATORS, module.serial),
                   lambda: _annihilators(module))


def _annihilators(module):
    """{r : r.m = 0} for each m, the preimage of 0 under r -> r.m."""
    zero = module.zero_mask()
    return tuple(_preimage(column, zero) for column in zip(*module.act))


def annihilator_mask(module, mask):
    """Ring elements killing every element of the carrier ``mask``."""
    anns = _element_annihilators(module)
    out = (1 << module.ring.order) - 1
    for x in _elements(mask):
        out &= anns[x]
    return out


def find_isomorphism(a, b):
    """A bijective map a -> b, or None.

    Searches generator images directly instead of enumerating the whole
    hom-set: candidate images must have the same annihilator as their
    generator (an isomorphism preserves annihilators exactly), must kill
    the generator relations, and the span of the partial image must keep
    the size of the span of the generators (injectivity).  A full
    assignment is then a surjective map between equal orders.  Modules
    over different ring objects raise ``RingMismatch``, as the Hom-set
    queries do.
    """
    if a.ring is not b.ring:
        raise RingMismatch("hom-set endpoints over different rings")
    if a.order != b.order:
        return None
    ann_a = _element_annihilators(a)
    ann_b = _element_annihilators(b)
    if sorted(ann_a) != sorted(ann_b):
        return None
    gens, _, rel_levels = _generator_data(a)
    span_sizes = []
    span = a.zero_mask()
    for g in gens:
        span = sum_masks(a, span, cyclic_mask(a, g))
        span_sizes.append(span.bit_count())
    candidates = [[h for h in range(b.order) if ann_b[h] == ann_a[g]]
                  for g in gens]
    image_spans = [b.zero_mask()] + [None] * len(gens)

    def keeps_span_size(level, h):
        span = sum_masks(b, image_spans[level], cyclic_mask(b, h))
        image_spans[level + 1] = span
        return span.bit_count() == span_sizes[level]

    found = _search_images(b, rel_levels, candidates, lambda hv: True,
                           keeps_span_size)
    if found is None:
        return None
    return _morphism_from_images(a, b, found)


def is_isomorphic(a, b):
    if a is b:
        return True
    return find_isomorphism(a, b) is not None


# ---------------------------------------------------------------------------
# constructors

def regular_module(ring):
    """The ring as a left module over itself (one shared instance per ring)."""
    if "regular" not in ring._cache:
        ring._cache["regular"] = FiniteModule(
            ring, *_interned(ring, ring.add, ring.mul, ring.zero, ring.neg),
            ring.labels, f"regular({ring.provenance})", ("regular", ring))
    return ring._cache["regular"]


def _interned(ring, add, act, zero, neg):
    """The memo's entry for the tables of a module by construction, with
    the zero and negation the construction gives (``FiniteModule``)."""
    return accepted_tables((ring.serial,), (add, act),
                           lambda add, act: (add, act, zero, neg))


def _induced_tables(parent, elements, index):
    """The memo's entry for the tables, zero and negation ``parent``
    induces on ``elements`` (a carrier, or one representative per coset),
    element x of ``parent`` going to ``index[x]``."""
    def image(row):
        return tuple([index[row[x]] for x in elements])
    return _interned(parent.ring,
                     tuple([image(parent.add[x]) for x in elements]),
                     tuple(map(image, parent.act)), index[parent.zero],
                     image(parent.neg))


def quotient_module(parent, kernel):
    """M/N with cosets labelled by their least member."""
    if kernel.module is not parent:
        raise RingMismatch("kernel is not a submodule of this module")
    *entry, proj, reps = derived(
        (QUOTIENT_MODULE, parent.serial, kernel.mask),
        lambda: _quotient_tables(parent, kernel))
    labels = tuple("[" + parent.labels[r] + "]" for r in reps)
    return FiniteModule(parent.ring, *entry, labels,
                        f"quotient(of {parent.provenance})",
                        ("quotient", parent, kernel, proj, reps))


def _quotient_tables(parent, kernel):
    """The memo's entry for M/N, then the projection and the coset
    representatives, read off the cosets of N (``_cosets``): coset i of
    M/N is the one whose least member is the i-th representative."""
    reps, _, proj = _cosets(parent, kernel.mask)
    return _induced_tables(parent, reps, proj) + (tuple(proj), tuple(reps))


def direct_sum_module(summands, cap=DEFAULT_MODULE_CAP):
    """The direct sum, its elements the tuples of summand elements in
    ``itertools.product`` order.

    A tuple's index is a mixed-radix number whose last digit varies
    fastest: with t_i the product of the orders after summand i, the
    tuple (a_0, ..., a_k) has index sum(t_i * a_i).  The tables are built
    once per process for each sequence of summand tables
    (``_sum_tables``); the labels, zero and embeddings are read off the
    orders and zeros of the summands.
    """
    summands = list(summands)
    if not summands:
        raise AxiomViolation("nonempty sum", None,
                             "direct sum needs at least one summand")
    ring = summands[0].ring
    if any(s.ring is not ring for s in summands):
        raise RingMismatch("direct sum of modules over different rings")
    order = 1
    for s in summands:
        order *= s.order
    if cap is not None and order > cap:
        raise SizeCapExceeded(f"direct sum order {order} exceeds cap {cap}")
    add, act, zero, neg, serial = derived(
        (DIRECT_SUM, *(s.serial for s in summands)),
        lambda: _sum_tables(summands))
    strides = [1]
    for s in reversed(summands[1:]):
        strides.insert(0, strides[0] * s.order)
    labels = tuple("(" + ",".join(x) + ")" for x in
                   itertools.product(*[s.labels for s in summands]))
    embeddings = tuple(
        tuple(zero + t * (a - s.zero) for a in range(s.order))
        for t, s in zip(strides, summands))
    prov = "sum(" + "+".join(s.provenance for s in summands) + ")"
    return FiniteModule(ring, add, act, zero, neg, serial, labels, prov,
                        ("direct_sum", tuple(summands), embeddings))


def _sum_tables(summands):
    """The memo's entry for the tables, zero and negation of the direct
    sum, by index arithmetic one summand at a time from the last:
    prepending a summand S to a sum T of order t sends (a, u) to
    a*t + u."""
    add, act, neg = summands[-1].add, summands[-1].act, summands[-1].neg
    zero = summands[-1].zero

    def pairs(s_row, t_row):
        """The row of (a, u) over a in ``s_row``, u in ``t_row``; t is the
        order of the sum built so far."""
        # rows from lists: a tuple built from a generator can keep the
        # slack of its growth, and these tables live as long as the module
        return tuple([t * h + w for h in s_row for w in t_row])

    for s in reversed(summands[:-1]):
        t = len(add)
        zero += t * s.zero
        add = tuple([pairs(s_row, t_row) for s_row in s.add for t_row in add])
        act = tuple(map(pairs, s.act, act))
        neg = pairs(s.neg, neg)
    return _interned(summands[0].ring, add, act, zero, neg)


def cyclic_module(parent, x):
    """Rx as a module in its own right."""
    if not isinstance(x, int) or not 0 <= x < parent.order:
        raise AxiomViolation("module element", (x,), "no such element")
    return _intern_submodule(parent, cyclic_mask(parent, x)).as_module()


def module_from_tables(ring, add, act, labels=None, cap=DEFAULT_MODULE_CAP):
    """A module on tables from outside the engine, the only ones it scans.

    The entries are read as ints (``rings._integer_table``), the order is
    capped, and the tables pass ``_scan_module_axioms`` unless equal
    tables over the ring's serial were accepted before in this process.
    A rejected pair is not stored, so it raises on every build.
    """
    add = _integer_table("add", add)
    act = _integer_table("act", act)
    n = len(add)
    if cap is not None and n > cap:
        raise SizeCapExceeded(f"module order {n} exceeds cap {cap}")
    labels = element_labels(labels, n)
    return FiniteModule(ring, *accepted_tables(
        (ring.serial,), (add, act),
        lambda add, act: (add, act) + _scan_module_axioms(ring, n, add, act)),
        labels, "raw", ("raw",))


def zero_module(ring):
    if "zeromod" not in ring._cache:
        ring._cache["zeromod"] = FiniteModule(
            ring, *_interned(ring, ((0,),), ((0,),) * ring.order, 0, (0,)),
            ("0",), "zero", ("zero",))
    return ring._cache["zeromod"]


def embed_submask(child, mask):
    """Map a submodule mask of a sub-as-module back into its parent."""
    tag = child.origin[0]
    if tag != "sub":
        raise InternalInconsistency("embed_submask needs a sub-as-module")
    return _image(child.origin[2], _elements(mask))


# ---------------------------------------------------------------------------
# structural predicates

@dataclass(frozen=True)
class StructuralSummary:
    is_simple: bool
    is_semisimple: bool
    is_homogeneous_semisimple: bool
    socle: Submodule
    jacobson_radical: Submodule


def structural_summary(module):
    """Socle, radical, and the simple and (homogeneous) semisimple flags,
    read off J = J(R) with no lattice of M (cached).  R/J is semisimple, so
    Soc(M) = {x : Jx = 0} and Rad(M) = JM.  A simple module is the only one
    of the simple ring R/P, P its maximal two-sided annihilator; so a
    semisimple M != 0 is homogeneous exactly when ann(M), the meet of its
    simple summands' annihilators, is maximal (M = 0 is so vacuously).
    M is simple when M is its only nonzero cyclic submodule."""
    if "structure" in module._cache:
        return module._cache["structure"]
    ring, full = module.ring, module.full_mask()
    jac = jacobson_radical(ring)
    soc_mask = killed_mask(module, jac)
    ann_m = annihilator_mask(module, full)
    ideals = enumerate_ideals(ring, "two-sided")
    homogeneous = soc_mask == full and (
        module.is_zero() or sum(ann_m & ~i.mask == 0 for i in ideals) == 2)
    is_simple = cyclic_submodules(module) == (_intern_submodule(module, full),)
    summary = StructuralSummary(is_simple, soc_mask == full, homogeneous,
                                _intern_submodule(module, soc_mask),
                                _intern_submodule(module,
                                                  trad_mask(module, jac)))
    module._cache["structure"] = summary
    return summary


def is_fully_invariant(sub):
    """Every endomorphism of M maps N into N: tested on the generators of
    End(M) (``hom_generators``), since every endomorphism is a sum of
    them."""
    mask = sub.mask
    return all(f.image_of_mask(mask) & ~mask == 0
               for f in hom_generators(sub.module, sub.module))


def is_essential(sub):
    """N meets every nonzero submodule: Soc(M) <= N, as each one contains
    a simple submodule."""
    return structural_summary(sub.module).socle.mask & ~sub.mask == 0


def is_superfluous(sub):
    """N + K = M only for K = M: N <= Rad(M), as M is finitely generated."""
    rad = structural_summary(sub.module).jacobson_radical
    return sub.mask & ~rad.mask == 0


def is_atom(sub):
    return sub in atoms(sub.module)


# ---------------------------------------------------------------------------
# cogeneration and injectivity

def _reject_mask(module, cog):
    """Intersection of the kernels of all maps module -> cog.

    The kernels of a generating set of Hom(module, cog) meet in the same
    submodule, since every map is a sum of generators.
    """
    inter = module.full_mask()
    zmask = module.zero_mask()
    for f in hom_generators(module, cog):
        inter &= f.kernel_mask()
        if inter == zmask:
            break
    return inter


def cogenerates(cog, module):
    """Whether ``cog`` cogenerates ``module``: the reject of cog in module
    is zero.

    The reject is read off a generating set of Hom(module, cog).  The BJKN
    decider checks it against homogeneous semisimplicity read off J(R),
    with no Hom group, and the tests against the searched Hom-sets.
    """
    if isinstance(cog, Submodule):
        cog = cog.as_module()
    if cog.ring is not module.ring:
        raise RingMismatch("cogeneration across different rings")
    return _reject_mask(module, cog) == module.zero_mask()


def is_injective(module):
    """Baer criterion: every map from a left ideal of R extends to R.

    Hom(R, M) is M, through m -> (r -> r.m), so the restrictions of the
    maps R -> M to a left ideal I are the maps rho_m: i -> i.m, read off
    the action table's columns at the elements of I.  As rho_{m+m'} =
    rho_m + rho_{m'}, they form a subgroup of Hom(I, M), the image of the
    additive map m -> rho_m; so they are all of Hom(I, M) exactly when
    they contain every map of ``hom_generators(I, M)``, and no map is
    listed or counted.  The ideals 0 and R are skipped: every map from
    either extends to R (by zero, or as itself).
    """
    act = module.act
    for ideal in enumerate_ideals(module.ring, "left"):
        if ideal.is_zero() or ideal.is_full():
            continue
        restrictions = set(zip(*map(act.__getitem__,
                                    _elements(ideal.mask))))
        for f in hom_generators(ideal.as_module(), module):
            if f.map not in restrictions:
                return False
    return True


# ---------------------------------------------------------------------------
# simple modules and endomorphism rings

def simple_modules(ring):
    """One representative per isomorphism class of simple left modules.

    Every simple module of a finite ring is a quotient of the regular
    module by a maximal left ideal, and two of them are isomorphic exactly
    when their annihilators are equal: each is the only simple module of
    the simple ring R/P, P its annihilator.  So the first quotient, in
    ``maximal_indices`` order, with each annihilator is kept.  Canonical
    order: by (order, first occurrence).
    """
    if "simples" in ring._cache:
        return ring._cache["simples"]
    reg = regular_module(ring)
    lat = enumerate_submodules(reg)
    reps = {}
    for i in lat.maximal_indices():
        q = quotient_module(reg, lat.submodules[i])
        reps.setdefault(annihilator_mask(q, q.full_mask()), q)
    result = tuple(sorted(reps.values(), key=lambda m: m.order))
    ring._cache["simples"] = result
    return result


def jacobson_radical(ring):
    """J(R): the meet of the regular module's maximal submodules (cached)."""
    if "jacobson" not in ring._cache:
        reg = regular_module(ring)
        lat = enumerate_submodules(reg)
        mask = reg.full_mask()
        for i in lat.maximal_indices():
            mask &= lat.submodules[i].mask
        ring._cache["jacobson"] = _intern_submodule(reg, mask)
    return ring._cache["jacobson"]


def endomorphism_ring(module, cap=None):
    """End(M) as an explicit finite ring; product is composition f.g = f o g.

    Returns None when End(M) has more than ``cap`` elements (the full ring
    tables would be pointlessly huge for desk-scale checks), before any
    map is listed: |End(M)| comes with ``hom_generators``' chain.  End(0)
    is the zero ring, which ``FiniteRing`` does not model, so the zero
    module is refused as a ``"nonzero module"`` violation.

    A ring by construction (``rings._proven_ring``): ``hom_set`` lists
    every R-map M -> M, and a pointwise sum or composite of two is one
    again, so both tables are closed.  Pointwise addition makes an
    abelian group, as M is one; composition is associative; (g+h)f =
    gf+hf pointwise, and f(g+h) = fg+fh as f is additive; the identity
    map is one, and it differs from the zero map as M is nonzero.
    """
    if module.is_zero():
        raise AxiomViolation("nonzero module", module.provenance,
                             "End(M) is a ring only for nonzero M")
    if cap is not None and _hom_chain(module, module)[1] > cap:
        return None
    endos = hom_set(module, module)
    index = {f.map: i for i, f in enumerate(endos)}
    madd = module.add
    add = tuple([tuple([index[tuple([madd[f.map[x]][g.map[x]]
                                     for x in range(module.order)])]
                        for g in endos]) for f in endos])
    mul = tuple([tuple([index[tuple([f.map[g.map[x]]
                                     for x in range(module.order)])]
                        for g in endos]) for f in endos])
    return FiniteRing(_proven_ring(add, mul),
                      tuple(f"f{i}" for i in range(len(endos))),
                      f"end({module.provenance})")
