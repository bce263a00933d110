"""Finite rings presented by explicit operation tables.

A ring here is the index set ``0..order-1`` with full Cayley tables for
addition and multiplication.  Constructors build cyclic rings, matrix
rings, direct products, quotients, and rings from raw tables; every
construction runs a complete axiom scan before the object is returned.
Ideals are subsets represented as bitmasks over the element indices; the
left ideals are the submodules of the regular module, so they come from
its submodule lattice in ``modlab.modules`` (imported inside the functions
that need it, since that module builds on this one).
"""

from __future__ import annotations

import itertools

from .config import DEFAULT_RING_CAP
from .errors import AxiomViolation, SizeCapExceeded


class FiniteRing:
    """A finite unital ring with explicit tables.

    ``add`` and ``mul`` are tuples of row tuples, ``add[a][b]`` being the
    index of a+b.  ``zero``/``one`` are element indices and ``neg[a]`` is
    the additive inverse.  Instances are immutable after construction and
    hash by identity, so they can key caches directly.
    """

    __slots__ = ("order", "add", "mul", "zero", "one", "neg", "labels",
                 "provenance", "projection", "_cache")

    def __init__(self, add, mul, labels=None, provenance="raw",
                 projection=None, cap=DEFAULT_RING_CAP):
        add = tuple(tuple(row) for row in add)
        mul = tuple(tuple(row) for row in mul)
        n = len(add)
        if cap is not None and n > cap:
            raise SizeCapExceeded(f"ring order {n} exceeds cap {cap}")
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(labels)
        self.order = n
        self.add = add
        self.mul = mul
        self.labels = labels
        self.provenance = provenance
        self.projection = projection
        self._cache = {}
        self.zero, self.one, self.neg = _scan_ring_axioms(n, add, mul)

    def is_commutative(self):
        mul = self.mul
        return all(mul[a][b] == mul[b][a]
                   for a in range(self.order) for b in range(self.order))

    def __repr__(self):
        return f"FiniteRing({self.provenance}, order={self.order})"


def _scan_ring_axioms(n, add, mul):
    """Exhaustively check the ring axioms; return (zero, one, neg)."""
    if n == 0:
        raise AxiomViolation("nonempty carrier", None, "ring has no elements")
    rng = range(n)
    for name, table in (("addition", add), ("multiplication", mul)):
        if len(table) != n or any(len(row) != n for row in table):
            raise AxiomViolation("table shape", name,
                                 f"{name} table is not {n}x{n}")
        for a in rng:
            for b in rng:
                v = table[a][b]
                if not (0 <= v < n):
                    raise AxiomViolation("closure", (a, b, v),
                                         f"{name} table entry out of range")
    zero, neg = scan_abelian_group(n, add)
    one = None
    for e in rng:
        if all(mul[e][x] == x and mul[x][e] == x for x in rng):
            one = e
            break
    if one is None:
        raise AxiomViolation("multiplicative identity", None,
                             "no two-sided multiplicative identity")
    if one == zero:
        raise AxiomViolation("nontriviality", (zero, one), "one equals zero")
    for a in rng:
        for b in rng:
            for c in rng:
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise AxiomViolation("multiplicative associativity",
                                         (a, b, c))
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    raise AxiomViolation("left distributivity", (a, b, c))
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                    raise AxiomViolation("right distributivity", (a, b, c))
    return zero, one, neg


def scan_abelian_group(n, add):
    """Check that ``add`` is an abelian group table; return (zero, neg)."""
    rng = range(n)
    zero = None
    for e in rng:
        if all(add[e][x] == x for x in rng):
            zero = e
            break
    if zero is None:
        raise AxiomViolation("additive identity", None,
                             "no additive identity in add table")
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a]:
                raise AxiomViolation("additive commutativity", (a, b))
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    raise AxiomViolation("additive associativity", (a, b, c))
    neg = [None] * n
    for a in rng:
        for b in rng:
            if add[a][b] == zero:
                neg[a] = b
                break
        if neg[a] is None:
            raise AxiomViolation("additive inverse", (a,))
    return zero, tuple(neg)


# ---------------------------------------------------------------------------
# constructors

def cyclic_ring(n, cap=DEFAULT_RING_CAP):
    """The ring of integers mod n (n >= 2; n = 1 fails the one != zero scan)."""
    if n < 1:
        raise AxiomViolation("nonempty carrier", None, f"cyclic({n}) is empty")
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return FiniteRing(add, mul, provenance=f"cyclic({n})", cap=cap)


def matrix_ring(base, k, cap=DEFAULT_RING_CAP):
    """The ring of k-by-k matrices over ``base``."""
    if k < 1:
        raise AxiomViolation("matrix size", (k,), "matrix size must be >= 1")
    order = base.order ** (k * k)
    if cap is not None and order > cap:
        raise SizeCapExceeded(
            f"matrix ring order {base.order}^{k * k} = {order} exceeds cap {cap}")
    elements = list(itertools.product(range(base.order), repeat=k * k))
    index = {el: i for i, el in enumerate(elements)}
    badd, bmul = base.add, base.mul
    bzero = base.zero

    def mat_add(x, y):
        return tuple(badd[a][b] for a, b in zip(x, y))

    def mat_mul(x, y):
        out = []
        for i in range(k):
            for j in range(k):
                s = bzero
                for l in range(k):
                    s = badd[s][bmul[x[i * k + l]][y[l * k + j]]]
                out.append(s)
        return tuple(out)

    add = [[index[mat_add(x, y)] for y in elements] for x in elements]
    mul = [[index[mat_mul(x, y)] for y in elements] for x in elements]
    labels = tuple(
        "[" + ";".join(",".join(base.labels[x[i * k + j]] for j in range(k))
                       for i in range(k)) + "]"
        for x in elements)
    return FiniteRing(add, mul, labels=labels,
                      provenance=f"matrix({base.provenance},{k})", cap=cap)


def product_ring(factors, cap=DEFAULT_RING_CAP):
    """Direct product of a list of rings, componentwise operations."""
    factors = list(factors)
    if not factors:
        raise AxiomViolation("nonempty product", None,
                             "product of zero rings is the trivial ring")
    order = 1
    for f in factors:
        order *= f.order
    if cap is not None and order > cap:
        raise SizeCapExceeded(f"product ring order {order} exceeds cap {cap}")
    elements = list(itertools.product(*[range(f.order) for f in factors]))
    index = {el: i for i, el in enumerate(elements)}
    add = [[index[tuple(f.add[a][b] for f, a, b in zip(factors, x, y))]
            for y in elements] for x in elements]
    mul = [[index[tuple(f.mul[a][b] for f, a, b in zip(factors, x, y))]
            for y in elements] for x in elements]
    labels = tuple("(" + ",".join(f.labels[c] for f, c in zip(factors, x)) + ")"
                   for x in elements)
    prov = "product(" + ",".join(f.provenance for f in factors) + ")"
    return FiniteRing(add, mul, labels=labels, provenance=prov, cap=cap)


def quotient_ring(ring, ideal, cap=DEFAULT_RING_CAP):
    """Quotient by a proper two-sided ideal.

    Cosets are labelled by their smallest member; the canonical projection
    is stored on the result as ``projection`` (old index -> coset index).
    """
    if ideal.sidedness != "two-sided":
        raise AxiomViolation("two-sided ideal", ideal.carrier,
                             "quotient requires a two-sided ideal")
    if ideal.mask == (1 << ring.order) - 1:
        raise AxiomViolation("proper ideal", ideal.carrier,
                             "cannot quotient by the whole ring")
    n = ring.order
    proj = [None] * n
    reps = []
    for x in range(n):
        if proj[x] is not None:
            continue
        idx = len(reps)
        reps.append(x)
        for i in ideal.carrier:
            proj[ring.add[x][i]] = idx
    m = len(reps)
    add = [[proj[ring.add[reps[a]][reps[b]]] for b in range(m)] for a in range(m)]
    mul = [[proj[ring.mul[reps[a]][reps[b]]] for b in range(m)] for a in range(m)]
    labels = tuple("[" + ring.labels[r] + "]" for r in reps)
    return FiniteRing(add, mul, labels=labels,
                      provenance=f"quotient({ring.provenance})",
                      projection=tuple(proj), cap=cap)


def ring_from_tables(add, mul, labels=None, cap=DEFAULT_RING_CAP):
    return FiniteRing(add, mul, labels=labels, provenance="raw", cap=cap)


# ---------------------------------------------------------------------------
# ideals

class IdealHandle:
    """A left or two-sided ideal, as a bitmask over the element indices."""

    __slots__ = ("ring", "mask", "carrier", "sidedness")

    def __init__(self, ring, mask, sidedness):
        self.ring = ring
        self.mask = mask
        self.carrier = tuple(i for i in range(ring.order) if mask >> i & 1)
        self.sidedness = sidedness

    @property
    def order(self):
        return len(self.carrier)

    def is_zero(self):
        return self.mask == 1 << self.ring.zero

    def is_full(self):
        return self.mask == (1 << self.ring.order) - 1

    def __eq__(self, other):
        return (isinstance(other, IdealHandle) and self.ring is other.ring
                and self.mask == other.mask and self.sidedness == other.sidedness)

    def __hash__(self):
        return hash((id(self.ring), self.mask, self.sidedness))

    def __repr__(self):
        els = "{" + ",".join(self.ring.labels[i] for i in self.carrier) + "}"
        return f"Ideal({self.sidedness}, {els})"


def is_ideal_mask(ring, mask, sidedness):
    """Check closure of a subset under the ideal axioms."""
    if not mask >> ring.zero & 1:
        return False
    els = [i for i in range(ring.order) if mask >> i & 1]
    for a in els:
        if not mask >> ring.neg[a] & 1:
            return False
        for b in els:
            if not mask >> ring.add[a][b] & 1:
                return False
        for r in range(ring.order):
            if not mask >> ring.mul[r][a] & 1:
                return False
            if sidedness == "two-sided" and not mask >> ring.mul[a][r] & 1:
                return False
    return True


def enumerate_ideals(ring, sidedness="two-sided"):
    """All ideals of the requested sidedness, canonically ordered.

    Left ideals are the submodules of the regular module, read off its
    lattice; two-sided ideals are the left ideals also closed under right
    multiplication.  The naive power-set filter exists only in the test
    suite as an oracle.  Sorted by (size, carrier); the list always starts
    at 0 and ends at R.
    """
    key = ("ideals", sidedness)
    if key not in ring._cache:
        from .modules import enumerate_submodules, regular_module
        masks = [s.mask for s in
                 enumerate_submodules(regular_module(ring)).submodules]
        if sidedness == "two-sided":
            masks = [m for m in masks if is_ideal_mask(ring, m, "two-sided")]
        ring._cache[key] = tuple(IdealHandle(ring, m, sidedness)
                                 for m in masks)
    return ring._cache[key]


def is_simple_ring(ring):
    return len(enumerate_ideals(ring, "two-sided")) == 2


def is_prime_ring(ring):
    """No pair of nonzero two-sided ideals with zero product."""
    from .modules import regular_module, trad_mask
    reg = regular_module(ring)
    zero_mask = 1 << ring.zero
    ideals = [i for i in enumerate_ideals(ring, "two-sided") if not i.is_zero()]
    return all(trad_mask(reg, i, j.mask) != zero_mask
               for i in ideals for j in ideals)
