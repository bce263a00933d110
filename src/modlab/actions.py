"""Poset actions on finite bounded lattices.

A poset P acts on a bounded lattice L through a map (s, x) -> s.x that is
monotone in both arguments and deflationary (s.x <= x).  First and prime
elements are decided relative to such an action by exhaustive scans.  The
module instances plug a family of preradicals (as the poset, ordered by
universe-relative comparison with ties collapsed) into the submodule
lattice of a module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import AxiomViolation
from .modules import embed_submask, enumerate_submodules, sum_masks


class FinitePoset:
    """A finite poset on 0..size-1 with an explicit relation matrix."""

    __slots__ = ("size", "leq")

    def __init__(self, leq):
        leq = tuple(tuple(bool(v) for v in row) for row in leq)
        n = len(leq)
        if any(len(row) != n for row in leq):
            raise AxiomViolation("relation shape", None)
        for a in range(n):
            if not leq[a][a]:
                raise AxiomViolation("reflexivity", (a,))
            for b in range(n):
                if leq[a][b] and leq[b][a] and a != b:
                    raise AxiomViolation("antisymmetry", (a, b))
                for c in range(n):
                    if leq[a][b] and leq[b][c] and not leq[a][c]:
                        raise AxiomViolation("transitivity", (a, b, c))
        self.size = n
        self.leq = leq

    def linear_extension(self):
        order = sorted(range(self.size),
                       key=lambda i: (sum(self.leq[j][i] for j in range(self.size)), i))
        return order

    def __repr__(self):
        return f"FinitePoset(size={self.size})"


class FiniteBoundedLattice:
    """A finite bounded lattice with join/meet certified as lub/glb."""

    __slots__ = ("size", "leq", "join", "meet", "bottom", "top")

    def __init__(self, leq, join, meet):
        poset = FinitePoset(leq)  # order axioms
        n = poset.size
        leq = poset.leq
        join = tuple(tuple(row) for row in join)
        meet = tuple(tuple(row) for row in meet)
        bottom = top = None
        for x in range(n):
            if all(leq[x][y] for y in range(n)):
                bottom = x
            if all(leq[y][x] for y in range(n)):
                top = x
        if bottom is None or top is None:
            raise AxiomViolation("boundedness", None, "no bottom or top")
        for x in range(n):
            for y in range(n):
                j = join[x][y]
                if not (leq[x][j] and leq[y][j]):
                    raise AxiomViolation("join upper bound", (x, y))
                for z in range(n):
                    if leq[x][z] and leq[y][z] and not leq[j][z]:
                        raise AxiomViolation("join leastness", (x, y, z))
                m = meet[x][y]
                if not (leq[m][x] and leq[m][y]):
                    raise AxiomViolation("meet lower bound", (x, y))
                for z in range(n):
                    if leq[z][x] and leq[z][y] and not leq[z][m]:
                        raise AxiomViolation("meet greatestness", (x, y, z))
        self.size = n
        self.leq = leq
        self.join = join
        self.meet = meet
        self.bottom = bottom
        self.top = top

    @classmethod
    def from_leq(cls, leq):
        """Derive join/meet tables from an order, failing if none exist."""
        poset = FinitePoset(leq)
        n = poset.size
        leq = poset.leq
        join = [[None] * n for _ in range(n)]
        meet = [[None] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                ubs = [z for z in range(n) if leq[x][z] and leq[y][z]]
                least = [z for z in ubs if all(leq[z][w] for w in ubs)]
                lbs = [z for z in range(n) if leq[z][x] and leq[z][y]]
                greatest = [z for z in lbs if all(leq[w][z] for w in lbs)]
                if len(least) != 1 or len(greatest) != 1:
                    raise AxiomViolation("lattice", (x, y),
                                         "pair without lub or glb")
                join[x][y] = least[0]
                meet[x][y] = greatest[0]
        return cls(leq, join, meet)

    def atoms(self):
        out = []
        for x in range(self.size):
            if x == self.bottom:
                continue
            if all(y in (self.bottom, x) or not self.leq[y][x]
                   for y in range(self.size)):
                out.append(x)
        return out

    def __repr__(self):
        return f"FiniteBoundedLattice(size={self.size})"


class PosetAction:
    """An action table, with the three axioms verified at construction."""

    __slots__ = ("poset", "lattice", "act")

    def __init__(self, poset, lattice, act):
        act = tuple(tuple(row) for row in act)
        if len(act) != poset.size or any(len(row) != lattice.size for row in act):
            raise AxiomViolation("action shape", None)
        pleq = poset.leq
        lleq = lattice.leq
        for s in range(poset.size):
            for x in range(lattice.size):
                if not lleq[act[s][x]][x]:
                    raise AxiomViolation("deflation", (s, x),
                                         "s.x must lie below x")
                for t in range(poset.size):
                    if pleq[s][t] and not lleq[act[s][x]][act[t][x]]:
                        raise AxiomViolation("poset monotonicity", (s, t, x))
                for y in range(lattice.size):
                    if lleq[x][y] and not lleq[act[s][x]][act[s][y]]:
                        raise AxiomViolation("lattice monotonicity", (s, x, y))
        self.poset = poset
        self.lattice = lattice
        self.act = act

    def __repr__(self):
        return f"PosetAction(|P|={self.poset.size}, |L|={self.lattice.size})"


def is_first(action, x):
    """No poset element kills a nonzero piece of x without killing x."""
    if x == action.lattice.bottom:
        raise AxiomViolation("nonzero element", (x,),
                             "firstness is defined for nonzero elements")
    return first_witness(action, x) is None


def first_witness(action, x):
    """The first (z, s) violating firstness of x, or None."""
    lat = action.lattice
    act = action.act
    bot = lat.bottom
    for z in range(lat.size):
        if z == bot or not lat.leq[z][x]:
            continue
        for s in range(action.poset.size):
            if act[s][z] == bot and act[s][x] != bot:
                return (z, s)
    return None


def is_prime(action, x):
    """s.z below x forces s.top below x or z below x, for all s, z."""
    lat = action.lattice
    act = action.act
    top = lat.top
    for z in range(lat.size):
        for s in range(action.poset.size):
            if lat.leq[act[s][z]][x]:
                if not (lat.leq[act[s][top]][x] or lat.leq[z][x]):
                    return False
    return True


def pullback(action, f, domain_poset):
    """Precompose the action with a monotone map of posets.

    ``f`` sends domain_poset into action.poset; every element first for
    the original action stays first for the pulled-back one.
    """
    f = tuple(f)
    if len(f) != domain_poset.size or any(
            not 0 <= v < action.poset.size for v in f):
        raise AxiomViolation("map shape", None)
    for a in range(domain_poset.size):
        for b in range(domain_poset.size):
            if domain_poset.leq[a][b] and not action.poset.leq[f[a]][f[b]]:
                raise AxiomViolation("monotone map", (a, b))
    act = [action.act[f[a]] for a in range(domain_poset.size)]
    return PosetAction(domain_poset, action.lattice, act)


def interval(lattice, lo, hi):
    """The sublattice [lo, hi], plus the map new index -> old index."""
    if not lattice.leq[lo][hi]:
        raise AxiomViolation("interval bounds", (lo, hi), "lo must be <= hi")
    keep = [z for z in range(lattice.size)
            if lattice.leq[lo][z] and lattice.leq[z][hi]]
    pos = {z: i for i, z in enumerate(keep)}
    leq = [[lattice.leq[a][b] for b in keep] for a in keep]
    join = [[pos[lattice.join[a][b]] for b in keep] for a in keep]
    meet = [[pos[lattice.meet[a][b]] for b in keep] for a in keep]
    return FiniteBoundedLattice(leq, join, meet), tuple(keep)


def restrict_action(action, x):
    """The same action on the interval [bottom, x] (well defined by
    deflation).  Returns the new action and the index map into the old
    lattice."""
    sub, keep = interval(action.lattice, action.lattice.bottom, x)
    pos = {z: i for i, z in enumerate(keep)}
    act = [[pos[action.act[s][z]] for z in keep]
           for s in range(action.poset.size)]
    return PosetAction(action.poset, sub, act), keep


# ---------------------------------------------------------------------------
# the module instance

@dataclass(frozen=True)
class ModuleActionInstance:
    """A preradical family acting on the submodule lattice of a module.

    ``classes[i]`` lists the preradicals collapsed into poset element i
    (expressions that agree on every submodule of the module compare as
    equal and must share a poset element to keep antisymmetry).
    """
    action: PosetAction
    module: object
    submodule_lattice: object
    classes: tuple


def submodule_bounded_lattice(module):
    """The submodule lattice of a module as a plain bounded lattice.

    Join is the sum and meet the intersection of carriers; the bounded
    lattice certifies both tables as lub/glb of inclusion.
    """
    lat = enumerate_submodules(module)
    subs, index = lat.submodules, lat.index
    n = len(lat)
    leq = [[lat.leq(i, j) for j in range(n)] for i in range(n)]
    join = [[index[sum_masks(module, a.mask, b.mask)] for b in subs]
            for a in subs]
    meet = [[index[a.mask & b.mask] for b in subs] for a in subs]
    return FiniteBoundedLattice(leq, join, meet), lat


def module_action_instance(module, family):
    """Evaluate each family member on every submodule-as-module.

    The family is ordered by pointwise comparison over exactly those
    modules; ties collapse to one poset element.
    """
    lattice, lat = submodule_bounded_lattice(module)
    value_rows = []
    for pr in family:
        row = []
        for s in lat.submodules:
            smod = s.as_module()
            val = pr.evaluate(smod)
            row.append(lat.index[embed_submask(smod, val.mask)])
        value_rows.append(tuple(row))
    groups = {}
    order = []
    for pr, row in zip(family, value_rows):
        if row not in groups:
            groups[row] = []
            order.append(row)
        groups[row].append(pr)
    k = len(order)
    leq = [[all(lat.leq(order[a][i], order[b][i]) for i in range(len(lat)))
            for b in range(k)] for a in range(k)]
    poset = FinitePoset(leq)
    action = PosetAction(poset, lattice, [order[a] for a in range(k)])
    classes = tuple(tuple(groups[row]) for row in order)
    return ModuleActionInstance(action, module, lat, classes)


# ---------------------------------------------------------------------------
# randomized instances for property sweeps

def random_poset(rng, size):
    leq = [[i == j for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.4:
                leq[i][j] = True
    for k in range(size):          # transitive closure
        for i in range(size):
            for j in range(size):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True
    return FinitePoset(leq)


def _downset_lattice(rng, base_size, max_size):
    base = random_poset(rng, base_size)
    downs = []
    for mask in range(1 << base.size):
        ok = True
        for i in range(base.size):
            if mask >> i & 1:
                for j in range(base.size):
                    if base.leq[j][i] and not mask >> j & 1:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            downs.append(mask)
    if len(downs) > max_size:
        return None
    leq = [[a & ~b == 0 for b in downs] for a in downs]
    return FiniteBoundedLattice.from_leq(leq)


def _chain(n):
    leq = [[i <= j for j in range(n)] for i in range(n)]
    return FiniteBoundedLattice.from_leq(leq)


def _diamond_m3():
    # 0 < a,b,c < 1 with three incomparable middles
    leq = [[True, True, True, True, True],
           [False, True, False, False, True],
           [False, False, True, False, True],
           [False, False, False, True, True],
           [False, False, False, False, True]]
    return FiniteBoundedLattice.from_leq(leq)


def _pentagon_n5():
    # 0 < a < b < 1 and 0 < c < 1 with c incomparable to a, b
    leq = [[True, True, True, True, True],
           [False, True, True, False, True],
           [False, False, True, False, True],
           [False, False, False, True, True],
           [False, False, False, False, True]]
    return FiniteBoundedLattice.from_leq(leq)


def random_lattice(rng, max_size=8):
    while True:
        kind = rng.randrange(4)
        if kind == 0:
            return _chain(rng.randrange(2, max_size + 1))
        if kind == 1:
            return _diamond_m3() if rng.random() < 0.5 else _pentagon_n5()
        if kind == 2:
            a = rng.randrange(2, 5)
            b = rng.randrange(2, max_size // a + 1) if max_size // a >= 2 else 2
            if a * b <= max_size:
                ca, cb = _chain(a), _chain(b)
                leq = [[ca.leq[x1][y1] and cb.leq[x2][y2]
                        for y1 in range(a) for y2 in range(b)]
                       for x1 in range(a) for x2 in range(b)]
                return FiniteBoundedLattice.from_leq(leq)
        else:
            lat = _downset_lattice(rng, rng.randrange(1, 4), max_size)
            if lat is not None:
                return lat


def random_action(rng, poset, lattice):
    """Sample an action by filling the table along linear extensions.

    For each (s, x) the admissible values form the interval from the join
    of the already-forced lower bounds up to x, which is never empty, so
    sampling always succeeds.
    """
    psort = poset.linear_extension()
    lsort = sorted(range(lattice.size),
                   key=lambda x: (sum(lattice.leq[y][x] for y in range(lattice.size)), x))
    act = [[None] * lattice.size for _ in range(poset.size)]
    for s in psort:
        for x in lsort:
            lb = lattice.bottom
            for t in psort:
                if t == s:
                    break
                if poset.leq[t][s]:
                    lb = lattice.join[lb][act[t][x]]
            for y in lsort:
                if y == x:
                    break
                if lattice.leq[y][x]:
                    lb = lattice.join[lb][act[s][y]]
            candidates = [v for v in range(lattice.size)
                          if lattice.leq[lb][v] and lattice.leq[v][x]]
            act[s][x] = rng.choice(candidates)
    return PosetAction(poset, lattice, act)


# random draws before a monotone map is given up on
MONOTONE_MAP_TRIES = 200
# sizes of the random lattice and posets of one randomized instance
MAX_LATTICE = 8
MAX_POSET = 4


def random_monotone_map(rng, domain, codomain):
    for _ in range(MONOTONE_MAP_TRIES):
        f = [rng.randrange(codomain.size) for _ in range(domain.size)]
        if all(codomain.leq[f[a]][f[b]]
               for a in range(domain.size) for b in range(domain.size)
               if domain.leq[a][b]):
            return tuple(f)
    return None


def random_instance_holds(seed):
    """One randomized check of the generic facts; returns list of failures.

    Verifies that atoms are first, that x is first exactly when the bottom
    of [0, x] is prime for the restricted action, and that first elements
    stay first under pullback along a random monotone map.
    """
    rng = random.Random(seed)
    lattice = random_lattice(rng, MAX_LATTICE)
    poset = random_poset(rng, rng.randrange(1, MAX_POSET + 1))
    action = random_action(rng, poset, lattice)
    failures = []
    for a in lattice.atoms():
        if not is_first(action, a):
            failures.append(("atom_not_first", a))
    for x in range(lattice.size):
        if x == lattice.bottom:
            continue
        restricted, keep = restrict_action(action, x)
        bridge = is_prime(restricted, restricted.lattice.bottom)
        if is_first(action, x) != bridge:
            failures.append(("first_prime_bridge", x))
    domain = random_poset(rng, rng.randrange(1, MAX_POSET + 1))
    f = random_monotone_map(rng, domain, poset)
    if f is not None:
        pulled = pullback(action, f, domain)
        for x in range(lattice.size):
            if x == lattice.bottom:
                continue
            if is_first(action, x) and not is_first(pulled, x):
                failures.append(("pullback_first_lost", x))
    return failures
