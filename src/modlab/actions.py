"""Poset actions on finite bounded lattices.

A poset P acts on a bounded lattice L through a map (s, x) -> s.x that is
monotone in both arguments and deflationary (s.x <= x).  A lattice is
given by its order alone; join, meet, bottom and top are read off it.
First and prime elements are decided relative to such an action by
exhaustive scans.  The module instances plug a family of preradicals (as
the poset, ordered by universe-relative comparison with ties collapsed)
into the submodule lattice of a module.

Input is checked where it enters: ``FinitePoset(leq)`` reads its table
as 0s and 1s and scans the order axioms, ``FiniteBoundedLattice(leq)``
also refuses a pair with no join or meet, and ``PosetAction(poset,
lattice, act)`` reads its table as integers and scans range, deflation
and both monotonicities.  What the module derives from checked objects
(intervals, restrictions, pullbacks, submodule lattices, a module
instance's poset and the random samplers' draws) is built by
``_proven``, which reads the same tables with no scan; each such
function's docstring gives the proof that its result satisfies the
axioms.  The one derived object checked again is a module instance's
action, whose axioms are facts about the evaluated preradicals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import AxiomViolation
from .modules import _elements, embed_submask, enumerate_submodules
from .rings import _integer_table


class FinitePoset:
    """A finite poset on 0..size-1 with an explicit relation matrix;
    ``up[a]`` and ``down[a]`` are bitmasks of the elements above and below
    a.  A transitivity violation (a, b, c) is a bit c of up(b) & ~up(a),
    checked in a triple scan's order, so a refusal names its witness.
    ``leq`` is read as module tables are (``rings._integer_table``): an
    entry other than 0 and 1 (or False and True) is a ``"table shape"``
    violation."""

    __slots__ = ("size", "leq", "up", "down")

    def __init__(self, leq):
        leq = _integer_table("order", leq)
        if any(v not in (0, 1) for row in leq for v in row):
            raise AxiomViolation("table shape", "order",
                                 "order table has an entry other than 0 "
                                 "and 1")
        self._derive(leq)
        up = self.up
        if any(len(row) != self.size for row in self.leq):
            raise AxiomViolation("relation shape", None)
        for a, up_a in enumerate(up):
            if not up_a >> a & 1:
                raise AxiomViolation("reflexivity", (a,))
            for b in _elements(up_a):
                if b != a and up[b] >> a & 1:
                    raise AxiomViolation("antisymmetry", (a, b))
                bad = up[b] & ~up_a
                if bad:
                    raise AxiomViolation("transitivity",
                                         (a, b, _elements(bad)[0]))

    def _derive(self, leq):
        """Read the up-sets and down-sets off ``leq``, checking nothing."""
        self.leq = leq = tuple([tuple(map(bool, row)) for row in leq])
        self.size = len(leq)
        self.up = tuple(sum(1 << b for b, v in enumerate(row) if v)
                        for row in leq)
        self.down = tuple(sum(1 << a for a, v in enumerate(col) if v)
                          for col in zip(*leq))

    def linear_extension(self):
        """The elements sorted by how many lie below each, then by index."""
        return sorted(range(self.size),
                      key=lambda i: (self.down[i].bit_count(), i))

    def __repr__(self):
        return f"FinitePoset(size={self.size})"


class FiniteBoundedLattice(FinitePoset):
    """A finite bounded lattice, given by its order alone.

    Join and meet are read off up-sets and down-sets, held as int
    bitmasks.  Every z >= x, y has up(z) inside up(x) & up(y), and z lies
    below every common upper bound exactly when up(x) & up(y) lies inside
    up(z).  So z is the join of x and y exactly when up(z) = up(x) &
    up(y).  Antisymmetry makes up-sets distinct, so at most one z
    matches, and one dict lookup finds it or shows there is none.  Meet
    is the dual, with down-sets.  The bottom is the element whose up-set
    is everything and the top the one whose down-set is (Davey and
    Priestley, *Introduction to Lattices and Order*, 2nd ed., 2002,
    ch. 2).  An order with a pair that has no join or meet raises
    ``AxiomViolation("lattice", (x, y))`` at the first such pair in
    row-major order; the empty order raises ``"boundedness"``.
    """

    __slots__ = ("join", "meet", "bottom", "top")

    def __init__(self, leq):
        super().__init__(leq)  # order axioms; _derive reads the tables
        for x, row in enumerate(self.join):
            if None in row or None in self.meet[x]:
                y = next(y for y in range(self.size)
                         if row[y] is None or self.meet[x][y] is None)
                raise AxiomViolation("lattice", (x, y),
                                     "pair without lub or glb")
        if self.bottom is None or self.top is None:
            raise AxiomViolation("boundedness", None, "no bottom or top")

    def _derive(self, leq, within=None):
        """Read join, meet, bottom and top off the up-sets and down-sets,
        checking nothing: a missing one is None.  ``within``, a lattice
        and the increasing list of the elements of one of its intervals
        that ``leq`` orders, has them read off that lattice's join and
        meet tables through the index map instead (``interval``)."""
        super()._derive(leq)
        up, down = self.up, self.down
        by_up = {u: x for x, u in enumerate(up)}
        by_down = {d: x for x, d in enumerate(down)}
        if within is None:
            self.join = tuple(tuple(by_up.get(u & v) for v in up)
                              for u in up)
            self.meet = tuple(tuple(by_down.get(d & e) for e in down)
                              for d in down)
        else:
            parent, keep = within
            pos = {x: i for i, x in enumerate(keep)}
            self.join, self.meet = (
                tuple(tuple([pos[row[b]] for b in keep])
                      for row in map(table.__getitem__, keep))
                for table in (parent.join, parent.meet))
        everything = (1 << self.size) - 1
        self.bottom = by_up.get(everything)
        self.top = by_down.get(everything)

    def atoms(self):
        """The elements whose down-set holds only them and the bottom."""
        bottom = 1 << self.bottom
        return [x for x, d in enumerate(self.down)
                if x != self.bottom and d == bottom | 1 << x]

    def __repr__(self):
        return f"FiniteBoundedLattice(size={self.size})"


class PosetAction:
    """An action table, with the three axioms verified at construction.

    Entries are read as module tables are (``rings._integer_table``):
    an entry not equal to its int value is a ``"table shape"`` violation.
    """

    __slots__ = ("poset", "lattice", "act")

    def __init__(self, poset, lattice, act):
        act = _integer_table("action", act)
        if len(act) != poset.size or any(len(row) != lattice.size for row in act):
            raise AxiomViolation("action shape", None)
        for s, row in enumerate(act):
            for x, v in enumerate(row):
                if not 0 <= v < lattice.size:
                    raise AxiomViolation("action range", (s, x),
                                         "s.x is not an element of L")
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
        self._derive(poset, lattice, act)

    def _derive(self, poset, lattice, act):
        """Hold the table as row tuples, checking nothing."""
        self.poset = poset
        self.lattice = lattice
        self.act = tuple(map(tuple, act))

    def __repr__(self):
        return f"PosetAction(|P|={self.poset.size}, |L|={self.lattice.size})"


def _proven(cls, *args):
    """A ``cls`` whose axioms the calling construction proves: its tables
    are read off ``args`` as the public constructor reads them, with no
    scan.  Each caller's docstring gives the proof."""
    made = cls.__new__(cls)
    made._derive(*args)
    return made


def _require_element(lattice, x):
    if not isinstance(x, int) or not 0 <= x < lattice.size:
        raise AxiomViolation("lattice element", (x,),
                             "no such element of the lattice")


def is_first(action, x):
    """No poset element kills a nonzero piece of x without killing x."""
    _require_element(action.lattice, x)
    if x == action.lattice.bottom:
        raise AxiomViolation("nonzero element", (x,),
                             "firstness is defined for nonzero elements")
    return first_witness(action, x) is None


def first_witness(action, x):
    """The first (z, s) violating firstness of x, or None."""
    lat = action.lattice
    _require_element(lat, x)
    act = action.act
    bot = lat.bottom
    for z in _elements(lat.down[x] & ~(1 << bot)):
        for s in range(action.poset.size):
            if act[s][z] == bot and act[s][x] != bot:
                return (z, s)
    return None


def is_prime(action, x):
    """s.z below x forces s.top below x or z below x, for all s, z."""
    lat = action.lattice
    _require_element(lat, x)
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
    the original action stays first for the pulled-back one.  ``f`` is
    read as an action table is and checked to be monotone; then the rows
    inherit every axiom: row a is row f(a) of the action, so it is
    deflationary and monotone in x, and a <= b gives f(a) <= f(b), so
    f(a).x <= f(b).x.
    """
    f = _integer_table("map", [f])[0]
    if len(f) != domain_poset.size or any(
            not 0 <= v < action.poset.size for v in f):
        raise AxiomViolation("map shape", None)
    for a in range(domain_poset.size):
        for b in range(domain_poset.size):
            if domain_poset.leq[a][b] and not action.poset.leq[f[a]][f[b]]:
                raise AxiomViolation("monotone map", (a, b))
    act = [action.act[f[a]] for a in range(domain_poset.size)]
    return _proven(PosetAction, domain_poset, action.lattice, act)


def interval(lattice, lo, hi):
    """The sublattice [lo, hi], plus the map new index -> old index.

    [lo, hi] is closed under the join and meet of L: for x, y in it,
    lo <= x <= x v y, and x v y <= hi as hi bounds both x and y above;
    dually lo <= x ^ y <= x <= hi.  The join in L is an upper bound of x
    and y in [lo, hi] below every other one there, since those are upper
    bounds in L; so it is their join in [lo, hi], and the meet likewise.
    So the restricted order is a lattice with bottom lo and top hi, and
    its join and meet tables are those of L read through the index map,
    with no lookup of up-sets.
    """
    _require_element(lattice, lo)
    _require_element(lattice, hi)
    if not lattice.leq[lo][hi]:
        raise AxiomViolation("interval bounds", (lo, hi), "lo must be <= hi")
    keep = _elements(lattice.up[lo] & lattice.down[hi])
    leq = [[lattice.leq[a][b] for b in keep] for a in keep]
    return _proven(FiniteBoundedLattice, leq, (lattice, keep)), tuple(keep)


def restrict_action(action, x):
    """The same action on the interval [bottom, x].  Returns the new
    action and the index map into the old lattice.

    It is well defined and an action: s.z <= z <= x puts s.z in the
    interval, and deflation and both monotonicities are the original
    action's, on fewer elements.
    """
    sub, keep = interval(action.lattice, action.lattice.bottom, x)
    pos = {z: i for i, z in enumerate(keep)}
    act = [[pos[action.act[s][z]] for z in keep]
           for s in range(action.poset.size)]
    return _proven(PosetAction, action.poset, sub, act), keep


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

    The bounded lattice is built from inclusion of carriers alone, and
    is one since submodules are closed under sum and intersection: the
    join, the least submodule above both, is their sum, the meet is their
    intersection, the bottom is 0 and the top the module.
    """
    lat = enumerate_submodules(module)
    n = len(lat)
    leq = [[lat.leq(i, j) for j in range(n)] for i in range(n)]
    return _proven(FiniteBoundedLattice, leq), lat


def module_action_instance(module, family):
    """Evaluate each family member on every submodule-as-module.

    The family is ordered by pointwise comparison over exactly those
    modules; ties collapse to one poset element.  A pointwise order on
    distinct value rows is an order: reflexive and transitive as the
    lattice order is, and antisymmetric since rows below each other are
    equal.  The action's deflation and monotonicity are properties of the
    evaluated preradicals, which no construction proves, so
    ``PosetAction`` checks them: a second route over
    ``Preradical.evaluate``.
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
    poset = _proven(FinitePoset, leq)
    action = PosetAction(poset, lattice, [order[a] for a in range(k)])
    classes = tuple(tuple(groups[row]) for row in order)
    return ModuleActionInstance(action, module, lat, classes)


# ---------------------------------------------------------------------------
# randomized instances for property sweeps

def random_poset(rng, size):
    """A random order: reflexive, upper-triangular (so antisymmetric) and
    transitively closed."""
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
    return _proven(FinitePoset, leq)


def _downset_lattice(rng, base_size, max_size):
    """The down-sets of a random poset under inclusion, or None past
    ``max_size``: a lattice, since down-sets are closed under union and
    intersection, with the empty set and the whole base as bounds."""
    base = random_poset(rng, base_size)
    downs = [mask for mask in range(1 << base.size)
             if all(base.down[i] & ~mask == 0 for i in _elements(mask))]
    if len(downs) > max_size:
        return None
    leq = [[a & ~b == 0 for b in downs] for a in downs]
    return _proven(FiniteBoundedLattice, leq)


def _chain(n):
    """0 < 1 < ... < n-1: a lattice with max as join and min as meet."""
    leq = [[i <= j for j in range(n)] for i in range(n)]
    return _proven(FiniteBoundedLattice, leq)


def _diamond_m3():
    """The lattice M3: two distinct middles join to 1 and meet to 0."""
    # 0 < a,b,c < 1 with three incomparable middles
    leq = [[True, True, True, True, True],
           [False, True, False, False, True],
           [False, False, True, False, True],
           [False, False, False, True, True],
           [False, False, False, False, True]]
    return _proven(FiniteBoundedLattice, leq)


def _pentagon_n5():
    """The lattice N5: c joins a and b to 1 and meets them to 0."""
    # 0 < a < b < 1 and 0 < c < 1 with c incomparable to a, b
    leq = [[True, True, True, True, True],
           [False, True, True, False, True],
           [False, False, True, False, True],
           [False, False, False, True, True],
           [False, False, False, False, True]]
    return _proven(FiniteBoundedLattice, leq)


def random_lattice(rng, max_size=8):
    """A chain, M3, N5, a product of two chains (componentwise order,
    whose join and meet are componentwise) or a down-set lattice, each a
    lattice by construction."""
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
                return _proven(FiniteBoundedLattice, leq)
        else:
            lat = _downset_lattice(rng, rng.randrange(1, 4), max_size)
            if lat is not None:
                return lat


def random_action(rng, poset, lattice):
    """Sample an action by filling the table along linear extensions.

    For each (s, x) the admissible values form the interval from the join
    of the already-forced lower bounds up to x, which is never empty, so
    sampling always succeeds.  The forced lower bounds are t.x for t < s
    and s.y for y < x, all filled before (s, x), so every value in that
    interval keeps deflation and both monotonicities: the table is an
    action by construction.
    """
    psort = poset.linear_extension()
    lsort = lattice.linear_extension()
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
            act[s][x] = rng.choice(
                _elements(lattice.up[lb] & lattice.down[x]))
    return _proven(PosetAction, poset, lattice, act)


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
