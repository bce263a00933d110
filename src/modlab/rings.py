"""Finite rings presented by explicit operation tables.

A ring here is the index set ``0..order-1`` with full Cayley tables for
addition and multiplication.  Constructors build cyclic rings, matrix
rings, direct products, quotients, and rings from raw tables.  Tables
from outside the engine enter through ``ring_from_tables``, the one place
that checks the ring axioms (``_scan_ring_axioms``; see
``scan_abelian_group`` for how the checks stay complete in
O(n^2 log n)).  Every other ring, here and ``modules.endomorphism_ring``,
is a ring by construction and reads its zero, one and negation off its
tables unscanned (``_proven_ring``); each constructor's docstring gives
the proof.  Cyclic, matrix and product rings build their tables once per
process for each construction on the same operands, named by serial
number (``derived``).  The same bounded memo of ints (``accepted_tables``)
holds the facts that ``modlab.modules`` and ``modlab.preradicals`` read
off tables: generator data, Hom chains, element annihilators, cyclic
submodules and preradical values, each keyed by the serials of the tables
it reads, so objects on equal tables compute each fact once.
An ideal is a ``Submodule`` handle of the regular module: the left ideals
are its lattice, read off ``modlab.modules`` (imported inside the functions
that need it, since that module builds on this one), and the two-sided
ideals are the left ideals closed under right multiplication.
"""

from __future__ import annotations

import itertools
from operator import getitem, itemgetter, ne

from .config import DEFAULT_RING_CAP, MAX_ACCEPTED_CELLS
from .errors import AxiomViolation, InternalInconsistency, SizeCapExceeded


def element_labels(labels, n):
    """``labels`` as a tuple naming each of n elements once in order,
    ``"0"`` to ``"n-1"`` when None; another count raises
    ``AxiomViolation``."""
    if labels is None:
        return tuple(str(i) for i in range(n))
    labels = tuple(labels)
    if len(labels) != n:
        raise AxiomViolation("one label per element", (len(labels), n),
                             f"{len(labels)} labels for {n} elements")
    return labels


class FiniteRing:
    """A finite unital ring with explicit tables.

    ``add`` and ``mul`` are tuples of row tuples of ints, ``add[a][b]``
    being the index of a+b.  ``zero``/``one`` are element indices and
    ``neg[a]`` is the additive inverse.  The constructor checks and looks
    up nothing: it takes an entry of the memo of accepted tables
    (``accepted_tables``), ``(add, mul, zero, one, neg, gens, serial)``,
    which its caller has looked up; ``gens`` are the greedy additive
    generators and ``serial`` the number that names the tables in
    construction keys.  Raw tables enter through ``ring_from_tables``,
    the one place that scans them (``_scan_ring_axioms``).  Every other
    ring is built by the engine and is a ring by construction
    (``_proven_ring``); the test suite still runs the exhaustive scan on
    such rings as an oracle.  Equal tables share one entry, so rings on
    them share their tables and serial.  Instances are immutable after
    construction and hash by identity, so they can key caches directly,
    and can be weakly referenced.
    """

    __slots__ = ("order", "add", "mul", "zero", "one", "neg", "serial",
                 "labels", "provenance", "projection", "_cache",
                 "__weakref__")

    def __init__(self, entry, labels, provenance, projection=None):
        (self.add, self.mul, self.zero, self.one, self.neg, gens,
         self.serial) = entry
        self.order = len(self.add)
        self.labels = labels
        self.provenance = provenance
        self.projection = projection
        self._cache = {"addgens": gens}

    def __repr__(self):
        return f"FiniteRing({self.provenance}, order={self.order})"


def _proven_ring(add, mul):
    """The memo's entry for the tables of a ring by construction, its
    zero, one, negation and additive generators read off the tables,
    unscanned.

    The zero is the row of ``add`` equal to the identity row, and one is
    the first row of ``mul`` equal to it: a left identity e has
    e = e.1 = 1, so it is the only one.  The generators come from the
    call ``scan_abelian_group`` makes, so an entry is the same whichever
    path stored it (``accepted_tables``).
    """
    def read(add, mul):
        n = len(add)
        ident = tuple(range(n))
        zero = add.index(ident)
        return (add, mul, zero, mul.index(ident),
                tuple([row.index(zero) for row in add]),
                _additive_generators(n, add, zero, range(n)))
    return accepted_tables((), (add, mul), read)


def _scan_ring_axioms(n, add, mul):
    """Check the ring axioms; return (zero, one, neg, gens).

    ``gens`` are the greedy additive generators G of ``scan_abelian_group``,
    which checks the additive group.  Shape, closure and the
    multiplicative identity are checked at every element; multiplicative
    associativity and both distributive laws are checked with one
    argument in G only, O(n^2 log n) in all.  Each reduced check is
    complete, in this order, because the elements satisfying the law for
    all other arguments are closed under addition:

    - left distributivity a(b+c) = ab+ac, c in G: for c, c' in that set,
      a(b+(c+c')) = a((b+c)+c') = (ab+ac)+ac' = ab+(ac+ac') = ab+a(c+c'),
      by additive associativity;
    - right distributivity (a+b)c = ac+bc, b in G: likewise,
      (a+(b+b'))c = ((a+b)+b')c = (ac+bc)+b'c = ac+(b+b')c;
    - associativity (ab)c = a(bc), b in G: (a(b+b'))c = (ab+ab')c =
      (ab)c+(ab')c = a(bc)+a(b'c) = a(bc+b'c) = a((b+b')c), by both
      distributive laws.

    When a reduced check fails, ``_scan_ring_axioms_exhaustive`` names the
    violation, so a rejected table reports the same axiom and witness as
    the full scan would.
    """
    return certified_scan(_ring_certificate, _scan_ring_axioms_exhaustive,
                          n, add, mul)


def _ring_certificate(n, add, mul):
    """(zero, one, neg, gens) if every reduced check passes, else None."""
    if n == 0 or not (table_in_range(n, n, add)
                      and table_in_range(n, n, mul)):
        return None
    zero, neg, gens = scan_abelian_group(n, add)
    rng = range(n)
    ident = tuple(rng)
    one = next((e for e in rng if mul[e] == ident
                and not differ(map(itemgetter(e), mul), rng)), None)
    if one is None or one == zero:
        return None
    for a in rng:
        row_a = mul[a]
        for g in gens:
            if (differ(mul[row_a[g]], map(row_a.__getitem__, mul[g]))
                    or differ(map(row_a.__getitem__, add[g]),
                              map(add[row_a[g]].__getitem__, row_a))
                    or differ(mul[add[a][g]],
                              map(getitem, map(add.__getitem__, row_a),
                                  mul[g]))):
                return None
    return zero, one, neg, gens


def differ(xs, ys):
    """Whether two sequences of one length differ at some position.

    The certificates compare table rows with lazily mapped rows through
    this, so they build no temporary tuples.
    """
    return any(map(ne, xs, ys))


def table_in_range(rows, n, table):
    """Whether ``table`` has ``rows`` rows of n entries, all in 0..n-1."""
    return (len(table) == rows and all(len(row) == n for row in table)
            and min(map(min, table)) >= 0 and max(map(max, table)) < n)


def certified_scan(certificate, exhaustive, *tables):
    """``certificate(*tables)``, or the violation ``exhaustive`` names.

    The certificate returns None when one of its checks fails; the
    exhaustive scan then raises the ``AxiomViolation`` it finds first.  An
    exhaustive scan that finds none means the two routes disagree.
    """
    result = certificate(*tables)
    if result is None:
        exhaustive(*tables)
        raise InternalInconsistency(
            f"{certificate.__name__} rejects a table that "
            f"{exhaustive.__name__} accepts")
    return result


# The int tags that start construction keys (``derived``) and fact keys.
# Those keys hold ints only and a table entry's key holds tables, so the
# kinds never share a key.
(SUBMODULE, QUOTIENT_MODULE, DIRECT_SUM, CYCLIC_RING, MATRIX_RING,
 PRODUCT_RING, GENERATOR_DATA, HOM_CHAIN, ANNIHILATORS, CYCLIC_MASKS,
 PRERADICAL_VALUE) = range(11)


class _Memo(dict):
    """The memo's entries by key (``accepted_tables``), the number of
    entries holding each table (``holders``, by the table's id) and the
    cells they count (``cells``, see ``_store``)."""

    __slots__ = ("holders", "cells")

    def __init__(self):
        super().__init__()
        self.holders = {}
        self.cells = 0


# The process-wide memo of accepted tables: see ``accepted_tables``.
_accepted = _Memo()
_serials = itertools.count()


def accepted_tables(prefix, tables, accept):
    """The memo's entry for ``prefix + tables``, made by
    ``accept(*tables)`` the first time in this process.

    The memo holds three kinds of entry.  A **table entry** starts with
    the tables themselves as tuples of row tuples of ints
    (``_integer_table``), ends with a serial number, and the memo keys it
    by ``prefix`` and its tables.  A ring passes no prefix and its
    (``add``, ``mul``), and on a miss stores ``(add, mul, zero, one, neg,
    gens, serial)``.  A module passes the prefix ``(ring.serial,)`` and
    its (``add``, ``act``), and stores ``(add, act, zero, neg, serial)``.
    A hit returns the stored entry without a scan or a copy, so equal
    rings and modules share their table tuples.  That is exact: the ring
    scan reads nothing but the ring's two tables, and the module scan
    nothing but its two tables and the ring's ``order``, ``add``, ``mul``,
    ``one`` and ``_cache["addgens"]``, all of which follow from the ring's
    tables, which its serial names (below); a repeat would return the same.

    Only raw tables are scanned (``ring_from_tables``,
    ``modules.module_from_tables``).  A ring or module the engine derives
    from others is one by construction, and stores what its tables give,
    unscanned (``_proven_ring``, ``modules.FiniteModule``).  That is exact
    too: a group has one identity and one inverse of each element, a ring
    one multiplicative identity, and the greedy generators are a function
    of the addition table, so equal tables have equal entries, whichever
    construction stored them.  Interning derived tables lets equal rings,
    submodules, atoms and quotients share one copy.

    A **construction entry** maps a construction on given operands to the
    table entry it produced, and a **fact entry** maps a question about
    given tables to its answer in ints (``derived``), so that a repeat
    builds or computes nothing.  Their keys are an int tag naming the
    construction or fact, the serial of each operand and int parameters;
    they hold no table.  The serial key is exact.  Each miss takes the
    next number of one process-wide count, so a serial names one entry's
    tables for the life of the process, whether or not that entry is still
    in the memo: tables accepted again after an eviction get a new one.
    So a key that matches names the very operand tables the stored
    construction or fact read, and it reads nothing else.  A module's key
    holds its ring's serial, so a module's serial fixes its ring's tables
    as well.  A lookup hashes a few ints, never a table.

    A table ``accept`` rejects is not stored, so it raises on every
    build.  The memo holds tuples of ints only, never a ring or a module.
    It is bounded by ``MAX_ACCEPTED_CELLS`` cells (``_store`` says how an
    entry counts): the oldest entries go first, a hit does not reorder,
    and an entry larger than the whole bound is not stored.
    """
    found = _accepted.get(prefix + tables)
    if found is None:
        found = accept(*tables) + (next(_serials),)
        _store(prefix + found[:2], found)
    return found


def derived(key, build):
    """The memo's entry for ``key``, an int tag, the serials of its
    operands and its int parameters, from ``build()`` the first time in
    this process (see ``accepted_tables``).

    For a construction (tags ``SUBMODULE`` to ``PRODUCT_RING``),
    ``build`` returns a table entry that ``accepted_tables`` has interned,
    with the construction's own tuples of ints appended where it has any
    (a quotient's projection, say).  For a fact (``GENERATOR_DATA`` and
    on), it returns an int or nested tuples of ints, read off the tables
    that the key's serials name and nothing else; each fact's function
    gives the proof.  A ``build`` that raises stores nothing.
    """
    found = _accepted.get(key)
    if found is None:
        found = build()
        _store(key, found)
    return found


def _store(key, entry):
    """Store ``entry`` under ``key``, evicting the oldest entries beyond
    the bound.

    The memo counts the cells it holds: each distinct table once, while
    any entry holds it, as the cells of its rows, and for each entry one
    cell for its key and one for every other int it holds (a fact's
    answer, a table entry's zero, negation and serial, a quotient's
    projection), so no entry is free.  A table is the same object in
    every entry that holds it (``accepted_tables``), so the memo counts
    the entries holding each one, by its id.  An entry whose own cells
    exceed the bound is not stored, and evicts nothing.
    """
    memo = _accepted
    tables, ints = _parts(key, entry)
    if ints + sum(sum(map(len, t)) for t in tables) > MAX_ACCEPTED_CELLS:
        return
    memo[key] = entry
    memo.cells += ints + _hold(tables, 1)
    while memo.cells > MAX_ACCEPTED_CELLS:
        old = next(iter(memo))
        tables, ints = _parts(old, memo.pop(old))
        memo.cells -= ints + _hold(tables, -1)


def _parts(key, entry):
    """The tables an entry holds, and the cells of the rest: its other
    ints and one for its key.  A table entry's key ends with a table; a
    construction's key is ints only, and so is a fact's, with a tag from
    ``GENERATOR_DATA`` on."""
    if type(key[-1]) is tuple or key[0] < GENERATOR_DATA:
        return entry[:2], 1 + sum(map(_ints, entry[2:]))
    return (), 1 + _ints(entry)


def _hold(tables, step):
    """Add ``step`` to the holders of each of ``tables``; return the
    cells of those that gain their first holder or lose their last."""
    holders = _accepted.holders
    cells = 0
    for table in tables:
        before = holders.pop(id(table), 0)
        if before + step:
            holders[id(table)] = before + step
        if not before or not before + step:
            cells += sum(map(len, table))
    return cells


def _ints(x):
    """The ints in ``x``, an int or a tuple of such, nested, where a
    tuple whose first member is an int holds ints only (a table entry's
    members after its tables, and every fact, are such)."""
    if type(x) is int:
        return 1
    if not x or type(x[0]) is int:
        return len(x)
    return sum(map(_ints, x))


def _integer_table(name, table):
    """``table``, a sequence of rows, as a tuple of row tuples of ints.

    An entry that is not equal to its int value (``2.5``, ``"3"``,
    ``None``, ``[1]``) raises ``AxiomViolation("table shape", name)``,
    so integral floats and bools are read as ints and every other entry
    is refused, whatever was built before.
    """
    try:
        table = tuple(map(tuple, table))
        ints = tuple(tuple(map(int, row)) for row in table)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or ints != table:
        raise AxiomViolation("table shape", name,
                             f"{name} table has an entry that is not an "
                             f"integer")
    return ints


def _scan_ring_axioms_exhaustive(n, add, mul):
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
    zero, neg = scan_abelian_group_exhaustive(n, add)
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
    """Check that ``add`` is an abelian group table; return (zero, neg, gens).

    ``add`` is an n x n tuple of row tuples with entries in 0..n-1.  The
    identity, commutativity and inverses are checked exhaustively, in
    O(n^2).  ``gens`` is a greedy generating set G: each generator is the
    least element not yet reached from the earlier ones by repeated
    addition, so |G| <= log2(n) in a group.  Associativity is checked with
    the middle term in G only (Light's test), O(n^2 |G|).  That is
    complete: the elements b with (a+b)+c = a+(b+c) for all a, c are
    closed under addition, since for two of them, b and b',
    (a+(b+b'))+c = ((a+b)+b')+c = (a+b)+(b'+c) = a+(b+(b'+c))
    = a+((b+b')+c).  That set contains G, so every nonzero element, which
    is a sum of generators; and 0 = g+(-g) for a nonzero g (n = 1 is
    trivial).  The same closure argument, with this generating set, makes
    the reduced checks of ``_scan_ring_axioms`` and of
    ``modules._scan_module_axioms`` complete.

    When a check fails, ``scan_abelian_group_exhaustive`` names the
    violation, so a rejected table reports the same axiom and witness as
    the full O(n^3) scan would.
    """
    return certified_scan(_abelian_group_certificate,
                          scan_abelian_group_exhaustive, n, add)


def _abelian_group_certificate(n, add):
    """(zero, neg, gens) if every check passes, else None."""
    rng = range(n)
    ident = tuple(rng)
    zero = next((e for e in rng if add[e] == ident), None)
    if zero is None or any(differ(add[a], map(itemgetter(a), add))
                           for a in rng):
        return None
    try:
        neg = tuple([row.index(zero) for row in add])
    except ValueError:
        return None
    gens = _additive_generators(n, add, zero, rng)
    for a in rng:
        row_a = add[a]
        for g in gens:
            if differ(add[row_a[g]], map(row_a.__getitem__, add[g])):
                return None
    return zero, neg, gens


def _additive_generators(n, add, zero, candidates):
    """Greedy generators drawn from ``candidates``, the one way the engine
    chooses generators of an additive span: each is the first candidate,
    in the order given, not yet reached.

    A new generator x is added to every element reached so far, and to
    every element that reaches in turn, so each reached element is a sum
    of generators formed through ``add`` alone, whatever the table.  In
    an abelian group the reached set is the subgroup generated so far,
    which each generator at least doubles, and at the end it is the
    subgroup the candidates generate.  The axiom scans draw from every
    element (``_abelian_group_certificate``); ``modules._generator_data``
    from a left ideal, and ``modules._hom_chain`` from the target.
    """
    reached = [False] * n
    reached[zero] = True
    members = [zero]
    gens = []
    for x in candidates:
        if reached[x]:
            continue
        gens.append(x)
        for z in members:
            w = add[z][x]
            if not reached[w]:
                reached[w] = True
                members.append(w)
    return tuple(gens)


def scan_abelian_group_exhaustive(n, add):
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

def _require_int(value, axiom, what):
    """Refuse a size that is not an int as an ``axiom`` violation, as
    ``modules.submodule`` refuses a mask."""
    if not isinstance(value, int):
        raise AxiomViolation(axiom, (value,), f"{what} is not an int")


def cyclic_ring(n, cap=DEFAULT_RING_CAP):
    """The ring of integers mod n, n >= 2.

    A ring by construction: Z/n is the quotient of Z by the ideal nZ, and
    its tables are the sum and product mod n of the representatives
    0..n-1; n >= 2 makes 1 differ from 0.  n = 1 is refused as the ring
    scan refuses the tables of Z/1, as a ``"nontriviality"`` violation,
    and an n that is not an int as a ``"ring order"`` violation.
    """
    _require_int(n, "ring order", "cyclic ring order")
    if n < 1:
        raise AxiomViolation("nonempty carrier", None, f"cyclic({n}) is empty")
    if cap is not None and n > cap:
        raise SizeCapExceeded(f"ring order {n} exceeds cap {cap}")
    if n == 1:
        raise AxiomViolation("nontriviality", (0, 0), "one equals zero")
    return FiniteRing(derived((CYCLIC_RING, n), lambda: _cyclic_tables(n)),
                      tuple(map(str, range(n))), f"cyclic({n})")


def _cyclic_tables(n):
    rng = range(n)
    return _proven_ring(tuple([tuple([(a + b) % n for b in rng])
                               for a in rng]),
                        tuple([tuple([a * b % n for b in rng])
                               for a in rng]))


def matrix_ring(base, k, cap=DEFAULT_RING_CAP):
    """The ring of k-by-k matrices over ``base``.

    A ring by construction: the sum is entrywise, so it is an abelian
    group as R is; (xy)z and x(yz) both have (i, j) entry the sum of
    x_ia y_ab z_bj over all a, b, by associativity and both distributive
    laws of R; x(y+z) = xy+xz and (x+y)z = xz+yz entry by entry by the
    distributive laws of R; and the identity matrix is one, which differs
    from the zero matrix since 1 differs from 0 in R.  A k that is not
    an int, or is below 1, is a ``"matrix size"`` violation.
    """
    _require_int(k, "matrix size", "matrix size")
    if k < 1:
        raise AxiomViolation("matrix size", (k,), "matrix size must be >= 1")
    order = base.order ** (k * k)
    if cap is not None and order > cap:
        raise SizeCapExceeded(
            f"matrix ring order {base.order}^{k * k} = {order} exceeds cap {cap}")
    elements = list(itertools.product(range(base.order), repeat=k * k))
    labels = tuple(
        "[" + ";".join(",".join(base.labels[x[i * k + j]] for j in range(k))
                       for i in range(k)) + "]"
        for x in elements)
    return FiniteRing(derived((MATRIX_RING, base.serial, k),
                              lambda: _matrix_tables(base, k, elements)),
                      labels, f"matrix({base.provenance},{k})")


def _matrix_tables(base, k, elements):
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

    def table(op):
        return tuple([tuple([index[op(x, y)] for y in elements])
                      for x in elements])

    return _proven_ring(table(mat_add), table(mat_mul))


def product_ring(factors, cap=DEFAULT_RING_CAP):
    """Direct product of a list of rings, componentwise operations.

    A ring by construction: each law holds componentwise, as it holds in
    each factor, and the one (1, ..., 1) differs from the zero, as each
    factor's one differs from its zero.  A factor that is not a
    ``FiniteRing`` is a ``"product factor"`` violation naming its index.
    """
    factors = list(factors)
    if not factors:
        raise AxiomViolation("nonempty product", None,
                             "product of zero rings is the trivial ring")
    for i, f in enumerate(factors):
        if not isinstance(f, FiniteRing):
            raise AxiomViolation("product factor", (i,),
                                 f"factor {i} is not a ring")
    order = 1
    for f in factors:
        order *= f.order
    if cap is not None and order > cap:
        raise SizeCapExceeded(f"product ring order {order} exceeds cap {cap}")
    elements = list(itertools.product(*[range(f.order) for f in factors]))
    labels = tuple("(" + ",".join(f.labels[c] for f, c in zip(factors, x)) + ")"
                   for x in elements)
    prov = "product(" + ",".join(f.provenance for f in factors) + ")"
    return FiniteRing(derived(
        (PRODUCT_RING, *(f.serial for f in factors)),
        lambda: _product_tables(factors, elements)), labels, prov)


def _product_tables(factors, elements):
    index = {el: i for i, el in enumerate(elements)}

    def table(ops):
        return tuple([tuple([index[tuple(op[a][b] for op, a, b
                                         in zip(ops, x, y))]
                             for y in elements]) for x in elements])

    return _proven_ring(table([f.add for f in factors]),
                        table([f.mul for f in factors]))


def quotient_ring(ring, ideal, cap=DEFAULT_RING_CAP):
    """Quotient by a proper two-sided ideal, a handle from ``enumerate_ideals``.

    The tables are those of the quotient module R/I: cosets are labelled
    by their least member, ``add`` is the module's, and the product of two
    cosets is the first one's least member acting on the second.  The
    canonical projection is stored on the result as ``projection`` (old
    index -> coset index).

    A ring by construction: for a two-sided I the product of cosets is
    well defined, as a'b' - ab = a'(b'-b) + (a'-a)b lies in I when
    a' - a and b' - b do (I a left ideal for the first term, a right
    ideal for the second), so any representatives give it, the least
    member among them; the projection R -> R/I is onto and keeps sums
    and products, so every law of R holds in R/I, and 1 + I differs from
    I as I is proper.
    """
    from .modules import quotient_module, regular_module
    quo = quotient_module(regular_module(ring), ideal)
    if not is_two_sided(ideal):
        raise AxiomViolation("two-sided ideal", ideal.carrier,
                             "quotient requires a two-sided ideal")
    if ideal.is_full():
        raise AxiomViolation("proper ideal", ideal.carrier,
                             "cannot quotient by the whole ring")
    if cap is not None and quo.order > cap:
        raise SizeCapExceeded(f"ring order {quo.order} exceeds cap {cap}")
    proj, reps = quo.origin[3:]
    return FiniteRing(_proven_ring(quo.add,
                                   tuple([quo.act[r] for r in reps])),
                      quo.labels, f"quotient({ring.provenance})", proj)


def ring_from_tables(add, mul, labels=None, cap=DEFAULT_RING_CAP):
    """A ring on tables from outside the engine, the only ones it scans.

    The entries are read as ints (``_integer_table``), the order is
    capped, and the tables pass ``_scan_ring_axioms`` unless equal tables
    were accepted before in this process.  A rejected pair is not stored,
    so it raises on every build.
    """
    add = _integer_table("addition", add)
    mul = _integer_table("multiplication", mul)
    n = len(add)
    if cap is not None and n > cap:
        raise SizeCapExceeded(f"ring order {n} exceeds cap {cap}")
    labels = element_labels(labels, n)
    return FiniteRing(accepted_tables(
        (), (add, mul),
        lambda add, mul: (add, mul) + _scan_ring_axioms(n, add, mul)),
        labels, "raw")


# ---------------------------------------------------------------------------
# ideals

def is_two_sided(ideal):
    """Whether a left ideal, a submodule handle, is a two-sided ideal: a
    submodule of its ring's regular module closed under right
    multiplication.  End(R) acts on R by right multiplications, so these
    are the regular module's fully invariant submodules."""
    from .modules import _elements
    mask, mul = ideal.mask, ideal.module.ring.mul
    return (ideal.module.origin[0] == "regular"
            and all(mask >> x & 1 for a in _elements(mask) for x in mul[a]))


def enumerate_ideals(ring, sidedness="two-sided"):
    """The ``"left"`` or ``"two-sided"`` ideals, as submodule handles of
    the regular module.

    Left ideals are the regular module's lattice; two-sided ideals are the
    left ideals closed under right multiplication.  The naive power-set
    filter exists only in the test suite as an oracle.  Sorted by (size,
    carrier); the list always starts at 0 and ends at R.  Any other
    ``sidedness`` raises ``ValueError``.
    """
    if sidedness not in ("left", "two-sided"):
        raise ValueError(f"sidedness must be 'left' or 'two-sided', "
                         f"not {sidedness!r}")
    from .modules import enumerate_submodules, regular_module
    ideals = enumerate_submodules(regular_module(ring)).submodules
    if sidedness == "left":
        return ideals
    if "two-sided ideals" not in ring._cache:
        ring._cache["two-sided ideals"] = tuple(filter(is_two_sided, ideals))
    return ring._cache["two-sided ideals"]


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
