"""The preradical calculus: evaluable expressions over a module category.

A preradical assigns to every module a fully invariant submodule,
naturally in all maps.  Here a preradical is an expression tree whose
leaves are trace/reject-style operators frozen at a (submodule, module)
pair, t-radicals I.(-) for a two-sided ideal, socle, radical, the two
constants, and linear-filter operators, one per two-sided ideal T, the
least member of the filter; the nodes are joins, meets and composition.
Evaluation on any module over the same ring is exact: the trace and
reject operators sum images, or meet preimages, over a generating set
of the Hom group (``modules.hom_generators``), which gives the same
submodule as running over every map; the filter of T gives
s_T(M) = {x : T.x = 0}, the dual of I.M (``modules.killed_mask``); and
socle and radical are s_J(M) and JM for the ring's Jacobson radical J,
with no submodule lattice.  Expressions compare by type and frozen
fields, so an expression built again shares the value handles cached for
an equal one.
The value masks are facts of the memo of accepted tables, keyed by the
expression written in ints (``Preradical.memo_key``) and the module's
serial, so equal expressions on modules with equal tables compute each
value once per process.
Every class-level property (idempotent, radical, left exact,
t-radical, the pointwise order) is decided relative to an explicit
finite universe of modules, never for the whole category; left
exactness at a module is checked on the cyclic submodules of its value,
with no submodule lattice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotFullyInvariant, RingMismatch
from .modules import (Submodule, _elements, _image, _intern_submodule,
                      _preimage, cyclic_submodules, embed_submask,
                      hom_generators, is_fully_invariant, killed_mask,
                      quotient_module, regular_module, simple_modules,
                      structural_summary, sum_masks, trad_mask)
from .rings import PRERADICAL_VALUE, derived, enumerate_ideals, is_two_sided

LE, GE, EQ, INCOMPARABLE = "le", "ge", "eq", "incomparable"


class Preradical:
    """Base class: an evaluable, immutable preradical expression.

    Two expressions are equal when they have the same type and equal
    frozen fields (``_fields``), so an expression built again hits the
    values cached for the first one.  Submodule and ring handles are
    interned, so those fields compare by identity, and closed by
    construction (``modules.Submodule``), so none is checked again.  The
    hash is computed once per expression, as ``evaluate`` looks the
    expression up on every call; the ring is pinned once, at construction.
    """

    __slots__ = ("_hash", "_ring")
    _fields = ()
    _codes = itertools.count()

    def __init_subclass__(cls):
        cls.code = next(Preradical._codes)  # distinct per class

    def __init__(self):
        self._ring = None  # generic; the subclasses that pin a ring set it

    def _key(self):
        return (type(self),) + tuple(getattr(self, f) for f in self._fields)

    def memo_key(self):
        """The expression as nested tuples of ints, the memo's key for its
        values (``evaluate``): its class's ``code`` and each frozen field
        in ints (``_int_form``)."""
        return (self.code,) + tuple(_int_form(getattr(self, f))
                                    for f in self._fields)

    def __eq__(self, other):
        return isinstance(other, Preradical) and self._key() == other._key()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._key())
            return self._hash

    def ring(self):
        """The ring the expression is pinned to, or None if generic."""
        return self._ring

    def evaluate(self, module):
        """Value on a module, as a submodule of it.

        The handle is cached in the module, so it lives exactly as long as
        its module.  The mask is a fact of the memo (``rings.derived``),
        keyed by ``memo_key`` and the module's serial, once the ring pin
        is checked.  That is exact: an expression's value reads its frozen
        fields and the module's tables alone (each class's ``_compute``),
        and its key names each field by ints that fix what is read of it
        (``_int_form``): a frozen submodule or ideal by its module's serial
        and its mask, a node by its parts' keys.
        """
        r = self._ring
        if r is not None and r is not module.ring:
            raise RingMismatch(
                f"preradical over {r.provenance} applied to a module over "
                f"{module.ring.provenance}")
        values = module._cache.setdefault("preradical_values", {})
        hit = values.get(self)
        if hit is None:
            mask = derived((PRERADICAL_VALUE, self.memo_key(), module.serial),
                           lambda: self._compute(module))
            values[self] = hit = _intern_submodule(module, mask)
        return hit

    def _compute(self, module):
        raise NotImplementedError

    def describe(self):
        raise NotImplementedError

    def __repr__(self):
        return self.describe()


def _int_form(value):
    """A frozen field in ints: a submodule or ideal as its module's serial
    and its mask, an expression as its ``memo_key`` and a tuple of parts
    term by term."""
    if isinstance(value, Preradical):
        return value.memo_key()
    if isinstance(value, Submodule):
        return value.module.serial, value.mask
    return tuple(map(_int_form, value))


def _sub_token(sub):
    els = ",".join(sub.labels())
    return "{" + els + "}@" + sub.module.provenance


def _require_fully_invariant(sub):
    if sub.is_zero() or sub.is_full():
        return  # fully invariant in every module: no endomorphisms needed
    if not is_fully_invariant(sub):
        raise NotFullyInvariant(f"{sub!r} is not fully invariant")


class Beta(Preradical):
    """Trace-style operator frozen at a submodule N of M (N need not be
    fully invariant).

    Value on U: the sum of f(N) over all maps f: M -> U, which is the sum
    over a generating set of Hom(M, U) (f(N) <= sum g_i(N) when f is a sum
    of the g_i).
    """

    __slots__ = ("sub",)
    _fields = ("sub",)
    tag = "beta"

    def __init__(self, sub):
        self.sub = sub
        self._ring = sub.module.ring

    def _compute(self, module):
        els = _elements(self.sub.mask)
        out = module.zero_mask()
        for f in hom_generators(self.sub.module, module):
            out = sum_masks(module, out, _image(f.map, els))
        return out

    def describe(self):
        return f"{self.tag}({_sub_token(self.sub)})"


class Alpha(Beta):
    """Least preradical sending the frozen module M to N (N f.i. in M)."""

    __slots__ = ()
    tag = "alpha"

    def __init__(self, sub):
        _require_fully_invariant(sub)
        self.sub = sub
        self._ring = sub.module.ring


class Omega(Preradical):
    """Largest preradical sending the frozen module M to N (N f.i. in M).

    Value on U: the intersection of f^{-1}(N) over all maps f: U -> M,
    which is the intersection over a generating set of Hom(U, M) (g_i(x)
    in N for all i puts every sum of the g_i there).  With no generators
    (Hom = 0) the value is the whole of U, the zero map's preimage.
    """

    __slots__ = ("sub",)
    _fields = ("sub",)

    def __init__(self, sub):
        _require_fully_invariant(sub)
        self.sub = sub
        self._ring = sub.module.ring

    def _compute(self, module):
        out = module.full_mask()
        zmask = module.zero_mask()
        for f in hom_generators(module, self.sub.module):
            out &= f.preimage_of_mask(self.sub.mask)
            if out == zmask:
                break
        return out

    def describe(self):
        return f"omega({_sub_token(self.sub)})"


class _IdealOperator(Preradical):
    """An operator frozen at a two-sided ideal, a submodule of the regular
    module: any other ideal is refused with ``NotFullyInvariant``."""

    __slots__ = ("ideal",)
    _fields = ("ideal",)

    def __init__(self, ideal):
        if not is_two_sided(ideal):
            raise NotFullyInvariant(f"{self.kind} need a two-sided ideal")
        self.ideal = ideal
        self._ring = ideal.module.ring


class Trad(_IdealOperator):
    """The t-radical U -> I.U for a two-sided ideal I."""

    __slots__ = ()
    kind = "t-radicals"

    def _compute(self, module):
        return trad_mask(module, self.ideal)

    def describe(self):
        return "trad({" + ",".join(self.ideal.labels()) + "})"


class Soc(Preradical):
    """Soc(M) = {x : Jx = 0}, J the Jacobson radical of the ring."""

    __slots__ = ()

    def _compute(self, module):
        return structural_summary(module).socle.mask

    def describe(self):
        return "soc"


class Rad(Preradical):
    """Rad(M) = JM, J the Jacobson radical of the ring."""

    __slots__ = ()

    def _compute(self, module):
        return structural_summary(module).jacobson_radical.mask

    def describe(self):
        return "rad"


class ZeroPr(Preradical):
    __slots__ = ()

    def _compute(self, module):
        return module.zero_mask()

    def describe(self):
        return "zero"


class OnePr(Preradical):
    __slots__ = ()

    def _compute(self, module):
        return module.full_mask()

    def describe(self):
        return "one"


class LinearFilter(_IdealOperator):
    """The left exact preradical of a linear filter of left ideals, given
    by its least member, a two-sided ideal T.

    Over a finite ring a linear filter is the up-set of its least member,
    which is two-sided (``classify.enumerate_lep``), so T alone gives it.
    Value on U: the elements whose annihilator lies in the filter, that
    is contains T, so s_T(U) = {x : T.x = 0} (``modules.killed_mask``).
    ``describe`` names the filter's members, the left ideals containing
    T, by their indices among the left ideals.  Any other ideal is
    refused with ``NotFullyInvariant``, as ``Trad`` refuses one.
    """

    __slots__ = ()
    kind = "linear filters"

    def _compute(self, module):
        return killed_mask(module, self.ideal)

    def describe(self):
        t = self.ideal.mask
        return "lep(" + ",".join(
            f"I{i}" for i, h in enumerate(enumerate_ideals(self._ring, "left"))
            if t & ~h.mask == 0) + ")"


def _combine_rings(parts):
    ring = None
    for p in parts:
        r = p.ring()
        if r is None:
            continue
        if ring is None:
            ring = r
        elif ring is not r:
            raise RingMismatch("mixed rings inside one preradical expression")
    return ring


class Join(Preradical):
    """Pointwise supremum: the submodule sum of the parts' values."""

    __slots__ = ("parts",)
    _fields = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)
        self._ring = _combine_rings(self.parts)

    def _compute(self, module):
        out = module.zero_mask()
        for p in self.parts:
            out = sum_masks(module, out, p.evaluate(module).mask)
        return out

    def describe(self):
        return "join(" + ",".join(p.describe() for p in self.parts) + ")"


class Meet(Preradical):
    """Pointwise infimum: the intersection of the parts' values."""

    __slots__ = ("parts",)
    _fields = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)
        self._ring = _combine_rings(self.parts)

    def _compute(self, module):
        out = module.full_mask()
        for p in self.parts:
            out &= p.evaluate(module).mask
        return out

    def describe(self):
        return "meet(" + ",".join(p.describe() for p in self.parts) + ")"


class Compose(Preradical):
    """outer(inner(U)): the inner value is taken as a module of its own,
    the outer preradical is evaluated there, and the carrier is re-embedded."""

    __slots__ = ("outer", "inner")
    _fields = ("outer", "inner")

    def __init__(self, outer, inner):
        self.outer = outer
        self.inner = inner
        self._ring = _combine_rings((outer, inner))

    def _compute(self, module):
        k = self.inner.evaluate(module)
        kmod = k.as_module()
        inner_val = self.outer.evaluate(kmod)
        return embed_submask(kmod, inner_val.mask)

    def describe(self):
        return f"comp({self.outer.describe()},{self.inner.describe()})"


SOC = Soc()
RAD = Rad()
ZERO = ZeroPr()
ONE = OnePr()


# ---------------------------------------------------------------------------
# products of submodules

def product_in(module, left, right):
    """The product of two submodules inside their parent.

    Computed as the value at ``right`` of the trace-style operator frozen
    at ``(left, module)``: the sum of f(left) over maps f from the whole
    module into ``right``.  This is the form under which a module is
    BJKN-prime exactly when all products of nonzero submodules are
    nonzero.
    """
    if right.module is not module:
        raise RingMismatch("right is not a submodule of this module")
    rmod = right.as_module()
    val = Beta(left).evaluate(rmod)
    return _intern_submodule(module, embed_submask(rmod, val.mask))


def product_hom_AB(module, left, right):
    """Variant product using maps left -> right instead of module -> right.

    Exposed for comparison only; it does not satisfy the product criterion
    for BJKN-primeness (witness: both products of the socle of Z4 with
    itself).  No correctness claim is attached to this form.  The sum of
    f(left) over all maps is the sum over a generating set of the Hom
    group, as in ``Beta``.
    """
    if right.module is not module:
        raise RingMismatch("right is not a submodule of this module")
    lmod = left.as_module()
    rmod = right.as_module()
    out = rmod.zero_mask()
    for f in hom_generators(lmod, rmod):
        out = sum_masks(rmod, out, f.image_of_mask(lmod.full_mask()))
    return _intern_submodule(module, embed_submask(rmod, out))


# ---------------------------------------------------------------------------
# universe-relative properties

def _universe_modules(universe):
    return universe.modules if hasattr(universe, "modules") else tuple(universe)


@dataclass(frozen=True)
class PropertyFlags:
    """Universe-relative property record; never a claim about all modules."""
    idempotent: bool
    radical: bool
    left_exact: bool
    t_radical: bool
    universe_size: int


def left_exact_at(pr, module):
    """Whether s(N) = N & s(M) for every submodule N of the module M,
    decided on the cyclic submodules of M that lie in s(M)
    (``modules.cyclic_submodules``), with no lattice.

    s(N) = N & s(M) for every N exactly when s(Rx) = Rx for every x in
    s(M).  Naturality along the inclusion N <= M gives s(N) <= N & s(M).
    If s(Rx) = Rx for each x in s(M), and x lies in N & s(M), then
    Rx <= N and naturality along Rx <= N gives x in s(Rx) <= s(N).
    Conversely, N = Rx with x in s(M) has N & s(M) = Rx, so s(Rx) = Rx.
    As s(M) is a submodule, Rx <= s(M) exactly when x lies in s(M).  When
    s(M) = 0 nothing is left to check.
    """
    value = pr.evaluate(module).mask
    return all(pr.evaluate(c.as_module()).is_full()
               for c in cyclic_submodules(module) if c.mask & ~value == 0)


def property_flags(pr, universe):
    """Decide idempotent/radical/left-exact/t-radical on a finite universe.

    The universe names the ring through its modules, so an empty one
    raises ``ValueError``."""
    mods = _universe_modules(universe)
    if not mods:
        raise ValueError("property flags need at least one module")
    idem = True
    radical = True
    lex = True
    sigma_r = pr.evaluate(regular_module(mods[0].ring))
    trad = is_two_sided(sigma_r)
    for u in mods:
        val = pr.evaluate(u)
        if idem:
            kmod = val.as_module()
            if pr.evaluate(kmod).mask != kmod.full_mask():
                idem = False
        if radical:
            q = quotient_module(u, val)
            if not pr.evaluate(q).is_zero():
                radical = False
        if lex:
            lex = left_exact_at(pr, u)
        if trad:
            trad = trad_mask(u, sigma_r) == val.mask
    return PropertyFlags(idem, radical, lex, trad, len(mods))


def compare(a, b, universe):
    """Pointwise order of two preradicals over a finite universe."""
    mods = _universe_modules(universe)
    le = True
    ge = True
    for u in mods:
        va = a.evaluate(u).mask
        vb = b.evaluate(u).mask
        if va & ~vb:
            le = False
        if vb & ~va:
            ge = False
        if not le and not ge:
            return INCOMPARABLE
    if le and ge:
        return EQ
    return LE if le else GE


def idempotent_core_at(pr, module):
    """Value at ``module`` of the largest idempotent preradical below.

    Iterates U >= s(U) >= s(s(U)) >= ... to its fixpoint; finiteness
    guarantees termination.
    """
    current = _intern_submodule(module, module.full_mask())
    while True:
        cmod = current.as_module()
        nxt = embed_submask(cmod, pr.evaluate(cmod).mask)
        if nxt == current.mask:
            return current
        current = _intern_submodule(module, nxt)


def radical_closure_at(pr, module):
    """Value at ``module`` of the least radical above.

    Iterates K -> preimage of s(U/K) until stable.
    """
    current = pr.evaluate(module)
    while True:
        q = quotient_module(module, current)
        nxt = _preimage(q.origin[3], pr.evaluate(q).mask)
        if nxt == current.mask:
            return current
        current = _intern_submodule(module, nxt)


def socle_as_join_of_simple_traces(ring):
    """soc as the join of the trace operators of the simple modules."""
    parts = []
    for s in simple_modules(ring):
        full = _intern_submodule(s, s.full_mask())
        parts.append(Alpha(full))
    return Join(parts)


def check_naturality(pr, modules):
    """f(s(A)) <= s(B) for every map between the given modules.

    Checked on a generating set of each Hom(A, B) (``hom_generators``):
    every map is an integer combination of the generators and s(B) is a
    subgroup, so f(s(A)) <= s(B) for every map exactly when it holds for
    each generator.  Returns a witness triple (A, B, generator) on
    failure, else None.
    """
    mods = _universe_modules(modules)
    for a in mods:
        va = pr.evaluate(a)
        for b in mods:
            vb = pr.evaluate(b)
            for f in hom_generators(a, b):
                if f.image_of_mask(va.mask) & ~vb.mask:
                    return (a, b, f)
    return None
