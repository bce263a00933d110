import pytest
from hypothesis import given, settings, strategies as st

from modlab.classify import generate_universe
from modlab.cli import corpus_rings
from modlab.errors import (AxiomViolation, NotFullyInvariant, RingMismatch,
                           SizeCapExceeded)
from modlab.modules import (direct_sum_module, endomorphism_ring,
                            enumerate_submodules, regular_module, submodule)
from modlab.preradicals import Trad
from modlab.rings import (_abelian_group_certificate, _scan_ring_axioms,
                          _scan_ring_axioms_exhaustive, cyclic_ring,
                          enumerate_ideals, matrix_ring, product_ring,
                          quotient_ring, ring_from_tables, scan_abelian_group,
                          scan_abelian_group_exhaustive)


def upper_triangular_f2():
    """Upper triangular 2x2 matrices over F2: noncommutative, order 8.

    Element a*4 + b*2 + c stands for [[a, b], [0, c]].
    """
    els = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    index = {e: i for i, e in enumerate(els)}
    add = [[index[tuple(u ^ v for u, v in zip(x, y))] for y in els]
           for x in els]
    mul = [[index[(x[0] & y[0], (x[0] & y[1]) ^ (x[1] & y[2]), x[2] & y[2])]
            for y in els] for x in els]
    return ring_from_tables(add, mul)


def f2_xy_square_zero():
    """F2[x,y]/(x,y)^2: commutative local, order 8, not a chain ring.

    Element a*4 + b*2 + c stands for a + b*x + c*y.
    """
    els = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    index = {e: i for i, e in enumerate(els)}
    add = [[index[tuple(u ^ v for u, v in zip(x, y))] for y in els]
           for x in els]
    mul = [[index[(x[0] & y[0], (x[0] & y[1]) ^ (x[1] & y[0]),
                   (x[0] & y[2]) ^ (x[2] & y[0]))]
            for y in els] for x in els]
    return ring_from_tables(add, mul)


def is_commutative(ring):
    return ring.mul == tuple(zip(*ring.mul))


IDEAL_RINGS = [
    lambda: cyclic_ring(4),
    lambda: cyclic_ring(6),
    lambda: cyclic_ring(8),
    lambda: product_ring([cyclic_ring(2), cyclic_ring(2)]),
    lambda: matrix_ring(cyclic_ring(2), 2),
    upper_triangular_f2,
]


def test_cyclic4_basic():
    r = cyclic_ring(4)
    assert r.order == 4
    assert r.one == 1
    assert r.mul[2][2] == 0


def test_cyclic1_rejected():
    # refused by cyclic_ring itself, as the ring scan refuses Z/1's tables
    for build in (lambda: cyclic_ring(1),
                  lambda: ring_from_tables([[0]], [[0]])):
        with pytest.raises(AxiomViolation) as exc:
            build()
        assert (exc.value.axiom, exc.value.witness, str(exc.value)) == (
            "nontriviality", (0, 0), "one equals zero (witness: (0, 0))")


@pytest.mark.parametrize("build, axiom, witness", [
    (lambda: cyclic_ring(2.0), "ring order", (2.0,)),
    (lambda: cyclic_ring("3"), "ring order", ("3",)),
    (lambda: matrix_ring(cyclic_ring(2), 1.5), "matrix size", (1.5,)),
    (lambda: product_ring([cyclic_ring(2), 3]), "product factor", (1,)),
])
def test_constructor_arguments_of_the_wrong_type_are_refused(build, axiom,
                                                             witness):
    # unchecked, each of these raised a bare TypeError or AttributeError
    # deep inside the constructor
    with pytest.raises(AxiomViolation) as exc:
        build()
    assert (exc.value.axiom, exc.value.witness) == (axiom, witness)


def test_matrix_ring_order_and_noncommutativity():
    m = matrix_ring(cyclic_ring(2), 2)
    assert m.order == 16
    assert not is_commutative(m)


def test_matrix_ring_cap():
    with pytest.raises(SizeCapExceeded):
        matrix_ring(cyclic_ring(3), 2)  # 81 > 16


def test_left_ideals_of_z4():
    r = cyclic_ring(4)
    ideals = enumerate_ideals(r, "left")
    assert [i.carrier for i in ideals] == [(0,), (0, 2), (0, 1, 2, 3)]


def test_ideal_list_contains_zero_and_full():
    for ring in (cyclic_ring(6), product_ring([cyclic_ring(2), cyclic_ring(2)])):
        for sided in ("left", "two-sided"):
            ideals = enumerate_ideals(ring, sided)
            assert ideals[0].is_zero()
            assert ideals[-1].is_full()


@pytest.mark.parametrize("sidedness", ["right", "two_sided", "Left", ""])
def test_unknown_sidedness_is_refused(sidedness):
    # M2(F2) has a left ideal that is no right ideal, so answering "right"
    # with the left ideals would be wrong, not just unsupported
    with pytest.raises(ValueError, match="sidedness must be"):
        enumerate_ideals(matrix_ring(cyclic_ring(2), 2), sidedness)


def test_matrix_ring_is_simple():
    m = matrix_ring(cyclic_ring(2), 2)
    assert len(enumerate_ideals(m, "two-sided")) == 2


def test_quotient_z4_by_2z4():
    r = cyclic_ring(4)
    ideal = enumerate_ideals(r, "two-sided")[1]
    assert ideal.carrier == (0, 2)
    q = quotient_ring(r, ideal)
    assert q.order == 2
    assert q.projection == (0, 1, 0, 1)


def test_quotient_by_zero_keeps_tables():
    r = matrix_ring(cyclic_ring(2), 2)
    zero = enumerate_ideals(r, "two-sided")[0]
    q = quotient_ring(r, zero)
    assert q.order == 16
    assert q.add == r.add and q.mul == r.mul


def test_quotient_requires_proper_two_sided():
    r = cyclic_ring(4)
    full = enumerate_ideals(r, "two-sided")[-1]
    with pytest.raises(AxiomViolation):
        quotient_ring(r, full)
    # {0,2} is two-sided, so the left list's handle quotients as well
    left = enumerate_ideals(r, "left")[1]
    assert left is enumerate_ideals(r, "two-sided")[1]
    assert quotient_ring(r, left).projection == (0, 1, 0, 1)


@pytest.mark.parametrize("ring_fn", [upper_triangular_f2,
                                     lambda: matrix_ring(cyclic_ring(2), 2)])
def test_one_sided_left_ideal_is_refused(ring_fn):
    ring = ring_fn()
    two_sided = enumerate_ideals(ring, "two-sided")
    one_sided = [i for i in enumerate_ideals(ring, "left")
                 if i not in two_sided]
    assert one_sided
    for ideal in one_sided:
        with pytest.raises(AxiomViolation) as exc:
            quotient_ring(ring, ideal)
        assert exc.value.axiom == "two-sided ideal"
        with pytest.raises(NotFullyInvariant):
            Trad(ideal)


def test_ideal_of_another_ring_is_refused():
    z4, z6 = cyclic_ring(4), cyclic_ring(6)
    for ideal in enumerate_ideals(z6):
        with pytest.raises(RingMismatch):
            quotient_ring(z4, ideal)
    # a submodule of another module over the same ring is not an ideal
    m = direct_sum_module([regular_module(z4)] * 2)
    with pytest.raises(RingMismatch):
        quotient_ring(z4, enumerate_submodules(m).submodules[1])


def test_trad_refuses_what_is_not_an_ideal():
    z4 = cyclic_ring(4)
    with pytest.raises(AxiomViolation):
        Trad(submodule(regular_module(z4), 0b0011))  # {0,1} is not closed
    m = direct_sum_module([regular_module(z4)] * 2)
    with pytest.raises(NotFullyInvariant):
        Trad(enumerate_submodules(m).submodules[1])


def coset_quotient(ring, ideal):
    """The quotient construction of its own coset loop: (add, mul,
    labels, projection), cosets numbered by their least member."""
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
    add = [[proj[ring.add[reps[a]][reps[b]]] for b in range(m)]
           for a in range(m)]
    mul = [[proj[ring.mul[reps[a]][reps[b]]] for b in range(m)]
           for a in range(m)]
    labels = tuple("[" + ring.labels[r] + "]" for r in reps)
    return add, mul, labels, tuple(proj)


def test_quotient_matches_coset_construction():
    for ring in [fn() for fn in IDEAL_RINGS] + corpus_rings():
        for ideal in enumerate_ideals(ring, "two-sided")[:-1]:
            q = quotient_ring(ring, ideal)
            add, mul, labels, proj = coset_quotient(ring, ideal)
            assert q.add == tuple(map(tuple, add))
            assert q.mul == tuple(map(tuple, mul))
            assert (q.labels, q.projection) == (labels, proj)


def engine_rings():
    """The rings the engine builds by construction: Z/2 to Z/16, M2(F2),
    the products of two corpus rings of order at most 32, the quotient of
    each corpus ring by each proper two-sided ideal, and End(M) of order
    at most 32 of each nonzero module of the depth-2 universes of the
    corpus rings."""
    corpus = corpus_rings()
    built = [cyclic_ring(n) for n in range(2, 17)]
    built.append(matrix_ring(cyclic_ring(2), 2))
    built += [product_ring([a, b], cap=32)
              for i, a in enumerate(corpus) for b in corpus[i:]
              if a.order * b.order <= 32]
    built += [quotient_ring(ring, ideal) for ring in corpus
              for ideal in enumerate_ideals(ring, "two-sided")[:-1]]
    built += [end for ring in corpus
              for m in generate_universe(ring, depth=2).nonzero_modules()
              for end in [endomorphism_ring(m, cap=32)] if end is not None]
    return built


def test_rings_by_construction_agree_with_the_scan(empty_memo):
    # on an empty memo each ring reads its zero, one, negation and
    # additive generators off its own tables, unscanned; the exhaustive
    # scan, the oracle, finds every axiom holding and the same zero, one
    # and negation, and the group certificate the same generators
    built = engine_rings()
    assert len(built) > 60
    assert {ring.provenance.split("(")[0] for ring in built} == {
        "cyclic", "matrix", "product", "quotient", "end"}
    for ring in built:
        n = ring.order
        assert (_scan_ring_axioms_exhaustive(n, ring.add, ring.mul)
                == (ring.zero, ring.one, ring.neg))
        assert (_abelian_group_certificate(n, ring.add)[2]
                == ring._cache["addgens"])


def test_quotient_and_product_ring_orders():
    z8 = cyclic_ring(8)
    assert quotient_ring(z8, enumerate_ideals(z8, "two-sided")[2]).order == 2
    assert product_ring([cyclic_ring(2), cyclic_ring(3)]).order == 6


def test_raw_tables_roundtrip():
    base = cyclic_ring(3)
    r = ring_from_tables(base.add, base.mul)
    assert (r.zero, r.one) == (base.zero, base.one)


# --- lattice closure of the ideal set -------------------------------------

@pytest.mark.parametrize("ring_fn", IDEAL_RINGS)
@pytest.mark.parametrize("sided", ["left", "two-sided"])
def test_ideals_closed_under_sum_and_intersection(ring_fn, sided):
    ring = ring_fn()
    ideals = enumerate_ideals(ring, sided)
    masks = {i.mask for i in ideals}
    for a in ideals:
        for b in ideals:
            total = 0
            for x in a.carrier:
                for y in b.carrier:
                    total |= 1 << ring.add[x][y]
            assert total in masks
            assert a.mask & b.mask in masks


def test_upper_triangular_ring_is_noncommutative():
    ring = upper_triangular_f2()
    assert ring.order == 8 and not is_commutative(ring)
    # left ideals that are not two-sided exist here
    assert (len(enumerate_ideals(ring, "left"))
            > len(enumerate_ideals(ring, "two-sided")))


@pytest.mark.parametrize("ring_fn", IDEAL_RINGS)
def test_two_sided_ideals_are_fully_invariant_left_ideals(ring_fn):
    # End(R) acts on R by right multiplications, so the fully invariant
    # submodules of the regular module are exactly the two-sided ideals
    ring = ring_fn()
    lat = enumerate_submodules(regular_module(ring))
    fi = [s.mask for s, f in zip(lat.submodules, lat.fully_invariant) if f]
    assert fi == [i.mask for i in enumerate_ideals(ring, "two-sided")]


# --- power-set oracle -------------------------------------------------------

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


def powerset_ideals(ring, sided):
    hits = []
    for mask in range(1 << ring.order):
        if is_ideal_mask(ring, mask, sided):
            hits.append(mask)
    return sorted(hits)


@pytest.mark.parametrize("ring_fn", IDEAL_RINGS)
@pytest.mark.parametrize("sided", ["left", "two-sided"])
def test_ideal_enumeration_matches_powerset_oracle(ring_fn, sided):
    ring = ring_fn()
    assert ring.order <= 16
    got = sorted(i.mask for i in enumerate_ideals(ring, sided))
    assert got == powerset_ideals(ring, sided)


# --- corruption rejection ---------------------------------------------------

RINGS_FOR_CORRUPTION = [cyclic_ring(4), cyclic_ring(6),
                        product_ring([cyclic_ring(2), cyclic_ring(2)])]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_single_entry_corruption_is_rejected(data):
    base = data.draw(st.sampled_from(RINGS_FOR_CORRUPTION))
    n = base.order
    which = data.draw(st.sampled_from(["add", "mul"]))
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    table = [list(row) for row in getattr(base, which)]
    old = table[i][j]
    new = data.draw(st.integers(0, n - 1).filter(lambda v: v != old))
    table[i][j] = new
    add = table if which == "add" else base.add
    mul = table if which == "mul" else base.mul
    with pytest.raises(AxiomViolation):
        ring_from_tables(add, mul)


CROSS_CHECK_RINGS = RINGS_FOR_CORRUPTION + [matrix_ring(cyclic_ring(2), 2)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ring_certificate_agrees_with_exhaustive_scan(corrupt, scan_outcome,
                                                      data):
    # the reduced scan must reject exactly the tables the full scan
    # rejects, and report the same axiom, witness and message
    base = data.draw(st.sampled_from(CROSS_CHECK_RINGS))
    n, add, mul = base.order, base.add, base.mul
    if data.draw(st.booleans()):
        add = corrupt(data, add, n, square=True)
    else:
        mul = corrupt(data, mul, n, square=True)
    assert (scan_outcome(_scan_ring_axioms, n, add, mul)
            == scan_outcome(_scan_ring_axioms_exhaustive, n, add, mul))


# Z6 with 2+2, 2+5 and 5+5 changed from 4, 1, 4 to 1, 4, 1: still a
# commutative Latin square with identity 0 and inverses, generated by 1
# alone, and equal to Z6 wherever the generator 1 is a summand; yet
# (1+1)+2 = 1 and 1+(1+2) = 4.
LOOP_6 = ((0, 1, 2, 3, 4, 5),
          (1, 2, 3, 4, 5, 0),
          (2, 3, 1, 5, 0, 4),
          (3, 4, 5, 0, 1, 2),
          (4, 5, 0, 1, 2, 3),
          (5, 0, 4, 2, 3, 1))


def test_nonassociative_loop_is_rejected():
    for scan in (scan_abelian_group, scan_abelian_group_exhaustive):
        with pytest.raises(AxiomViolation) as exc:
            scan(6, LOOP_6)
        assert exc.value.axiom == "additive associativity"
        assert exc.value.witness == (1, 1, 2)
    with pytest.raises(AxiomViolation) as exc:
        ring_from_tables(LOOP_6, cyclic_ring(6).mul)
    assert exc.value.axiom == "additive associativity"
