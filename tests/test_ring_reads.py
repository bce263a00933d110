"""Linear filters, simple modules and Baer's criterion, read off the ring,
checked against the searches they replace (``oracles``): the filters
among all subsets of the left ideals, the simple modules grouped by
isomorphism search, and the maps R -> M and I -> M listed by
``searched_hom_set``, where the criterion reads the generators of each
Hom(I, M)."""

import pytest

from modlab.classify import enumerate_lep, generate_universe
from modlab.errors import SizeCapExceeded
from modlab.modules import (direct_sum_module, is_injective, regular_module,
                            simple_modules)
from modlab.rings import (cyclic_ring, enumerate_ideals, is_two_sided,
                          matrix_ring, product_ring)

from oracles import (baer_via_hom_set, filter_members,
                     isomorphism_class_simples, subset_linear_filters)
from test_rings import f2_xy_square_zero, upper_triangular_f2

Z2 = cyclic_ring(2)
RINGS = {
    "Z2": lambda: Z2,
    "Z4": lambda: cyclic_ring(4),
    "Z6": lambda: cyclic_ring(6),
    "Z8": lambda: cyclic_ring(8),
    "Z2xZ2": lambda: product_ring([Z2, Z2]),
    "M2(F2)": lambda: matrix_ring(Z2, 2),
    "Z9": lambda: cyclic_ring(9),
    "Z12": lambda: cyclic_ring(12),
    "Z16": lambda: cyclic_ring(16),
    "Z2xZ4": lambda: product_ring([Z2, cyclic_ring(4)]),
    "Z3xZ4": lambda: product_ring([cyclic_ring(3), cyclic_ring(4)]),
    "F2^4": lambda: product_ring([Z2] * 4),
    "T2(F2)": upper_triangular_f2,
    "F2[x,y]/(x,y)^2": f2_xy_square_zero,
}


@pytest.fixture(params=list(RINGS), scope="module")
def ring(request):
    return RINGS[request.param]()


def test_filters_are_the_subset_search_in_its_order(ring):
    assert [filter_members(f) for f in enumerate_lep(ring)] == (
        subset_linear_filters(ring))


def test_simple_modules_are_the_isomorphism_search_representatives(ring):
    def identity(modules):
        return [(s.origin[2], s.add, s.act, s.labels) for s in modules]

    assert identity(simple_modules(ring)) == identity(
        isomorphism_class_simples(ring))


def _outcome(decide, module):
    try:
        return decide(module)
    except SizeCapExceeded as exc:
        return str(exc)


def test_baer_reads_hom_r_m_as_the_hom_set_does(ring):
    # the oracle lists Hom(R, M) and refuses F2^4's sums of order 64; the
    # criterion skips the ideal R, so it decides them, all injective, as
    # every module over the semisimple F2^4 is
    refused = []
    for m in generate_universe(ring, depth=2).modules:
        decided = is_injective(m)
        want = _outcome(baer_via_hom_set, m)
        if want == "hom search over 64^4 candidates is out of range":
            refused.append((m.order, decided))
        else:
            assert decided == want, m
    f2_4 = ring.provenance == "product(cyclic(2),cyclic(2),cyclic(2),cyclic(2))"
    assert refused == ([(64, True)] * 10 if f2_4 else [])


def test_baer_on_depth_three_universes_of_two_non_qf_rings():
    # neither ring is quasi-Frobenius; the universe of F2[x,y]/(x,y)^2
    # holds no nonzero injective module, so both verdicts are reached
    verdicts = {}
    for name in ("T2(F2)", "F2[x,y]/(x,y)^2"):
        universe = generate_universe(RINGS[name](), depth=3, module_cap=64)
        for m in universe.nonzero_modules():
            decided = is_injective(m)
            assert decided == baer_via_hom_set(m), (name, m)
            verdicts.setdefault(name, []).append(decided)
    assert {name: (v.count(True), v.count(False))
            for name, v in verdicts.items()} == {
                "T2(F2)": (12, 30), "F2[x,y]/(x,y)^2": (0, 55)}


def test_baer_decides_an_order_256_sum_over_f2_to_the_fourth():
    # every module over the semisimple F2^4 is injective; the image-tuple
    # search refuses this one at 256^3 candidates
    reg = regular_module(RINGS["F2^4"]())
    assert is_injective(direct_sum_module([reg, reg], cap=256)) is True


def test_filters_of_f2_to_the_fifth_one_per_two_sided_ideal():
    ring = product_ring([Z2] * 5, cap=32)
    lep = enumerate_lep(ring)
    assert len(lep) == 32 == len(enumerate_ideals(ring, "two-sided"))
    assert len({f.ideal for f in lep}) == 32
    for f in lep:
        members = filter_members(f)
        assert min(members, key=int.bit_count) == f.ideal.mask
        assert is_two_sided(f.ideal)
