"""Generators of Hom(M, T) against the searched Hom-set and the
all-functions oracle, the consumers that read them, and ``hom_set``, the
span of the generators, against the search and its bound on |Hom|."""

import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from modlab import modules, rings
from modlab.classify import generate_universe
from modlab.errors import RingMismatch, SizeCapExceeded
from modlab.modules import (_generator_data, _morphism_from_images,
                            _reject_mask, _search_images, cyclic_mask,
                            direct_sum_module, enumerate_submodules,
                            find_isomorphism, hom_generators,
                            hom_nonzero_exists, hom_set, module_from_tables,
                            quotient_module, regular_module, submodule)
from modlab.preradicals import Beta, Omega
from modlab.rings import cyclic_ring, matrix_ring, product_ring

import oracles
from oracles import (all_cyclic_pointwise_separation, all_function_homs,
                     searched_hom_set)

Z2 = cyclic_ring(2)
Z4 = cyclic_ring(4)
Z6 = cyclic_ring(6)
Z8 = cyclic_ring(8)
R22 = product_ring([Z2, Z2])
M22 = matrix_ring(cyclic_ring(2), 2)

CORPUS = (Z2, Z4, Z6, Z8, R22, M22)


def _sums(add, vecs, zero):
    """Every sum of the given tuples under the componentwise ``add``."""
    seen = {zero}
    stack = [zero]
    while stack:
        x = stack.pop()
        for v in vecs:
            y = tuple(add[a][b] for a, b in zip(x, v))
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _span(gens, target, n):
    """Every pointwise sum of the given maps, as image tuples."""
    return _sums(target.add, [g.map for g in gens], (target.zero,) * n)


def test_generators_span_hom_on_corpus_universes():
    pairs = 0
    for ring in CORPUS:
        mods = generate_universe(ring).modules
        for a in mods:
            for b in mods:
                gens = hom_generators(a, b)
                searched = [f.map for f in searched_hom_set(a, b)]
                assert [f.map for f in hom_set(a, b)] == searched
                full = set(searched)
                assert _span(gens, b, a.order) == full
                assert len(gens) <= int(math.log2(len(full)))
                for g in gens:
                    g.check()
                pairs += 1
    assert pairs == 323


def _relation_value(module, gens, vec):
    s = module.zero
    for r, g in zip(vec, gens):
        s = module.add[s][module.act[r][g]]
    return s


def test_relation_basis_spans_every_relation():
    count = 0
    for ring in CORPUS:
        rzero = ring.zero
        for m in generate_universe(ring).modules:
            gens, _, rel_levels = _generator_data(m)
            k = len(gens)
            assert len(rel_levels) == k + 1 and not rel_levels[0]
            basis = []
            for level, rels in enumerate(rel_levels):
                for vec in rels:
                    assert len(vec) == k
                    assert _relation_value(m, gens, vec) == m.zero
                    assert vec[level - 1] != rzero
                    assert all(c == rzero for c in vec[level:])
                    basis.append(vec)
            brute = {vec for vec in itertools.product(range(ring.order),
                                                      repeat=k)
                     if _relation_value(m, gens, vec) == m.zero}
            assert _sums(ring.add, basis, (rzero,) * k) == brute
            count += 1
    assert count == 41


def test_hom_of_sixfold_sum_over_z16():
    # |R|^k = 16^6 is far past the search's MAX_SEARCHED_TUPLES while
    # |S|^k = 64 is not: the relation basis comes from the greedy loop, not
    # from a scan over all coefficient tuples, so no Hom route is refused
    # here.
    z16 = cyclic_ring(16)
    reg = regular_module(z16)
    two = z16.add[z16.one][z16.one]
    s = quotient_module(reg, submodule(reg, cyclic_mask(reg, two)))
    v = direct_sum_module([s] * 6)
    assert s.order == 2 and v.order == 64
    assert len(_generator_data(v)[0]) == 6
    homs = searched_hom_set(v, s)
    assert len(homs) == 64 == len(hom_set(v, s))
    assert _span(hom_generators(v, s), s, v.order) == {f.map for f in homs}
    assert find_isomorphism(v, v) is not None


def _small_modules():
    return [m for ring in (Z4, Z6, R22, M22)
            for m in generate_universe(ring).modules if m.order <= 16]


def test_generator_consumers_match_hom_set():
    mods = _small_modules()
    for m in mods:
        lat = enumerate_submodules(m)
        endos = searched_hom_set(m, m)
        fi = tuple(all(f.image_of_mask(s.mask) & ~s.mask == 0 for f in endos)
                   for s in lat.submodules)
        assert lat.fully_invariant == fi
        for u in mods:
            if u.ring is not m.ring:
                continue
            into_m, from_m = searched_hom_set(u, m), searched_hom_set(m, u)
            kernels = u.full_mask()
            for f in into_m:
                kernels &= f.kernel_mask()
            assert _reject_mask(u, m) == kernels
            for n, n_fi in zip(lat.submodules, fi):
                trace = u.zero_mask()
                for f in from_m:
                    trace = modules.sum_masks(u, trace, f.image_of_mask(n.mask))
                assert Beta(n).evaluate(u).mask == trace
                if n_fi:
                    pre = u.full_mask()
                    for f in into_m:
                        pre &= f.preimage_of_mask(n.mask)
                    assert Omega(n).evaluate(u).mask == pre


def _chain_width(module):
    """m + k: the basis relations and the generators of ``module``."""
    gens, _, rel_levels = _generator_data(module)
    return sum(map(len, rel_levels)) + len(gens)


@pytest.mark.parametrize("query", [hom_set, hom_generators,
                                   hom_nonzero_exists])
def test_hom_queries_refuse_endpoints_over_different_rings(query):
    # the nonzero-map test once answered True for Z4 -> Z2, and for two
    # separately built copies of Z2, where the Hom-set queries refuse
    for source, target in ((regular_module(Z4), regular_module(Z2)),
                           (regular_module(Z2),
                            regular_module(cyclic_ring(2)))):
        with pytest.raises(RingMismatch,
                           match="hom-set endpoints over different rings"):
            query(source, target)


def test_chain_cap_refuses_just_above_its_bound(monkeypatch):
    m = direct_sum_module([regular_module(Z4)] * 2)
    t = regular_module(Z4)
    w = _chain_width(m)
    bound = w * w * t.order
    monkeypatch.setattr(modules, "MAX_HOM_CHAIN", bound - 1)
    with pytest.raises(SizeCapExceeded,
                       match=f"chain of width {w} over a target of order 4 "):
        hom_generators(m, t)
    monkeypatch.setattr(modules, "MAX_HOM_CHAIN", bound)
    assert _span(hom_generators(m, t), t, m.order) == \
        {f.map for f in searched_hom_set(m, t)}


def test_chain_cap_refuses_on_a_warm_memo(monkeypatch):
    # the chain's images are a fact of the memo, keyed by serials, and a
    # fact is read only after the cap: a pair whose chain the memo holds
    # is refused just above the bound, through the object that computed
    # it and through a fresh object on the same tables
    m = direct_sum_module([regular_module(Z4)] * 2)
    t = regular_module(Z4)
    maps = {f.map for f in hom_generators(m, t)}
    assert (rings.HOM_CHAIN, m.serial, t.serial) in rings._accepted
    again = direct_sum_module([regular_module(Z4)] * 2)
    assert again is not m and again.serial == m.serial
    w = _chain_width(m)
    bound = w * w * t.order
    monkeypatch.setattr(modules, "MAX_HOM_CHAIN", bound - 1)
    for source in (m, again):
        with pytest.raises(SizeCapExceeded,
                           match=f"chain of width {w} over a target of "
                                 f"order 4 "):
            hom_generators(source, t)
    monkeypatch.setattr(modules, "MAX_HOM_CHAIN", bound)
    assert {f.map for f in hom_generators(again, t)} == maps
    assert _span(hom_generators(again, t), t, m.order) == \
        {f.map for f in searched_hom_set(m, t)}


def _fresh(m):
    """A module on the tables of ``m`` with nothing cached yet."""
    return module_from_tables(m.ring, m.add, m.act)


# the all-functions oracle filters all |T|^|S| functions: cheap pairs only
ORACLE_REACH = 2 ** 12


def test_generators_answer_where_hom_set_is_refused(monkeypatch):
    # the search refuses every pair one tuple short of |T|^k, and the
    # generators still answer
    mods = [_fresh(m) for m in _small_modules()]
    pairs = oracle_pairs = 0
    for a in mods:
        k = len(_generator_data(a)[0])
        for b in mods:
            if b.ring is not a.ring:
                continue
            monkeypatch.setattr(oracles, "MAX_SEARCHED_TUPLES",
                                b.order ** k - 1)
            with pytest.raises(SizeCapExceeded, match="hom search over"):
                searched_hom_set(a, b)
            span = _span(hom_generators(a, b), b, a.order)
            if b.order ** a.order <= ORACLE_REACH:
                oracle = all_function_homs(a, b)
                oracle_pairs += 1
            else:
                monkeypatch.undo()
                oracle = searched_hom_set(a, b)
            assert span == {f.map for f in oracle}
            pairs += 1
    assert (pairs, oracle_pairs) == (175, 123)


def test_hom_set_bound_counts_maps_before_listing(monkeypatch):
    # |Hom| comes with the generators: one under it refuses, before any
    # map is built; at it every map is listed, as the search lists them
    built = []
    original = modules._morphism_from_images

    def counted(source, target, images):
        built.append(images)
        return original(source, target, images)

    monkeypatch.setattr(modules, "_morphism_from_images", counted)
    m = direct_sum_module([regular_module(Z4)] * 2)
    t = regular_module(Z4)
    n = len(searched_hom_set(m, t))
    assert n == 16
    hom_generators(m, t)
    built.clear()
    monkeypatch.setattr(modules, "MAX_HOM_MAPS", n - 1)
    with pytest.raises(SizeCapExceeded,
                       match=f"hom set of {n} maps is out of range"):
        hom_set(m, t)
    assert built == []
    monkeypatch.setattr(modules, "MAX_HOM_MAPS", n)
    assert [f.map for f in hom_set(m, t)] == \
        [f.map for f in searched_hom_set(m, t)]
    assert len(built) == n


def _coefficients(module):
    """One coefficient tuple c per element e, e = sum_i c_i.g_i over the
    greedy generators: the expressions that maps were once summed over."""
    gens = _generator_data(module)[0]
    ring = module.ring
    add, act = module.add, module.act
    coefs = {module.zero: (ring.zero,) * len(gens)}
    for i, g in enumerate(gens):
        for e, vec in list(coefs.items()):
            for r in range(ring.order):
                coefs.setdefault(add[e][act[r][g]],
                                 vec[:i] + (r,) + vec[i + 1:])
    assert len(coefs) == module.order
    return coefs


def _by_coefficients(coefs, target, images):
    """f(e) = sum_i c_i(e).images[i], term by term."""
    tadd, tact = target.add, target.act
    out = []
    for e in range(len(coefs)):
        s = target.zero
        for r, h in zip(coefs[e], images):
            s = tadd[s][tact[r][h]]
        out.append(s)
    return tuple(out)


def _assert_maps_by_coefficients(source, target):
    """Every map of the image-tuple search, which ``hom_set`` must list,
    and of ``hom_generators`` equals the coefficient formula on its
    generator images.  The searched images come from the search, not from
    the built maps, so a builder that misplaces an image cannot agree with
    itself here."""
    gens, _, rel_levels = _generator_data(source)
    coefs = _coefficients(source)
    found = []
    _search_images(target, rel_levels, [range(target.order)] * len(gens),
                   found.append)
    built = {_morphism_from_images(source, target, hv).map: hv
             for hv in found}
    assert set(built) == {f.map for f in hom_set(source, target)}
    gens_maps = hom_generators(source, target)
    images = list(built.items()) + [(f.map, [f.map[g] for g in gens])
                                    for f in gens_maps]
    for fmap, hv in images:
        assert fmap == _by_coefficients(coefs, target, hv)
    return len(found) + len(gens_maps)


def test_maps_match_the_coefficient_formula():
    count = 0
    for ring in CORPUS:
        mods = generate_universe(ring).modules
        for a in mods:
            for b in mods:
                count += _assert_maps_by_coefficients(a, b)
    assert count == 16293


def _permuted(m, perm):
    """The module ``m`` with element x renamed perm[x]."""
    n = m.order
    inv = sorted(range(n), key=perm.__getitem__)
    add = [[perm[m.add[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    act = [[perm[m.act[r][inv[a]]] for a in range(n)]
           for r in range(m.ring.order)]
    return module_from_tables(m.ring, add, act)


def test_maps_from_a_permuted_module():
    mods = generate_universe(Z4).modules
    m = next(x for x in mods if x.order == 16)
    perm = list(range(m.order))
    random.Random(3).shuffle(perm)
    p = _permuted(m, perm)
    assert p.zero == perm[m.zero] != 0
    reached = [e for e, *_ in _generator_data(p)[1]]
    assert sorted(reached) != reached
    for b in mods:
        homs = searched_hom_set(p, b)
        assert {tuple(f.map[perm[x]] for x in range(m.order))
                for f in homs} == {f.map for f in hom_set(m, b)}
        gens = hom_generators(p, b)
        assert _span(gens, b, p.order) == {f.map for f in homs}
        _assert_maps_by_coefficients(p, b)
    iso = find_isomorphism(p, m)
    iso.check()
    assert sorted(iso.map) == list(range(m.order))


def test_cross_checks_do_not_use_generators(monkeypatch):
    original = modules.hom_generators

    def refuse(source, target):
        raise AssertionError("hom_generators called")

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "modlab" and \
                getattr(mod, "hom_generators", None) is original:
            monkeypatch.setattr(mod, "hom_generators", refuse)
    for ring in (Z4, R22):
        reg = regular_module(ring)
        a = module_from_tables(ring, reg.add, reg.act)
        b = module_from_tables(ring, reg.add, reg.act)
        # neither regular module is BJKN-prime
        assert all_cyclic_pointwise_separation(a)[0] is False
        assert hom_nonzero_exists(a, b)
        assert find_isomorphism(a, b) is not None


# --- hypothesis: random small modules ---------------------------------------

SMALL_RINGS = (Z2, Z4, Z6, R22)


@st.composite
def small_module(draw, ring):
    reg = regular_module(ring)
    parts = []
    order = 1
    for _ in range(draw(st.integers(1, 3))):
        lat = enumerate_submodules(reg)
        part = quotient_module(reg, draw(st.sampled_from(lat.submodules)))
        if order * part.order > 16:
            break
        parts.append(part)
        order *= part.order
    m = direct_sum_module(parts) if len(parts) > 1 else parts[0]
    if draw(st.booleans()):
        m = quotient_module(m, draw(st.sampled_from(
            enumerate_submodules(m).submodules)))
    return m


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generators_span_oracle_hom(data):
    ring = data.draw(st.sampled_from(SMALL_RINGS))
    a = data.draw(small_module(ring))
    b = data.draw(small_module(ring))
    try:
        oracle = all_function_homs(a, b)
    except SizeCapExceeded:
        oracle = searched_hom_set(a, b)
    gens = hom_generators(a, b)
    assert _span(gens, b, a.order) == {f.map for f in oracle}
    assert len(gens) <= int(math.log2(len(oracle)))
