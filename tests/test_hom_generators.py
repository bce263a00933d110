"""Generators of Hom(M, T) against the enumerated Hom-set and the
all-functions oracle, and the consumers that read them."""

import itertools
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from modlab import modules
from modlab.classify import generate_universe
from modlab.errors import SizeCapExceeded
from modlab.firstness import _cond_pointwise_separation
from modlab.modules import (_generator_data, _reject_mask,
                            all_function_homs, cyclic_mask, direct_sum_module,
                            enumerate_submodules, find_isomorphism,
                            hom_generators, hom_nonzero_exists, hom_set,
                            module_from_tables, quotient_module,
                            regular_module, submodule)
from modlab.preradicals import Beta, Omega
from modlab.rings import cyclic_ring, matrix_ring, product_ring

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
                full = {f.map for f in hom_set(a, b)}
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
    # |R|^k = 16^6 is far past MAX_HOM_CANDIDATES while |S|^k = 64 is not:
    # the Hom-search cap is the only cap on generator data.
    z16 = cyclic_ring(16)
    reg = regular_module(z16)
    two = z16.add[z16.one][z16.one]
    s = quotient_module(reg, submodule(reg, cyclic_mask(reg, two)))
    v = direct_sum_module([s] * 6)
    assert s.order == 2 and v.order == 64
    assert len(_generator_data(v)[0]) == 6
    homs = hom_set(v, s)
    assert len(homs) == 64
    assert _span(hom_generators(v, s), s, v.order) == {f.map for f in homs}
    assert find_isomorphism(v, v) is not None


def _small_modules():
    return [m for ring in (Z4, Z6, R22, M22)
            for m in generate_universe(ring).modules if m.order <= 16]


def test_generator_consumers_match_hom_set():
    mods = _small_modules()
    for m in mods:
        lat = enumerate_submodules(m)
        endos = hom_set(m, m)
        fi = tuple(all(f.image_of_mask(s.mask) & ~s.mask == 0 for f in endos)
                   for s in lat.submodules)
        assert lat.fully_invariant == fi
        for u in mods:
            if u.ring is not m.ring:
                continue
            kernels = u.full_mask()
            for f in hom_set(u, m):
                kernels &= f.kernel_mask()
            assert _reject_mask(u, m) == kernels
            for n, n_fi in zip(lat.submodules, fi):
                trace = u.zero_mask()
                for f in hom_set(m, u):
                    trace = modules.sum_masks(u, trace, f.image_of_mask(n.mask))
                assert Beta(n).evaluate(u).mask == trace
                if n_fi:
                    pre = u.full_mask()
                    for f in hom_set(u, m):
                        pre &= f.preimage_of_mask(n.mask)
                    assert Omega(n).evaluate(u).mask == pre


def test_generators_refused_with_hom_set(monkeypatch):
    m = direct_sum_module([regular_module(Z4)] * 2)
    t = regular_module(Z4)
    monkeypatch.setattr(modules, "MAX_HOM_CANDIDATES", 4 ** 2 - 1)
    with pytest.raises(SizeCapExceeded):
        hom_set(m, t)
    with pytest.raises(SizeCapExceeded):
        hom_generators(m, t)
    monkeypatch.setattr(modules, "MAX_HOM_CANDIDATES", 4 ** 2)
    assert len(_span(hom_generators(m, t), t, m.order)) == 16
    assert len(hom_set(m, t)) == 16


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
        assert _cond_pointwise_separation(a)[0] is False
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
        oracle = hom_set(a, b)
    gens = hom_generators(a, b)
    assert _span(gens, b, a.order) == {f.map for f in oracle}
    assert len(gens) <= int(math.log2(len(oracle)))
