"""Submodule lattices and sums against independent constructions: the
power-set oracle, the cyclic closure with pairwise sums, and brute-force
sums of every pair of submodules."""

import random

import pytest

from modlab.classify import generate_universe
from modlab.cli import corpus_rings
from modlab.modules import cyclic_mask, enumerate_submodules, sum_masks

from oracles import powerset_submodule_masks
from test_hom_generators import _permuted
from test_isomorphism_classes import deep_reference_modules


def _elements(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _pairwise_sum(module, mask_a, mask_b):
    """{a + b : a in A, b in B}, every pair added."""
    add = module.add
    out = 0
    for a in _elements(mask_a):
        for b in _elements(mask_b):
            out |= 1 << add[a][b]
    return out


def _cyclic_closure(module):
    """Submodule carriers by closing the cyclic submodules under pairwise
    sums with every cyclic submodule."""
    cyclics = {cyclic_mask(module, x) for x in range(module.order)}
    seen = {module.zero_mask()} | cyclics
    queue = list(seen)
    while queue:
        m = queue.pop()
        for c in cyclics:
            s = _pairwise_sum(module, m, c)
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return sorted(seen)


def _small_universe_modules():
    return [m for ring in corpus_rings()
            for m in generate_universe(ring, depth=2).modules
            if m.order <= 16]


SMALL = _small_universe_modules()
# one module per "<ring>#<index>", whatever notions are decided on it
DEEP = sorted({key.split(":")[0]: m for key, m in deep_reference_modules()
               if 16 <= m.order <= 64}.items())
# every module with more than one numbering of its elements
RENUMBERED = [m for m in SMALL + [m for _, m in DEEP] if m.order > 1]


def test_the_module_sets_are_the_intended_ones():
    assert len(SMALL) == 36
    assert sum(m.order == 16 for m in SMALL) == 5
    assert len(DEEP) == 18 and {m.order for _, m in DEEP} == {
        16, 24, 27, 32, 48, 64}
    assert len(RENUMBERED) == 48


@pytest.mark.parametrize("idx", range(len(SMALL)))
def test_lattice_matches_powerset_on_small_universe_modules(idx):
    m = SMALL[idx]
    lat = enumerate_submodules(m)
    assert sorted(s.mask for s in lat.submodules) == \
        powerset_submodule_masks(m)
    assert [(s.order, s.carrier) for s in lat.submodules] == \
        sorted((s.order, s.carrier) for s in lat.submodules)


@pytest.mark.parametrize("key", [key for key, _ in DEEP])
def test_lattice_matches_cyclic_closure_on_deep_modules(key):
    m = dict(DEEP)[key]
    assert sorted(s.mask for s in enumerate_submodules(m).submodules) == \
        _cyclic_closure(m)


@pytest.mark.parametrize("idx", range(len(SMALL)))
def test_sum_matches_pairwise_sums_on_small_universe_modules(idx):
    m = SMALL[idx]
    masks = [s.mask for s in enumerate_submodules(m).submodules]
    for a in masks:
        for b in masks:
            assert sum_masks(m, a, b) == _pairwise_sum(m, a, b), (a, b)


@pytest.mark.parametrize("idx", range(len(RENUMBERED)))
def test_lattice_of_a_permuted_module(idx):
    # the closure indexes its coset labels by element, so rename the
    # elements, with the zero away from index 0
    m = RENUMBERED[idx]
    perm = list(range(m.order))
    random.Random(idx).shuffle(perm)
    if perm[m.zero] == 0:
        other = (m.zero + 1) % m.order
        perm[m.zero], perm[other] = perm[other], perm[m.zero]
    p = _permuted(m, perm)
    assert p.zero == perm[m.zero] != 0

    def carry(mask):
        return sum(1 << perm[x] for x in _elements(mask))

    lat = enumerate_submodules(p)
    assert sorted(s.mask for s in lat.submodules) == sorted(
        carry(s.mask) for s in enumerate_submodules(m).submodules)
    assert [(s.order, s.carrier) for s in lat.submodules] == \
        sorted((s.order, s.carrier) for s in lat.submodules)
    if p.order <= 16:
        assert sorted(s.mask for s in lat.submodules) == \
            powerset_submodule_masks(p)
