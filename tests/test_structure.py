"""Socle, radical and the predicates built on them, read off J(R).

``structural_summary``, ``atoms``, ``is_essential`` and ``is_superfluous``
are checked here against the submodule lattice: the atoms as the minimal
nonzero submodules, the socle as their sum, the radical as the meet of the
maximal submodules, simplicity as a two-element lattice, homogeneity as
pairwise isomorphic atoms, and both predicates as scans over every
submodule.
"""

from modlab import modules
from modlab.classify import generate_universe
from modlab.cli import corpus_rings
from modlab.modules import (atoms, cyclic_mask, direct_sum_module,
                            enumerate_submodules, is_essential, is_isomorphic,
                            is_superfluous, jacobson_radical, quotient_module,
                            regular_module, simple_modules, structural_summary,
                            submodule, sum_masks, zero_module)
from modlab.preradicals import RAD, SOC
from modlab.rings import cyclic_ring, matrix_ring
from test_rings import upper_triangular_f2


def _atoms(lat):
    """Nonzero submodules with no nonzero submodule strictly below."""
    subs = lat.submodules
    return [i for i in range(1, len(subs))
            if not any(lat.leq(j, i) for j in range(1, len(subs)) if j != i)]


def _maximals(lat):
    """Proper submodules with no proper submodule strictly above."""
    top = len(lat) - 1
    return [i for i in range(top)
            if not any(lat.leq(i, j) for j in range(top) if j != i)]


def _lattice_summary(module):
    """(simple, semisimple, homogeneous, socle mask, radical mask), read
    off the whole submodule lattice."""
    lat = enumerate_submodules(module)
    atoms = [lat.submodules[i] for i in _atoms(lat)]
    soc = module.zero_mask()
    for a in atoms:
        soc = sum_masks(module, soc, a.mask)
    rad = module.full_mask()
    for i in _maximals(lat):
        rad &= lat.submodules[i].mask
    semisimple = soc == module.full_mask()
    homogeneous = semisimple and all(
        is_isomorphic(a.as_module(), b.as_module())
        for a in atoms for b in atoms)
    return len(lat) == 2, semisimple, homogeneous, soc, rad


def _scan_essential(lat, sub):
    zero = sub.module.zero_mask()
    return all(sub.mask & k.mask != zero for k in lat.nonzero())


def _scan_superfluous(lat, sub):
    module = sub.module
    full = module.full_mask()
    return all(sum_masks(module, sub.mask, k.mask) != full
               for k in lat.submodules if k.mask != full)


def test_summary_and_predicates_match_the_lattice_at_depth_three():
    modules_seen = submodules_seen = 0
    for ring in corpus_rings() + [upper_triangular_f2()]:
        for m in generate_universe(ring, depth=3).modules:
            ss = structural_summary(m)
            simple, semisimple, homogeneous, soc, rad = _lattice_summary(m)
            assert (ss.is_simple, ss.is_semisimple,
                    ss.is_homogeneous_semisimple) == (
                        simple, semisimple, homogeneous), m
            assert (ss.socle.mask, ss.jacobson_radical.mask) == (soc, rad), m
            lat = enumerate_submodules(m)
            assert list(atoms(m)) == [lat.submodules[i]
                                      for i in _atoms(lat)], m
            assert lat.maximal_indices() == _maximals(lat), m
            for sub in lat.submodules:
                assert is_essential(sub) == _scan_essential(lat, sub), sub
                assert is_superfluous(sub) == _scan_superfluous(lat, sub), sub
            modules_seen += 1
            submodules_seen += len(lat)
    assert modules_seen > 100 and submodules_seen > 5000


def test_jacobson_radical_pins():
    assert jacobson_radical(cyclic_ring(4)).carrier == (0, 2)
    assert jacobson_radical(cyclic_ring(6)).is_zero()
    assert jacobson_radical(matrix_ring(cyclic_ring(2), 2)).is_zero()
    # element a*4 + b*2 + c of T2(F2) is [[a, b], [0, c]]: J is a = c = 0
    t2 = upper_triangular_f2()
    jac = jacobson_radical(t2)
    assert jac.carrier == (0, 2)
    assert jac is jacobson_radical(t2)
    assert jac.module is regular_module(t2)


def test_zero_module_summary():
    ss = structural_summary(zero_module(cyclic_ring(4)))
    assert not ss.is_simple
    assert ss.is_semisimple and ss.is_homogeneous_semisimple
    assert ss.socle.is_zero() and ss.jacobson_radical.is_zero()


def test_socle_and_radical_build_no_lattice_and_search_no_isomorphism(
        monkeypatch):
    def refuse(a, b):
        raise AssertionError("isomorphism search reached")

    rings = [cyclic_ring(4), cyclic_ring(6), matrix_ring(cyclic_ring(2), 2),
             upper_triangular_f2()]
    # built before the patch: simple_modules groups quotients up to
    # isomorphism
    simples = {id(r): simple_modules(r) for r in rings}
    monkeypatch.setattr(modules, "find_isomorphism", refuse)
    for ring in rings:
        reg = regular_module(ring)
        s = simples[id(ring)][-1]
        fresh = [direct_sum_module([reg, s]), direct_sum_module([s, s]),
                 quotient_module(reg, jacobson_radical(ring)),
                 direct_sum_module([simples[id(ring)][0], s])]
        for m in fresh:
            assert "lattice" not in m._cache
            SOC.evaluate(m)
            RAD.evaluate(m)
            structural_summary(m)
            for x in range(m.order):
                sub = submodule(m, cyclic_mask(m, x))
                is_essential(sub)
                is_superfluous(sub)
            assert "lattice" not in m._cache, m

