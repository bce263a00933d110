import dataclasses

import pytest

from modlab import classify
from modlab.classify import (THEOREM_IDS, TheoremVerdict, Universe,
                             classify_ring, enumerate_lep, generate_universe,
                             verify_theorem)
from modlab.errors import RingMismatch
from modlab.firstness import NOTIONS, annihilator_mask, firstness_report
from modlab.modules import (enumerate_submodules, embed_submask,
                            regular_module, simple_modules, submodule)
from modlab.preradicals import RAD, left_exact_at
from modlab.rings import cyclic_ring, matrix_ring, product_ring

import oracles
from test_modules import sweep_universes

Z2 = cyclic_ring(2)
Z4 = cyclic_ring(4)
Z6 = cyclic_ring(6)
Z8 = cyclic_ring(8)
M22 = matrix_ring(cyclic_ring(2), 2)
R22 = product_ring([Z2, Z2])

CORPUS = (Z2, Z4, Z6, Z8, R22, M22)


def test_universe_is_deterministic_and_nonempty():
    u1 = generate_universe(Z4)
    u2 = generate_universe(Z4)
    # built again, not cached on the ring, in the same order and tables
    assert [(m.order, m.add, m.act) for m in u1.modules] == [
        (m.order, m.add, m.act) for m in u2.modules]
    assert len(u1.nonzero_modules()) >= 1
    orders = [m.order for m in u1.modules]
    assert orders == [4, 2, 1, 16, 8, 4]


def test_universe_depth_below_one_is_refused():
    # as is a depth that is not an int (2.0, "3" and None raised TypeError)
    for depth in (0, -1, 2.0, "3", None):
        with pytest.raises(ValueError, match="at least 1"):
            generate_universe(Z4, depth=depth)


def test_universe_module_cap_below_one_is_refused():
    # a cap no sum fits in ran depth 1 and was reported as given; a cap
    # that is not an int raised TypeError or, as 2.5, ran under its own key
    for cap in (0, -5, 2.5, "3", None):
        with pytest.raises(ValueError, match="module cap must be at least 1"):
            generate_universe(Z4, depth=2, module_cap=cap)


def test_universe_stops_at_its_fixpoint(monkeypatch):
    sums = []
    direct_sum = classify.direct_sum_module

    def counted_sum(*args, **kwargs):
        sums.append(args)
        return direct_sum(*args, **kwargs)

    monkeypatch.setattr(classify, "direct_sum_module", counted_sum)

    def build(make, depth):
        """The modules' tables and the number of direct sums built, for a
        universe of a fresh ring."""
        sums.clear()
        universe = generate_universe(make(), depth=depth)
        tables = [(m.provenance, m.add, m.act) for m in universe.modules]
        return tables, len(sums)

    for make in (lambda: cyclic_ring(4), lambda: cyclic_ring(6),
                 lambda: product_ring([cyclic_ring(2), cyclic_ring(2)])):
        deep, built = build(make, 20)
        # a sum is built only when it is kept
        assert built == sum(p.startswith("sum(") for p, _, _ in deep)
        # the universe's size per level grows until a level adds nothing,
        # and no later level changes it or builds a sum
        sizes = [len(build(make, depth)[0]) for depth in range(1, 21)]
        fixpoint = sizes.index(sizes[-1]) + 1
        assert sizes[:fixpoint] == sorted(set(sizes[:fixpoint]))
        assert set(sizes[fixpoint:]) <= {sizes[-1]}
        assert build(make, fixpoint) == (deep, built)
        assert fixpoint <= 4 and build(make, 4) == (deep, built)


def test_universe_contains_regular_and_simples():
    for ring in CORPUS:
        uni = generate_universe(ring)
        assert uni.modules[0] is regular_module(ring)
        from modlab.modules import is_isomorphic
        for s in simple_modules(ring):
            assert any(is_isomorphic(s, m) for m in uni.modules)


def test_universe_respects_cap():
    uni = generate_universe(Z8)
    assert all(m.order <= uni.module_cap for m in uni.modules)
    assert any(m.order == 64 for m in uni.modules)


def test_classify_matrix_ring():
    cls = classify_ring(M22)
    assert cls.is_simple and cls.is_semisimple
    assert cls.is_homogeneous_semisimple and cls.is_left_local
    assert cls.is_V_ring and cls.is_BKN_on_universe


def test_classify_cyclic4():
    cls = classify_ring(Z4)
    assert cls.is_left_local
    assert cls.is_left_semiartinian_on_universe
    assert not cls.is_V_ring
    assert cls.is_BKN_on_universe
    assert cls.witnesses["V_ring"]["kind"] == "non_injective_simple"


def test_classify_product_not_left_local():
    cls = classify_ring(R22)
    assert not cls.is_left_local
    assert cls.is_semisimple and not cls.is_homogeneous_semisimple
    assert not cls.is_BKN_on_universe


def test_classification_cached_per_ring():
    cls = classify_ring(R22)
    assert classify_ring(R22) is cls
    # a caller's edit of the report leaves the cached witnesses alone
    cls.to_dict()["witnesses"]["left_local"]["orders"].append(99)
    assert cls.witnesses["left_local"]["orders"] == [2, 2]
    # no universe enters it: building one of another depth changes nothing
    generate_universe(R22, depth=3)
    assert classify_ring(R22) is cls


def oracle_universes():
    """(ring, universe) at depths 1-3 for the rings of the derived sweep,
    Z2 x Z4 and Z12: local and not, semisimple and not."""
    rings = [ring for ring, _ in sweep_universes()]
    rings += [product_ring([cyclic_ring(2), cyclic_ring(4)]), cyclic_ring(12)]
    for ring in rings:
        for depth in (1, 2, 3):
            yield ring, generate_universe(ring, depth=depth)


def test_bkn_is_left_locality_by_the_universe_scan():
    # the flag and its witness are read off the simple modules; the scan
    # over every ordered pair of universe modules is their oracle
    local = set()
    for ring, universe in oracle_universes():
        cls = classify_ring(ring)
        bkn, pair = oracles.bkn_scan(universe)
        assert bkn == cls.is_BKN_on_universe == cls.is_left_local, universe
        local.add(bkn)
        if not bkn:
            assert cls.witnesses["BKN"] == {
                "kind": "hom_zero", "source": pair[0].provenance,
                "target": pair[1].provenance}, universe
            s, t = simple_modules(ring)[:2]
            (only,) = oracles.searched_hom_set(s, t)
            assert set(only.map) == {t.zero}
    assert local == {True, False}


def test_no_universe_module_has_a_zero_socle(monkeypatch):
    # J(R) is nilpotent, so the last nonzero J^k.M lies in Soc(M); this is
    # why the left-semiartinian flag is True with no scan
    for ring, universe in oracle_universes():
        assert classify_ring(ring).is_left_semiartinian_on_universe
        assert oracles.zero_socle_modules(universe) == [], universe
    # the scan names every module whose socle reads zero
    real = oracles.structural_summary

    def no_socle(m):
        return dataclasses.replace(real(m), socle=submodule(m, m.zero_mask()))

    monkeypatch.setattr(oracles, "structural_summary", no_socle)
    universe = generate_universe(Z2, depth=1)
    assert oracles.zero_socle_modules(universe) == list(
        universe.nonzero_modules())


def test_perror1_compares_a_universe_with_the_ring():
    # BKN describes R, so a hand-built universe without the simple Z3 of Z6
    # fails Perror1: its one module is BJKN-prime, and Z6 is not left local
    two = next(s for s in simple_modules(Z6) if s.order == 2)
    verdict = verify_theorem("Perror1", Z6, Universe(Z6, (two,), 1, 64))
    assert verdict.sides == {"all_universe_modules_bjkn_prime": True,
                             "BKN_on_universe": False}
    assert not verdict.consistent


def test_lep_of_z4_is_three_filters():
    lep = enumerate_lep(Z4)
    assert len(lep) == 3
    sizes = sorted(len(oracles.filter_members(p)) for p in lep)
    assert sizes == [1, 2, 3]
    # values on the regular module: just-R is the zero operator, the
    # two-member filter picks the 2-torsion part, the full set is identity
    m = regular_module(Z4)
    carriers = sorted((p.evaluate(m).carrier for p in lep), key=len)
    assert carriers == [(0,), (0, 2), (0, 1, 2, 3)]


def test_lep_extremes_always_present():
    for ring in CORPUS:
        lep = enumerate_lep(ring)
        n_ideals = len(__import__("modlab.rings", fromlist=["x"])
                       .enumerate_ideals(ring, "left"))
        sizes = [len(oracles.filter_members(p)) for p in lep]
        assert 1 in sizes            # just R: the zero operator
        assert n_ideals in sizes     # everything: the identity operator


def test_lep_of_matrix_ring_only_extremes():
    assert len(enumerate_lep(M22)) == 2


def test_lep_operators_are_left_exact_everywhere():
    # every filter operator on every module of each corpus ring's depth-2
    # universe: 144 operator-module pairs, the corpus sweep's whole T14
    checked = 0
    for ring in CORPUS:
        uni = generate_universe(ring, depth=2)
        for pr in enumerate_lep(ring):
            for u in uni.modules:
                whole = pr.evaluate(u).mask
                for n in enumerate_submodules(u).submodules:
                    nmod = n.as_module()
                    part = embed_submask(nmod, pr.evaluate(nmod).mask)
                    assert part == whole & n.mask
                assert left_exact_at(pr, u)
                checked += 1
    assert checked == 144
    # the radical is not left exact: rad(2Z4) = 0, but 2Z4 & rad(Z4) = 2Z4
    assert not left_exact_at(RAD, regular_module(Z4))


def test_annihilators_and_lep_operators_match_definition():
    # read r.x = 0 straight off the action tables: annihilators of every
    # submodule carrier, and each filter operator's value (the elements
    # whose annihilator lies in the filter), on every depth-2 universe module
    for ring in (Z4, Z6, R22):
        lep = enumerate_lep(ring)
        for m in generate_universe(ring, depth=2).modules:

            def ann(mask):
                return sum(1 << r for r in range(ring.order)
                           if all(m.act[r][x] == m.zero
                                  for x in range(m.order) if mask >> x & 1))

            for n in enumerate_submodules(m).submodules:
                assert annihilator_mask(m, n.mask) == ann(n.mask)
            for pr in lep:
                members = oracles.filter_members(pr)
                expected = sum(1 << x for x in range(m.order)
                               if ann(1 << x) in members)
                assert pr.evaluate(m).mask == expected


def test_verify_t15_sides():
    v = verify_theorem("T15", M22)
    assert v.sides == {"ring_is_simple": True,
                       "all_universe_modules_prime": True}
    assert v.consistent
    for ring in (Z4, Z6):
        v = verify_theorem("T15", ring)
        assert v.sides["ring_is_simple"] is False
        assert v.sides["all_universe_modules_prime"] is False
        assert v.consistent
        assert "non_prime_module" in v.witnesses


def test_verify_t14_z4_and_product():
    v = verify_theorem("T14", Z4)
    assert v.details["filter_count"] == 3
    assert v.sides["all_universe_modules_lep_first"]
    assert v.consistent
    v = verify_theorem("T14", R22)
    assert not v.sides["left_semiartinian_and_left_local"]
    assert not v.sides["all_universe_modules_lep_first"]
    assert set(v.witnesses["non_lep_first"]) == {"filter", "module",
                                                 "submodule"}
    assert v.consistent


def test_repeated_t14_reuses_filter_values():
    # filters from separate enumerate_lep calls are equal, so a second T14
    # run finds every value in the modules' preradical caches
    assert enumerate_lep(Z6) == enumerate_lep(Z6)
    uni = generate_universe(Z6)

    def cached_values():
        return sum(len(m._cache.get("preradical_values", {}))
                   for m in uni.modules)

    verify_theorem("T14", Z6, uni)
    first = cached_values()
    verify_theorem("T14", Z6, uni)
    assert cached_values() == first


def test_verify_t143_three_way():
    for ring in (Z2, M22):
        v = verify_theorem("T14.3", ring)
        assert all(v.sides.values()) and v.consistent
    for ring in (Z4, R22):
        v = verify_theorem("T14.3", ring)
        assert not any(v.sides.values()) and v.consistent
        assert "non_bjkn_module" in v.witnesses


def test_verify_p141_superfluous_socle_in_hull():
    v = verify_theorem("P14.1", Z4)
    assert v.sides["pairs_checked"] >= 1
    assert v.sides["all_superfluous"] and v.consistent
    pair = v.details["pairs"][0]
    assert pair["simple"] == ("0", "2")


def test_verify_p141_pairs_match_an_independent_scan():
    # the hulls are the universe modules Baer's criterion over searched
    # Hom-sets calls injective, and the simples their lattice atoms that
    # are proper and meet every nonzero submodule of the lattice
    found = []
    for ring in CORPUS:
        universe = generate_universe(ring)
        expected = []
        for e in universe.nonzero_modules():
            if not oracles.baer_via_hom_set(e):
                continue
            nonzero = enumerate_submodules(e).nonzero()
            for s in oracles.lattice_atoms(e):
                if not s.is_full() and all(
                        k.mask & s.mask != e.zero_mask() for k in nonzero):
                    expected.append((s.labels(), e.provenance))
        v = verify_theorem("P14.1", ring, universe)
        assert [(p["simple"], p["hull"]) for p in v.details["pairs"]] == (
            expected)
        assert v.sides == {"pairs_checked": len(expected),
                           "all_superfluous": True}
        found += [hull for _, hull in expected]
    # only Z4 and Z8 have a proper essential simple, the socle of R
    assert found == ["regular(cyclic(4))", "regular(cyclic(8))"]


def test_verify_perror1_converse_fails_on_z4():
    v = verify_theorem("Perror1", Z4)
    assert v.consistent
    assert v.sides["BKN_on_universe"]
    assert not v.sides["all_universe_modules_bjkn_prime"]
    assert v.details["converse_fails_here"]


def test_verify_p12_p85_all_corpus():
    for ring in CORPUS:
        for tid in ("P12", "P8.5"):
            v = verify_theorem(tid, ring)
            assert v.consistent, (ring.provenance, tid, v.sides)


def test_all_theorems_consistent_everywhere():
    for ring in CORPUS:
        uni = generate_universe(ring)
        for tid in THEOREM_IDS:
            v = verify_theorem(tid, ring, uni)
            assert isinstance(v, TheoremVerdict)
            assert v.consistent, (ring.provenance, tid, v.sides)


def test_depth_three_z6_is_decided_and_consistent():
    # the depth-3 universe of Z6 holds sums of four generators; every
    # decider and every theorem settles each of its modules
    ring = cyclic_ring(6)
    uni = generate_universe(ring, depth=3)
    assert uni.depth == 3
    for m in uni.nonzero_modules():
        report = firstness_report(m)
        assert set(report.verdicts) == set(NOTIONS)
    for tid in THEOREM_IDS:
        v = verify_theorem(tid, ring, uni)
        assert v.consistent, (tid, v.sides)


def _no_work(*args, **kwargs):
    raise AssertionError("a refused call did work")


def test_unknown_theorem_id(monkeypatch):
    # a bad argument, as for generate_universe, refused before any work
    monkeypatch.setattr(classify, "generate_universe", _no_work)
    monkeypatch.setattr(classify, "classify_ring", _no_work)
    with pytest.raises(ValueError, match="unknown theorem id 'T99'"):
        verify_theorem("T99", Z4)


def test_a_universe_over_another_ring_is_refused(monkeypatch):
    # Z2 is simple and Z4's modules are not prime, so T15 over them read
    # as an inconsistency, which reports an engine bug
    universe = generate_universe(Z4)
    monkeypatch.setattr(classify, "classify_ring", _no_work)
    with pytest.raises(RingMismatch):
        verify_theorem("T15", Z2, universe)
