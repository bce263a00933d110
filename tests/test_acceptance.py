"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The corpus is the built-in one: cyclic(2), cyclic(4), cyclic(6), cyclic(8),
product(cyclic(2),cyclic(2)), matrix(cyclic(2),2), each with its depth-2
universe.
"""

import time

from modlab.actions import random_instance_holds
from modlab.classify import enumerate_lep, generate_universe, verify_theorem
from modlab.errors import InternalInconsistency
from modlab.firstness import (bjkn_prime_detail, is_bjkn_prime, is_diuniform,
                              is_retractable, is_rpid_first, rpid_first_detail)
from modlab.modules import (cogenerates, endomorphism_ring,
                            enumerate_submodules, hom_set, regular_module,
                            simple_modules, structural_summary, submodule)
from modlab.preradicals import (Alpha, Compose, EQ, LE, Omega, SOC,
                                check_naturality, compare, product_in,
                                property_flags, socle_as_join_of_simple_traces)
from modlab.rings import cyclic_ring, is_prime_ring, matrix_ring, product_ring

from oracles import (all_function_homs, powerset_submodule_masks,
                     searched_hom_set)

Z2 = cyclic_ring(2)
Z4 = cyclic_ring(4)
Z6 = cyclic_ring(6)
Z8 = cyclic_ring(8)
R22 = product_ring([Z2, Z2])
M22 = matrix_ring(Z2, 2)

CORPUS_RINGS = (Z2, Z4, Z6, Z8, R22, M22)


def corpus_pairs():
    for ring in CORPUS_RINGS:
        for mod in generate_universe(ring).nonzero_modules():
            yield ring, mod


def _announce(number, ok, text):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_four_way_equivalence_on_corpus():
    start = time.perf_counter()
    pairs = 0
    disagreements = 0
    for ring, mod in corpus_pairs():
        pairs += 1
        try:
            bjkn_prime_detail(mod)  # raises on any route disagreement
        except InternalInconsistency:
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = pairs >= 30 and disagreements == 0 and elapsed < 60
    _announce(1, ok, f"four-way BJKN agreement on {pairs} pairs, "
                     f"{disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_02_product_criterion_matches_cogeneration():
    mismatches = 0
    for ring, mod in corpus_pairs():
        lat = enumerate_submodules(mod)
        via_cogen = all(cogenerates(n, mod) for n in lat.nonzero())
        via_product = all(
            not product_in(mod, left, right).is_zero()
            for left in lat.nonzero() for right in lat.nonzero())
        if via_cogen != via_product:
            mismatches += 1
    m = regular_module(Z4)
    soc = submodule(m, 0b0101)
    witness_ok = (product_in(m, soc, soc).is_zero()
                  and not is_bjkn_prime(m))
    ok = mismatches == 0 and witness_ok
    _announce(2, ok, f"product criterion == cogeneration, {mismatches} "
                     f"mismatches; socle self-product over cyclic(4) is zero")


def test_criterion_03_homogeneous_iff_bjkn_on_semisimple():
    homogeneous_seen = 0
    mixed_seen = 0
    violations = 0
    for ring, mod in corpus_pairs():
        ss = structural_summary(mod)
        if not ss.is_semisimple:
            continue
        if ss.is_homogeneous_semisimple:
            homogeneous_seen += 1
        else:
            mixed_seen += 1
        if ss.is_homogeneous_semisimple != is_bjkn_prime(mod):
            violations += 1
    ok = violations == 0 and homogeneous_seen >= 1 and mixed_seen >= 1
    _announce(3, ok, f"homogeneous iff BJKN-prime on semisimple corpus "
                     f"({homogeneous_seen} homogeneous, {mixed_seen} mixed, "
                     f"{violations} violations)")


def test_criterion_04_bjkn_implies_diuniform():
    violations = sum(
        1 for ring, mod in corpus_pairs()
        if is_bjkn_prime(mod) and not is_diuniform(mod))
    _announce(4, violations == 0,
              f"BJKN-prime implies diuniform, {violations} violations")


def test_criterion_05_simple_ring_iff_all_prime():
    v = verify_theorem("T15", M22)
    ok = v.sides == {"ring_is_simple": True, "all_universe_modules_prime": True}
    for ring in (Z4, Z6):
        v = verify_theorem("T15", ring)
        ok = ok and v.sides["ring_is_simple"] is False
        ok = ok and v.sides["all_universe_modules_prime"] is False
        ok = ok and "non_prime_module" in v.witnesses and v.consistent
    _announce(5, ok, "simple-ring equivalence: positive on the matrix ring, "
                     "negative with witnesses on cyclic(4) and cyclic(6)")


def test_criterion_06_three_way_ring_equivalence():
    ok = True
    for ring in CORPUS_RINGS:
        v = verify_theorem("T14.3", ring)
        ok = ok and v.consistent
    for ring in (Z2, M22):
        ok = ok and all(verify_theorem("T14.3", ring).sides.values())
    for ring in (Z4, R22):
        v = verify_theorem("T14.3", ring)
        ok = ok and not any(v.sides.values()) and "non_bjkn_module" in v.witnesses
    _announce(6, ok, "three-way semisimple-homogeneous equivalence consistent "
                     "on all corpus rings, with the pinned signs")


def test_criterion_07_filter_operators_and_lep_firstness():
    lep = enumerate_lep(Z4)
    ok = len(lep) == 3
    uni = generate_universe(Z4)
    for pr in lep:
        flags = property_flags(pr, uni)
        ok = ok and flags.left_exact
    v = verify_theorem("T14", Z4, uni)
    ok = ok and v.sides["all_universe_modules_lep_first"] and v.consistent
    v = verify_theorem("T14", R22)
    ok = ok and not v.sides["all_universe_modules_lep_first"]
    ok = ok and "non_lep_first" in v.witnesses and v.consistent
    _announce(7, ok, "cyclic(4) has exactly 3 certified filter operators and "
                     "an all-first universe; the non-local product ring has a "
                     "non-first witness")


def test_criterion_08_rpid_criterion_and_strict_gap():
    mismatches = 0
    for ring, mod in corpus_pairs():
        try:
            rpid_first_detail(mod)  # internally cross-checks the family route
        except InternalInconsistency:
            mismatches += 1
    m = regular_module(Z4)
    gap = is_rpid_first(m) and not is_bjkn_prime(m)
    ok = mismatches == 0 and gap
    _announce(8, ok, f"pairwise-hom criterion == generated idempotent family "
                     f"({mismatches} mismatches); regular(Z4) shows the "
                     f"strict gap to BJKN-primeness")


def endo_prime_implies_rpid_first(module, endo_cap=64):
    """Check one module against the retractable/prime-endomorphism
    sufficient condition.  Returns (applies, holds, skipped); End(M) is
    built as a ring only up to ``endo_cap`` elements."""
    end = endomorphism_ring(module, cap=endo_cap)
    if end is None:
        return False, True, True
    if not (is_retractable(module) and is_prime_ring(end)):
        return False, True, False
    return True, is_rpid_first(module), False


def test_criterion_09_retractable_prime_endo_implies_rpid_first():
    violations = 0
    applied = 0
    skipped = 0
    for ring, mod in corpus_pairs():
        applies, holds, was_skipped = endo_prime_implies_rpid_first(mod)
        skipped += was_skipped
        if applies:
            applied += 1
            if not holds:
                violations += 1
    ok = violations == 0 and applied >= 3
    _announce(9, ok, f"retractable+prime-endomorphism condition: "
                     f"{applied} applicable modules, {violations} violations "
                     f"({skipped} above the endomorphism cap)")


def test_criterion_10_randomized_action_instances():
    start = time.perf_counter()
    failures = []
    for seed in range(100):
        failures.extend(random_instance_holds(seed))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30
    _announce(10, ok, f"100 randomized action instances (|L|<=8, |P|<=4): "
                      f"{len(failures)} failures, {elapsed:.1f}s")


def _separating_family(mod, cog):
    """Greedy maps from the searched Hom-set whose kernels meet
    trivially, or None: a monomorphism mod -> cog^k written in coordinates.
    """
    remaining = mod.full_mask() & ~mod.zero_mask()
    family = []
    for f in searched_hom_set(mod, cog):
        killed = f.kernel_mask()
        if remaining & ~killed:
            family.append(f)
            remaining &= killed
    return None if remaining else family


def test_criterion_11_oracle_equivalences():
    ok = True
    # submodule enumeration vs power set, orders up to 16
    for mod in (regular_module(Z4), regular_module(Z6),
                regular_module(M22), regular_module(R22),
                generate_universe(Z4).modules[3]):
        assert mod.order <= 16
        fast = sorted(s.mask for s in enumerate_submodules(mod).submodules)
        ok = ok and fast == powerset_submodule_masks(mod)
    # hom enumeration vs the all-functions filter on small pairs
    s2, s3 = simple_modules(Z6)
    small_pairs = [(regular_module(Z6), s2), (regular_module(Z6), s3),
                   (s2, s3), (regular_module(Z4), simple_modules(Z4)[0])]
    for a, b in small_pairs:
        fast = [f.map for f in hom_set(a, b)]
        ok = ok and fast == [f.map for f in all_function_homs(a, b)]
    # cogeneration: reject route vs explicit bounded separating family
    for ring, mod in corpus_pairs():
        if mod.order > 16:
            continue
        for n in enumerate_submodules(mod).nonzero():
            cog = n.as_module()
            family = _separating_family(mod, cog)
            via_family = family is not None
            ok = ok and via_family == cogenerates(n, mod)
            if family:
                ok = ok and len(family) <= max(mod.order - 1, 1)
    _announce(11, ok, "oracle equivalences: power-set submodules, "
                      "all-function homs, bounded embedding search")


def test_criterion_12_preradical_calculus_invariants():
    ok = True
    uni4 = generate_universe(Z4)
    m = regular_module(Z4)
    soc4 = submodule(m, 0b0101)
    exprs = [SOC, Alpha(soc4), Omega(soc4)]
    # naturality over the cyclic(4) universe
    for pr in exprs:
        ok = ok and check_naturality(pr, uni4.modules) is None
    # finite direct-sum preservation
    for ring in (Z4, Z6):
        uni = generate_universe(ring)
        for mod in uni.modules:
            if mod.origin[0] != "direct_sum":
                continue
            summands, embeddings = mod.origin[1], mod.origin[2]
            for pr in (SOC, socle_as_join_of_simple_traces(ring)):
                whole = pr.evaluate(mod).mask
                expected_bits = []
                for s, emb in zip(summands, embeddings):
                    expected_bits.append([emb[i] for i in
                                          pr.evaluate(s).carrier])
                combined = 0
                for a in expected_bits[0]:
                    for b in expected_bits[1]:
                        combined |= 1 << mod.add[a][b]
                ok = ok and whole == combined
    # left exact operators commute
    for pr in enumerate_lep(Z4):
        ok = ok and property_flags(pr, uni4).left_exact
        for tau in enumerate_lep(Z4):
            for u in uni4.modules:
                ok = ok and (Compose(pr, tau).evaluate(u)
                             == Compose(tau, pr).evaluate(u))
    # interval law: alpha <= anything fixing the pair <= omega
    a, w = Alpha(soc4), Omega(soc4)
    for pr in (SOC, a, w):
        if pr.evaluate(m) == soc4:
            ok = ok and compare(a, pr, uni4.modules) in (LE, EQ)
            ok = ok and compare(pr, w, uni4.modules) in (LE, EQ)
    # socle as the join of simple-module traces, pointwise on every universe
    for ring in CORPUS_RINGS:
        uni = generate_universe(ring)
        ok = ok and compare(socle_as_join_of_simple_traces(ring), SOC,
                            uni.modules) == EQ
    _announce(12, ok, "naturality, direct-sum preservation, left-exact "
                      "commutation, interval law, socle decomposition")
