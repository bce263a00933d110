import re

import pytest

from modlab import firstness
from modlab.classify import enumerate_lep, generate_universe
from modlab.cli import corpus_rings
from modlab.errors import AxiomViolation, InternalInconsistency
from modlab.firstness import (NOTIONS, ClassMembership, a_first_detail,
                              a_fully_first_detail, bjkn_prime_detail,
                              class_membership, decide, diuniform_detail,
                              firstness_report, is_A_first, is_A_fully_first,
                              is_bjkn_prime, is_diuniform, is_prime_module,
                              is_retractable, is_rpid_first,
                              prime_module_detail, rpid_first_detail)
from modlab.modules import (atoms, direct_sum_module, endomorphism_ring,
                            enumerate_submodules, regular_module,
                            simple_modules, submodule)
from modlab.preradicals import (ONE, RAD, SOC, ZERO, Alpha, Beta, Compose,
                                Join, Meet, Omega, Trad, product_in)
from modlab.rings import (cyclic_ring, enumerate_ideals, is_prime_ring,
                          matrix_ring, product_ring)

from test_isomorphism_classes import deep_reference_modules

Z2 = cyclic_ring(2)
Z4 = cyclic_ring(4)
Z6 = cyclic_ring(6)
Z8 = cyclic_ring(8)
M22 = matrix_ring(cyclic_ring(2), 2)
R22 = product_ring([Z2, Z2])


def simple_trace(mod):
    return Alpha(submodule(mod, mod.full_mask()))


def test_bjkn_z4_negative_with_witness():
    verdict, witness = bjkn_prime_detail(regular_module(Z4))
    assert not verdict
    assert witness == {"kind": "inseparable_pair", "x": "2", "y": "2"}


def test_bjkn_simple_positive():
    assert is_bjkn_prime(simple_modules(Z4)[0])


def test_bjkn_homogeneous_vs_mixed_semisimple():
    s = simple_modules(Z2)[0]
    assert is_bjkn_prime(direct_sum_module([s, s]))
    s2, s3 = simple_modules(Z6)
    assert not is_bjkn_prime(direct_sum_module([s2, s3]))


def test_bjkn_rejects_zero_module():
    # the fault is the caller's, so every entry that needs a nonzero module
    # refuses the zero module as an axiom violation, not as an engine bug
    from modlab.modules import zero_module
    zero = zero_module(Z4)
    family = [SOC]
    for decider in (bjkn_prime_detail, is_bjkn_prime, prime_module_detail,
                    is_prime_module, rpid_first_detail, is_rpid_first,
                    diuniform_detail, is_diuniform,
                    lambda m: a_first_detail(m, family),
                    lambda m: is_A_first(m, family)):
        with pytest.raises(AxiomViolation) as exc:
            decider(zero)
        assert (exc.value.axiom, exc.value.witness) == (
            "nonzero module", zero.provenance)


def test_prime_z4_negative_with_ideal_witness():
    verdict, witness = prime_module_detail(regular_module(Z4))
    assert not verdict
    assert witness["kind"] == "ideal_kills_submodule_not_module"
    assert witness["ideal"] == ["0", "2"]


def test_prime_over_simple_ring():
    from modlab.classify import generate_universe
    for m in generate_universe(M22).nonzero_modules():
        assert is_prime_module(m)


def test_prime_simple_module_over_any_ring():
    for ring in (Z4, Z6, R22):
        for s in simple_modules(ring):
            assert is_prime_module(s)


def test_rpid_first_z4_positive_bjkn_negative():
    m = regular_module(Z4)
    assert is_rpid_first(m)
    assert not is_bjkn_prime(m)


def test_rpid_first_fails_on_mixed_sum():
    s2, s3 = simple_modules(Z6)
    verdict, witness = rpid_first_detail(direct_sum_module([s2, s3]))
    assert not verdict
    assert witness["kind"] == "hom_vanishes"


def test_retractable_examples():
    # regular modules are always retractable (Hom(R, N) picks out N), and
    # so are semisimple ones (project onto a summand); the decider must
    # agree on both shapes
    assert is_retractable(regular_module(Z4))
    s2, s3 = simple_modules(Z6)
    assert is_retractable(direct_sum_module([s2, s2]))
    assert is_retractable(direct_sum_module([s2, s3]))


def test_endo_prime_condition_on_corpus():
    from modlab.classify import generate_universe
    applied = 0
    for ring in (Z2, Z4, Z6, R22, M22):
        for m in generate_universe(ring).nonzero_modules():
            # retractable with a prime endomorphism ring implies RPID-first
            end = endomorphism_ring(m, cap=64)
            if end is not None and is_retractable(m) and is_prime_ring(end):
                assert is_rpid_first(m)
                applied += 1
    assert applied >= 3


def test_endo_converse_fails_on_z4():
    m = regular_module(Z4)
    end = endomorphism_ring(m, cap=64)
    assert is_rpid_first(m)
    assert not is_prime_ring(end)


def test_a_first_vacuous_on_empty_family():
    assert is_A_first(regular_module(Z4), [])


def test_fully_first_is_p_group_condition():
    # over cyclic(6) the trace of the order-2 simple detects 2-groups
    s2, s3 = simple_modules(Z6)
    a2 = simple_trace(s2)
    assert is_A_fully_first(s2, [a2])
    assert is_A_fully_first(direct_sum_module([s2, s2]), [a2])
    assert not is_A_fully_first(regular_module(Z6), [a2])
    assert not is_A_fully_first(s3, [a2])
    # over cyclic(8) every nonzero module is a 2-group
    from modlab.classify import generate_universe
    a = simple_trace(simple_modules(Z8)[0])
    for m in generate_universe(Z8).nonzero_modules():
        assert is_A_fully_first(m, [a])


def test_no_fully_first_module_for_two_prime_traces():
    from modlab.classify import generate_universe
    s2, s3 = simple_modules(Z6)
    fam = [simple_trace(s2), simple_trace(s3)]
    for m in generate_universe(Z6).nonzero_modules():
        assert not is_A_fully_first(m, fam)


def test_a_first_two_prime_traces_iff_p_group():
    s2, s3 = simple_modules(Z6)
    fam = [simple_trace(s2), simple_trace(s3)]
    assert is_A_first(s2, fam)
    assert is_A_first(direct_sum_module([s3, s3]), fam)
    assert not is_A_first(regular_module(Z6), fam)


def test_diuniform_examples():
    assert is_diuniform(regular_module(Z4))
    s2, s3 = simple_modules(Z6)
    verdict, witness = diuniform_detail(direct_sum_module([s2, s3]))
    assert not verdict
    assert witness["kind"] == "non_essential_fully_invariant"


def test_bjkn_implies_diuniform_and_weaker_notions():
    from modlab.classify import generate_universe
    for ring in (Z2, Z4, Z6, R22, M22):
        for m in generate_universe(ring).nonzero_modules():
            if is_bjkn_prime(m):
                assert is_diuniform(m)
                assert is_rpid_first(m)
                assert is_prime_module(m)


def test_diuniform_does_not_imply_bjkn():
    m = regular_module(Z4)
    assert is_diuniform(m) and not is_bjkn_prime(m)


def test_class_membership_constants():
    m = regular_module(Z4)
    zero_cm = class_membership(m, [ZERO])
    assert zero_cm.in_pretorsion_free and zero_cm.in_first_class
    assert not zero_cm.in_fully_first
    from modlab.preradicals import ONE
    one_cm = class_membership(m, [ONE])
    assert one_cm.in_pretorsion and one_cm.in_fully_first


def test_class_membership_soc_over_z4():
    from modlab.classify import generate_universe
    for m in generate_universe(Z4).modules:
        cm = class_membership(m, [SOC])
        assert cm.in_first_class
        if not m.is_zero():
            assert cm.in_fully_first


def test_class_membership_zero_module():
    from modlab.modules import zero_module
    cm = class_membership(zero_module(Z4), [SOC])
    assert cm == ClassMembership(True, True, True, True)


def test_class_monotonicity_in_member_and_family():
    # bigger member -> bigger fully-first class; bigger family -> smaller
    from modlab.classify import generate_universe
    s2, s3 = simple_modules(Z6)
    small, big = simple_trace(s2), SOC
    uni = generate_universe(Z6)
    from modlab.preradicals import compare, LE, EQ
    assert compare(small, big, uni.modules) in (LE, EQ)
    for m in uni.nonzero_modules():
        small_cm = class_membership(m, [small])
        big_cm = class_membership(m, [big])
        if small_cm.in_fully_first:
            assert big_cm.in_fully_first
        both = class_membership(m, [small, big])
        if both.in_fully_first:
            assert small_cm.in_fully_first and big_cm.in_fully_first
        if both.in_first_class:
            pass  # family class need not compare to singleton classes upward
        assert not (small_cm.in_fully_first and big_cm.in_fully_first) \
            or both.in_fully_first


def test_class_identities_over_corpus_with_sampled_pairs():
    # over every corpus module, for a comparable sampled pair, the
    # fully-first class is monotone in the member and antitone in the
    # family
    from modlab.classify import generate_universe
    from modlab.preradicals import compare, LE, EQ
    for ring in (Z4, Z6, R22):
        uni = generate_universe(ring)
        small = simple_trace(simple_modules(ring)[0])
        big = SOC
        assert compare(small, big, uni.modules) in (LE, EQ)
        for m in uni.modules:
            cm_small = class_membership(m, [small])
            cm_big = class_membership(m, [big])
            cm_both = class_membership(m, [small, big])
            if cm_small.in_fully_first:
                assert cm_big.in_fully_first
            assert cm_both.in_fully_first <= cm_small.in_fully_first
            assert cm_both.in_first_class <= cm_small.in_first_class
            assert cm_both.in_first_class <= cm_big.in_first_class


def membership_families(ring):
    """Singletons, neighbouring pairs and the whole of a pool of
    preradicals over ``ring``: the left exact filter preradicals
    (``enumerate_lep``), Soc, Rad, 0, 1, and the job language's operators
    on them, on each two-sided ideal and on each left ideal."""
    lattice = enumerate_submodules(regular_module(ring)).submodules
    ideals = enumerate_ideals(ring, "two-sided")
    pool = list(enumerate_lep(ring)) + [
        SOC, RAD, ZERO, ONE, Join([SOC, RAD]), Meet([SOC, RAD]),
        Compose(SOC, RAD), Compose(RAD, SOC)]
    pool += [op(i) for i in ideals for op in (Trad, Alpha, Omega)]
    pool += [Beta(s) for s in lattice]
    return ([[pr] for pr in pool] + list(map(list, zip(pool, pool[1:])))
            + [pool])


def test_class_membership_matches_each_definition():
    # pretorsion and pretorsion-free as all-quantifiers over the values,
    # first and fully first as the family scans, each class the
    # intersection of its singleton classes, a member's first class the
    # union of its fully-first and kill classes, and both inclusions
    count = 0
    for ring in corpus_rings():
        families = membership_families(ring)
        for m in generate_universe(ring, depth=2).modules:
            for family in families:
                cm = class_membership(m, iter(family))  # read once
                singles = [class_membership(m, [pr]) for pr in family]
                values = [pr.evaluate(m) for pr in family]
                assert cm.in_pretorsion == all(v.is_full() for v in values)
                assert cm.in_pretorsion_free == all(v.is_zero()
                                                    for v in values)
                assert cm.in_first_class == (m.is_zero()
                                             or a_first_detail(m, family)[0])
                assert cm.in_fully_first == a_fully_first_detail(m,
                                                                 family)[0]
                assert cm == ClassMembership(*(all(flags) for flags in zip(
                    *((s.in_pretorsion, s.in_pretorsion_free,
                       s.in_first_class, s.in_fully_first)
                      for s in singles))))
                for s in singles:
                    assert s.in_first_class == (s.in_fully_first
                                                or s.in_pretorsion_free)
                assert cm.in_fully_first <= cm.in_first_class
                assert cm.in_pretorsion_free <= cm.in_first_class
                count += 1
    assert count > 2000


def test_firstness_report_contents():
    rep = firstness_report(regular_module(Z4))
    assert rep.verdicts == {"bjkn_prime": False, "prime": False,
                            "rpid_first": True, "diuniform": True}
    assert "bjkn_prime" in rep.witnesses
    d = rep.to_dict()
    assert d["order"] == 4


def test_a_first_details_with_family():
    s2 = simple_modules(Z6)[0]
    family = [simple_trace(s2)]
    assert a_first_detail(s2, family) == (True, None)
    assert a_fully_first_detail(s2, family) == (True, None)


def test_decide_caches_and_copies_witnesses():
    m = regular_module(Z4)
    deciders = (bjkn_prime_detail, prime_module_detail, rpid_first_detail,
                diuniform_detail)
    for notion, detail in zip(NOTIONS, deciders):
        assert decide(m, notion) == detail(m)
    assert set(m._cache["decided"]) == set(NOTIONS)
    verdict, witness = decide(m, "bjkn_prime")
    assert verdict is False
    witness["x"] = "changed"
    firstness_report(m).witnesses["prime"]["submodule"] = ()
    assert decide(m, "bjkn_prime") == bjkn_prime_detail(m)
    assert decide(m, "prime") == prime_module_detail(m)


def test_decide_refuses_an_unknown_notion():
    m = regular_module(cyclic_ring(4))
    with pytest.raises(ValueError, match=re.escape(
            "unknown notion 'nope'; the notions are bjkn_prime, prime, "
            "rpid_first, diuniform")):
        decide(m, "nope")
    assert "decided" not in m._cache  # refused before any work


def test_report_of_a_bjkn_prime_module_failing_a_notion_raises(monkeypatch):
    # a fresh ring, so no decision is cached; regular Z2 is BJKN-prime
    m = regular_module(cyclic_ring(2))
    monkeypatch.setattr(firstness, "prime_module_detail",
                        lambda module: (False, None))
    with pytest.raises(InternalInconsistency,
                       match="^bjkn-prime module fails prime$"):
        firstness_report(m)


def _products_full_scan(module):
    """BJKN's products route without the reduction to atoms: one product
    per ordered pair of nonzero submodules."""
    subs = enumerate_submodules(module).nonzero()
    return all(not product_in(module, left, right).is_zero()
               for left in subs for right in subs)


def test_products_route_matches_the_full_scan():
    # the products route is the cogeneration route rearranged
    mods = [m for ring in corpus_rings()
            for m in generate_universe(ring, depth=2).nonzero_modules()]
    mods += [m for _, m in deep_reference_modules("bjkn_prime")]
    verdicts = [_products_full_scan(m) for m in mods]
    assert [bjkn_prime_detail(m)[0] for m in mods] == verdicts
    assert (len(mods), verdicts.count(False)) == (40, 21)


def test_prime_disagreement_names_each_route(monkeypatch):
    monkeypatch.setattr(firstness, "_prime_via_annihilators",
                        lambda module: (False, None))
    verdicts = {"annihilators": False, "ideal_action": True}
    with pytest.raises(InternalInconsistency,
                       match=re.escape(f"disagree on {regular_module(Z2)!r}"
                                       f": {verdicts}")):
        prime_module_detail(regular_module(Z2))


def test_trace_firstness_disagreement_names_each_route(monkeypatch):
    monkeypatch.setattr(firstness, "_rpid_pairwise",
                        lambda module: (False, None))
    verdicts = {"pairwise": False, "family": True}
    with pytest.raises(InternalInconsistency,
                       match=re.escape(f"disagree on {regular_module(Z2)!r}"
                                       f": {verdicts}")):
        rpid_first_detail(regular_module(Z2))


@pytest.mark.parametrize("detail, route, verdicts", [
    (prime_module_detail, "_prime_via_ideals",
     {"annihilators": True, "ideal_action": False}),
    (rpid_first_detail, "_rpid_family", {"pairwise": True, "family": False}),
    (bjkn_prime_detail, "_cond_homogeneous_semisimple",
     {"homogeneous_semisimple": False, "atoms_cogenerate": True})])
def test_the_other_route_of_each_notion_is_compared_too(monkeypatch, detail,
                                                        route, verdicts):
    # the disagreement tests above flip one route per notion; flipping the
    # other one must raise as well, with every route's verdict named
    monkeypatch.setattr(firstness, route, lambda module: (False, None))
    with pytest.raises(InternalInconsistency,
                       match=re.escape(f"disagree on {regular_module(Z2)!r}"
                                       f": {verdicts}")):
        detail(regular_module(Z2))


def test_one_member_per_table_of_the_atoms():
    # the three lines of F2+F2 share one pair of tables; the atoms of Z6
    # have orders 2 and 3
    for module, n_atoms, count in (
            (direct_sum_module([regular_module(Z2)] * 2), 3, 1),
            (regular_module(Z6), 2, 2)):
        subs = atoms(module)
        members = firstness._one_per_table(subs)
        assert len(subs) == n_atoms
        assert len(members) == count
        assert members[0] is subs[0].as_module()
        assert len({(m.add, m.act) for m in members}) == count


def test_bjkn_disagreement_names_the_atoms_route(monkeypatch):
    monkeypatch.setattr(firstness, "_cond_atoms_cogenerate",
                        lambda module: (False, None))
    with pytest.raises(InternalInconsistency,
                       match=re.escape("'atoms_cogenerate': False")):
        bjkn_prime_detail(regular_module(Z2))


def test_bjkn_negative_without_a_witness_raises(monkeypatch):
    # every reject read as zero: the atoms route still says no
    monkeypatch.setattr(firstness, "_reject_mask", lambda module, cog: 0)
    verdicts = {"homogeneous_semisimple": False, "atoms_cogenerate": False}
    with pytest.raises(InternalInconsistency,
                       match=re.escape(f"no inseparable pair on "
                                       f"{regular_module(Z4)!r}: {verdicts}")):
        bjkn_prime_detail(regular_module(Z4))
