from itertools import combinations

import pytest

from modlab.classify import enumerate_lep, generate_universe
from modlab.cli import corpus_rings
from modlab.errors import NotFullyInvariant, RingMismatch
from modlab.firstness import diuniform_detail, rpid_first_detail
from modlab.modules import (_elements, _image, _preimage, atoms,
                            cyclic_submodules, direct_sum_module,
                            embed_submask, enumerate_submodules,
                            hom_generators, jacobson_radical, killed_mask,
                            quotient_module, regular_module, simple_modules,
                            structural_summary, submodule, sum_masks)
from modlab.preradicals import (EQ, LE, Alpha, Beta, Compose, Join,
                                LinearFilter, Meet, Omega, ONE, RAD, SOC,
                                Trad, ZERO,
                                check_naturality, compare, idempotent_core_at,
                                left_exact_at, product_hom_AB, product_in,
                                property_flags, radical_closure_at,
                                socle_as_join_of_simple_traces)
from modlab.rings import cyclic_ring, enumerate_ideals, matrix_ring

import oracles
from test_atom_routes import _count_calls
from test_modules import sweep_universes

Z2 = cyclic_ring(2)
Z4 = cyclic_ring(4)
Z6 = cyclic_ring(6)
M22 = matrix_ring(cyclic_ring(2), 2)


def z4_regular():
    return regular_module(Z4)


def z4_socle():
    return submodule(z4_regular(), 0b0101)


def z4_universe():
    m = z4_regular()
    s = z4_socle()
    return [m, s.as_module(), quotient_module(m, s),
            direct_sum_module([m, s.as_module()])]


def test_alpha_on_frozen_module_returns_the_submodule():
    a = Alpha(z4_socle())
    assert a.evaluate(z4_regular()).carrier == (0, 2)


def test_preradical_values_do_not_keep_modules_alive():
    import gc
    import weakref
    m = direct_sum_module([z4_regular(), z4_regular()])
    assert not SOC.evaluate(m).is_zero()
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


def test_alpha_requires_fully_invariant():
    v = direct_sum_module([regular_module(Z2), regular_module(Z2)])
    line = enumerate_submodules(v).submodules[1]
    with pytest.raises(NotFullyInvariant):
        Alpha(line)
    Beta(line)  # beta takes any submodule


def test_alpha_and_omega_vet_one_submodule_with_no_lattice():
    m = direct_sum_module([regular_module(cyclic_ring(8))] * 2)
    soc = structural_summary(m).socle
    assert not soc.is_zero() and not soc.is_full()
    assert Alpha(soc).evaluate(m) == soc
    assert Omega(soc).evaluate(m) == soc
    assert "lattice" not in m._cache


def test_omega_of_zero_in_simple_is_the_reject():
    smod = z4_socle().as_module()
    w = Omega(submodule(smod, smod.zero_mask()))
    assert w.evaluate(z4_regular()).carrier == (0, 2)


def test_trad_of_ideal():
    ideal = enumerate_ideals(Z4, "two-sided")[1]
    t = Trad(ideal)
    assert t.evaluate(z4_regular()).carrier == (0, 2)


def test_trad_rejects_left_only_ideal():
    # and so does a linear filter: its least member must be two-sided
    left = enumerate_ideals(M22, "left")[1]
    for operator, kind in ((Trad, "t-radicals"),
                           (LinearFilter, "linear filters")):
        with pytest.raises(NotFullyInvariant,
                           match=f"{kind} need a two-sided ideal"):
            operator(left)


def test_ring_mismatch_is_caught():
    # every node takes its ring from its parts when it is built
    a = Alpha(z4_socle())
    for expr in (a, Join([SOC, a]), Meet([a, ONE]), Compose(SOC, a),
                 Compose(a, RAD)):
        assert expr.ring() is Z4
        with pytest.raises(RingMismatch):
            expr.evaluate(regular_module(Z6))
    assert Join([SOC, RAD]).ring() is None
    six = Alpha(submodule(regular_module(Z6), 0b001001))
    with pytest.raises(RingMismatch):
        Join([a, six])


def test_soc_rad_zero_one_values():
    m = z4_regular()
    assert SOC.evaluate(m).carrier == (0, 2)
    assert RAD.evaluate(m).carrier == (0, 2)
    assert ZERO.evaluate(m).is_zero()
    assert ONE.evaluate(m).is_full()


def test_join_meet_compose():
    m = z4_regular()
    assert Join([ZERO, SOC]).evaluate(m).carrier == (0, 2)
    assert Meet([ONE, SOC]).evaluate(m).carrier == (0, 2)
    # rad o rad on Z4: rad({0,2}) = 0
    assert Compose(RAD, RAD).evaluate(m).is_zero()
    assert Compose(SOC, ONE).evaluate(m).carrier == (0, 2)


def test_product_beta_form_z4_witness():
    m = z4_regular()
    s = z4_socle()
    assert product_in(m, s, s).is_zero()
    top = submodule(m, m.full_mask())
    assert product_in(m, top, top).is_full()
    # the hom(A,B) variant disagrees here, which is why it carries no claim
    assert product_hom_AB(m, s, s).carrier == (0, 2)


def test_products_refuse_a_right_factor_of_another_module():
    # the product is a submodule of right's module: interned in Z4, the
    # product with the simple Z4-module on the right would be the
    # unclosed carrier {0,1}
    m, simple = z4_regular(), simple_modules(Z4)[0]
    other = submodule(simple, simple.full_mask())
    for product in (product_in, product_hom_AB):
        with pytest.raises(RingMismatch):
            product(m, submodule(m, m.full_mask()), other)


def test_product_nonzero_on_homogeneous():
    v = direct_sum_module([regular_module(Z2), regular_module(Z2)])
    lat = enumerate_submodules(v)
    nonzero = lat.nonzero()
    for a in nonzero:
        for b in nonzero:
            assert not product_in(v, a, b).is_zero()


def test_property_flags_examples():
    uni = z4_universe()
    soc_flags = property_flags(SOC, uni)
    assert soc_flags.idempotent and soc_flags.left_exact
    smod = z4_socle().as_module()
    w0 = Omega(submodule(smod, smod.zero_mask()))
    assert property_flags(w0, uni).radical
    t = Trad(enumerate_ideals(Z4, "two-sided")[1])
    assert property_flags(t, uni).t_radical
    # an empty family names no ring: mods[0] raised a bare IndexError
    for empty in ([], ()):
        with pytest.raises(ValueError, match="at least one module"):
            property_flags(SOC, empty)


def test_compare_bounds_and_interval():
    uni = z4_universe()
    for pr in (SOC, RAD, Alpha(z4_socle()), Omega(z4_socle())):
        assert compare(ZERO, pr, uni) in (LE, EQ)
        assert compare(pr, ONE, uni) in (LE, EQ)
    a, w = Alpha(z4_socle()), Omega(z4_socle())
    assert compare(a, w, uni) in (LE, EQ)
    assert a.evaluate(z4_regular()) == w.evaluate(z4_regular())


def test_interval_law_alpha_sigma_omega():
    # any expression with value N at M sits between alpha and omega
    uni = z4_universe()
    m = z4_regular()
    s = z4_socle()
    a, w = Alpha(s), Omega(s)
    for pr in (SOC, RAD, Trad(enumerate_ideals(Z4, "two-sided")[1])):
        if pr.evaluate(m) == s:
            assert compare(a, pr, uni) in (LE, EQ)
            assert compare(pr, w, uni) in (LE, EQ)


def test_idempotent_core_and_radical_closure():
    m = z4_regular()
    assert idempotent_core_at(RAD, m).is_zero()
    assert radical_closure_at(RAD, m).carrier == (0, 2)
    assert idempotent_core_at(SOC, m).carrier == (0, 2)  # soc idempotent
    assert idempotent_core_at(ZERO, m).is_zero()
    assert radical_closure_at(ZERO, m).is_zero()
    # one step of closure: soc is not radical on Z4, its closure is all of M
    assert radical_closure_at(SOC, m).is_full()


def test_naturality_over_universe():
    uni = z4_universe()
    exprs = [SOC, RAD, ZERO, ONE, Alpha(z4_socle()), Omega(z4_socle()),
             Beta(z4_socle()), Trad(enumerate_ideals(Z4, "two-sided")[1]),
             Join([SOC, RAD]), Meet([SOC, ONE]), Compose(SOC, RAD)]
    for pr in exprs:
        assert check_naturality(pr, uni) is None


class _FirstAtom:
    """A stand-in for a preradical: the first atom of each module, zero on
    the zero module.  Not fully invariant where two atoms are isomorphic,
    so not natural."""

    def evaluate(self, module):
        first = atoms(module)[:1]
        return first[0] if first else submodule(module, module.zero_mask())


def test_naturality_fails_exactly_where_a_searched_map_does():
    # the generators of each Hom(A, B) find a failure exactly when some
    # map of the searched Hom-set does; the witness is then a failing
    # generator, and on these universes always the first failing map in
    # map order, the witness of a scan over every map
    pr = _FirstAtom()
    failing = natural = first_differs = 0
    for ring in corpus_rings():
        mods = generate_universe(ring).modules
        fails = {(a, b): [f for f in oracles.searched_hom_set(a, b)
                          if f.image_of_mask(pr.evaluate(a).mask)
                          & ~pr.evaluate(b).mask]
                 for a in mods for b in mods}
        for a in mods:
            for b in mods:
                want = [(s, t, f) for s, t in ((a, a), (a, b), (b, a), (b, b))
                        for f in fails[s, t]]
                got = check_naturality(pr, [a, b])
                if got is None:
                    assert want == [], (a, b)
                    natural += 1
                    continue
                src, tgt, f = got
                assert (src, tgt) == want[0][:2], (a, b)
                assert f.map in {w.map for w in fails[src, tgt]}
                first_differs += f.map != want[0][2].map
                failing += 1
    assert (failing, natural, first_differs) == (255, 68, 0)


def test_hom_ab_product_sums_images_of_every_searched_map():
    pairs = 0
    for ring in corpus_rings():
        for m in generate_universe(ring).modules:
            subs = enumerate_submodules(m).submodules
            for left in subs:
                lmod = left.as_module()
                for right in subs:
                    rmod = right.as_module()
                    out = rmod.zero_mask()
                    for f in oracles.searched_hom_set(lmod, rmod):
                        out = sum_masks(rmod, out,
                                        f.image_of_mask(lmod.full_mask()))
                    assert product_hom_AB(m, left, right).mask == \
                        embed_submask(rmod, out), (m, left, right)
                    pairs += 1
    assert pairs == 5092


def test_direct_sum_preservation():
    m = z4_regular()
    s = z4_socle().as_module()
    d = direct_sum_module([m, s])
    emb_m, emb_s = d.origin[2]
    exprs = [SOC, RAD, Alpha(z4_socle()), Omega(z4_socle()),
             Trad(enumerate_ideals(Z4, "two-sided")[1])]
    for pr in exprs:
        whole = pr.evaluate(d).mask
        part_m = pr.evaluate(m).carrier
        part_s = pr.evaluate(s).carrier
        expected = 0
        for a in part_m:
            for b in part_s:
                expected |= 1 << d.add[emb_m[a]][emb_s[b]]
        assert whole == expected


def test_left_exact_pair_commutes():
    uni = z4_universe()
    s2 = SOC
    # the 2-torsion filter preradical is left exact over Z4; use soc twice
    # plus a second left exact expression built from omega on the simple
    for tau in (SOC, Meet([SOC, ONE])):
        assert property_flags(tau, uni).left_exact
        for u in uni:
            assert (Compose(s2, tau).evaluate(u)
                    == Compose(tau, s2).evaluate(u))


def _preradical_pool(ring):
    """SOC, RAD, ZERO, ONE, the filter operators, the t-radical of every
    two-sided ideal, beta of every submodule of the regular module and
    alpha and omega of its fully invariant ones, then the join, the meet
    and the composite of every pair of those."""
    lat = enumerate_submodules(regular_module(ring))
    base = [SOC, RAD, ZERO, ONE] + list(enumerate_lep(ring))
    base += [Trad(i) for i in enumerate_ideals(ring, "two-sided")]
    base += [Beta(n) for n in lat.submodules]
    base += [c(n) for n, fi in zip(lat.submodules, lat.fully_invariant)
             if fi for c in (Alpha, Omega)]
    pairs = list(combinations(base, 2))
    return (base + [Join(p) for p in pairs] + [Meet(p) for p in pairs]
            + [Compose(a, b) for a, b in pairs])


def test_left_exactness_on_cyclics_matches_every_submodule():
    checked = negatives = 0
    for ring in corpus_rings():
        mods = generate_universe(ring, depth=2).modules
        for pr in _preradical_pool(ring):
            for m in mods:
                want = oracles.left_exact_all_submodules(pr, m)
                assert left_exact_at(pr, m) == want, (pr, m)
                checked += 1
                negatives += not want
    assert (checked, negatives) == (29609, 1741)


def test_property_flags_build_no_lattice_but_the_regular_one(monkeypatch):
    calls = _count_calls(monkeypatch, "enumerate_submodules")
    for ring in (Z4, cyclic_ring(8), M22):
        uni = generate_universe(ring, depth=2)
        for pr in [SOC, RAD] + list(enumerate_lep(ring)):
            property_flags(pr, uni)
    assert calls
    assert all(m is regular_module(m.ring) for m, in calls)
    # the patch is live: a lattice of another module is counted
    enumerate_submodules(direct_sum_module([regular_module(Z4)] * 2))
    assert calls[-1][0] is not regular_module(Z4)


def test_rebuilt_expressions_share_cached_values():
    # deciders build fresh members on every call; equal members hit the
    # values cached by the first call, so the caches stop growing
    m = direct_sum_module([regular_module(cyclic_ring(8))] * 2)

    def sizes():
        return (len(m._cache["preradical_values"]),
                sum(len(a.as_module()._cache.get("preradical_values", ()))
                    for a in atoms(m)))

    seen = []
    for _ in range(3):
        diuniform_detail(m)
        rpid_first_detail(m)
        seen.append(sizes())
    assert seen == [(3, 7)] * 3
    s = z4_socle()
    assert Alpha(s) == Alpha(s) and hash(Alpha(s)) == hash(Alpha(s))
    assert Join([SOC, Alpha(s)]) == Join([SOC, Alpha(s)])
    assert Compose(SOC, RAD) != Compose(RAD, SOC)
    assert Alpha(s) != Beta(s) and Alpha(s) != Omega(s)


def test_socle_is_join_of_simple_traces():
    for ring in (Z4, Z6, M22):
        uni = [regular_module(ring)] + [s for s in simple_modules(ring)]
        uni.append(direct_sum_module([uni[0], uni[1]]))
        assert compare(socle_as_join_of_simple_traces(ring), SOC, uni) == EQ


def test_describe_round_readable():
    s = z4_socle()
    expr = Compose(SOC, Trad(enumerate_ideals(Z4, "two-sided")[1]))
    text = expr.describe()
    assert text.startswith("comp(soc,trad(")
    assert "alpha" in Alpha(s).describe()


# --- randomized expression trees --------------------------------------------

from hypothesis import given, settings, strategies as st


def _random_expr(draw, ring, depth):
    leaves = [SOC, RAD, ZERO, ONE]
    leaves += [Trad(i) for i in enumerate_ideals(ring, "two-sided")]
    m = regular_module(ring)
    lat = enumerate_submodules(m)
    for sub, fi in zip(lat.submodules, lat.fully_invariant):
        leaves.append(Beta(sub))
        if fi:
            leaves.append(Alpha(sub))
            leaves.append(Omega(sub))
    def build(d):
        if d == 0 or draw(st.integers(0, 2)) == 0:
            return draw(st.sampled_from(leaves))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return Join([build(d - 1), build(d - 1)])
        if kind == 1:
            return Meet([build(d - 1), build(d - 1)])
        return Compose(build(d - 1), build(d - 1))
    return build(depth)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_expressions_are_natural_and_split_sums(data):
    from modlab.classify import generate_universe
    ring = data.draw(st.sampled_from([Z4, Z6]))
    pr = _random_expr(data.draw, ring, depth=2)
    uni = generate_universe(ring)
    # naturality against every map between universe modules
    assert check_naturality(pr, uni.modules) is None
    # value splits over direct sums, componentwise
    for mod in uni.modules:
        if mod.origin[0] != "direct_sum":
            continue
        summands, embeddings = mod.origin[1], mod.origin[2]
        expected = 0
        parts = [[emb[i] for i in pr.evaluate(s).carrier]
                 for s, emb in zip(summands, embeddings)]
        for a in parts[0]:
            for b in parts[1]:
                expected |= 1 << mod.add[a][b]
        assert pr.evaluate(mod).mask == expected


def test_filters_images_and_preimages_match_the_loops_they_replace():
    # on every module of the depth-3 universes: s_T read off the element
    # annihilators is the membership route of the filter of T, the filter
    # of J is the socle, and the one image and preimage helpers give what
    # the loops over every index gave, on table rows, projections,
    # carriers and the generators of End(M)
    checked = 0
    for ring, universe in sweep_universes():
        filters = {pr: oracles.filter_members(pr)
                   for pr in map(LinearFilter, enumerate_ideals(ring))}
        socle_filter = LinearFilter(jacobson_radical(ring))
        for u in universe.modules:
            for pr, members in filters.items():
                value = oracles.membership_filter_mask(u, members)
                assert killed_mask(u, pr.ideal) == pr.evaluate(u).mask == value
            assert socle_filter.evaluate(u) == SOC.evaluate(u)
            for c in cyclic_submodules(u):
                els = _elements(c.mask)
                for row in (*u.act, *u.add):
                    assert _image(row, els) == oracles.loop_image(row, c.mask)
                    assert _preimage(row, c.mask) == (
                        oracles.loop_preimage(row, c.mask))
                for f in hom_generators(u, u):
                    assert f.image_of_mask(c.mask) == (
                        oracles.loop_image(f.map, c.mask))
                    assert f.preimage_of_mask(c.mask) == (
                        oracles.loop_preimage(f.map, c.mask))
                cmod = c.as_module()
                for d in cyclic_submodules(cmod):
                    assert embed_submask(cmod, d.mask) == (
                        oracles.loop_image(cmod.origin[2], d.mask))
                if u.order // c.order <= 16:
                    q = quotient_module(u, c)
                    proj = q.origin[3]
                    for d in cyclic_submodules(q):
                        assert _preimage(proj, d.mask) == (
                            oracles.loop_preimage(proj, d.mask))
                checked += 1
    assert checked == 3105
