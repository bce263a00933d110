import functools
import gc
import itertools
import random
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from modlab import rings
from modlab.classify import (THEOREM_IDS, classify_ring, generate_universe,
                             verify_theorem)
from modlab.cli import corpus_rings
from modlab.errors import AxiomViolation, SizeCapExceeded
from modlab.firstness import firstness_report
from modlab.jobs import parse_job, render_structured, run_job
from modlab.rings import (cyclic_ring, enumerate_ideals, matrix_ring,
                          product_ring, ring_from_tables, scan_abelian_group)
from modlab.modules import (ModuleMorphism, Submodule, _scan_module_axioms,
                            _scan_module_axioms_exhaustive, atoms, cogenerates,
                            cyclic_mask, cyclic_module, cyclic_submodules,
                            direct_sum_module,
                            enumerate_submodules, hom_nonzero_exists, hom_set,
                            is_atom, is_essential, is_injective,
                            is_isomorphic, is_submodule_mask, is_superfluous,
                            module_from_tables,
                            quotient_module, regular_module, simple_modules,
                            structural_summary, submodule, endomorphism_ring,
                            sum_masks, trad_mask, zero_module)

from conftest import TABLE_BUILDERS, memo_cells
from oracles import (all_function_homs, closure_trad_mask,
                     powerset_submodule_masks, searched_hom_set)
from test_hom_generators import SMALL_RINGS, small_module
from test_rings import f2_xy_square_zero, upper_triangular_f2

Z2 = cyclic_ring(2)
Z4 = cyclic_ring(4)
Z6 = cyclic_ring(6)
M22 = matrix_ring(cyclic_ring(2), 2)


def soc_sub(mod):
    return structural_summary(mod).socle


def test_image_of_mask_on_arbitrary_masks():
    rng = random.Random(5)
    for ring in (Z4, Z6, M22):
        mods = generate_universe(ring).modules
        for a in mods:
            masks = [0, a.full_mask()] + [rng.getrandbits(a.order)
                                          for _ in range(6)]
            for b in mods:
                for f in hom_set(a, b)[:8]:
                    for mask in masks:
                        image = 0
                        for x in range(a.order):
                            if mask >> x & 1:
                                image |= 1 << f.map[x]
                        assert f.image_of_mask(mask) == image


def test_regular_z4():
    m = regular_module(Z4)
    assert m.order == 4
    assert m.zero == 0


def test_submodules_of_regular_z4():
    lat = enumerate_submodules(regular_module(Z4))
    assert [s.carrier for s in lat.submodules] == [(0,), (0, 2), (0, 1, 2, 3)]
    assert lat.fully_invariant == (True, True, True)


def test_simple_module_has_two_submodules():
    s = simple_modules(Z4)[0]
    assert len(enumerate_submodules(s)) == 2


def test_f2_squared_lattice_and_fi():
    v = direct_sum_module([regular_module(Z2), regular_module(Z2)])
    lat = enumerate_submodules(v)
    assert len(lat) == 5  # 0, three lines, everything
    fi = [s.carrier for s, f in zip(lat.submodules, lat.fully_invariant) if f]
    assert fi == [(0,), (0, 1, 2, 3)]


def test_cyclic_module_of_two_in_z4():
    c = cyclic_module(regular_module(Z4), 2)
    assert c.order == 2
    assert c.origin[2] == (0, 2)


def test_direct_sum_order_and_cap():
    s = simple_modules(Z2)[0]
    d = direct_sum_module([s, s])
    assert d.order == 4
    with pytest.raises(SizeCapExceeded):
        direct_sum_module([regular_module(Z4)] * 4, cap=64)


def test_hom_s_to_s_over_z4():
    s = submodule(regular_module(Z4), 0b0101).as_module()
    maps = [f.map for f in hom_set(s, s)]
    assert maps == [(0, 0), (0, 1)]


def test_hom_to_zero_module():
    m = regular_module(Z4)
    z = quotient_module(m, enumerate_submodules(m).submodules[-1])
    assert z.order == 1
    assert [f.map for f in hom_set(m, z)] == [(0, 0, 0, 0)]


def test_hom_regular_to_socle_over_z4():
    m = regular_module(Z4)
    s = submodule(m, 0b0101).as_module()
    assert len(hom_set(m, s)) == 2


def test_hom_nonzero_exists_matches_hom_set():
    mods = [regular_module(Z6), simple_modules(Z6)[0], simple_modules(Z6)[1]]
    for a in mods:
        for b in mods:
            expected = any(not f.is_zero() for f in hom_set(a, b))
            assert hom_nonzero_exists(a, b) == expected


def test_structural_predicates_z4():
    m = regular_module(Z4)
    ss = structural_summary(m)
    assert ss.socle.carrier == (0, 2)
    assert ss.jacobson_radical.carrier == (0, 2)
    assert not ss.is_semisimple and not ss.is_simple


def test_structural_predicates_simple_and_homogeneous():
    s = simple_modules(Z4)[0]
    ss = structural_summary(s)
    assert ss.is_simple and ss.is_semisimple and ss.is_homogeneous_semisimple
    assert ss.jacobson_radical.is_zero()
    v = direct_sum_module([regular_module(Z2), regular_module(Z2)])
    assert structural_summary(v).is_homogeneous_semisimple


def test_mixed_semisimple_not_homogeneous():
    s2, s3 = simple_modules(Z6)
    m = direct_sum_module([s2, s3])
    ss = structural_summary(m)
    assert ss.is_semisimple and not ss.is_homogeneous_semisimple


def test_lattice_predicates():
    m = regular_module(Z4)
    s = submodule(m, 0b0101)
    assert is_essential(s) and is_superfluous(s) and is_atom(s)
    top = submodule(m, 0b1111)
    assert is_essential(top) and not is_superfluous(top)
    # an atom in a square-free semisimple module has a complement
    v = direct_sum_module([regular_module(Z2), regular_module(Z2)])
    atom = enumerate_submodules(v).submodules[1]
    assert is_atom(atom) and not is_essential(atom)


def test_cogeneration_examples():
    m = regular_module(Z4)
    s = submodule(m, 0b0101)
    assert not cogenerates(s, m)
    assert cogenerates(m, m)
    simple = simple_modules(Z2)[0]
    d = direct_sum_module([simple, simple])
    assert cogenerates(simple, d)


def test_injectivity_examples():
    m = regular_module(Z4)
    s = submodule(m, 0b0101).as_module()
    assert not is_injective(s)
    assert is_injective(m)
    # over a semisimple ring everything is injective
    r = regular_module(M22)
    assert is_injective(r)
    assert is_injective(simple_modules(M22)[0])


def test_simple_modules_of_rings():
    assert [s.order for s in simple_modules(Z4)] == [2]
    assert [s.order for s in simple_modules(Z6)] == [2, 3]
    assert [s.order for s in simple_modules(M22)] == [4]
    r22 = product_ring([Z2, Z2])
    ss = simple_modules(r22)
    assert [s.order for s in ss] == [2, 2]
    assert not is_isomorphic(ss[0], ss[1])


def test_isomorphism_detects_action():
    r22 = product_ring([Z2, Z2])
    s1, s2 = simple_modules(r22)
    assert is_isomorphic(s1, s1)
    assert not is_isomorphic(s1, s2)


def test_isomorphism_found_under_relabelling():
    import random
    from modlab.modules import find_isomorphism
    rng = random.Random(5)
    for base in (regular_module(Z6),
                 direct_sum_module([regular_module(Z4),
                                    simple_modules(Z4)[0]])):
        perm = list(range(base.order))
        rng.shuffle(perm)
        inv = [0] * base.order
        for i, p in enumerate(perm):
            inv[p] = i
        add = [[perm[base.add[inv[a]][inv[b]]] for b in range(base.order)]
               for a in range(base.order)]
        act = [[perm[base.act[r][inv[a]]] for a in range(base.order)]
               for r in range(base.ring.order)]
        shuffled = module_from_tables(base.ring, add, act)
        f = find_isomorphism(base, shuffled)
        assert f is not None
        f.check()
        assert f.is_injective()  # between equal orders, so bijective


def test_non_isomorphic_same_order_pair():
    z8 = cyclic_ring(8)
    a = direct_sum_module([regular_module(z8), simple_modules(z8)[0]])
    q4 = None
    for s in enumerate_submodules(regular_module(z8)).submodules:
        if s.order == 2:
            q4 = quotient_module(regular_module(z8), s)  # Z4-like
    b = direct_sum_module([q4, q4])
    assert a.order == b.order == 16
    assert not is_isomorphic(a, b)


def test_endomorphism_ring_of_regular_is_opposite_sized():
    m = regular_module(Z4)
    e = endomorphism_ring(m, cap=64)
    assert e.order == 4
    assert e.mul == tuple(zip(*e.mul))  # commutative


def test_endomorphism_ring_cap_returns_none():
    z8 = cyclic_ring(8)
    d = direct_sum_module([regular_module(z8), regular_module(z8)])
    assert endomorphism_ring(d, cap=64) is None
    # End(F2^7) = M7(F2) has 2^49 elements: the cap refuses it from the
    # order the generators give, before any map is listed
    f2_7 = direct_sum_module([regular_module(Z2)] * 7, cap=128)
    start = time.perf_counter()
    assert endomorphism_ring(f2_7, cap=64) is None
    assert time.perf_counter() - start < 1
    # End(0) is the zero ring, which FiniteRing does not model: the zero
    # module is refused by name, with or without a cap
    zero = zero_module(z8)
    for cap in (None, 64):
        with pytest.raises(AxiomViolation) as exc:
            endomorphism_ring(zero, cap=cap)
        assert (exc.value.axiom, exc.value.witness) == (
            "nonzero module", zero.provenance)


def _searched_endomorphism_tables(module):
    """(add, mul) of End(M) built from ``searched_hom_set``, or None past
    64 maps."""
    endos = searched_hom_set(module, module)
    if len(endos) > 64:
        return None
    index = {f.map: i for i, f in enumerate(endos)}
    els = range(module.order)
    add = tuple(tuple(index[tuple(module.add[f.map[x]][g.map[x]]
                                  for x in els)] for g in endos)
                for f in endos)
    mul = tuple(tuple(index[tuple(f.map[g.map[x]] for x in els)]
                      for g in endos) for f in endos)
    return add, mul


def test_endomorphism_rings_match_the_searched_hom_sets():
    built = refused = 0
    for ring in corpus_rings():
        for m in generate_universe(ring).nonzero_modules():
            end = endomorphism_ring(m, cap=64)
            want = _searched_endomorphism_tables(m)
            if end is None:
                assert want is None, m
                refused += 1
            else:
                assert (end.add, end.mul) == want, m
                built += 1
    assert (built, refused) == (26, 9)


def test_ideal_products_match_the_additive_closure():
    # I.N as a sum of the subgroups iN equals the closure of the products
    # iu under addition, for every two-sided ideal and N the whole module
    # (read whole or as its full mask), each cyclic submodule and each atom
    rings = corpus_rings() + [upper_triangular_f2(), f2_xy_square_zero()]
    checked = proper = 0
    for ring in rings:
        ideals = enumerate_ideals(ring, "two-sided")
        for m in generate_universe(ring, depth=3).nonzero_modules():
            masks = [None, m.full_mask()]
            masks += [n.mask for n in cyclic_submodules(m)]
            masks += [a.mask for a in atoms(m)]
            for ideal in ideals:
                for mask in masks:
                    got = trad_mask(m, ideal, mask)
                    assert got == closure_trad_mask(m, ideal, mask), (
                        m, ideal, mask)
                    checked += 1
                    proper += got not in (m.zero_mask(),
                                          m.full_mask() if mask is None
                                          else mask)
    assert (checked, proper) == (23401, 4844)


def test_quotient_module_tables():
    m = regular_module(Z4)
    q = quotient_module(m, submodule(m, 0b0101))
    assert q.order == 2
    assert q.origin[3] == (0, 1, 0, 1)


def test_cyclic_module_of_regular():
    assert cyclic_module(regular_module(Z4), 2).order == 2


def test_morphism_validation_rejects_nonlinear():
    # every map from outside is checked; its entries are read as ints, as
    # table entries are, so 0.0 is 0 and "0" or None is refused where it
    # would raise a bare TypeError
    m = regular_module(Z4)
    with pytest.raises(AxiomViolation) as exc:
        ModuleMorphism(m, m, (0, 2, 1, 3))
    assert exc.value.axiom == "additivity"
    identity = ModuleMorphism(m, m, [0.0, 1, 2, 3])
    assert identity.map == (0, 1, 2, 3) and type(identity.map[0]) is int
    for bad in ("0", None):
        with pytest.raises(AxiomViolation) as exc:
            ModuleMorphism(m, m, [bad, 1, 2, 3])
        assert (exc.value.axiom, exc.value.witness) == ("table shape", "map")


def test_labels_name_each_element_once():
    reg = regular_module(Z4)
    builds = [lambda labels: ring_from_tables(Z4.add, Z4.mul, labels=labels),
              lambda labels: module_from_tables(Z4, reg.add, reg.act,
                                                labels=labels)]
    for build in builds:
        assert build("abcd").labels == ("a", "b", "c", "d")
        for labels in (("a", "b"), "abcde", ()):
            with pytest.raises(AxiomViolation) as exc:
                build(labels)
            assert exc.value.axiom == "one label per element"
            assert exc.value.witness == (len(labels), 4)


# --- fully-invariant transitivity ------------------------------------------

@pytest.mark.parametrize("module_fn", [
    lambda: regular_module(Z4),
    lambda: regular_module(Z6),
    lambda: direct_sum_module([regular_module(Z4), simple_modules(Z4)[0]]),
    lambda: regular_module(product_ring([Z2, Z2])),
])
def test_fully_invariant_transitivity(module_fn):
    m = module_fn()
    lat = enumerate_submodules(m)
    for k, kfi in zip(lat.submodules, lat.fully_invariant):
        if not kfi:
            continue
        kmod = k.as_module()
        klat = enumerate_submodules(kmod)
        carrier = kmod.origin[2]
        for l, lfi in zip(klat.submodules, klat.fully_invariant):
            if not lfi:
                continue
            mask_in_m = 0
            for i in l.carrier:
                mask_in_m |= 1 << carrier[i]
            idx = lat.index.get(mask_in_m)
            assert idx is not None
            assert lat.fully_invariant[idx]


@pytest.mark.parametrize("module_fn", [
    lambda: regular_module(Z4),
    lambda: regular_module(Z6),
    lambda: regular_module(M22),
    lambda: direct_sum_module([regular_module(Z4), simple_modules(Z4)[0]]),
    lambda: direct_sum_module([regular_module(Z2), regular_module(Z2)]),
])
def test_fully_invariant_subset_is_a_sublattice(module_fn):
    # the fully invariant submodules are closed under join and meet
    m = module_fn()
    lat = enumerate_submodules(m)
    fi_masks = {s.mask for s, f in zip(lat.submodules, lat.fully_invariant)
                if f}
    from modlab.modules import sum_masks
    for a in fi_masks:
        for b in fi_masks:
            assert sum_masks(m, a, b) in fi_masks
            assert a & b in fi_masks


@pytest.mark.parametrize("module_fn", [
    lambda: regular_module(Z4),
    lambda: regular_module(Z6),
    lambda: regular_module(M22),
    lambda: direct_sum_module([regular_module(Z4), simple_modules(Z4)[0]]),
])
def test_socle_and_radical_fully_invariant(module_fn):
    m = module_fn()
    lat = enumerate_submodules(m)
    ss = structural_summary(m)
    assert lat.fully_invariant[lat.index[ss.socle.mask]]
    assert lat.fully_invariant[lat.index[ss.jacobson_radical.mask]]


# --- oracle equivalences -----------------------------------------------------

@pytest.mark.parametrize("module_fn", [
    lambda: regular_module(Z4),
    lambda: regular_module(Z6),
    lambda: direct_sum_module([regular_module(Z4), simple_modules(Z4)[0]]),
    lambda: direct_sum_module([regular_module(Z2), regular_module(Z2)]),
    lambda: regular_module(M22),
])
def test_submodule_enumeration_matches_powerset(module_fn):
    m = module_fn()
    assert m.order <= 16
    got = sorted(s.mask for s in enumerate_submodules(m).submodules)
    assert got == powerset_submodule_masks(m)


def _small_pairs():
    s2 = simple_modules(Z6)[0]
    s3 = simple_modules(Z6)[1]
    z4 = regular_module(Z4)
    s = simple_modules(Z4)[0]
    return [(regular_module(Z6), s2), (regular_module(Z6), s3), (s3, s2),
            (z4, s), (s, z4), (z4, z4)]


@pytest.mark.parametrize("idx", range(6))
def test_hom_set_matches_all_functions_oracle(idx):
    a, b = _small_pairs()[idx]
    assert a.order <= 6 and b.order <= 4 or (a.order, b.order) == (4, 4)
    fast = [f.map for f in hom_set(a, b)]
    slow = [f.map for f in all_function_homs(a, b)]
    assert fast == slow


def test_find_isomorphism_matches_all_functions_oracle():
    from modlab.modules import find_isomorphism
    r22 = product_ring([Z2, Z2])
    s1, s2 = simple_modules(r22)
    z4s = simple_modules(Z4)[0]
    mods = [regular_module(Z4), direct_sum_module([z4s, z4s]),
            regular_module(r22), direct_sum_module([s1, s2]),
            direct_sum_module([s1, s1]), regular_module(Z6),
            simple_modules(M22)[0], cyclic_module(regular_module(M22), 1)]
    for a in mods:
        for b in mods:
            if a.ring is not b.ring or a.order != b.order:
                continue
            bijections = {f.map for f in all_function_homs(a, b)
                          if f.is_injective()}
            found = find_isomorphism(a, b)
            assert (found is not None) == bool(bijections)
            if found is not None:
                assert found.map in bijections


def test_every_enumerated_hom_passes_the_full_scan():
    # the relation-filtered construction must agree with the exhaustive
    # additivity/linearity verifier on every map it emits
    mods = [regular_module(Z6), regular_module(Z4),
            direct_sum_module([regular_module(Z4), simple_modules(Z4)[0]]),
            regular_module(M22), simple_modules(M22)[0]]
    for a in mods:
        for b in mods:
            if a.ring is not b.ring:
                continue
            for f in hom_set(a, b):
                f.check()


@pytest.mark.parametrize("module_fn,cog_fn", [
    (lambda: regular_module(Z4), lambda m: submodule(m, 0b0101)),
    (lambda: regular_module(Z4), lambda m: submodule(m, 0b1111)),
    (lambda: regular_module(Z6), lambda m: enumerate_submodules(m).submodules[1]),
])
def test_cogeneration_embedding_witness_is_injective(module_fn, cog_fn):
    # the product of every enumerated map into cog is injective exactly
    # when cog cogenerates the module
    m = module_fn()
    cog = cog_fn(m).as_module()
    homs = searched_hom_set(m, cog)
    injective = all(any(f.map[x] != f.map[y] for f in homs)
                    for x in range(m.order) for y in range(x))
    assert cogenerates(cog, m) == injective


# --- hypothesis: corrupted module tables are rejected ------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_module_table_corruption_rejected(data):
    base = regular_module(Z4)
    which = data.draw(st.sampled_from(["add", "act"]))
    table = [list(row) for row in getattr(base, which)]
    i = data.draw(st.integers(0, len(table) - 1))
    j = data.draw(st.integers(0, base.order - 1))
    old = table[i][j]
    new = data.draw(st.integers(0, base.order - 1).filter(lambda v: v != old))
    table[i][j] = new
    add = table if which == "add" else base.add
    act = table if which == "act" else base.act
    with pytest.raises(AxiomViolation):
        module_from_tables(Z4, add, act)


@functools.cache
def cross_check_modules():
    """Every nonzero module of the depth-2 universes of Z4, Z6, F2xF2 and
    M2(F2)."""
    return [m for ring in (Z4, Z6, product_ring([Z2, Z2]), M22)
            for m in generate_universe(ring, depth=2).nonzero_modules()]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_module_certificate_agrees_with_exhaustive_scan(corrupt, scan_outcome,
                                                        count_certificates,
                                                        data):
    # the reduced scan must reject exactly the tables the full scan
    # rejects, and report the same axiom, witness and message
    base = data.draw(st.sampled_from(cross_check_modules()))
    ring, n = base.ring, base.order
    add, act = base.add, base.act
    if data.draw(st.booleans()):
        add = corrupt(data, add, n, square=True)
    else:
        act = corrupt(data, act, n, square=False)
    with pytest.MonkeyPatch.context() as mp:
        # the memo of accepted tables is not consulted here, so a swap of
        # two equal rows, which leaves the base's tables, is certified too
        calls = count_certificates(mp)
        reduced = scan_outcome(_scan_module_axioms, ring, n, add, act)
    assert len(calls["module"]) == 1
    assert reduced == scan_outcome(_scan_module_axioms_exhaustive,
                                   ring, n, add, act)


def z4_tables(entry=int):
    """The tables of Z4 as a ring, and as its regular module, with
    ``entry`` applied to every entry."""
    add = [[entry((a + b) % 4) for b in range(4)] for a in range(4)]
    mul = [[entry(a * b % 4) for b in range(4)] for a in range(4)]
    return add, mul


def ints_only(x):
    """Whether ``x`` is an int or a tuple, of tuples, ..., of ints."""
    return type(x) is int or (type(x) is tuple and all(map(ints_only, x)))


def test_equal_tables_are_certified_once_per_process(empty_memo,
                                                     count_certificates,
                                                     monkeypatch):
    calls = count_certificates(monkeypatch)
    # float tables built first on an empty memo are accepted, and stored
    # as ints
    ring = ring_from_tables(*z4_tables(float))
    floats = module_from_tables(ring, *z4_tables(float))
    assert (len(calls["ring"]), len(calls["module"])) == (1, 1)
    assert all(map(ints_only, empty_memo))
    assert all(map(ints_only, empty_memo.values()))
    assert type(ring.mul[1][1]) is int and type(floats.act[1][1]) is int
    # the same tables again: as ints, as lists, as a sum of one summand,
    # and over a twin ring object; each ring and module takes the accepted
    # tables themselves, and none is certified again
    reg = regular_module(cyclic_ring(4))
    twin = ring_from_tables(ring.add, ring.mul)
    again = module_from_tables(twin, [list(r) for r in reg.add], reg.act)
    alone = direct_sum_module([reg])
    assert (len(calls["ring"]), len(calls["module"])) == (1, 1)
    for r in (reg.ring, twin):
        assert r.add is ring.add and r.mul is ring.mul
    for m in (reg, again, alone):
        assert (m.add, m.act, m.zero, m.neg) == (floats.add, floats.act,
                                                 floats.zero, floats.neg)
        assert m.add is floats.add and m.act is floats.act
    # one serial per table entry, shared by every ring and module on its
    # tables; a module's key holds its ring's serial
    ring_key = (ring.add, ring.mul)
    module_key = (ring.serial, reg.add, reg.act)
    assert (ring.serial == reg.ring.serial == twin.serial
            == empty_memo[ring_key][-1])
    assert (floats.serial == reg.serial == again.serial == alone.serial
            == empty_memo[module_key][-1] != ring.serial)
    # the constructions cyclic(4) and the one-summand sum are remembered
    # by their operands' serials, each holding the very table entry it
    # produced and nothing else
    sum_key = (rings.DIRECT_SUM, reg.serial)
    assert list(empty_memo) == [ring_key, module_key,
                                (rings.CYCLIC_RING, 4), sum_key]
    assert empty_memo[rings.CYCLIC_RING, 4] is empty_memo[ring_key]
    assert empty_memo[sum_key] is empty_memo[module_key]
    # an entry that is not an integer is refused on every build, ring or
    # module, with nothing certified or stored
    for bad in (2.5, "3", None, [1]):
        add, mul = z4_tables()
        add[1][1] = mul[1][1] = bad
        for _ in range(2):
            with pytest.raises(AxiomViolation) as exc:
                ring_from_tables(add, ring.mul)
            assert (exc.value.axiom, exc.value.witness) == ("table shape",
                                                            "addition")
            with pytest.raises(AxiomViolation) as exc:
                module_from_tables(ring, reg.add, mul)
            assert (exc.value.axiom, exc.value.witness) == ("table shape",
                                                            "act")
    assert (len(calls["ring"]), len(calls["module"])) == (1, 1)
    assert len(empty_memo) == 4


def test_rejected_table_raises_on_every_build(empty_memo, count_certificates,
                                              monkeypatch):
    ring = cyclic_ring(4)
    reg = regular_module(ring)
    # 3.1 = 1 instead of 3: scalar distributivity fails first
    act = [list(row) for row in reg.act]
    act[3][1] = 1
    calls = count_certificates(monkeypatch)["module"]
    raised = []
    for _ in range(3):
        with pytest.raises(AxiomViolation) as exc:
            module_from_tables(ring, reg.add, act)
        raised.append((exc.value.axiom, exc.value.witness, str(exc.value)))
    assert len(calls) == 3
    assert raised == [raised[0]] * 3
    assert raised[0][0] == "scalar distributivity"
    assert list(empty_memo) == [(ring.add, ring.mul), (rings.CYCLIC_RING, 4),
                                (ring.serial, reg.add, reg.act)]


def relabelled(module, perm):
    """The tables of ``module`` with element x renamed ``perm[x]``."""
    n = module.order
    add = [[None] * n for _ in range(n)]
    act = [[None] * n for _ in range(module.ring.order)]
    for a in range(n):
        for b in range(n):
            add[perm[a]][perm[b]] = perm[module.add[a][b]]
        for r, row in enumerate(module.act):
            act[r][perm[a]] = perm[row[a]]
    return add, act


def test_memo_is_bounded_by_table_cells(empty_memo, count_certificates,
                                        monkeypatch):
    ring = cyclic_ring(4)
    reg = regular_module(ring)
    tables = list(dict.fromkeys(
        tuple(tuple(map(tuple, t)) for t in relabelled(reg, perm))
        for perm in itertools.permutations(range(4))))
    # Z4's ring entry holds its two tables (32 cells), 8 other ints (zero,
    # one, negation, generators, serial) and a key (1 cell); the
    # construction cyclic(4) and the regular module's entry hold the same
    # two tables, counted once, and 9 and 7 cells of their own: 57 cells.
    # Each relabelling of the regular module is 32 cells of tables and 7
    # of its own
    monkeypatch.setattr(rings, "MAX_ACCEPTED_CELLS", 100)
    calls = count_certificates(monkeypatch)["module"]
    keys = [(ring.add, ring.mul), (rings.CYCLIC_RING, 4),
            (ring.serial, reg.add, reg.act)]
    assert list(empty_memo) == keys
    assert memo_cells(empty_memo) == rings._accepted.cells == 57
    first = {}

    def accept(add, act, cells):
        m = module_from_tables(ring, add, act)
        first.setdefault((add, act), (m.zero, m.neg))
        assert (m.zero, m.neg) == first[add, act]
        keys.append((ring.serial, m.add, m.act))
        assert list(empty_memo) == keys
        assert memo_cells(empty_memo) == rings._accepted.cells == cells

    accept(*tables[1], 96)
    # a hit on the oldest module neither certifies nor reorders
    module_from_tables(ring, reg.add, reg.act)
    assert list(empty_memo) == keys
    # the next one evicts the three Z4 entries: the ring entry and the
    # construction free only their own ints while the regular module
    # holds the tables, and the regular module frees the tables too
    del keys[:3]
    accept(*tables[2], 78)
    del keys[0]
    accept(*tables[3], 78)
    assert len(calls) == 3
    assert len(empty_memo.holders) == 4
    # an evicted pair is certified again, with the same zero and negation
    del keys[0]
    accept(*tables[1], 78)
    assert len(calls) == 4
    # an entry larger than the whole bound is not stored, and evicts
    # nothing; the direct sum is a module by construction and is not
    # certified, its raw rebuild is
    before = list(empty_memo)
    big = direct_sum_module([reg, reg])
    assert len(calls) == 4
    module_from_tables(ring, big.add, big.act)
    assert len(calls) == 5
    assert list(empty_memo) == before


def test_a_dropped_job_leaves_nothing_alive(empty_memo):
    # the memo of accepted tables holds only tuples of ints, so a job's
    # ring and modules die with the job
    spec = parse_job("[ring]\ncyclic(4)\n[modules]\nM = regular\n"
                     "Q = quotient(M, S1)\nD = direct_sum(M, Q)\n"
                     "[checks]\nbjkn_prime D\nclassify\n")
    report = run_job(spec)
    ring, d = spec.ring, spec.modules["D"]
    assert (ring.serial, d.add, d.act) in empty_memo
    assert all(map(ints_only, empty_memo))
    assert all(map(ints_only, empty_memo.values()))
    ring, module = weakref.ref(ring), weakref.ref(d)
    del spec, report, d
    gc.collect()
    assert ring() is None
    assert module() is None


# --- derived modules: the construction is the certificate --------------------

def assert_scan_agrees(module):
    """The exhaustive scan finds the zero and negation ``module`` carries."""
    scanned = _scan_module_axioms_exhaustive(module.ring, module.order,
                                             module.add, module.act)
    assert scanned == (module.zero, module.neg), module


def sweep_universes():
    """(ring, its depth-3 universe) for fresh copies of the corpus rings,
    T2(F2) and F2[x,y]/(x,y)^2."""
    for ring in corpus_rings() + [upper_triangular_f2(), f2_xy_square_zero()]:
        yield ring, generate_universe(ring, depth=3)


def derived_sweep():
    """The modules of ``sweep_universes``, their distinct nonzero cyclic
    submodules (the atoms among them) as modules, and their quotients of
    order at most 16 by those, each module before anything derived from
    it."""
    for _, universe in sweep_universes():
        for m in universe.modules:
            yield m
            for s in cyclic_submodules(m):
                yield s.as_module()
                if m.order // s.order <= 16:
                    yield quotient_module(m, s)


def test_derived_modules_pass_the_exhaustive_scan(empty_memo):
    # each construction stores the zero and negation it proves, unscanned;
    # on an empty memo no scanned raw table stands in for them.  The scan
    # reads only the ring's tables and the module's, so it runs once per
    # distinct tables
    seen = set()
    for m in derived_sweep():
        key = (m.ring.add, m.ring.mul, m.add, m.act, m.zero, m.neg)
        if key not in seen:
            seen.add(key)
            assert_scan_agrees(m)
    assert len(seen) > 300


def carried(module):
    """What a module carries that is not an object of its run: tables,
    zero, negation, labels, provenance, and its origin's kind and ints (a
    submodule's carrier, a quotient's kernel and projection, a direct
    sum's embeddings)."""
    origin = module.origin
    if origin[0] == "quotient":
        ints = origin[2].mask, origin[3]
    elif origin[0] in ("sub", "direct_sum"):
        ints = origin[2]
    else:
        ints = None
    return (module.add, module.act, module.zero, module.neg, module.labels,
            module.provenance, origin[0], ints)


def test_derived_modules_are_the_same_cold_and_warm(empty_memo,
                                                    count_builds,
                                                    monkeypatch):
    # the sweep on an empty memo, then again on fresh rings over the memo
    # it left, under the default bound, which holds every entry of the
    # sweep (many constructions return one table, and the memo counts
    # each distinct table once: the sweep's 6,381 entries count 0.54
    # million cells): every warm module is a remembered construction, and
    # carries the same as its cold build
    cold = list(map(carried, derived_sweep()))
    assert rings._accepted.cells < rings.MAX_ACCEPTED_CELLS
    builds = count_builds(monkeypatch)
    warm = list(map(carried, derived_sweep()))
    assert len(warm) == len(cold) > 5000
    assert warm == cold
    assert builds == []


def test_a_repeated_job_builds_no_table(empty_memo, count_builds,
                                        monkeypatch):
    # every derived ring and module of a second run of a document is a
    # remembered construction: no table is built again
    docs = [
        "[ring]\nmatrix(cyclic(2),2)\n[modules]\nM = regular\n"
        "S = sub(M, S1)\nQ = quotient(M, S1)\nD = direct_sum(S, Q)\n"
        "[checks]\nbjkn_prime D\nrpid_first D\nclassify\n",
        "[ring]\nproduct(cyclic(2),cyclic(3))\n[modules]\nM = regular\n"
        "C = cyclic(M, 3)\nQ = quotient(M, S1)\nD = direct_sum(M, C, Q)\n"
        "[checks]\nprime D\ndiuniform D\nclassify\nlep\n",
        "[ring]\nquotient(cyclic(8),I1)\n[modules]\nM = regular\n"
        "D = direct_sum(M, M)\n[checks]\nbjkn_prime D\nverify T15\n",
    ]

    def run_all():
        return [render_structured(run_job(parse_job(doc))) for doc in docs]

    builds = count_builds(monkeypatch)
    first = run_all()
    assert set(builds) == {name for _, name in TABLE_BUILDERS}
    builds.clear()
    assert run_all() == first
    assert builds == []


def test_an_evicted_derivation_is_built_again(empty_memo, count_builds,
                                              monkeypatch):
    # the submodule 2Z8's tables are 48 cells (16 of add, 32 of act) and
    # 4Z8's are 20, counted once however many entries hold them, and each
    # entry adds its own cells (7 and 5: zero, negation, serial and its
    # key).  Under a bound of 80 cells Z8's own entries (its 128 cells of
    # tables and more) are not stored, and remembering 4Z8 evicts 2Z8's
    # table entry and then its construction, so 2Z8 is then built again,
    # with the tables of its first build.  Fresh handles stand for later
    # documents on the same tables, each from a module cache without its
    # earlier handles
    monkeypatch.setattr(rings, "MAX_ACCEPTED_CELLS", 80)
    reg = regular_module(cyclic_ring(8))
    wide, narrow = 0b01010101, 0b00010001
    builds = count_builds(monkeypatch)
    steps, first = [], {}
    for mask in (wide, wide, narrow, wide):
        key = (rings.SUBMODULE, reg.serial, mask)
        stored, before = key in empty_memo, len(builds)
        reg._cache.pop("subs", None)
        sub = submodule(reg, mask).as_module()
        steps.append((mask, stored, len(builds) - before))
        assert carried(sub) == first.setdefault(mask, carried(sub))
        assert_scan_agrees(sub)
        assert key in empty_memo
        assert memo_cells(empty_memo) == rings._accepted.cells <= 80
    assert steps == [(wide, False, 1), (wide, True, 0), (narrow, False, 1),
                     (wide, False, 1)]


def test_a_construction_outlives_its_operand_entries(empty_memo,
                                                     monkeypatch):
    # Z8's ring entry holds its two tables (128 cells) and 13 cells of its
    # own (12 ints and its key); the construction cyclic(8) and the
    # regular module's entry hold the same tables, counted once, and 13
    # and 11 cells of their own: 165 cells under a bound of 210.  The
    # submodule 2Z8's entries (48 cells of tables, 7 and 7 of their own)
    # evict the ring entry and the construction, which free only their own
    # cells, and 4Z8's (20 cells of tables, 5 and 5) evict the regular
    # module's, which frees Z8's tables.  A serial still names the tables
    # it was given, so constructions on the older module object read and
    # store the right tables, and hold none of the module's
    monkeypatch.setattr(rings, "MAX_ACCEPTED_CELLS", 210)
    reg = regular_module(cyclic_ring(8))
    assert list(empty_memo) == [(reg.add, reg.act), (rings.CYCLIC_RING, 8),
                                (reg.ring.serial, reg.add, reg.act)]
    assert rings._accepted.cells == 165
    serials = {reg.ring.serial, reg.serial}
    wide, narrow = 0b01010101, 0b00010001
    subs = {}
    for mask in (wide, narrow):
        sub = subs[mask] = submodule(reg, mask).as_module()
        serials.add(sub.serial)
        n = sub.order
        assert (sub.add, sub.act, sub.zero, sub.neg) == (
            tuple(tuple((a + b) % n for b in range(n)) for a in range(n)),
            tuple(tuple(r * a % n for a in range(n)) for r in range(8)),
            0, tuple(-a % n for a in range(n)))
        # the construction entry is its result's table entry itself
        entry = empty_memo[rings.SUBMODULE, reg.serial, mask]
        assert entry == (sub.add, sub.act, sub.zero, sub.neg, sub.serial)
        assert entry is empty_memo[reg.ring.serial, sub.add, sub.act]
    assert list(empty_memo) == [
        key for mask, sub in subs.items()
        for key in ((reg.ring.serial, sub.add, sub.act),
                    (rings.SUBMODULE, reg.serial, mask))]
    assert rings._accepted.cells == 92
    # Z8/4Z8 has 2Z8's tables, and takes their entry and serial; its
    # construction adds only the projection and the coset representatives
    q = quotient_module(reg, submodule(reg, narrow))
    assert q.serial == subs[wide].serial and q.origin[3:] == (
        (0, 1, 2, 3, 0, 1, 2, 3), (0, 1, 2, 3))
    assert empty_memo[rings.QUOTIENT_MODULE, reg.serial, narrow] == (
        q.add, q.act, q.zero, q.neg, q.serial, *q.origin[3:])
    assert not any(t is reg.add or t is reg.act
                   for entry in empty_memo.values() for t in entry)
    assert memo_cells(empty_memo) == rings._accepted.cells <= 210
    # the same tables accepted again take a serial no earlier entry had
    again = regular_module(cyclic_ring(8))
    assert (again.add, again.act) == (reg.add, reg.act)
    assert min(again.serial, again.ring.serial) > max(serials)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_drawn_modules_pass_the_exhaustive_scan(empty_memo_under, data):
    # sums of cyclic quotients, and their quotients by any submodule
    with pytest.MonkeyPatch.context() as mp:
        empty_memo_under(mp)
        m = data.draw(small_module(data.draw(st.sampled_from(SMALL_RINGS))))
        assert_scan_agrees(m)
        for s in cyclic_submodules(m):
            assert_scan_agrees(s.as_module())


# --- submodule handles: closed by construction ------------------------------

def record_handles(mp):
    """The list every ``Submodule`` handle made from now on goes into."""
    made = []
    init = Submodule.__init__

    def record(self, *args):
        init(self, *args)
        made.append(self)

    mp.setattr(Submodule, "__init__", record)
    return made


def assert_handles_closed(handles):
    """Each handle lies within its module, is closed, and is the one its
    module interned for its mask."""
    for s in handles:
        m = s.module
        assert 0 < s.mask <= m.full_mask(), s
        assert is_submodule_mask(m, s.mask), s
        assert m._cache["subs"][s.mask] is s


def test_every_engine_submodule_is_closed(monkeypatch):
    # the engine interns the masks it computes unchecked, so each must be
    # closed by its construction: run every decider, the classification
    # and every theorem on fresh rings of the derived sweep.  The handles
    # are checked also when the run fails, as an unclosed one is the
    # likelier cause than whatever it broke downstream
    handles = record_handles(monkeypatch)
    try:
        for ring, universe in sweep_universes():
            for m in universe.nonzero_modules():
                firstness_report(m)
            classify_ring(ring)
            for theorem in THEOREM_IDS:
                verify_theorem(theorem, ring, universe)
    finally:
        assert_handles_closed(handles)
    assert len(handles) > 5000


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_drawn_modules_intern_closed_submodules(data):
    with pytest.MonkeyPatch.context() as mp:
        handles = record_handles(mp)
        try:
            m = data.draw(small_module(data.draw(
                st.sampled_from(SMALL_RINGS))))
            if not m.is_zero():
                firstness_report(m)
        finally:
            assert_handles_closed(handles)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_handle_reads_its_carrier_and_order_off_its_mask(data):
    # a submodule is its mask: the carrier is the increasing tuple of its
    # set bits and the order their number, read on each use
    m = data.draw(small_module(data.draw(st.sampled_from(SMALL_RINGS))))
    mask = m.zero_mask()
    for x in data.draw(st.lists(st.integers(0, m.order - 1), max_size=4)):
        mask = sum_masks(m, mask, cyclic_mask(m, x))
    s = submodule(m, mask)
    assert s.carrier == tuple(i for i in range(m.order) if mask >> i & 1)
    assert s.order == len(s.carrier)
    assert s.labels() == tuple(m.labels[i] for i in s.carrier)


def test_only_raw_tables_are_certified(empty_memo, count_certificates,
                                       monkeypatch):
    calls = count_certificates(monkeypatch)["module"]
    for ring in corpus_rings():
        for m in generate_universe(ring, depth=3).nonzero_modules():
            firstness_report(m)
    assert calls == []
    # Z4 renumbered so that its zero is 1: tables no construction stored
    reg = regular_module(cyclic_ring(4))
    m = module_from_tables(reg.ring, *relabelled(reg, (1, 0, 2, 3)))
    assert (len(calls), m.zero) == (1, 1)


def test_module_distributivity_alone_is_rejected():
    # F3^3 over F3xF3: (1,0) projects onto the line L through (0,0,1)
    # along K, the lines through (0,1,0), (1,0,0), (1,1,0) and (1,2,1);
    # K meets every coset of L once but is no plane, so the projection is
    # not additive.  (0,1) acts as one minus the projection.  Every other
    # axiom holds, and r(a+b) = ra+rb holds only for b in L.
    ring = product_ring([cyclic_ring(3), cyclic_ring(3)])
    els = list(itertools.product(range(3), repeat=3))
    index = {e: i for i, e in enumerate(els)}

    def comb(c, x, d, y):
        return tuple((c * u + d * v) % 3 for u, v in zip(x, y))

    line = [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
    transversal = {comb(c, v, 0, v) for c in range(3)
                   for v in ((0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 2, 1))}
    proj = {m: next(p for p in line if comb(1, m, 2, p) in transversal)
            for m in els}
    add = [[index[comb(1, x, 1, y)] for y in els] for x in els]
    act = [[index[comb(a, proj[m], b, comb(1, m, 2, proj[m]))] for m in els]
           for a, b in itertools.product(range(3), repeat=2)]
    with pytest.raises(AxiomViolation) as exc:
        module_from_tables(ring, add, act)
    assert exc.value.axiom == "module distributivity"


@pytest.mark.parametrize("axis", [0, 1])
def test_module_distributivity_is_checked_at_every_generator(axis):
    # F3^2 over F3xF3: (1,0) sends m to 2 on the coordinate ``axis`` when
    # m is 2 there and to 0 otherwise, and (0,1) acts as one minus that.
    # r(a+b) = ra+rb for all r, a holds exactly for b on the other axis,
    # which holds one of the two greedy generators of M, so a check that
    # skipped the one on ``axis`` would accept.  M has exponent 3, where
    # that subgroup and its cosets g and 2g do not force distributivity
    # at g, as a subgroup and one coset would in exponent 2; and the ring
    # is not additively cyclic, so scalar distributivity does not force
    # the action.  Associativity, checked at the ring's generators only,
    # is complete only given module distributivity, and fails first.
    ring = product_ring([cyclic_ring(3), cyclic_ring(3)])
    els = list(itertools.product(range(3), repeat=2))
    index = {e: i for i, e in enumerate(els)}

    def comb(c, x, d, y):
        return tuple((c * u + d * v) % 3 for u, v in zip(x, y))

    proj = {m: tuple(2 * (i == axis and m[axis] == 2) for i in range(2))
            for m in els}
    add = [[index[comb(1, x, 1, y)] for y in els] for x in els]
    act = [[index[comb(a, proj[m], b, comb(1, m, 2, proj[m]))] for m in els]
           for a, b in els]
    gens = scan_abelian_group(9, tuple(map(tuple, add)))[2]
    failing = [g for g in gens
               if any(row[add[a][g]] != add[row[a]][row[g]]
                      for row in act for a in range(9))]
    assert len(gens) == 2 and [els[g][axis] for g in failing] == [1]
    with pytest.raises(AxiomViolation) as exc:
        module_from_tables(ring, add, act)
    assert exc.value.axiom == "action associativity"


def test_cyclic_modules_of_elements_outside_the_module_are_refused():
    # unchecked, -1 would build R.3 and 4 would raise a bare IndexError
    # and a non-int index (1.0, "3", None) would raise a bare TypeError
    m = regular_module(Z4)
    for x in (-1, 4, 1.0, "3", None):
        with pytest.raises(AxiomViolation) as exc:
            cyclic_module(m, x)
        assert (exc.value.axiom, exc.value.witness) == ("module element", (x,))


def test_non_submodule_masks_are_rejected():
    # submodule() itself refuses an unclosed carrier, so no handle exists
    # for quotient_module, as_module, the predicates or the frozen
    # trace/reject operators to refuse again (test_package keeps every
    # other handle closed by construction)
    m = regular_module(Z4)
    # {0,1} misses 1+1; {1,2} misses 0
    for mask, carrier in ((0b0011, (0, 1)), (0b0110, (1, 2))):
        with pytest.raises(AxiomViolation) as exc:
            submodule(m, mask)
        assert (exc.value.axiom, exc.value.witness) == ("submodule", carrier)
        assert mask not in m._cache.get("subs", {})
    # a mask that is not an int is refused before any comparison or shift
    for mask in (1.0, "3", None):
        with pytest.raises(AxiomViolation) as exc:
            submodule(m, mask)
        assert (exc.value.axiom, exc.value.witness) == ("submodule", mask)


def test_masks_outside_the_module_are_rejected():
    # unchecked, 0b10001 would give a handle on the carrier (0,) that is
    # not is_zero(), and -1 one on the full carrier that is not is_full()
    m = regular_module(Z4)
    for mask in (0b10001, 0b110000, 1 << 4, -1, -2):
        with pytest.raises(AxiomViolation) as exc:
            submodule(m, mask)
        assert (exc.value.axiom, exc.value.witness) == ("submodule", mask)
    assert submodule(m, 0b0001).is_zero() and submodule(m, 0b1111).is_full()
    assert all(0 < mask < 16 for mask in m._cache["subs"])


def test_handles_are_made_only_by_interning():
    # a handle built directly would skip the check in submodule(): on
    # {0,1} of Z4, quotient_module would return two "cosets" {0,1} and
    # {2,3} and remember them.  So the constructor refuses every caller
    # but the interning, closed mask or not
    m = regular_module(Z4)
    for mask in (0b0011, 0b10001, 0b0101):
        with pytest.raises(TypeError):
            Submodule(m, mask)
    assert not {0b0011, 0b10001} & set(m._cache.get("subs", {}))
    assert quotient_module(m, submodule(m, 0b0101)).order == 2
