"""The firstness quantifiers decided over ``modules.atoms``, diuniformity
decided on the atoms' fully invariant hulls, and both routes of
trace-firstness over the cyclic submodules, against the full-lattice
scans they replaced (``oracles``), and BJKN's two routes and the
witness it reads off rejects against the all-cyclic scans over
searched Hom-sets and against the products of every pair of atoms:
verdicts and witnesses equal, the annihilator test of trace-firstness
against a nonzero-map search, the fact that makes the cyclic
submodules enough, the work the reduced routes no longer do, and every
deep-d3 reference decision."""

import json
import sys

from modlab import firstness, modules
from modlab.classify import generate_universe
from modlab.cli import corpus_rings
from modlab.firstness import (_cond_atoms_cogenerate,
                              _cond_homogeneous_semisimple,
                              _prime_via_annihilators, _prime_via_ideals,
                              _rpid_pairwise, a_first_detail,
                              a_fully_first_detail, bjkn_prime_detail,
                              decide, diuniform_detail, is_retractable,
                              prime_module_detail, rpid_first_detail)
from modlab.modules import (annihilator_mask, atoms, cyclic_mask,
                            cyclic_submodules, direct_sum_module,
                            enumerate_submodules, hom_nonzero_exists,
                            is_isomorphic, quotient_module, regular_module,
                            simple_modules, submodule, trad_mask)
from modlab.preradicals import RAD, SOC, Alpha, left_exact_at, product_in
from modlab.rings import cyclic_ring, matrix_ring, product_ring

import oracles
from test_isomorphism_classes import (REFERENCE, _build_module, _build_ring,
                                      deep_reference_modules)
from test_rings import upper_triangular_f2


def _sweep_modules():
    """The nonzero depth-2 corpus universe modules, each distinct deep-d3
    reference module, and the nonzero depth-2 modules of T2(F2) and Z9."""
    mods = [m for ring in corpus_rings()
            for m in generate_universe(ring, depth=2).nonzero_modules()]
    items = json.loads(REFERENCE.read_text(encoding="utf-8"))["items"]
    recipes = {json.dumps([item["ring"], item["recipe"]]): item
               for _, item in sorted(items.items())}
    mods += [_build_module(_build_ring(item["ring"]), item["recipe"])
             for item in recipes.values()]
    for ring in (upper_triangular_f2(), cyclic_ring(9)):
        mods += generate_universe(ring, depth=2).nonzero_modules()
    return mods


def _families(ring):
    """The socle, the radical, and the trace of each simple module."""
    return [[SOC], [RAD]] + [[Alpha(submodule(s, s.full_mask()))]
                             for s in simple_modules(ring)]


def test_atom_routes_match_the_full_lattice_scans():
    mods = _sweep_modules()
    negatives = dict.fromkeys(
        ["bjkn", "annihilators", "ideals", "pairwise", "retractable",
         "fully_first", "first", "diuniform"], 0)
    for m in mods:
        bjkn = oracles.all_submodules_cogenerate(m)
        assert _cond_homogeneous_semisimple(m)[0] == bjkn[0], m
        assert bjkn_prime_detail(m)[0] == bjkn[0], m
        negatives["bjkn"] += not bjkn[0]
        want = oracles.prime_via_annihilators(m)
        assert _prime_via_annihilators(m) == want, m
        negatives["annihilators"] += not want[0]
        want = oracles.prime_via_ideals(m)
        assert _prime_via_ideals(m) == want, m
        negatives["ideals"] += not want[0]
        want = oracles.rpid_pairwise(m)
        assert _rpid_pairwise(m) == want, m
        assert rpid_first_detail(m) == want, m
        assert oracles.rpid_family(m, 24) == want[0], m
        negatives["pairwise"] += not want[0]
        retractable = oracles.retractable(m)
        assert is_retractable(m) == retractable, m
        negatives["retractable"] += not retractable
        for family in _families(m.ring):
            want = oracles.a_fully_first(m, family)
            assert a_fully_first_detail(m, family) == want, (m, family)
            negatives["fully_first"] += not want[0]
            live = [pr for pr in family if not pr.evaluate(m).is_zero()]
            want = oracles.a_fully_first(m, live)
            assert a_first_detail(m, family) == want, (m, family)
            negatives["first"] += not want[0]
        want = oracles.diuniform(m)
        assert diuniform_detail(m) == want, m
        negatives["diuniform"] += not want[0]
    assert len(mods) == 75
    assert negatives == {"bjkn": 46, "annihilators": 46, "ideals": 46,
                         "pairwise": 26, "retractable": 3,
                         "fully_first": 135, "first": 69, "diuniform": 36}


def test_bjkn_atom_routes_match_the_all_cyclic_scans():
    rings = list(corpus_rings()) + [upper_triangular_f2()]
    mods = [m for ring in rings
            for m in generate_universe(ring, depth=3).nonzero_modules()]
    negatives = non_atom_witnesses = 0
    for m in mods:
        want = oracles.all_cyclic_pointwise_separation(m)
        assert bjkn_prime_detail(m) == want, m
        cyclic = oracles.all_cyclic_submodules_cogenerate(m)
        assert _cond_atoms_cogenerate(m)[0] == cyclic[0] == want[0], m
        if not want[0]:
            negatives += 1
            y = m.labels.index(want[1]["y"])
            non_atom_witnesses += all(a.mask != cyclic_mask(m, y)
                                      for a in atoms(m))
    assert (len(mods), negatives, non_atom_witnesses) == (115, 77, 3)


def test_one_atom_per_annihilator_is_asked_to_cogenerate(monkeypatch):
    # the 127 atoms of F2^7 are the lines, all with annihilator 0: one
    # cogeneration test decides them all
    f2 = regular_module(cyclic_ring(2))
    m = direct_sum_module([f2] * 7, cap=128)
    asked = []

    def counted(cog, module):
        asked.append(cog)
        return modules.cogenerates(cog, module)

    monkeypatch.setattr(firstness, "cogenerates", counted)
    assert len(atoms(m)) == 127
    assert _cond_atoms_cogenerate(m) == (True, None)
    assert asked == [atoms(m)[0]]


def test_a_nonzero_map_onto_an_atom_is_an_annihilator_jump():
    # Hom(N, A) != 0 exactly when ann(A).N != N, for an atom A
    pairs = 0
    for m in _sweep_modules():
        reg = regular_module(m.ring)
        for a in atoms(m):
            ann = submodule(reg, annihilator_mask(m, a.mask))
            amod = a.as_module()
            for n in enumerate_submodules(m).nonzero():
                reached = trad_mask(m, ann, n.mask) != n.mask
                assert hom_nonzero_exists(n.as_module(), amod) == reached, \
                    (n, a)
                pairs += 1
    assert pairs == 19636


def test_least_modules_fixed_by_an_atom_annihilator_are_cyclic():
    # for a two-sided ideal P, every nonzero N with P.N = N contains a
    # cyclic Rz with P.Rz = Rz, and the least such N are cyclic: so the
    # pairwise route scans the cyclic submodules only
    fixed_pairs = 0
    sources = {"atom": 0, "other": 0}
    for m in _sweep_modules():
        reg = regular_module(m.ring)
        cyclic = {c.mask for c in cyclic_submodules(m)}
        for mask in {annihilator_mask(m, a.mask) for a in atoms(m)}:
            p = submodule(reg, mask)
            fixed = [n for n in enumerate_submodules(m).nonzero()
                     if trad_mask(m, p, n.mask) == n.mask]
            if not fixed:
                continue
            fixed_pairs += len(fixed)
            fixed_cyclic = [n.mask for n in fixed if n.mask in cyclic]
            for n in fixed:
                assert any(c & ~n.mask == 0 for c in fixed_cyclic), (m, n)
            least = min(n.order for n in fixed)
            assert all(n.mask in cyclic for n in fixed if n.order == least)
        verdict, witness = _rpid_pairwise(m)
        if not verdict:
            atom = witness["source"] in {a.labels() for a in atoms(m)}
            sources["atom" if atom else "other"] += 1
    assert fixed_pairs == 294
    assert sources == {"atom": 20, "other": 6}


def _fresh_modules():
    """Modules no decider has seen, none of them a regular module (whose
    lattice the ring's ideals are read from)."""
    out = []
    rings = (cyclic_ring(4), cyclic_ring(6), matrix_ring(cyclic_ring(2), 2),
             upper_triangular_f2())
    for ring in rings:
        reg = regular_module(ring)
        s = simple_modules(ring)[-1]
        out += [direct_sum_module([reg, s]), direct_sum_module([s, s]),
                quotient_module(reg, enumerate_submodules(reg).submodules[1])]
    return out


def test_atom_quantifiers_build_no_lattice():
    for m in _fresh_modules():
        assert "lattice" not in m._cache
        prime_module_detail(m)
        bjkn_prime_detail(m)
        a_fully_first_detail(m, [SOC, RAD])
        is_retractable(m)
        diuniform_detail(m)
        rpid_first_detail(m)
        left_exact_at(SOC, m)
        left_exact_at(RAD, m)
        assert "lattice" not in m._cache, m


def test_trace_firstness_at_order_128():
    # F2^7 has 29,212 submodules and only 127 cyclic ones; S1^6 + S2 over
    # F2xF2 has no nonzero map from a copy of S2 to a copy of S1.  The
    # full-lattice oracle is checked on the second only: on F2^7 it
    # would visit every pair of submodules.
    z2 = cyclic_ring(2)
    f2 = direct_sum_module([regular_module(z2)] * 7, cap=128)
    assert rpid_first_detail(f2) == (True, None)
    s1, s2 = simple_modules(product_ring([z2, z2]))
    mixed = direct_sum_module([s1] * 6 + [s2], cap=128)
    verdict, witness = rpid_first_detail(mixed)
    assert not verdict and witness["kind"] == "hom_vanishes"
    for m in (f2, mixed):
        assert m.order == 128 and "lattice" not in m._cache, m
    twin = direct_sum_module([s1] * 6 + [s2], cap=128)
    assert oracles.rpid_pairwise(twin) == (verdict, witness)


def _count_calls(monkeypatch, name):
    """Route every modlab reference to ``modules.<name>`` through a
    counter; returns the list of recorded argument tuples."""
    calls = []
    original = getattr(modules, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "modlab" and \
                getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_pairwise_route_searches_no_maps(monkeypatch):
    mods = _fresh_modules()
    calls = _count_calls(monkeypatch, "hom_nonzero_exists")
    outcomes = [_rpid_pairwise(m)[0] for m in mods]
    assert calls == [] and False in outcomes and True in outcomes
    # the patch is live in firstness: its retractability test does search
    is_retractable(regular_module(cyclic_ring(4)))
    assert calls


def test_family_route_searches_no_isomorphisms(monkeypatch):
    mods = _fresh_modules()
    calls = _count_calls(monkeypatch, "find_isomorphism")
    outcomes = [rpid_first_detail(m)[0] for m in mods]
    assert calls == [] and False in outcomes and True in outcomes
    # the patch is live: an isomorphism test does search
    assert not is_isomorphic(mods[0], mods[1])
    assert calls


def _is_atom_module(module, target):
    return any(target is a.as_module() for a in atoms(module))


def test_bjkn_cogenerates_only_on_atoms(monkeypatch):
    mods = _fresh_modules()
    calls = _count_calls(monkeypatch, "cogenerates")
    outcomes = [bjkn_prime_detail(m)[0] for m in mods]
    assert calls and False in outcomes and True in outcomes
    for cog, module in calls:
        assert cog in atoms(module), (cog, module)


def _f2_7():
    """F2^7 over Z2: order 128, 127 atoms, all isomorphic."""
    z2 = regular_module(cyclic_ring(2))
    return direct_sum_module([z2] * 7, cap=128)


def test_bjkn_enumerates_no_hom_set(monkeypatch):
    calls = _count_calls(monkeypatch, "hom_set")
    rings = list(corpus_rings()) + [upper_triangular_f2()]
    mods = [_f2_7()] + [m for ring in rings for m in
                        generate_universe(ring, depth=3).nonzero_modules()]
    outcomes = [bjkn_prime_detail(m)[0] for m in mods]
    assert calls == [] and False in outcomes and True in outcomes
    # nor does Baer's criterion, either way it decides
    injective = [modules.is_injective(m) for m in mods]
    assert calls == [] and False in injective and True in injective
    # the patch is live in modules: End(M) as a ring does enumerate
    modules.endomorphism_ring(regular_module(cyclic_ring(4)))
    assert calls


def test_bjkn_products_take_one_right_atom_per_class():
    # the products route is the cogeneration route rearranged: its
    # verdict over every ordered pair of atoms is the decider's
    assert bjkn_prime_detail(_f2_7()) == (True, None)
    for m in _fresh_modules():
        assert bjkn_prime_detail(m)[0] == all(
            not product_in(m, a, b).is_zero()
            for a in atoms(m) for b in atoms(m)), m


def _json(value):
    return json.loads(json.dumps(value))


def test_every_deep_d3_reference_decision():
    # the reference file of the deep-d3 benchmark workload, read only;
    # the decisions it records as refused are now decided, and are
    # checked against the full-lattice scans
    items = json.loads(REFERENCE.read_text(encoding="utf-8"))["items"]
    refused = []
    for key, m in deep_reference_modules():
        item = items[key]
        verdict, witness = decide(m, item["notion"])
        got = _json({"verdict": verdict, "witness": witness})
        if "refused" not in item["outcome"]:
            assert got == item["outcome"], key
            continue
        refused.append(key)
        if item["notion"] == "diuniform":
            want = oracles.diuniform(m)
        else:
            want = oracles.rpid_pairwise(m)
            assert oracles.rpid_family(m, 24) == want[0], key
        assert (verdict, witness) == want, key
    assert len(items) == 25
    assert refused == ["cyclic(4)#10:diuniform", "cyclic(6)#13:diuniform",
                       "product(cyclic(2),cyclic(2))#10:rpid_first",
                       "product(cyclic(2),cyclic(2))#18:diuniform"]
