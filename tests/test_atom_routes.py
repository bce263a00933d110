"""The firstness quantifiers decided over ``modules.atoms`` against the
full-lattice scans they replaced (``oracles``): verdicts and witnesses
equal, the annihilator test of trace-firstness against a nonzero-map
search, and the work the atom routes no longer do."""

import json
import sys

from modlab import firstness, modules
from modlab.classify import generate_universe
from modlab.cli import corpus_rings
from modlab.firstness import (FAMILY_JOINS, _cond_homogeneous_semisimple,
                              _prime_via_annihilators, _prime_via_ideals,
                              _rpid_pairwise, a_first_detail,
                              a_fully_first_detail, bjkn_prime_detail,
                              is_retractable, prime_module_detail,
                              rpid_first_detail)
from modlab.modules import (annihilator_mask, atoms, direct_sum_module,
                            enumerate_submodules, hom_nonzero_exists,
                            quotient_module, regular_module, simple_modules,
                            submodule, trad_mask)
from modlab.preradicals import RAD, SOC, Alpha
from modlab.rings import cyclic_ring, matrix_ring

import oracles
from test_isomorphism_classes import REFERENCE, _build_module, _build_ring
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
         "fully_first", "first"], 0)
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
        assert oracles.rpid_family(m, FAMILY_JOINS) == want[0], m
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
    assert len(mods) == 75
    assert negatives == {"bjkn": 46, "annihilators": 46, "ideals": 46,
                         "pairwise": 26, "retractable": 3,
                         "fully_first": 135, "first": 69}


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
        assert "lattice" not in m._cache, m


def test_pairwise_route_searches_no_maps(monkeypatch):
    mods = _fresh_modules()
    calls = []
    original = modules.hom_nonzero_exists

    def counted(source, target):
        calls.append((source, target))
        return original(source, target)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "modlab" and \
                getattr(mod, "hom_nonzero_exists", None) is original:
            monkeypatch.setattr(mod, "hom_nonzero_exists", counted)
    outcomes = [_rpid_pairwise(m)[0] for m in mods]
    assert calls == [] and False in outcomes and True in outcomes
    # the patch is live: the retractability test does search
    is_retractable(regular_module(cyclic_ring(4)))
    assert calls
    assert firstness.hom_nonzero_exists is counted
