"""Isomorphism classes: the universe's keys against isomorphism search,
the universe's plan against the universe it builds, and trace-firstness's
pairwise route against its full scan."""

import json
import pathlib
import sys

import pytest

from modlab import classify
from modlab.classify import generate_universe, plan_universe
from modlab.cli import corpus_rings, main
from modlab.firstness import _rpid_pairwise, rpid_first_detail
from modlab.modules import (annihilator_mask, cyclic_mask, direct_sum_module,
                            enumerate_submodules, find_isomorphism,
                            hom_nonzero_exists, is_isomorphic,
                            quotient_module, regular_module, submodule)
from modlab.rings import cyclic_ring, matrix_ring, product_ring

from oracles import searched_universe
from test_rings import f2_xy_square_zero, upper_triangular_f2

REFERENCE = (pathlib.Path(__file__).resolve().parent.parent
             / "perfbench" / "reference" / "deep-d3.json")


def key_rings():
    """The corpus rings, T2(F2), F2[x,y]/(x,y)^2 and Z9, built fresh."""
    return corpus_rings() + [upper_triangular_f2(), f2_xy_square_zero(),
                             cyclic_ring(9)]


def _tables(mods):
    return [(m.provenance, m.labels, m.add, m.act) for m in mods]


@pytest.mark.parametrize("depth", [2, 3])
def test_keyed_universe_matches_isomorphism_search(depth):
    for keyed, searched in zip(key_rings(), key_rings()):
        universe = generate_universe(keyed, depth=depth, module_cap=64)
        want = searched_universe(searched, depth, 64)
        assert _tables(universe.modules) == _tables(want), keyed


def _generator_annihilators(module):
    """G(M): the sorted set of the annihilators of M's generators."""
    return tuple(sorted({annihilator_mask(module, 1 << x)
                         for x in range(module.order)
                         if cyclic_mask(module, x) == module.full_mask()}))


def test_quotient_keys_are_complete_invariants():
    pairs = twins = split = 0
    for ring in key_rings():
        reg = regular_module(ring)
        ideals = enumerate_submodules(reg).submodules
        keys = classify._quotient_keys(reg, ideals)
        quotients = [quotient_module(reg, i) for i in ideals]
        gs = [_generator_annihilators(q) for q in quotients]
        for i, q in zip(ideals, quotients):
            # an indecomposable quotient is keyed by its own G
            split += len(keys[i.mask]) > 1
            assert len(keys[i.mask]) > 1 or keys[i.mask] == (
                () if q.is_zero() else (_generator_annihilators(q),))
        for a, qa in enumerate(quotients):
            for b, qb in enumerate(quotients):
                iso = find_isomorphism(qa, qb) is not None
                assert (gs[a] == gs[b]) == iso, (ring, a, b)
                assert (keys[ideals[a].mask] == keys[ideals[b].mask]) == iso
                pairs += 1
                twins += iso and a != b
    assert (pairs, twins, split) == (180, 8, 5)


@pytest.mark.parametrize("cap", [16, 64, 256])
def test_the_plan_lists_the_built_universe(cap):
    # the plan counts the universe and gives each module's order, and
    # each recipe names what the module was built from
    for ring in corpus_rings() + [upper_triangular_f2(), f2_xy_square_zero()]:
        for depth in range(1, 5):
            plan = plan_universe(ring, depth, cap)
            mods = generate_universe(ring, depth, cap).modules
            assert [order for order, _ in plan.values()] == [
                m.order for m in mods], (ring, depth)
            for m, (_, recipe) in zip(mods, plan.values()):
                if isinstance(recipe, tuple):
                    assert m.origin[1] == tuple(mods[i] for i in recipe)
                elif recipe.is_zero():
                    assert m is regular_module(ring)
                else:
                    assert m.origin[1:3] == (regular_module(ring), recipe)


def test_depth_five_sizes_through_the_plan_alone(monkeypatch):
    # at depth 5 and cap 1024 the corpus universes hold 11, 36, 41, 67, 66
    # and 6 modules, the zero module counted, and the plan counts them
    # without building a quotient or a sum
    def refuse(*args, **kwargs):
        raise AssertionError("a universe module was built")

    monkeypatch.setattr(classify, "quotient_module", refuse)
    monkeypatch.setattr(classify, "direct_sum_module", refuse)
    assert [len(plan_universe(ring, 5, 1024)) for ring in corpus_rings()] == [
        11, 36, 41, 67, 66, 6]


def test_universes_and_corpus_search_no_isomorphism(monkeypatch, capsys):
    def refuse(a, b):
        raise AssertionError("isomorphism search reached")

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "modlab" and \
                getattr(mod, "find_isomorphism", None) is find_isomorphism:
            monkeypatch.setattr(mod, "find_isomorphism", refuse)
    for ring in key_rings():
        generate_universe(ring, depth=3)
    assert main(["corpus", "--format", "structured"]) == 0
    capsys.readouterr()
    # the patch is live: an isomorphism test does search
    z2 = regular_module(cyclic_ring(2))
    with pytest.raises(AssertionError, match="isomorphism search reached"):
        is_isomorphic(z2, direct_sum_module([z2]))


def _build_ring(spec):
    if spec[0] == "cyclic":
        return cyclic_ring(spec[1])
    if spec[0] == "product":
        return product_ring([_build_ring(s) for s in spec[1]])
    assert spec[0] == "matrix", spec
    return matrix_ring(_build_ring(spec[1]), spec[2])


def _build_module(ring, recipe):
    if recipe[0] == "regular":
        return regular_module(ring)
    if recipe[0] == "quotient":
        parent = _build_module(ring, recipe[1])
        return quotient_module(parent, submodule(parent, recipe[2]))
    return direct_sum_module([_build_module(ring, r) for r in recipe[1]])


def deep_reference_modules(notion=None):
    """(key, module) for each deep-d3 reference decision, read from the
    benchmark's reference file, optionally only those of one notion."""
    items = json.loads(REFERENCE.read_text(encoding="utf-8"))["items"]
    out = []
    for key, item in sorted(items.items()):
        if notion in (None, item["notion"]):
            module = _build_module(_build_ring(item["ring"]), item["recipe"])
            assert module.order == item["order"], key
            out.append((key, module))
    return out


@pytest.mark.parametrize("key", ["cyclic(2)#4:rpid_first",   # F2^4
                                 "cyclic(4)#7:rpid_first",   # Z4+Z4+Z2
                                 "cyclic(6)#11:rpid_first"])  # Z3^3 over Z6
def test_rpid_first_on_deep_modules_matches_reference(key):
    item = json.loads(REFERENCE.read_text(encoding="utf-8"))["items"][key]
    module = _build_module(_build_ring(item["ring"]), item["recipe"])
    assert module.order == item["order"]
    verdict, witness = rpid_first_detail(module)
    assert {"verdict": verdict, "witness": witness} == item["outcome"]


def _pairwise_full_scan(module):
    """Trace-firstness's pairwise route without the atom shortcut: one
    nonzero-map search per ordered pair of nonzero submodules."""
    subs = enumerate_submodules(module).nonzero()
    for n in subs:
        for k in subs:
            if not hom_nonzero_exists(n.as_module(), k.as_module()):
                return False, {"kind": "hom_vanishes",
                               "source": n.labels(), "target": k.labels()}
    return True, None


def test_pairwise_route_matches_the_full_scan():
    # verdict and witness, on the corpus universes and the deep modules
    mods = [m for ring in corpus_rings()
            for m in generate_universe(ring, depth=2).nonzero_modules()]
    mods += [m for _, m in deep_reference_modules("rpid_first")]
    outcomes = [_pairwise_full_scan(m) for m in mods]
    assert [_rpid_pairwise(m) for m in mods] == outcomes
    assert (len(mods), sum(not v for v, _ in outcomes)) == (44, 11)
