"""Isomorphism classes: the partition helper and trace-firstness's use of it."""

import json
import pathlib
import sys

import pytest

from modlab import modules
from modlab.classify import generate_universe
from modlab.cli import corpus_rings
from modlab.firstness import _rpid_pairwise, rpid_first_detail
from modlab.modules import (direct_sum_module, enumerate_submodules,
                            find_isomorphism, hom_nonzero_exists,
                            isomorphism_classes, quotient_module,
                            regular_module, submodule)
from modlab.rings import cyclic_ring, matrix_ring, product_ring

REFERENCE = (pathlib.Path(__file__).resolve().parent.parent
             / "perfbench" / "reference" / "deep-d3.json")


def _pairwise_partition(mods):
    """Classes by pairwise ``find_isomorphism`` on every ordered pair, in
    order of first occurrence, members in input order."""
    n = len(mods)
    iso = [[find_isomorphism(a, b) is not None for b in mods] for a in mods]
    assert all(iso[i][j] == iso[j][i] for i in range(n) for j in range(n))
    classes = []
    placed = [False] * n
    for i in range(n):
        if not placed[i]:
            members = [j for j in range(i, n) if iso[i][j]]
            for j in members:
                placed[j] = True
            classes.append([mods[j] for j in members])
    return classes


def test_classes_match_pairwise_isomorphism_on_corpus():
    checked = 0
    for ring in corpus_rings():
        for m in generate_universe(ring, depth=2).nonzero_modules():
            subs = [n.as_module()
                    for n in enumerate_submodules(m).nonzero()]
            got = isomorphism_classes(subs)
            want = _pairwise_partition(subs)
            assert [[id(x) for x in c] for c in got] == \
                [[id(x) for x in c] for c in want], m
            checked += 1
    assert checked == 35


def test_classes_keep_first_occurrences_and_input_order():
    z4 = cyclic_ring(4)
    reg = regular_module(z4)
    half = quotient_module(reg, enumerate_submodules(reg).submodules[1])
    twin = quotient_module(reg, enumerate_submodules(reg).submodules[1])
    other = direct_sum_module([half, half])
    assert isomorphism_classes([]) == []
    assert isomorphism_classes([half, reg, twin, other, half]) == [
        [half, twin, half], [reg], [other]]
    # equal orders, different annihilator multisets: two buckets
    assert isomorphism_classes([reg, other]) == [[reg], [other]]


def test_pairwise_route_does_not_use_classes(monkeypatch):
    original = modules.isomorphism_classes

    def refuse(mods):
        raise AssertionError("isomorphism_classes called")

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "modlab" and \
                getattr(mod, "isomorphism_classes", None) is original:
            monkeypatch.setattr(mod, "isomorphism_classes", refuse)
    z4, z6 = cyclic_ring(4), cyclic_ring(6)
    f2xf2 = product_ring([cyclic_ring(2), cyclic_ring(2)])
    z2_sum = direct_sum_module([regular_module(cyclic_ring(2))] * 2)
    mixed = regular_module(f2xf2)
    assert _rpid_pairwise(regular_module(z4)) == (True, None)
    assert _rpid_pairwise(z2_sum) == (True, None)
    assert _rpid_pairwise(regular_module(z6))[0] is False
    verdict, witness = _rpid_pairwise(mixed)
    assert verdict is False and witness["kind"] == "hom_vanishes"
    # neither does the family route
    assert rpid_first_detail(regular_module(z4)) == (True, None)
    assert rpid_first_detail(mixed) == (verdict, witness)
    # universe generation does read the classes, so the patch is live
    with pytest.raises(AssertionError, match="isomorphism_classes called"):
        generate_universe(cyclic_ring(3), depth=1)


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
