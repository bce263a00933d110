"""The facts the memo of accepted tables keys by serial (generator data,
element annihilators, cyclic submodules, Hom chains and preradical
values) in three states of the memo, empty, warm, and bounded so tightly
that its entries are evicted while the facts are read, against the facts
each object computes from its own tables with no memo.
"""

import pytest

from modlab import rings
from modlab.classify import enumerate_lep, generate_universe
from modlab.cli import corpus_rings
from modlab.modules import (_element_annihilators, _generator_data,
                            _hom_chain, _intern_submodule,
                            cyclic_submodules, regular_module,
                            simple_modules)
from modlab.preradicals import (ONE, RAD, SOC, ZERO, Alpha, Beta, Compose,
                                Join, Meet, Omega, Trad)
from modlab.rings import enumerate_ideals

from conftest import memo_cells
from test_modules import ints_only
from test_rings import f2_xy_square_zero, upper_triangular_f2


def family(ring):
    """Every kind of expression the memo keys: the constants, the
    t-radicals, omega of each two-sided ideal, the trace of each nonzero
    cyclic left ideal and of each simple module, three linear filters and
    nodes over them."""
    reg = regular_module(ring)
    ideals = enumerate_ideals(ring)
    lep = enumerate_lep(ring)[:3]
    fam = [SOC, RAD, ZERO, ONE, *map(Trad, ideals), *map(Omega, ideals),
           *map(Beta, cyclic_submodules(reg)),
           *(Alpha(_intern_submodule(s, s.full_mask()))
             for s in simple_modules(ring)), *lep]
    return fam + [Join([SOC, RAD, lep[-1]]), Meet([SOC, Trad(ideals[-2])]),
                  Compose(SOC, RAD), Compose(Omega(ideals[1]), lep[0])]


def facts():
    """Each fact, as ints, over fresh copies of the corpus rings, T2(F2)
    and F2[x,y]/(x,y)^2: for every module of the depth-3 universe its
    generator data, annihilators, cyclic submodules and the value of every
    member of ``family``, and the chain of every pair from the depth-2
    universe into the depth-3 one."""
    out = []
    for ring in corpus_rings() + [upper_triangular_f2(), f2_xy_square_zero()]:
        small = generate_universe(ring, depth=2).modules
        large = generate_universe(ring, depth=3).modules
        fam = family(ring)
        for m in large:
            out.append((_generator_data(m), _element_annihilators(m),
                        tuple(c.mask for c in cyclic_submodules(m)),
                        tuple(pr.evaluate(m).mask for pr in fam)))
        for a in small:
            for b in large:
                maps, order = _hom_chain(a, b)
                out.append((tuple(f.map for f in maps), order))
    return out


@pytest.fixture
def stores(monkeypatch):
    """The keys ``rings._store`` is given, in order."""
    keys = []
    store = rings._store

    def counted(key, entry):
        keys.append(key)
        store(key, entry)

    monkeypatch.setattr(rings, "_store", counted)
    return keys


def facts_of(key):
    return not isinstance(key[-1], tuple) and key[0] >= rings.GENERATOR_DATA


def test_facts_agree_empty_warm_and_evicted(empty_memo_under, stores,
                                            monkeypatch):
    # the reference: under a bound of 0 the memo stores nothing, so each
    # object computes every fact from its own tables and no key is shared
    with pytest.MonkeyPatch.context() as mp:
        empty_memo_under(mp)
        mp.setattr(rings, "MAX_ACCEPTED_CELLS", 0)
        reference = facts()
        assert rings._accepted == {}
    empty_memo = empty_memo_under(monkeypatch)
    stores.clear()
    cold = facts()
    assert cold == reference
    stored = list(stores)
    assert sum(map(facts_of, stored)) > 4000
    assert all(map(ints_only, empty_memo))
    assert all(map(ints_only, empty_memo.values()))
    assert (memo_cells(empty_memo) == empty_memo.cells
            <= rings.MAX_ACCEPTED_CELLS)
    # warm: fresh rings reach every table, construction and fact through
    # the memo, and nothing is computed or stored again
    stores.clear()
    assert facts() == cold
    assert stores == []
    # evicted: on an empty memo bounded far below the sweep, entries are
    # evicted and facts computed again mid-sweep, with the same answers
    memo = empty_memo_under(monkeypatch)
    monkeypatch.setattr(rings, "MAX_ACCEPTED_CELLS", 20_000)
    stores.clear()
    assert facts() == cold
    # (tables accepted again take new serials, so most facts computed
    # again are stored under new keys, and some under their old ones)
    again = [key for key in stores if facts_of(key)]
    assert len(stores) - len(memo) > 5000
    assert len(again) > sum(map(facts_of, stored))
    assert len(again) > len(set(again))
    assert memo_cells(memo) == memo.cells <= 20_000
