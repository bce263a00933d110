"""Helpers shared by the table-corruption and certificate-memo tests."""

import functools

import pytest
from hypothesis import strategies as st

from modlab import modules, rings
from modlab.errors import AxiomViolation


def _corrupt(data, table, n, square):
    """A copy of ``table`` (entries in 0..n-1) with one drawn corruption:
    a changed entry, the same change at (i, j) and (j, i) when the table
    is square, or two rows swapped."""
    rows = [list(row) for row in table]
    kind = data.draw(st.sampled_from(
        ["single", "swap"] + (["symmetric"] if square else [])))
    i = data.draw(st.integers(0, len(rows) - 1))
    if kind == "swap":
        k = data.draw(st.integers(0, len(rows) - 1).filter(lambda k: k != i))
        rows[i], rows[k] = rows[k], rows[i]
    else:
        j = data.draw(st.integers(0, n - 1))
        old = rows[i][j]
        rows[i][j] = data.draw(
            st.integers(0, n - 1).filter(lambda v: v != old))
        if kind == "symmetric":
            rows[j][i] = rows[i][j]
    return tuple(map(tuple, rows))


def _scan_outcome(scan, *args):
    """What a scan reports: its first three results, or the violation."""
    try:
        return scan(*args)[:3]
    except AxiomViolation as exc:
        return exc.axiom, exc.witness, str(exc)


@pytest.fixture(scope="session")
def corrupt():
    return _corrupt


@pytest.fixture(scope="session")
def scan_outcome():
    return _scan_outcome


def _count_certificates(mp):
    """The tables ``rings._ring_certificate`` and
    ``modules._module_certificate`` are run on from now on, under the
    monkeypatch ``mp``, as lists keyed ``"ring"`` and ``"module"``."""
    calls = {"ring": [], "module": []}

    def counted(kind, real):
        @functools.wraps(real)
        def wrapper(*args):
            calls[kind].append(args)
            return real(*args)
        return wrapper

    mp.setattr(rings, "_ring_certificate",
               counted("ring", rings._ring_certificate))
    mp.setattr(modules, "_module_certificate",
               counted("module", modules._module_certificate))
    return calls


@pytest.fixture(scope="session")
def count_certificates():
    return _count_certificates


# the functions that compute derived tables, which a remembered
# construction does not call
TABLE_BUILDERS = ((modules, "_induced_tables"), (modules, "_sum_tables"),
                  (rings, "_cyclic_tables"), (rings, "_matrix_tables"),
                  (rings, "_product_tables"))


def _count_builds(mp):
    """The names of the table builders called from now on, under the
    monkeypatch ``mp``, one entry per call."""
    calls = []

    def counted(real):
        @functools.wraps(real)
        def wrapper(*args):
            calls.append(real.__name__)
            return real(*args)
        return wrapper

    for module, name in TABLE_BUILDERS:
        mp.setattr(module, name, counted(getattr(module, name)))
    return calls


@pytest.fixture(scope="session")
def count_builds():
    return _count_builds


def _int_count(x):
    return 1 if isinstance(x, int) else sum(map(_int_count, x))


def memo_cells(memo):
    """The cells the memo's entries hold, counted afresh: the cells of
    every distinct table object of a table or construction entry once,
    and every other int of an entry and one for its key once per entry.
    Construction and fact keys are ints only; fact tags come after the
    construction tags."""
    tables = {}
    ints = len(memo)
    for key, entry in memo.items():
        if isinstance(key[-1], tuple) or key[0] <= rings.PRODUCT_RING:
            for t in entry[:2]:
                tables[id(t)] = len(t) * len(t[0])
            ints += _int_count(entry[2:])
        else:
            ints += _int_count(entry)
    return sum(tables.values()) + ints


def _empty_memo_under(mp):
    """An empty memo of accepted tables under the monkeypatch ``mp``; the
    process memo is back when ``mp`` is undone."""
    mp.setattr(rings, "_accepted", rings._Memo())
    return rings._accepted


@pytest.fixture(scope="session")
def empty_memo_under():
    return _empty_memo_under


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty memo of accepted tables for one test, so that certificate
    counts do not depend on what earlier tests built; the process memo is
    back afterwards."""
    return _empty_memo_under(monkeypatch)
