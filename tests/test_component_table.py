"""Frequency components as a read-only column table whose records are built
when they are read: the same records as the earlier eager list, bit for
bit (its reference is `components_by_where`), and the sequence behaviour of
a list."""

import pickle

import numpy as np
import pytest

import ccpt
from ccpt.matrices import OCCPT, column_layout
from ccpt.period import (ComponentTable, FrequencyComponent, build_dictionary,
                         dictionary_solve, frequency_components)
from ccpt.signals import make_x2, tone
from ccpt.transform import occpt_analysis

from oracles import components_by_where

COLUMNS = ("p", "k", "freq", "freq_hz", "magnitude", "phase")


def _table(fs=360.0, floor=1e-8, N=54):
    x = np.random.default_rng(N).standard_normal(N)
    return frequency_components(occpt_analysis(x), fs=fs, min_magnitude=floor)


def _hex(records):
    """Each field spelled exactly: ints and None as they are, floats by
    float.hex, with the field types."""
    return [tuple((type(v), v.hex() if type(v) is float else v) for v in r) for r in records]


@pytest.mark.parametrize("N", [1, 2, 3, 54, 625, 4096, 5000])
def test_records_are_the_eager_list(N):
    rng = np.random.default_rng(N)
    n = np.arange(N)
    layout = column_layout(OCCPT, N)
    for x in (rng.standard_normal(N), 0.7 + np.cos(2 * np.pi * 3 * n / N + 1.0)):
        c = occpt_analysis(x)
        for fs in (None, 360.0):
            for floor in (0.0, 1e-8, 0.05):
                table = frequency_components(c, fs=fs, min_magnitude=floor)
                want = components_by_where(layout, c.column_values(), fs, floor)
                assert type(table) is ComponentTable
                assert _hex(list(table)) == _hex(want), (N, fs, floor)
                assert _hex(table[i] for i in range(len(table))) == _hex(want)
                assert all(type(r) is FrequencyComponent for r in table)


def test_columns_are_the_record_fields():
    table = _table()
    for name in COLUMNS:
        column = getattr(table, name)
        assert isinstance(column, np.ndarray) and column.shape == (len(table),)
        assert column.tolist() == [getattr(r, name) for r in table]
    assert table.p.dtype.kind == table.k.dtype.kind == "i"


def test_length_indices_and_slices():
    table = _table()
    records = list(table)
    assert len(table) == len(records) == 28
    assert table[-1] == records[-1] and table[-len(table)] == records[0]
    assert table[np.int64(3)] == records[3] and table[True] == records[1]
    for i in (len(table), -len(table) - 1):
        with pytest.raises(IndexError):
            table[i]
    with pytest.raises(TypeError):
        table[1.0]
    for s in (slice(2, 7), slice(None, None, -3), slice(40, None)):
        part = table[s]
        assert type(part) is ComponentTable and part == records[s]
    assert list(reversed(table)) == records[::-1]
    assert records[5] in table and table.index(records[5]) == 5


def test_field_types():
    for fs, hz_type in ((360.0, float), (None, type(None))):
        table = _table(fs=fs)
        for r in (table[0], *table):
            assert [type(v) for v in r] == [int, int, float, hz_type, float, float]
    assert _table(fs=None).freq_hz is None


def test_records_are_made_on_access():
    table = _table()
    assert table[0] is not table[0] and table[0] == table[0]


def test_table_is_read_only():
    table = _table()
    for name in COLUMNS:
        with pytest.raises(ValueError):
            getattr(table, name)[0] = 0
        with pytest.raises(AttributeError):
            setattr(table, name, np.zeros(len(table)))
        with pytest.raises(AttributeError):
            delattr(table, name)
    with pytest.raises(AttributeError):
        table.extra = 1
    with pytest.raises(TypeError, match="unhashable"):
        hash(table)


def test_equality_with_sequences():
    table = _table()
    records = list(table)
    plain = [tuple(r) for r in records]
    for other in (records, plain, tuple(records), tuple(plain), _table()):
        assert table == other and other == table and not table != other
    for other in (records[:-1], records[1:] + records[:1], [], _table(fs=None)):
        assert table != other and other != table and not table == other
    assert table != "x" and table != 1


def test_empty_table_from_a_high_floor():
    table = _table(floor=1e9)
    assert len(table) == 0 and table == [] and list(table) == []
    assert all(getattr(table, name).shape == (0,) for name in ("p", "k", "freq", "magnitude"))
    with pytest.raises(IndexError):
        table[0]
    assert table[:] == []


def test_without_sample_rate():
    x = tone(0.6, 100.0, 360.0, 54, np.pi / 3)
    table = frequency_components(occpt_analysis(x), min_magnitude=1e-6)
    assert table.freq_hz is None and table[0].freq_hz is None
    assert table[0].to_dict()["freq_hz"] is None and table[:1].freq_hz is None


def test_dictionary_components_are_a_table():
    sol = dictionary_solve(make_x2().samples, build_dictionary(54, 50))
    table = sol.components(fs=360.0, min_magnitude=0.05)
    assert type(table) is ComponentTable and len(table) > 0
    assert _hex(table) == _hex(components_by_where(sol.dictionary.layout, sol.b_hat, 360.0, 0.05))


def test_records_serialize_through_to_dict():
    table = _table()
    rows = [r.to_dict() for r in table]
    assert rows[0] == dict(zip(COLUMNS, table[0])) and len(rows) == len(table)


def test_pickle_and_repr():
    table = _table()
    back = pickle.loads(pickle.dumps(table))
    assert type(back) is ComponentTable and back == table
    assert not back.magnitude.flags.writeable
    assert repr(table) == f"ComponentTable({list(table)!r})"


def test_constructor_keeps_the_callers_arrays_writable():
    cols = [np.arange(3), np.ones(3, dtype=int), np.full(3, 0.25), None, np.ones(3), np.zeros(3)]
    table = ComponentTable(*cols)
    assert all(a.flags.writeable for a in cols if a is not None)
    assert not table.magnitude.flags.writeable
    assert table == [(0, 1, 0.25, None, 1.0, 0.0), (1, 1, 0.25, None, 1.0, 0.0),
                     (2, 1, 0.25, None, 1.0, 0.0)]


def test_table_is_exported():
    assert ccpt.ComponentTable is ComponentTable and "ComponentTable" in ccpt.period.__all__


def test_constructor_rejects_ragged_and_2d_columns():
    p, k, f, m, ph = np.array([3, 4]), np.array([1, 1]), np.full(2, 0.3), np.ones(2), np.zeros(2)
    bad = [
        (p, np.array([1]), np.array([0.3]), None, np.array([1.0, 2.0, 3.0]), np.array([0.0])),
        (p, k, f, np.ones(3), m, ph),
        (p, k, f, None, m, ph[:1]),
        (p[:, None], k[:, None], f[:, None], None, m[:, None], ph[:, None]),
        (p, k, f, None, np.ones((2, 2)), ph),
        (np.array(3), np.array(1), np.array(0.3), None, np.array(1.0), np.array(0.0)),
    ]
    for cols in bad:
        with pytest.raises(ValueError, match="1-D of one length"):
            ComponentTable(*cols)
    assert len(ComponentTable(p, k, f, 360 * f, m, ph)) == 2
    assert len(ComponentTable(p, k, f, None, m, ph)[1:]) == 1
