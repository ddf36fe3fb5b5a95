"""MATCH, LOOKUP and INDEX with Array indices agree with the scanning
kernels of tests/lookup_reference.py on random vectors.

The vectors hold blanks, errors, mixed-case text, bools, -0.0 and 0.0,
±inf and nan (computed arrays can hold them), with duplicates, and are
unsorted, sorted or reversed.  Keys and indices are drawn from the same
pool, so blank, error and nan keys come up.  Values compare through repr,
so -0.0 against 0.0 and nan count."""

import math
import random

from namebook import engine
from namebook.values import (Array, CellError, DIV0_ERROR, REF_ERROR,
                             VALUE_ERROR)

import lookup_reference as ref
from arrays import of_rows

_POOL = (None, None, DIV0_ERROR, VALUE_ERROR, REF_ERROR,
         0.0, -0.0, 1.0, 1.0, 2.0, 2.5, 3.0, -1.0, 7.0, 100.0,
         math.inf, -math.inf, math.nan,
         "", "a", "A", "b", "B", "abc", "ABC", "zz",
         True, False)
_INDICES = (0.0, -0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 1.5, 2.99, 0.5, 3.5,
            -1.0, 9.0, math.inf, -math.inf, math.nan, None, True, False, "2",
            VALUE_ERROR)


def _scalar(rng, errors):
    while True:
        s = rng.choice(_POOL)
        if errors or not isinstance(s, CellError):
            return s


def _vector(rng):
    n = rng.randint(1, 10)
    errors = rng.random() < 0.3
    slots = [_scalar(rng, errors) for _ in range(n)]
    order = rng.random()
    if order < 0.25:
        numbers = sorted(s for s in slots if type(s) is float and s == s)
        slots = [numbers.pop(0) if type(s) is float and s == s else s
                 for s in slots]
    elif order < 0.35:
        slots.reverse()
    return slots


def _shaped(rng, slots):
    """The slots as a column, a row, or a lone scalar."""
    if len(slots) == 1 and rng.random() < 0.3:
        return slots[0]
    if rng.random() < 0.5:
        return of_rows([[s] for s in slots])
    return of_rows([list(slots)])


def _keys(rng):
    keys = [_scalar(rng, True) for _ in range(rng.randint(1, 6))]
    return _shaped(rng, keys)


def _indices(rng, n):
    """An Array of two or more indices, as a column or a row."""
    idx = [rng.choice(_INDICES) for _ in range(max(2, n))]
    return of_rows([[i] for i in idx] if rng.random() < 0.5 else [idx])


def test_match_and_lookup_agree_with_the_scan():
    rng = random.Random(1701)
    for case in range(12000):
        vector = _shaped(rng, _vector(rng))
        keys = _keys(rng)
        for mode in ([], [1.0], [0.0], [-1.0], [False], [None]):
            args = [keys, vector] + mode
            assert repr(engine._builtin_match(args)) == repr(
                ref._builtin_match(args)), (case, args)
        result = _shaped(rng, _vector(rng))
        args = [keys, vector, result]
        assert repr(engine._builtin_lookup(args)) == repr(
            ref._builtin_lookup(args)), (case, args)


def test_match_over_a_grid_is_a_value_error():
    grid = of_rows([[1.0, 2.0], [3.0, 4.0]])
    assert engine._builtin_match([1.0, grid]) == VALUE_ERROR
    assert engine._builtin_lookup([1.0, of_rows([[1.0]]), grid]) == VALUE_ERROR


def test_index_by_arrays_agrees_with_the_gather():
    rng = random.Random(1702)
    for case in range(10000):
        slots = _vector(rng)
        if rng.random() < 0.25:
            width = rng.randint(2, 3)
            src = of_rows([[_scalar(rng, True) for _ in range(width)]
                           for _ in range(rng.randint(2, 3))])
        else:
            src = _shaped(rng, slots)
        n = rng.randint(2, 6)
        idx = [_indices(rng, n)]
        if rng.random() < 0.4:
            idx.append(_indices(rng, n) if rng.random() < 0.7
                       else rng.choice(_INDICES[:6]))
            if rng.random() < 0.5:
                idx.reverse()
        # An error source is returned before any index is read.
        want = (src if isinstance(src, CellError)
                else ref.index_by_arrays(src, idx))
        assert repr(engine._builtin_index(None, [src] + idx)) == repr(
            want), (case, src, idx)


def test_a_non_finite_index_is_a_value_error():
    xs = of_rows([[1.0], [2.0]])
    for bad in (math.inf, -math.inf, math.nan):
        assert engine._builtin_index(None, [xs, bad]) == VALUE_ERROR
        assert engine._builtin_index(None, [xs, of_rows([[bad], [1.0]])]) == \
            of_rows([[VALUE_ERROR], [1.0]])
    assert engine._builtin_index(None, [xs, of_rows([[3.0], [2.0]])]) == \
        of_rows([[REF_ERROR], [2.0]])


def test_an_in_range_float_index_down_a_column_skips_index_int(monkeypatch):
    # Floats inside the column are read in place; only the others go
    # through _index_int's checks.
    calls = []

    def counted(s):
        calls.append(s)
        return index_int(s)

    index_int = engine._index_int
    monkeypatch.setattr(engine, "_index_int", counted)
    column = of_rows([[10.0], [20.0], [30.0]])
    assert engine._builtin_index(None, [column, of_rows(
        [[3.5], [1.0], [2.99]])]) == of_rows([[30.0], [10.0], [20.0]])
    assert calls == []
    assert engine._builtin_index(None, [column, of_rows(
        [[4.0], [True]])]) == of_rows([[REF_ERROR], [10.0]])
    assert calls == [4.0, True]
