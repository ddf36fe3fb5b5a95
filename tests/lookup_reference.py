"""The scanning MATCH, LOOKUP and array-index INDEX kernels that
namebook.engine used before it indexed the searched vector once per call,
unchanged apart from imports and one fix.  Tests compare
`namebook.engine` against them.

`_match_scalar` answers one key by a scan of the whole vector, so a call
with n keys over n slots costs O(n^2).  The fix is in `_index_int`: a
non-finite index is #VALUE!, where `int(n)` used to raise."""

from __future__ import annotations

import math

from namebook import values as V
from namebook.engine import _broadcast
from namebook.values import Array, CellError

from arrays import of_rows


def _as_vector(v):
    """(position, scalar) pairs of a single-row or single-column value."""
    if not isinstance(v, Array):
        return [(1, v)]
    r, c = v.shape
    if r != 1 and c != 1:
        return None
    out = []
    pos = 0
    for row in v.cells:
        for s in row:
            pos += 1
            out.append((pos, s))
    return out


def _match_scalar(key, vector, exact):
    """Position of key in vector.  Blank slots are skipped but still count
    toward the position.  exact picks the first equal element; otherwise
    the last element <= key over ascending data wins.  No hit is #VALUE!."""
    if isinstance(key, CellError):
        return key
    best = None
    for pos, s in vector:
        if s is None:
            continue
        if isinstance(s, CellError):
            return s
        if exact:
            eq = V.BINARY["="](key, s)
            if isinstance(eq, CellError):
                return eq
            if eq:
                return float(pos)
        else:
            same_class = (isinstance(s, bool) == isinstance(key, bool)
                          and isinstance(s, str) == isinstance(key, str))
            if not same_class:
                continue
            le = V.BINARY["<="](s, key)
            if isinstance(le, CellError):
                return le
            if le:
                best = float(pos)
    if best is None:
        return V.VALUE_ERROR
    return best


def _builtin_match(args):
    if len(args) not in (2, 3):
        return V.VALUE_ERROR
    vector = _as_vector(args[1])
    if vector is None:
        return V.VALUE_ERROR
    exact = False
    if len(args) == 3:
        mode = V.to_number(V.collapse(args[2]))
        if isinstance(mode, CellError):
            return mode
        exact = (mode == 0)
    return _broadcast(lambda k: _match_scalar(k, vector, exact), args[0])


def _builtin_lookup(args):
    if len(args) != 3:
        return V.VALUE_ERROR
    vector = _as_vector(args[1])
    result = _as_vector(args[2])
    if vector is None or result is None:
        return V.VALUE_ERROR
    by_pos = dict(result)

    def one(k):
        pos = _match_scalar(k, vector, exact=False)
        if isinstance(pos, CellError):
            return pos
        if int(pos) not in by_pos:
            return V.REF_ERROR
        return by_pos[int(pos)]

    return _broadcast(one, args[0])


def _index_int(s):
    n = V.to_number(s)
    if isinstance(n, CellError):
        return n
    if n < 0 or not math.isfinite(n):
        return V.VALUE_ERROR
    return int(n)


def index_by_arrays(src, idx_args):
    """INDEX(src, idx_args...) where some index is an Array: the tail of
    the old `_builtin_index`, after its arguments were checked for errors
    and src was dereferenced."""
    if not isinstance(src, Array):
        src = of_rows([[src]])
    r, c = src.shape
    if len(idx_args) == 1:
        if c == 1:
            row_idx, col_idx = idx_args[0], 1.0
        else:
            row_idx, col_idx = 1.0, idx_args[0]
    else:
        row_idx, col_idx = idx_args

    def gather(ri, ci):
        i = _index_int(ri)
        if isinstance(i, CellError):
            return i
        j = _index_int(ci)
        if isinstance(j, CellError):
            return j
        if i == 0 or j == 0:
            return V.VALUE_ERROR
        if i > r or j > c:
            return V.REF_ERROR
        return src.cells[i - 1][j - 1]

    return _broadcast(gather, row_idx, col_idx)
