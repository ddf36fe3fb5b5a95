"""engine._broadcast and SUM/MIN/MAX against the loops they take a
short cut past.

_broadcast hands operands that already agree in shape (scalars, and
Arrays of one shape other than 1x1) straight to the kernel, maps a
kernel's float twin in its place when the operands are floats alone
(for /, with no divisor of 0), and picks IF's cells in C when its
condition is bools alone.  The reference below is the fold every call
used to take: combine the shapes, lay each operand out over the result,
zip the rows, and apply the kernel to every cell.  The two must give
the same scalar, or an Array whose one row-major list holds the
reference's rows and whose kind holds for every cell, over random
operand lists mixing every kind of scalar with Arrays that conform and
Arrays that do not, and over lists of floats (or, for IF's condition,
bools) alone, with and without one cell of another kind.  SUM, MIN and
MAX fold an Array of floats in C; the reference is their loop over each
scalar."""

import random

from namebook import engine
from namebook import values as V
from namebook.values import Array

from arrays import kind_of, of_rows


def _rows_of(v, shape):
    rows, cols = shape
    if not isinstance(v, Array):
        return [[v] * cols] * rows
    cells = v.cells
    if len(cells[0]) != cols:
        cells = [row * cols for row in cells]
    return cells if len(cells) == rows else cells * rows


def _reference(fn, *args):
    """The fold: fn's scalar, or the rows of the result."""
    shape = (1, 1)
    for a in args:
        shape = V.broadcast_shapes(shape, V.value_shape(a))
        if shape is None:
            return V.VALUE_ERROR
    if shape == (1, 1):
        return fn(*map(V.collapse, args))
    laid_out = [_rows_of(a, shape) for a in args]
    return [list(map(fn, *row)) for row in zip(*laid_out)]


# (kernel, the operand counts it takes)
KERNELS = ([(k, (2,)) for k in V.BINARY.values()]
           + [(V.negate, (1,)), (V.percent, (1,)), (V.logical_not, (1,)),
              (engine._if, (2, 3))])

SCALARS = ([None, True, False, "", "x", "2.5"]
           + [V.CellError(k) for k in V.ERROR_KINDS])

# Floats with a sign, at the edge of overflow, and the inf and nan that
# overflow makes.
_INF = 1e300 * 1e300
FLOATS = (0.0, -0.0, 1.0, -2.5, 3.0, 100.5, 1e300, -1e300, _INF, -_INF,
          _INF - _INF)


def _scalar(rng):
    roll = rng.random()
    if roll < 0.4:
        return rng.choice((0.0, 1.0, -2.5, 3.0, 1e300))
    return rng.choice(SCALARS)


def _float(rng):
    return rng.choice(FLOATS)


def _bool(rng):
    return rng.random() < 0.5


def _array(rng, shape, draw=_scalar):
    return of_rows([[draw(rng) for _ in range(shape[1])]
                    for _ in range(shape[0])])


def _operand(rng, shape, draw=_scalar):
    """A scalar, or an Array that conforms to shape or, now and then,
    one that does not."""
    rows, cols = shape
    kind = rng.randrange(7)
    if kind == 0:
        return draw(rng)
    return _array(rng, ((rows, cols), (1, 1), (1, cols), (rows, 1),
                        (rows, cols), (rng.randint(1, 3), rng.randint(1, 3)),
                        (cols, rows))[kind - 1], draw)


def _spoil(rng, args):
    """args with one cell of one Array, at a random position, replaced
    by a blank, a bool, text or an error."""
    arrays = [i for i, a in enumerate(args) if isinstance(a, Array)]
    if not arrays:
        return args
    i = rng.choice(arrays)
    cells = [list(row) for row in args[i].cells]
    row = rng.choice(cells)
    row[rng.randrange(len(row))] = rng.choice(SCALARS)
    return args[:i] + [of_rows(cells)] + args[i + 1:]


def _all_of(v, t):
    if isinstance(v, Array):
        return all(type(s) is t for row in v.cells for s in row)
    return type(v) is t


def _no_zero(v):
    return all(s != 0 for s in (v.flat if isinstance(v, Array) else [v]))


def test_the_direct_path_agrees_with_the_generic_fold(monkeypatch):
    # Each kernel with a twin, and _if, is wrapped in one that counts its
    # calls: a call of _broadcast that gives an Array without calling the
    # kernel took the twin, or IF's select.
    calls = []
    wrapped = {k: lambda *a, k=k: calls.append(None) or k(*a)
               for k in (*V.FLOAT_TWIN, engine._if)}
    unwrap = {w: k for k, w in wrapped.items()}
    for kernel, entry in list(V.FLOAT_TWIN.items()):
        monkeypatch.delitem(V.FLOAT_TWIN, kernel)
        monkeypatch.setitem(V.FLOAT_TWIN, wrapped[kernel], entry)
    monkeypatch.setattr(engine, "_if", wrapped[engine._if])
    divide = wrapped[V.BINARY["/"]]
    # IF is drawn three times as often as another kernel, so that enough
    # of its calls meet a condition of bools alone in one shape.
    kernels = [(wrapped.get(k, k), n) for k, n in KERNELS]
    kernels += [(engine._if, (2, 3))] * 2
    rng = random.Random(12)
    direct = twinned = spoiled = taken = picked = selected = 0
    for _ in range(8000):
        fn, arities = rng.choice(kernels)
        shape = rng.choice(((1, 1), (1, 4), (3, 1), (2, 3), (3, 3),
                            (40, 1), (1, 40), (8, 8)))
        mode = rng.choice(("mixed", "floats", "spoiled"))
        draw = _scalar if mode == "mixed" else _float
        args = [_operand(rng, shape, draw)
                for _ in range(rng.choice(arities))]
        if fn is engine._if and mode != "mixed":
            args[0] = _operand(rng, shape, _bool)
        if mode == "spoiled":
            args = _spoil(rng, args)
        arrays = {a.shape for a in args if isinstance(a, Array)}
        is_direct = len(arrays) < 2 and (1, 1) not in arrays
        direct += is_direct
        # Scalars alone go to fn itself: a map needs an Array.
        mapped = is_direct and len(arrays) == 1
        eligible = mapped and fn in V.FLOAT_TWIN and (
            fn is not divide or _no_zero(args[1]))
        floats = all(_all_of(a, float) for a in args)
        twinned += eligible and floats
        spoiled += eligible and mode == "spoiled" and not floats
        picked += mapped and fn is engine._if and _all_of(args[0], bool)
        before = len(calls)
        got = engine._broadcast(fn, *args)
        want = _reference(unwrap.get(fn, fn), *args)
        short_cut = type(got) is Array and len(calls) == before
        taken += short_cut and fn in V.FLOAT_TWIN
        selected += short_cut and fn is engine._if
        if isinstance(want, list):
            # One row-major list of rows * cols cells, whose rows are
            # the reference's, and a kind that holds for each of them.
            rows, cols = len(want), len(want[0])
            assert type(got) is Array and got.shape == (rows, cols)
            assert len(got.flat) == rows * cols
            assert repr(got.cells) == repr(want), (fn, args)
            assert got.kind is kind_of(got.flat), (fn, args)
        else:
            assert repr(got) == repr(want), (fn, args)
    assert direct > 2000  # the direct path is well exercised
    # The twin is taken exactly when it may, and refused for every list
    # of floats that holds one cell of another kind; IF selects exactly
    # when its condition is bools alone, spoiled ones included.
    assert taken == twinned == 410
    assert spoiled == 400
    assert selected == picked >= 100


def _sum_reference(args):
    total = 0.0
    for v in args:
        for s in ([s for row in v.cells for s in row]
                  if isinstance(v, Array) else [v]):
            if isinstance(s, V.CellError):
                return s
            if s is None or isinstance(s, (bool, str)):
                continue
            total += float(s)
    return total


def _minmax_reference(args, pick):
    best = None
    for v in args:
        for s in ([s for row in v.cells for s in row]
                  if isinstance(v, Array) else [v]):
            if isinstance(s, V.CellError):
                return s
            if s is None or isinstance(s, (bool, str)):
                continue
            s = float(s)
            best = s if best is None else pick(best, s)
    return 0.0 if best is None else best


def test_sum_min_and_max_agree_with_the_per_scalar_loop():
    nan = _INF - _INF
    # nan before, among and after the maximum, and -0.0 against 0.0
    cases = [[of_rows([[nan], [1.0], [5.0]])], [of_rows([[1.0, nan, 5.0]])],
             [of_rows([[1.0], [5.0], [nan]])], [5.0, of_rows([[nan, 1.0]])],
             [of_rows([[1.0, 5.0]]), nan, of_rows([[7.0, 2.0]])],
             [of_rows([[-0.0, 0.0]])], [of_rows([[0.0, -0.0]])],
             [0.0, of_rows([[-0.0]])], [-0.0, of_rows([[0.0], [-0.0]])],
             [of_rows([[1e300, 1e300, -_INF]])]]
    rng = random.Random(14)
    for _ in range(3000):
        args = []
        for _ in range(rng.randint(1, 4)):
            shape = (rng.randint(1, 6), rng.randint(1, 3))
            roll = rng.random()
            if roll < 0.2:
                args.append(rng.choice((_scalar, _float))(rng))
            elif roll < 0.7:
                args.append(_array(rng, shape, _float))
            else:
                args.append(_spoil(rng, [_array(rng, shape, _float)])[0])
        cases.append(args)
    floats_alone = 0
    for args in cases:
        floats_alone += any(isinstance(a, Array) and _all_of(a, float)
                            for a in args)
        assert repr(engine._builtin_sum(args)) == \
            repr(_sum_reference(args)), args
        for pick in (min, max):
            assert repr(engine._builtin_minmax(args, pick)) == \
                repr(_minmax_reference(args, pick)), (pick, args)
    assert floats_alone > 1500


def test_a_value_of_the_target_shape_is_kept_as_it_is():
    rng = random.Random(13)
    for _ in range(500):
        shape = rng.choice(((1, 1), (1, 4), (3, 1), (2, 3)))
        value = _operand(rng, shape)
        got = engine._expand_to_shape(value, shape)
        if shape == (1, 1):
            want = V.collapse(value)
            want = V.VALUE_ERROR if isinstance(want, Array) else want
        else:
            if V.broadcast_shapes(V.value_shape(value), shape) != shape:
                value = V.VALUE_ERROR
            want = of_rows(_rows_of(value, shape))
            assert len(got.flat) == shape[0] * shape[1]
        assert repr(got) == repr(want), (value, shape)
        if isinstance(value, Array) and value.shape == shape != (1, 1):
            assert got is value
