"""engine._broadcast against the generic fold it takes a short cut past.

_broadcast hands operands that already agree in shape (scalars, and
Arrays of one shape other than 1x1) straight to the kernel.  The
reference below is the fold every call used to take: combine the shapes,
lay each operand out over the result, zip the rows.  The two must give
the same repr, scalar or Array, over random operand lists mixing every
kind of scalar with Arrays that conform and Arrays that do not."""

import random

from namebook import engine
from namebook import values as V
from namebook.values import Array


def _rows_of(v, shape):
    rows, cols = shape
    if not isinstance(v, Array):
        return [[v] * cols] * rows
    cells = v.cells
    if len(cells[0]) != cols:
        cells = [row * cols for row in cells]
    return cells if len(cells) == rows else cells * rows


def _reference(fn, *args):
    shape = (1, 1)
    for a in args:
        shape = V.broadcast_shapes(shape, V.value_shape(a))
        if shape is None:
            return V.VALUE_ERROR
    if shape == (1, 1):
        return fn(*map(V.collapse, args))
    laid_out = [_rows_of(a, shape) for a in args]
    return Array([list(map(fn, *row)) for row in zip(*laid_out)])


# (kernel, the operand counts it takes)
KERNELS = ([(k, (2,)) for k in V.BINARY.values()]
           + [(V.negate, (1,)), (V.percent, (1,)), (V.logical_not, (1,)),
              (engine._if, (2, 3))])

SCALARS = ([None, True, False, "", "x", "2.5"]
           + [V.CellError(k) for k in V.ERROR_KINDS])


def _scalar(rng):
    roll = rng.random()
    if roll < 0.4:
        return rng.choice((0.0, 1.0, -2.5, 3.0, 1e300))
    return rng.choice(SCALARS)


def _array(rng, shape):
    return Array([[_scalar(rng) for _ in range(shape[1])]
                  for _ in range(shape[0])])


def _operand(rng, shape):
    """A scalar, or an Array that conforms to shape or, now and then,
    one that does not."""
    rows, cols = shape
    kind = rng.randrange(7)
    if kind == 0:
        return _scalar(rng)
    return _array(rng, ((rows, cols), (1, 1), (1, cols), (rows, 1),
                        (rows, cols), (rng.randint(1, 3), rng.randint(1, 3)),
                        (cols, rows))[kind - 1])


def test_the_direct_path_agrees_with_the_generic_fold():
    rng = random.Random(12)
    direct = 0
    for _ in range(4000):
        fn, arities = rng.choice(KERNELS)
        shape = rng.choice(((1, 1), (1, 4), (3, 1), (2, 3), (3, 3)))
        args = [_operand(rng, shape) for _ in range(rng.choice(arities))]
        arrays = {a.shape for a in args if isinstance(a, Array)}
        direct += len(arrays) < 2 and (1, 1) not in arrays
        assert repr(engine._broadcast(fn, *args)) == \
            repr(_reference(fn, *args)), (fn, args)
    assert direct > 1000  # the direct path is well exercised


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
            want = Array(_rows_of(value, shape))
        assert repr(got) == repr(want), (value, shape)
        if isinstance(value, Array) and value.shape == shape != (1, 1):
            assert got is value
