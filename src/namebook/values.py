"""Cell values and the scalar operation kernels.

A scalar is one of: None (blank), float, bool, str, or CellError.  Array wraps
a rectangular, non-empty grid of scalars as one row-major list and its
shape, and knows its kind (float or bool when every cell is one), found
by one scan on first use and kept; arrays never nest.  The kernels here
define coercion and error propagation once, one kernel per operator in
BINARY, so the array evaluator and the compiled sweep closures cannot
drift apart; -x runs on them as 0 - x, and x% as x / 100.  A kernel's
float twin (FLOAT_TWIN), which the array evaluator maps over floats
alone, gives what the kernel gives two floats.
"""

from __future__ import annotations

import math
import operator

ERROR_KINDS = ("#NAME?", "#VALUE!", "#NULL!", "#REF!", "#DIV/0!", "#CYCLE!")


class Record:
    """Base of the records: slot classes whose fields only __init__ sets.
    Records of one class with equal _fields (by default __slots__) are
    equal and hash alike.  GridRange, compared per scheduled read, has
    its own __eq__."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        if cls._fields:
            cls._key = staticmethod(operator.attrgetter(*cls._fields))

    def __eq__(self, other):
        return type(other) is type(self) and self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


class CellError(Record):
    __slots__ = ("kind",)
    def __init__(self, kind: str):
        if kind not in ERROR_KINDS:
            raise ValueError("unknown error kind: %r" % (kind,))
        self.kind = kind

    def __str__(self):
        return self.kind


NAME_ERROR = CellError("#NAME?")
VALUE_ERROR = CellError("#VALUE!")
NULL_ERROR = CellError("#NULL!")
REF_ERROR = CellError("#REF!")
DIV0_ERROR = CellError("#DIV/0!")
CYCLE_ERROR = CellError("#CYCLE!")


class Array:
    """Rectangular non-empty grid of scalars: one row-major list, flat,
    and its shape, (rows, cols).  Cell (i, j) is flat[i * cols + j].

    Arrays are built from lists an evaluator has just made or from sheet
    cells, which Sheet.set checked on entry, so flat is kept as given:
    no copy and no per-scalar check.  A list may be shared between
    arrays (a value of the right shape is passed on as it is), so an
    Array and its list are never mutated after construction.  cells,
    the rows, is built on each access.

    kind is float or bool when every cell is exactly that type, else
    False: one scan in C on first use, kept since flat never changes.  A
    constructor that knows it may pass it; a wrong kind is a wrong result.
    """

    __slots__ = ("flat", "shape", "_kind")
    def __init__(self, flat, shape, kind=None):
        self.flat, self.shape, self._kind = flat, shape, kind

    @property
    def kind(self):
        if self._kind is None:
            t = set(map(type, self.flat))
            self._kind = t.pop() if t == {float} or t == {bool} else False
        return self._kind

    @property
    def cells(self):
        flat, cols = self.flat, self.shape[1]
        return [flat[k:k + cols] for k in range(0, len(flat), cols)]

    def get(self, i, j):
        return self.flat[i * self.shape[1] + j]

    def __eq__(self, other):
        return (isinstance(other, Array) and self.shape == other.shape
                and self.flat == other.flat)

    def __repr__(self):
        return "Array(%r)" % (self.cells,)


def value_shape(v):
    return v.shape if isinstance(v, Array) else (1, 1)


def broadcast_shapes(sa, sb):
    """Combined shape, or None when the two do not conform."""
    out = []
    for a, b in zip(sa, sb):
        if a == b or b == 1:
            out.append(a)
        elif a == 1:
            out.append(b)
        else:
            return None
    return tuple(out)


def collapse(v):
    """Fold a 1x1 array down to its scalar; other values pass through."""
    if isinstance(v, Array) and v.shape == (1, 1):
        return v.flat[0]
    return v


# --- canonical number text ---------------------------------------------------

def format_number(x: float) -> str:
    """Shortest decimal text that parses back to exactly this double."""
    if x.is_integer():
        return str(int(x)) if abs(x) < 1e16 else repr(x)
    if math.isfinite(x):
        return repr(x)
    return "#VALUE!"  # inf or nan: * and - can make them from finite numbers


# A scalar's text by its exact type: & joins it; the CLI and docio extend it.
TEXT = {
    type(None): lambda s: "",
    bool: lambda s: "TRUE" if s else "FALSE",
    float: format_number,
    str: str,
}


def tab_rows(fields: list, width: int) -> list:
    """Row-major fields as lines of width tab-separated fields each."""
    if width == 1:
        return fields
    return list(map("\t".join, zip(*[iter(fields)] * width)))


# --- scalar kernels ----------------------------------------------------------

def to_number(s):
    """Numeric coercion: blank is 0, bools are 1/0, text does not convert."""
    if isinstance(s, CellError):
        return s
    if s is None:
        return 0.0
    if isinstance(s, bool):
        return 1.0 if s else 0.0
    if isinstance(s, (int, float)):
        return float(s)
    return VALUE_ERROR


def to_bool(s):
    if isinstance(s, CellError):
        return s
    if s is None:
        return False
    if isinstance(s, bool):
        return s
    if isinstance(s, (int, float)):
        return s != 0
    return VALUE_ERROR


def _arithmetic(fn):
    """Kernel applying fn to two numbers: floats go straight through,
    anything else is coerced, and the first error (left to right) wins."""
    def kernel(a, b):
        if type(a) is float and type(b) is float:
            return fn(a, b)
        if isinstance(a, CellError):
            return a
        if isinstance(b, CellError):
            return b
        x = to_number(a)
        if isinstance(x, CellError):
            return x
        y = to_number(b)
        if isinstance(y, CellError):
            return y
        return fn(x, y)
    kernel.fn = fn
    return kernel


def _divide(x, y):
    if y == 0:
        return DIV0_ERROR
    return x / y


def _power(x, y):
    try:
        r = math.pow(x, y)
    except (ValueError, OverflowError):
        return VALUE_ERROR
    if r != r or r in (math.inf, -math.inf):
        return VALUE_ERROR
    return r


def concat(a, b):
    if isinstance(a, CellError):
        return a
    if isinstance(b, CellError):
        return b
    return TEXT[type(a)](a) + TEXT[type(b)](b)


# Type classes for comparison ordering: numbers < text < bools.
def _cmp_class(s):
    if isinstance(s, bool):
        return 2
    if isinstance(s, (int, float)):
        return 0
    if isinstance(s, str):
        return 1


def _coerce_blank_like(other):
    """Blank compares as the zero of the other operand's type."""
    c = _cmp_class(other)
    if c == 1:
        return ""
    if c == 2:
        return False
    return 0.0


def _comparison(fn):
    """Kernel comparing two scalars with fn.  Text compares
    case-insensitively; blank compares as the other operand's zero."""
    def kernel(a, b):
        if type(a) is float and type(b) is float:
            return fn(a, b)
        if isinstance(a, CellError):
            return a
        if isinstance(b, CellError):
            return b
        if a is None and b is None:
            a = b = 0.0
        elif a is None:
            a = _coerce_blank_like(b)
        elif b is None:
            b = _coerce_blank_like(a)
        ca, cb = _cmp_class(a), _cmp_class(b)
        if ca != cb:
            # Distinct type classes never compare equal and order by rank.
            return fn(ca, cb)
        if ca == 1:
            a, b = a.casefold(), b.casefold()
        elif ca == 0:
            a, b = float(a), float(b)
        return fn(a, b)
    kernel.fn = fn
    return kernel


# One kernel per binary operator, for whole arrays and sweeps alike.  An
# _arithmetic or _comparison kernel keeps the function it applies as .fn.
BINARY = {
    "+": _arithmetic(operator.add),
    "-": _arithmetic(operator.sub),
    "*": _arithmetic(operator.mul),
    "/": _arithmetic(_divide),
    "^": _arithmetic(_power),
    "&": concat,
    "=": _comparison(operator.eq),
    "<>": _comparison(operator.ne),
    "<": _comparison(operator.lt),
    "<=": _comparison(operator.le),
    ">": _comparison(operator.gt),
    ">=": _comparison(operator.ge),
}

# Kernel -> (float twin, type of its values): the plain operator that + - *
# / (raising where _divide gives #DIV/0!) and the comparisons apply to two
# floats, mapped over floats alone in C.  ^ checks its result, & is text.
FLOAT_TWIN = {BINARY[op]: (BINARY[op].fn, float) for op in ("+", "-", "*")}
FLOAT_TWIN[BINARY["/"]] = (operator.truediv, float)
FLOAT_TWIN.update((BINARY[op], (BINARY[op].fn, bool))
                  for op in ("=", "<>", "<", "<=", ">", ">="))
