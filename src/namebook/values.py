"""Cell values and the scalar operation kernels.

A scalar is one of: None (blank), float, bool, str, or CellError.  Array wraps
a rectangular, non-empty grid of scalars; arrays never nest.  The kernels here
define coercion and error propagation once, one kernel per operator in
BINARY, so the array evaluator and the compiled sweep closures cannot drift
apart.
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
    """Rectangular non-empty grid of scalars.

    Arrays are built from rows an evaluator has just made or from sheet
    cells, which Sheet.set checked on entry, so the rows are kept as
    given: no copy and no per-scalar check.  Rows may be shared
    between arrays (a broadcast repeats one row object), so an Array and
    its rows are never mutated after construction.
    """

    __slots__ = ("cells",)
    def __init__(self, cells):
        self.cells = cells

    @property
    def shape(self):
        return (len(self.cells), len(self.cells[0]))

    def get(self, i, j):
        return self.cells[i][j]

    def __eq__(self, other):
        return isinstance(other, Array) and self.cells == other.cells

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
        return v.cells[0][0]
    return v


# --- canonical number text ---------------------------------------------------

def format_number(x: float) -> str:
    """Shortest decimal text that parses back to exactly this double."""
    if x != x or x in (math.inf, -math.inf):
        return "#VALUE!"  # unreachable from the engine; defensive
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


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


def to_text(s):
    if isinstance(s, CellError):
        return s
    if s is None:
        return ""
    if isinstance(s, bool):
        return "TRUE" if s else "FALSE"
    if isinstance(s, (int, float)):
        return format_number(float(s))
    return s


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
    x = to_text(a)
    y = to_text(b)
    return x + y


# Type classes for comparison ordering: numbers < text < bools.
def _cmp_class(s):
    if isinstance(s, bool):
        return 2
    if isinstance(s, (int, float)):
        return 0
    if isinstance(s, str):
        return 1
    return None


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
    return kernel


def negate(a):
    if isinstance(a, CellError):
        return a
    x = to_number(a)
    if isinstance(x, CellError):
        return x
    return 0.0 - x


def percent(a):
    if isinstance(a, CellError):
        return a
    x = to_number(a)
    if isinstance(x, CellError):
        return x
    return x / 100.0


def logical_not(a):
    b = to_bool(a)
    if isinstance(b, CellError):
        return b
    return not b


# One kernel per binary operator, for whole arrays and sweeps alike.
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
