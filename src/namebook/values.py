"""Cell values and the scalar operation kernels.

A scalar is one of: None (blank), float, bool, str, or CellError.  Array wraps
a rectangular, non-empty grid of scalars; arrays never nest.  The kernels here
define coercion and error propagation once so the array evaluator and the
per-cell sweep evaluator cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ERROR_KINDS = ("#NAME?", "#VALUE!", "#NULL!", "#REF!", "#DIV/0!", "#CYCLE!")


@dataclass(frozen=True)
class CellError:
    kind: str

    def __post_init__(self):
        if self.kind not in ERROR_KINDS:
            raise ValueError("unknown error kind: %r" % (self.kind,))

    def __str__(self):
        return self.kind


NAME_ERROR = CellError("#NAME?")
VALUE_ERROR = CellError("#VALUE!")
NULL_ERROR = CellError("#NULL!")
REF_ERROR = CellError("#REF!")
DIV0_ERROR = CellError("#DIV/0!")
CYCLE_ERROR = CellError("#CYCLE!")


def is_scalar(v) -> bool:
    return v is None or isinstance(v, (bool, float, int, str, CellError))


class Array:
    """Rectangular non-empty grid of scalars."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        rows = [list(r) for r in cells]
        if not rows or not rows[0]:
            raise ValueError("arrays are non-empty")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("arrays are rectangular")
            for v in r:
                if isinstance(v, Array) or not is_scalar(v):
                    raise ValueError("array cells are scalars, never arrays")
        self.cells = rows

    @classmethod
    def filled(cls, shape, scalar):
        r, c = shape
        return cls([[scalar] * c for _ in range(r)])

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


def element_at(v, i, j, shape):
    """Scalar at (i, j) under broadcasting against an output of `shape`."""
    if not isinstance(v, Array):
        return v
    r, c = v.shape
    if (r not in (1, shape[0])) or (c not in (1, shape[1])):
        return VALUE_ERROR
    return v.cells[i if r == shape[0] else 0][j if c == shape[1] else 0]


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


def arith(op: str, a, b):
    """Binary arithmetic on scalars; first error (left to right) wins."""
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
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if op == "/":
        if y == 0:
            return DIV0_ERROR
        return x / y
    if op == "^":
        try:
            r = math.pow(x, y)
        except (ValueError, OverflowError):
            return VALUE_ERROR
        if r != r or r in (math.inf, -math.inf):
            return VALUE_ERROR
        return r
    raise ValueError("unknown arithmetic operator %r" % op)


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


def compare(op: str, a, b):
    """Comparison on scalars. Text comparison is case-insensitive."""
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
        # Distinct type classes never compare equal and order by class rank.
        if op == "=":
            return False
        if op == "<>":
            return True
        lt = ca < cb
        return {"<": lt, "<=": lt, ">": not lt, ">=": not lt}[op]
    if ca == 1:
        a, b = a.casefold(), b.casefold()
    elif ca == 0:
        a, b = float(a), float(b)
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise ValueError("unknown comparison operator %r" % op)


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
