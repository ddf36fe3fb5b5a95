"""Independent reference implementations used to cross-check the engine.

Everything here recomputes results from first principles: a naive
cell-at-a-time recursive interpreter for whole workbooks, a closed form
for escalated prices, a loop amortization schedule and a sort-based
merge.  None of it shares evaluation code with namebook.engine; the only
shared pieces are the data model (Workbook, GridRange, parsed formulas)
and the value containers (Array, the error objects), so that results
compare with plain ==.
"""

import math

from namebook.formula import (Binary, BoolLit, Call, CellRef, Intersect,
                              NameRef, NumberLit, Percent, TextLit, Unary)
from namebook.values import (Array, CellError, CYCLE_ERROR, DIV0_ERROR,
                             NAME_ERROR, NULL_ERROR, REF_ERROR, VALUE_ERROR)
from namebook.workbook import FORMULA, RANGE, GridRange, RefError

from arrays import of_rows


# --- scalar helpers (written fresh, no reuse of namebook.values kernels) ----

def _num(s):
    if isinstance(s, CellError):
        return s
    if s is None:
        return 0.0
    if isinstance(s, bool):
        return 1.0 if s else 0.0
    if isinstance(s, float):
        return s
    return VALUE_ERROR


def _num_text(x):
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _text(s):
    if isinstance(s, CellError):
        return s
    if s is None:
        return ""
    if isinstance(s, bool):
        return "TRUE" if s else "FALSE"
    if isinstance(s, float):
        return _num_text(s)
    return s


def _bool(s):
    if isinstance(s, CellError):
        return s
    if s is None:
        return False
    if isinstance(s, bool):
        return s
    if isinstance(s, float):
        return s != 0
    return VALUE_ERROR


def _arith(op, a, b):
    for e in (a, b):
        if isinstance(e, CellError):
            return e
    x = _num(a)
    if isinstance(x, CellError):
        return x
    y = _num(b)
    if isinstance(y, CellError):
        return y
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if op == "/":
        return DIV0_ERROR if y == 0 else x / y
    assert op == "^"
    try:
        r = math.pow(x, y)
    except (ValueError, OverflowError):
        return VALUE_ERROR
    if r != r or r in (math.inf, -math.inf):
        return VALUE_ERROR
    return r


def _rank(s):
    if isinstance(s, bool):
        return 2
    if isinstance(s, float):
        return 0
    return 1


def _compare(op, a, b):
    for e in (a, b):
        if isinstance(e, CellError):
            return e
    if a is None and b is None:
        a = b = 0.0
    elif a is None:
        a = {0: 0.0, 1: "", 2: False}[_rank(b)]
    elif b is None:
        b = {0: 0.0, 1: "", 2: False}[_rank(a)]
    ra, rb = _rank(a), _rank(b)
    if ra != rb:
        if op == "=":
            return False
        if op == "<>":
            return True
        lt = ra < rb
        return lt if op in ("<", "<=") else not lt
    if ra == 1:
        a, b = a.casefold(), b.casefold()
    return {"=": a == b, "<>": a != b, "<": a < b,
            "<=": a <= b, ">": a > b, ">=": a >= b}[op]


def _binary(op, a, b):
    if op in ("+", "-", "*", "/", "^"):
        return _arith(op, a, b)
    if op == "&":
        for e in (a, b):
            if isinstance(e, CellError):
                return e
        return _text(a) + _text(b)
    return _compare(op, a, b)


# --- broadcasting over plain values -----------------------------------------

def _shape(v):
    return v.shape if isinstance(v, Array) else (1, 1)


def _join_shape(sa, sb):
    out = []
    for a, b in zip(sa, sb):
        if a == b or b == 1:
            out.append(a)
        elif a == 1:
            out.append(b)
        else:
            return None
    return tuple(out)


def _at(v, i, j, shape):
    if not isinstance(v, Array):
        return v
    r, c = v.shape
    if r == shape[0]:
        ii = i
    elif r == 1:
        ii = 0
    else:
        return VALUE_ERROR
    if c == shape[1]:
        jj = j
    elif c == 1:
        jj = 0
    else:
        return VALUE_ERROR
    return v.cells[ii][jj]


def _map2(fn, a, b):
    shape = _join_shape(_shape(a), _shape(b))
    if shape is None:
        return VALUE_ERROR
    if shape == (1, 1):
        return fn(a if not isinstance(a, Array) else a.cells[0][0],
                  b if not isinstance(b, Array) else b.cells[0][0])
    return of_rows([[fn(_at(a, i, j, shape), _at(b, i, j, shape))
                     for j in range(shape[1])] for i in range(shape[0])])


def _map1(fn, a):
    if isinstance(a, Array):
        return of_rows([[fn(s) for s in row] for row in a.cells])
    return fn(a)


def _scalars(v):
    if isinstance(v, Array):
        for row in v.cells:
            yield from row
    else:
        yield v


# --- builtins, written as straight loops ------------------------------------

def _fn_sum(args):
    total = 0.0
    for v in args:
        for s in _scalars(v):
            if isinstance(s, CellError):
                return s
            if isinstance(s, float):
                total += s
    return total


def _fn_minmax(args, better):
    best = None
    for v in args:
        for s in _scalars(v):
            if isinstance(s, CellError):
                return s
            if isinstance(s, float):
                best = s if best is None or better(s, best) else best
    return 0.0 if best is None else best


def _fn_andor(args, identity):
    acc = identity
    seen = False
    for v in args:
        for s in _scalars(v):
            if isinstance(s, CellError):
                return s
            if s is None or isinstance(s, str):
                continue
            b = s if isinstance(s, bool) else s != 0
            acc = (acc and b) if identity else (acc or b)
            seen = True
    return acc if seen else VALUE_ERROR


def _fn_if(args):
    if len(args) not in (2, 3):
        return VALUE_ERROR
    if len(args) == 2:
        args = (args[0], args[1], False)
    shape = _shape(args[0])
    for v in args[1:]:
        shape = _join_shape(shape, _shape(v))
        if shape is None:
            return VALUE_ERROR

    def pick(c, y, n):
        t = _bool(c)
        if isinstance(t, CellError):
            return t
        return y if t else n

    if shape == (1, 1):
        vals = [v.cells[0][0] if isinstance(v, Array) else v for v in args]
        return pick(*vals)
    return of_rows([[pick(_at(args[0], i, j, shape),
                          _at(args[1], i, j, shape),
                          _at(args[2], i, j, shape))
                     for j in range(shape[1])] for i in range(shape[0])])


def _vectorize(v):
    if not isinstance(v, Array):
        return [v]
    r, c = v.shape
    if r != 1 and c != 1:
        return None
    return [s for row in v.cells for s in row]


def _match_pos(key, vec, exact):
    if isinstance(key, CellError):
        return key
    best = None
    for pos, s in enumerate(vec, start=1):
        if s is None:
            continue
        if isinstance(s, CellError):
            return s
        if exact:
            hit = _compare("=", key, s)
            if isinstance(hit, CellError):
                return hit
            if hit:
                return float(pos)
        else:
            if isinstance(s, bool) != isinstance(key, bool):
                continue
            if isinstance(s, str) != isinstance(key, str):
                continue
            le = _compare("<=", s, key)
            if isinstance(le, CellError):
                return le
            if le:
                best = float(pos)
    return VALUE_ERROR if best is None else best


def _fn_match(args):
    if len(args) not in (2, 3):
        return VALUE_ERROR
    vec = _vectorize(args[1])
    if vec is None:
        return VALUE_ERROR
    exact = False
    if len(args) == 3:
        mode = _num(args[2].cells[0][0] if isinstance(args[2], Array)
                    and args[2].shape == (1, 1) else args[2])
        if isinstance(mode, CellError):
            return mode
        exact = (mode == 0)
    return _map1(lambda k: _match_pos(k, vec, exact), args[0])


def _fn_lookup(args):
    if len(args) != 3:
        return VALUE_ERROR
    vec = _vectorize(args[1])
    res = _vectorize(args[2])
    if vec is None or res is None:
        return VALUE_ERROR

    def one(k):
        pos = _match_pos(k, vec, exact=False)
        if isinstance(pos, CellError):
            return pos
        if int(pos) > len(res):
            return REF_ERROR
        return res[int(pos) - 1]

    return _map1(one, args[0])


def _idx(s):
    n = _num(s)
    if isinstance(n, CellError):
        return n
    if n < 0 or not math.isfinite(n):
        return VALUE_ERROR
    return int(n)


# --- the interpreter --------------------------------------------------------

class OracleError(Exception):
    pass


class Oracle:
    """Cell-at-a-time recursive evaluation of a whole workbook.

    Recurrences are not swept; a displaced read simply recurses into the
    neighbour cell, which terminates whenever the model itself does.
    The only scheduling question is whether a formula range takes the
    per-cell route (it participates in a displacement cycle) or is
    computed in one piece.
    """

    def __init__(self, wb):
        self.wb = wb
        self.cells = {}
        self.wholes = {}
        self.busy = set()
        self.owner = {}
        for nd in wb.names.values():
            if nd.kind == RANGE and nd.formula is not None and nd.target:
                rows = wb.sheet(nd.target.sheet).rows
                for rc in nd.target.cells(rows):
                    self.owner[(nd.target.sheet,) + rc] = nd
        self.lazy_keys = self._displacement_cycles()

    # A formula range is in a displacement cycle when following "reads
    # the cells of" edges comes back around to itself.
    def _displacement_cycles(self):
        writers = {}
        for nd in self.wb.names.values():
            if nd.kind == RANGE and nd.formula is not None and nd.target:
                writers[nd.key()] = self._clamped(nd.target)

        def reads(nd):
            out = set()
            todo = [nd.formula]
            seen_formulas = set()
            while todo:
                e = todo.pop()
                for ref in self._name_refs(e):
                    hit = self._resolve(ref, nd)
                    if hit is None:
                        continue
                    if hit.kind == FORMULA:
                        if hit.key() not in seen_formulas:
                            seen_formulas.add(hit.key())
                            todo.append(hit.formula)
                    elif hit.target is not None:
                        rect = self._clamped(hit.target)
                        for wkey, wrect in writers.items():
                            if (wrect.sheet == rect.sheet
                                    and rect.intersect(wrect) is not None):
                                out.add(wkey)
            return out

        edges = {}
        for nd in self.wb.names.values():
            if nd.key() in writers:
                edges[nd.key()] = reads(nd)
        lazy = set()
        for start in edges:
            stack, seen = list(edges[start]), set()
            while stack:
                k = stack.pop()
                if k == start:
                    lazy.add(start)
                    break
                if k in seen:
                    continue
                seen.add(k)
                stack.extend(edges.get(k, ()))
        return lazy

    def _name_refs(self, e):
        if isinstance(e, NameRef):
            yield e
        elif isinstance(e, Unary):
            yield from self._name_refs(e.operand)
        elif isinstance(e, Percent):
            yield from self._name_refs(e.operand)
        elif isinstance(e, Binary):
            yield from self._name_refs(e.lhs)
            yield from self._name_refs(e.rhs)
        elif isinstance(e, Intersect):
            yield from self._name_refs(e.lhs)
            yield from self._name_refs(e.rhs)
        elif isinstance(e, Call):
            for a in e.args:
                yield from self._name_refs(a)

    def _clamped(self, rng):
        return rng.clamp(self.wb.sheet(rng.sheet).rows)

    def _resolve(self, ref, nd):
        ctx = self.wb.context_sheet(nd)
        try:
            return self.wb.resolve(ref.name, ctx, ref.sheet)
        except Exception:
            return None

    # -- cells ---------------------------------------------------------

    def cell(self, sheet, row, col):
        key = (sheet, row, col)
        if key in self.cells:
            return self.cells[key]
        nd = self.owner.get(key)
        if nd is None:
            out = self.wb.sheet(sheet).get(row, col)
        elif key in self.busy:
            out = CYCLE_ERROR
        else:
            self.busy.add(key)
            try:
                out = self._formula_cell(nd, row, col)
            finally:
                self.busy.discard(key)
        self.cells[key] = out
        return out

    def _formula_cell(self, nd, row, col):
        rect = self._clamped(nd.target)
        i, j = row - rect.row_start, col - rect.col_start
        if nd.key() in self.lazy_keys:
            return self._at_cell(nd.formula, nd, rect, i, j)
        whole = self.whole_of(nd)
        if isinstance(whole, GridRange):
            whole = self.deref(whole)
        return _at(whole, i, j, rect.shape())

    # -- per-cell route (displacement cycles) --------------------------

    def _at_cell(self, e, nd, rect, i, j):
        if isinstance(e, NumberLit):
            return e.value
        if isinstance(e, TextLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, CellRef):
            return REF_ERROR
        if isinstance(e, NameRef):
            hit = self._resolve(e, nd)
            if hit is None:
                return NAME_ERROR
            if hit.kind == FORMULA:
                return self._at_cell(hit.formula, hit, rect, i, j)
            if hit.target is None:
                return REF_ERROR
            t = self._clamped(hit.target)
            tr, tc = t.shape()
            mr, mc = rect.shape()
            if tr == mr:
                ti = i
            elif tr == 1:
                ti = 0
            else:
                return VALUE_ERROR
            if tc == mc:
                tj = j
            elif tc == 1:
                tj = 0
            else:
                return VALUE_ERROR
            return self.cell(t.sheet, t.row_start + ti, t.col_start + tj)
        if isinstance(e, Unary):
            v = self._at_cell(e.operand, nd, rect, i, j)
            if isinstance(v, CellError):
                return v
            n = _num(v)
            return n if isinstance(n, CellError) else 0.0 - n
        if isinstance(e, Percent):
            v = self._at_cell(e.operand, nd, rect, i, j)
            if isinstance(v, CellError):
                return v
            n = _num(v)
            return n if isinstance(n, CellError) else n / 100.0
        if isinstance(e, Binary):
            a = self._at_cell(e.lhs, nd, rect, i, j)
            b = self._at_cell(e.rhs, nd, rect, i, j)
            return _binary(e.op, a, b)
        if isinstance(e, Call) and e.func == "IF" and len(e.args) in (2, 3):
            c = self._at_cell(e.args[0], nd, rect, i, j)
            t = _bool(c)
            if isinstance(t, CellError):
                return t
            if t:
                return self._at_cell(e.args[1], nd, rect, i, j)
            if len(e.args) == 2:
                return False
            return self._at_cell(e.args[2], nd, rect, i, j)
        # Any other call or an intersection is computed in one piece and
        # indexed, exactly as the array semantics prescribe.
        v = self.whole_expr(e, nd)
        if isinstance(v, GridRange):
            v = self.deref(v)
        return _at(v, i, j, rect.shape())

    # -- whole-value route ---------------------------------------------

    def whole_of(self, nd):
        key = nd.key()
        if key in self.wholes:
            return self.wholes[key]
        if key in self.busy:
            return CYCLE_ERROR
        self.busy.add(key)
        try:
            out = self.whole_expr(nd.formula, nd)
        finally:
            self.busy.discard(key)
        self.wholes[key] = out
        return out

    def deref(self, v):
        if not isinstance(v, GridRange):
            return v
        rect = self._clamped(v)
        rows = [[self.cell(rect.sheet, r, c)
                 for c in range(rect.col_start, rect.col_end + 1)]
                for r in range(rect.row_start, rect.row_end + 1)]
        if len(rows) == 1 and len(rows[0]) == 1:
            return rows[0][0]
        return of_rows(rows)

    def whole_expr(self, e, nd):
        if isinstance(e, NumberLit):
            return e.value
        if isinstance(e, TextLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, CellRef):
            return REF_ERROR
        if isinstance(e, NameRef):
            hit = self._resolve(e, nd)
            if hit is None:
                return NAME_ERROR
            if hit.kind == FORMULA:
                return self.whole_of(hit)
            if hit.target is None:
                return REF_ERROR
            return hit.target
        if isinstance(e, Unary):
            v = self.deref(self.whole_expr(e.operand, nd))
            return _map1(lambda s: (s if isinstance(s, CellError) else
                                    self._neg(s)), v)
        if isinstance(e, Percent):
            v = self.deref(self.whole_expr(e.operand, nd))
            return _map1(lambda s: (s if isinstance(s, CellError) else
                                    self._pct(s)), v)
        if isinstance(e, Binary):
            a = self.deref(self.whole_expr(e.lhs, nd))
            b = self.deref(self.whole_expr(e.rhs, nd))
            return _map2(lambda x, y: _binary(e.op, x, y), a, b)
        if isinstance(e, Intersect):
            a = self.whole_expr(e.lhs, nd)
            b = self.whole_expr(e.rhs, nd)
            for v in (a, b):
                if isinstance(v, CellError):
                    return v
            if not isinstance(a, GridRange) or not isinstance(b, GridRange):
                return VALUE_ERROR
            out = a.intersect(b)
            return out if out is not None else NULL_ERROR
        assert isinstance(e, Call)
        return self._call(e, nd)

    @staticmethod
    def _neg(s):
        n = _num(s)
        return n if isinstance(n, CellError) else 0.0 - n

    @staticmethod
    def _pct(s):
        n = _num(s)
        return n if isinstance(n, CellError) else n / 100.0

    def _call(self, e, nd):
        raws = [self.whole_expr(a, nd) for a in e.args]
        if e.func == "IF":
            return _fn_if([self.deref(v) for v in raws])
        if e.func == "SUM":
            return _fn_sum([self.deref(v) for v in raws])
        if e.func == "MIN":
            return _fn_minmax([self.deref(v) for v in raws],
                              lambda a, b: a < b)
        if e.func == "MAX":
            return _fn_minmax([self.deref(v) for v in raws],
                              lambda a, b: a > b)
        if e.func == "AND":
            return _fn_andor([self.deref(v) for v in raws], True)
        if e.func == "OR":
            return _fn_andor([self.deref(v) for v in raws], False)
        if e.func == "NOT":
            if len(raws) != 1:
                return VALUE_ERROR
            return _map1(lambda s: (s if isinstance(s, CellError) else
                                    self._not(s)), self.deref(raws[0]))
        if e.func == "MATCH":
            return _fn_match([self.deref(v) for v in raws])
        if e.func == "LOOKUP":
            return _fn_lookup([self.deref(v) for v in raws])
        if e.func == "INDEX":
            return self._index(raws)
        return NAME_ERROR

    @staticmethod
    def _not(s):
        b = _bool(s)
        return b if isinstance(b, CellError) else not b

    def _index(self, raws):
        if len(raws) not in (2, 3):
            return VALUE_ERROR
        source = raws[0]
        if isinstance(source, CellError):
            return source
        idx = [self.deref(v) for v in raws[1:]]
        for v in idx:
            if isinstance(v, CellError):
                return v
        if all(_shape(v) == (1, 1) for v in idx):
            nums = []
            for v in idx:
                n = _idx(v.cells[0][0] if isinstance(v, Array) else v)
                if isinstance(n, CellError):
                    return n
                nums.append(n)
            if isinstance(source, GridRange):
                rect = self._clamped(source)
                r, c = rect.shape()
                if len(nums) == 1:
                    if c == 1:
                        nums = [nums[0], 0]
                    elif r == 1:
                        nums = [0, nums[0]]
                    else:
                        return VALUE_ERROR
                if nums[0] > r:  # past the rows the range covers
                    return REF_ERROR
                try:
                    return source.index_slice(nums[0], nums[1])
                except RefError:
                    return REF_ERROR
            src = source if isinstance(source, Array) else of_rows([[source]])
            r, c = src.shape
            if len(nums) == 1:
                if c == 1:
                    nums = [nums[0], 0]
                elif r == 1:
                    nums = [0, nums[0]]
                else:
                    return VALUE_ERROR
            row, col = nums
            if row > r or col > c:
                return REF_ERROR
            sel = [[src.cells[i][j]
                    for j in (range(c) if col == 0 else [col - 1])]
                   for i in (range(r) if row == 0 else [row - 1])]
            if len(sel) == 1 and len(sel[0]) == 1:
                return sel[0][0]
            return of_rows(sel)
        src = self.deref(source)
        if isinstance(src, CellError):
            return src
        if not isinstance(src, Array):
            src = of_rows([[src]])
        r, c = src.shape
        if len(idx) == 1:
            ri, ci = (idx[0], 1.0) if c == 1 else (1.0, idx[0])
        else:
            ri, ci = idx

        def gather(a, b):
            i = _idx(a)
            if isinstance(i, CellError):
                return i
            j = _idx(b)
            if isinstance(j, CellError):
                return j
            if i == 0 or j == 0:
                return VALUE_ERROR
            if i > r or j > c:
                return REF_ERROR
            return src.cells[i - 1][j - 1]

        return _map2(gather, ri, ci)


def oracle_evaluate(wb):
    """Every defined name's value, computed the slow transparent way."""
    orc = Oracle(wb)
    out = {}
    for key, nd in wb.names.items():
        if nd.kind == FORMULA:
            v = orc.whole_of(nd)
            if isinstance(v, GridRange):
                v = orc.deref(v)
            out[key] = v
        elif nd.target is None:
            out[key] = REF_ERROR
        else:
            out[key] = orc.deref(nd.target)
    return out


# --- closed forms and loop oracles ------------------------------------------

def escalated_price(initial, rate, period):
    """Price after `period` compounding steps (period is 1-based)."""
    return initial * (1.0 + rate) ** period


def amortization_schedule(amount, rate, periods, grace, fixed_payment,
                          payment, principal_part):
    """Balance per period for one borrowing profile, by plain iteration."""
    balances = [amount]
    for t in range(2, periods + 1):
        prev = balances[-1]
        interest = prev * rate
        if t <= grace:
            service = 0.0
        elif fixed_payment:
            service = payment
        else:
            service = interest + principal_part
        balances.append(prev + interest - service)
    return balances


def merged_lists(a, b, slots=40):
    """Ascending merge of two sorted lists, zero-padded to `slots`."""
    out = sorted([float(x) for x in a] + [float(x) for x in b])
    return out + [0.0] * (slots - len(out))
