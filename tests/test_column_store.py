"""A sheet stores its cells by column.  Random edits keep it equal to a
plain dict of cells under every read: get, the cells view, materialize,
export_doc, equality and copy.  Storage grows with the rows written, not
the rows declared, and a read of a column costs no call per row."""

import cProfile
import math
import pstats
import random
import tracemalloc

import pytest

from namebook import engine
from namebook.docio import (ExportError, encode_field, export_doc, rebuild,
                            stray_formula_cells)
from namebook.engine import build_dep_graph, evaluate
from namebook.formula import parse_formula
from namebook.values import DIV0_ERROR, REF_ERROR, Array
from namebook.workbook import (FORMULA, GridRange, NameDef, RefError, Sheet,
                               Workbook)

from arrays import of_rows

_LITERALS = [0.0, -0.0, 1.5, 7.0, 3, True, False, "", "t", "=a1", DIV0_ERROR,
             REF_ERROR, None, None, None]
_REFUSED = [math.inf, math.nan, [1.0], object()]


class _DictSheet:
    """The reference: cells in a dict keyed by (row, col), set one by one
    with Sheet.set's rules."""

    def __init__(self, rows, cols, cells=()):
        self.rows, self.cols, self.cells = rows, cols, dict(cells)

    def set(self, row, col, value):
        if not (1 <= row <= self.rows and 1 <= col <= self.cols):
            raise RefError("outside")
        if value is None:
            self.cells.pop((row, col), None)
            return
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError("not finite")
        if isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        elif not isinstance(value, (float, bool, str, type(DIV0_ERROR))):
            raise ValueError("not a literal")
        self.cells[row, col] = value

    def fill(self, rng, rows):
        rng = rng.clamp(self.rows)
        for r, values in zip(range(rng.row_start, rng.row_end + 1), rows):
            for c, value in zip(range(rng.col_start, rng.col_end + 1), values):
                self.set(r, c, value)

    def get(self, row, col):
        return self.cells.get((row, col))


def _typed(cells):
    return {k: (type(v), repr(v)) for k, v in cells.items()}


def _outcome(call, *args):
    """The exception type call raises, or None."""
    try:
        call(*args)
    except (RefError, ValueError) as exc:
        return type(exc)
    return None


def _book(rng):
    rows, cols = rng.randrange(1, 10), rng.randrange(1, 6)
    wb = Workbook().add_sheet("s", rows, cols)
    wb.define_name(NameDef("whole", target=GridRange("s", 1, min(2, cols))))
    c2, r2 = rng.randrange(1, cols + 1), rng.randrange(1, rows + 1)
    wb.define_name(NameDef("box", target=GridRange("s", 1, c2, 1, r2)))
    return wb, _DictSheet(rows, cols)


def _rect(rng, rows, cols, spill=0):
    c1 = rng.randrange(1, cols + 1)
    c2 = rng.randrange(c1, cols + 1 + spill)
    if rng.random() < 0.25:
        return GridRange("s", c1, c2)
    r1 = rng.randrange(1, rows + 1)
    return GridRange("s", c1, c2, r1, rng.randrange(r1, rows + 1 + spill))


def _step(rng, wb, model):
    """One random write, to the workbook and to the model alike."""
    rows, cols = model.rows, model.cols
    pick = rng.random()
    if pick < 0.45:
        row = rows if rng.random() < 0.2 else rng.randrange(0, rows + 2)
        args = (row, rng.randrange(0, cols + 2),
                rng.choice(_LITERALS + _REFUSED[:1]))
    elif pick < 0.6:
        # Clear the last written cell of a column, or a cell past its end.
        col = rng.randrange(1, cols + 1)
        last = max((r for r, c in model.cells if c == col), default=0)
        if last < rows and (not last or rng.random() < 0.3):
            last = rng.randrange(last + 1, rows + 1)
        args = (last, col, None)
    else:
        rect = _rect(rng, rows, cols, spill=1)
        height, width = rect.shape(rows)
        block = [[rng.choice(_LITERALS) for _ in range(width)]
                 for _ in range(height)]
        if rng.random() < 0.2:  # refused partway
            block[rng.randrange(height)][rng.randrange(width)] = \
                rng.choice(_REFUSED)
        got = _outcome(wb.fill_block, rect, block)
        assert got == _outcome(model.fill, rect, block)
        return
    assert _outcome(wb.set_cell, "s", *args) == _outcome(model.set, *args)


def _data_section(wb, model):
    """export_doc's data blocks, each cell encoded from the model."""
    lines = []
    for addr, rng in sorted((nd.target.address(True), nd.target)
                            for nd in wb.input_ranges()):
        rng = rng.clamp(model.rows)
        lines.append("[DATA] %s" % addr)
        for r in range(rng.row_start, rng.row_end + 1):
            lines.append("\t".join(encode_field(model.get(r, c))
                                   for c in range(rng.col_start,
                                                  rng.col_end + 1)))
    return "\n".join(lines) + "\n"


def _agree(rng, wb, model):
    sheet = wb.sheet("s")
    for r in range(0, model.rows + 2):
        for c in range(0, model.cols + 2):
            assert repr(sheet.get(r, c)) == repr(model.get(r, c)), (r, c)
    assert _typed(sheet.cells) == _typed(model.cells)
    with pytest.raises(TypeError):
        sheet.cells[1, 1] = 1.0  # the view is read-only
    same = Sheet("s", model.rows, model.cols, model.cells)
    assert sheet == same and _typed(same.cells) == _typed(model.cells)
    with pytest.raises(TypeError):  # a sheet is mutable, so unhashable
        hash(sheet)
    other = dict(model.cells)
    other[1, 1] = "x" if other.get((1, 1)) != "x" else 0.5
    assert sheet != Sheet("s", model.rows, model.cols, other)

    state = engine._EvalState(wb, build_dep_graph(wb), {}, {})
    for _ in range(3):
        rect = _rect(rng, model.rows, model.cols)
        bounded = rect.clamp(model.rows)
        want = [[model.get(r, c)
                 for c in range(bounded.col_start, bounded.col_end + 1)]
                for r in range(bounded.row_start, bounded.row_end + 1)]
        got = state.materialize(rect, ())
        if want == [[want[0][0]]]:
            assert repr(got) == repr(want[0][0])
        else:
            assert repr(got) == repr(of_rows(want))
        assert state.materialize(rect, ()) is got or \
            not isinstance(got, Array)

    stray = sorted((r, c) for (r, c), v in model.cells.items()
                   if isinstance(v, str) and v.startswith("="))
    assert stray_formula_cells(wb) == [
        GridRange("s", c, c, r, r).address(True) for r, c in stray]
    try:
        want = _data_section(wb, model)  # an error value cannot be written
    except ExportError:
        want = None
    if stray or want is None:
        with pytest.raises(ExportError):
            export_doc(wb)
        return
    text = export_doc(wb)
    assert text[text.index("[DATA] "):] == want
    inputs = [nd.target for nd in wb.input_ranges()]
    kept = {k: v for k, v in model.cells.items()
            if any(t.contains(*k) for t in inputs)}
    assert rebuild(text).sheet("s") == Sheet("s", model.rows, model.cols,
                                             kept)


def test_the_column_store_agrees_with_a_dict_of_cells():
    # A copy is a new pair: writes to either copy must not reach the other.
    rng = random.Random(18)
    for _ in range(60):
        books = [_book(rng)]
        for _ in range(25):
            if rng.random() < 0.1:
                wb, model = rng.choice(books)
                books.append((wb.copy(), _DictSheet(model.rows, model.cols,
                                                    model.cells)))
            _step(rng, *rng.choice(books))
            for wb, model in books:
                _agree(rng, wb, model)


def test_a_cleared_sheet_equals_a_fresh_one():
    # Clearing the last cells of a column trims it, so equal cells make
    # equal sheets however they were written.
    sheet = Sheet("s", 10, 4)
    sheet.set(9, 3, 1.0)
    sheet.set(2, 3, "a")
    sheet.set(9, 3, None)
    assert sheet == Sheet("s", 10, 4, {(2, 3): "a"})
    sheet.set(2, 3, None)
    assert sheet == Sheet("s", 10, 4) and sheet.columns == []


def test_storage_grows_with_the_rows_written_not_the_rows_declared():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        wb = Workbook().add_sheet("s", 10 ** 6, 3)
        for row in range(1, 6):
            wb.set_cell("s", row, 1, float(row))
        wb.fill_block(GridRange("s", 2, 3, 1, 2), [[1.0, "a"], [True, 2.0]])
        dup = wb.copy()
        back = rebuild("#%NAMESDOC v1\n[SHEET] s rows=1000000 cols=3\n"
                       "[NAME] scope=workbook id=x kind=range array=0\n"
                       "  target=s!A1:B2\n[DATA] s!A1:B2\n1\t2\n3\t4\n")
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert dup.sheet("s").get(5, 1) == 5.0 and back.sheet("s").get(2, 2) == 4.0
    assert used < 64 * 1024, used


def _column_book(n):
    wb = Workbook().add_sheet("s", n, 4)
    wb.define_name(NameDef("xs", target=GridRange("s", 1, 1)))
    for ident, col, text in (("ys", 2, "xs"), ("dbl", 3, "xs * 2 + 1"),
                             ("big", 4, "xs > 100")):
        wb.define_name(NameDef(ident, target=GridRange("s", col, col),
                               formula=parse_formula(text)))
    wb.define_name(NameDef("total", None, FORMULA,
                           formula=parse_formula("SUM(xs)")))
    wb.fill_block(GridRange("s", 1, 1), [[float(r)] for r in range(n)])
    return wb


def _evaluate_calls(wb):
    prof = cProfile.Profile()
    prof.enable()
    store = evaluate(wb)
    prof.disable()
    return sum(s[1] for s in pstats.Stats(prof).stats.values()), store


def test_a_column_read_makes_no_call_per_row():
    # A read slices each column once, and an owner-free rectangle is
    # copied once per evaluate, so the count does not grow with the rows.
    # Nor does whole-column arithmetic, a comparison or SUM over floats:
    # each maps a float twin or folds in C.
    small, store = _evaluate_calls(_column_book(800))
    large, big = _evaluate_calls(_column_book(3200))
    assert small == large
    assert store.value("ys") is store.value("xs")
    assert big.value("total") == 3199 * 3200 / 2
    assert big.value("dbl").cells[-1] == [6399.0]
    assert big.value("big").cells[100:102] == [[False], [True]]
