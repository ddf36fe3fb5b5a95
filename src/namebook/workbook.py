"""Workbook model: sheets, grid ranges, defined names.

A workbook is a set of sheets holding literal cell contents plus a set of
defined names.  Names are the only referencing mechanism formulas may use;
each name either targets a rectangular grid range (kind "range") or is a
pure named formula with no cells of its own (kind "formula").  A range name
may additionally carry one array formula that populates every cell of its
rectangle.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from types import MappingProxyType

from .formula import Expr, col_to_index, is_identifier
from .values import CellError, Record


class WorkbookError(Exception):
    pass


class DuplicateNameError(WorkbookError):
    pass


class OverlappingFormulaRangeError(WorkbookError):
    pass


class BadIdentifierError(WorkbookError):
    pass


class UnknownNameError(WorkbookError):
    pass


class UnknownSheetError(WorkbookError):
    pass


class RefError(WorkbookError):
    """Range algebra produced a reference outside any sheet (#REF!)."""


WORKBOOK_SCOPE = None  # scope value for workbook-scoped names

_SHEET_NAME_RE = re.compile(r"^[^\W\d][\w.]*$")


def index_to_col(n: int) -> str:
    out = []
    while n > 0:
        n, rem = divmod(n - 1, 26)
        out.append(chr(65 + rem))
    return "".join(reversed(out))


class GridRange(Record):
    """1-based inclusive rectangle on one sheet.

    row_start/row_end of None (always both) mean the whole-column form: every
    row the sheet declares.  Whole-column ranges clamp to the declared row
    count at evaluation time.  Swapped bounds are put in order.
    """

    __slots__ = ("sheet", "col_start", "col_end", "row_start", "row_end")
    __hash__ = Record.__hash__  # kept, though __eq__ is redefined below
    def __init__(self, sheet: str, col_start: int, col_end: int,
                 row_start: int | None = None, row_end: int | None = None):
        if (row_start is None) != (row_end is None):
            raise ValueError("row bounds are whole as a pair")
        if col_end < col_start:
            col_start, col_end = col_end, col_start
        if col_start < 1:
            raise ValueError("columns are 1-based")
        if row_start is not None:
            if row_end < row_start:
                row_start, row_end = row_end, row_start
            if row_start < 1:
                raise ValueError("rows are 1-based")
        self.sheet, self.col_start, self.col_end = sheet, col_start, col_end
        self.row_start, self.row_end = row_start, row_end

    def __eq__(self, other):
        return (type(other) is GridRange and self.sheet == other.sheet
                and self.col_start == other.col_start
                and self.col_end == other.col_end
                and self.row_start == other.row_start
                and self.row_end == other.row_end)

    @property
    def is_whole_rows(self) -> bool:
        return self.row_start is None

    def clamp(self, sheet_rows: int) -> "GridRange":
        """Bounded version of this range for a sheet with sheet_rows rows."""
        if not self.is_whole_rows:
            return self
        if sheet_rows is None:
            raise ValueError("a whole-column range needs a row count")
        return GridRange(self.sheet, self.col_start, self.col_end, 1, sheet_rows)

    def shape(self, sheet_rows: int | None = None):
        r = self.clamp(sheet_rows)
        return (r.row_end - r.row_start + 1, r.col_end - r.col_start + 1)

    def contains(self, row: int, col: int) -> bool:
        if not (self.col_start <= col <= self.col_end):
            return False
        if self.is_whole_rows:
            return True
        return self.row_start <= row <= self.row_end

    def intersect(self, other: "GridRange") -> "GridRange | None":
        """Intersection, or None for the empty result (the #NULL! case).

        WHOLE bounds intersect as the other operand's bounds, so the
        operation is commutative, associative and idempotent.
        """
        if self.sheet != other.sheet:
            return None
        c1 = max(self.col_start, other.col_start)
        c2 = min(self.col_end, other.col_end)
        if c1 > c2:
            return None
        if self.is_whole_rows and other.is_whole_rows:
            return GridRange(self.sheet, c1, c2)
        if self.is_whole_rows:
            r1, r2 = other.row_start, other.row_end
        elif other.is_whole_rows:
            r1, r2 = self.row_start, self.row_end
        else:
            r1 = max(self.row_start, other.row_start)
            r2 = min(self.row_end, other.row_end)
            if r1 > r2:
                return None
        return GridRange(self.sheet, c1, c2, r1, r2)

    def shift(self, dr: int, dc: int) -> "GridRange":
        """Displaced copy; raises RefError when pushed off the sheet's edge."""
        c1, c2 = self.col_start + dc, self.col_end + dc
        if c1 < 1:
            raise RefError("shift moves %s off the sheet" % (self.address(),))
        if self.is_whole_rows:
            if dr != 0:
                raise RefError("whole-column range cannot shift by rows")
            return GridRange(self.sheet, c1, c2)
        r1, r2 = self.row_start + dr, self.row_end + dr
        if r1 < 1:
            raise RefError("shift moves %s off the sheet" % (self.address(),))
        return GridRange(self.sheet, c1, c2, r1, r2)

    def index_slice(self, row: int, col: int) -> "GridRange":
        """Sub-range selection; index 0 keeps the whole extent on that axis.

        Raises RefError when an index falls outside the band.
        """
        if row < 0 or col < 0:
            raise RefError("negative index")
        out = self
        if col != 0:
            if col > self.col_end - self.col_start + 1:
                raise RefError("column index %d outside %s" % (col, self.address()))
            c = self.col_start + col - 1
            out = GridRange(out.sheet, c, c, out.row_start, out.row_end)
        if row != 0:
            if self.is_whole_rows:
                r = row  # whole-column band: row index is the absolute row
            else:
                if row > self.row_end - self.row_start + 1:
                    raise RefError("row index %d outside %s" % (row, self.address()))
                r = self.row_start + row - 1
            out = GridRange(out.sheet, out.col_start, out.col_end, r, r)
        return out

    def cells(self, sheet_rows: int | None = None):
        r = self.clamp(sheet_rows)
        for row in range(r.row_start, r.row_end + 1):
            for col in range(r.col_start, r.col_end + 1):
                yield (row, col)

    def address(self, with_sheet: bool = False) -> str:
        """A1 text for this range (only serialization may show addresses)."""
        if self.is_whole_rows:
            body = "%s:%s" % (index_to_col(self.col_start), index_to_col(self.col_end))
        else:
            a = "%s%d" % (index_to_col(self.col_start), self.row_start)
            b = "%s%d" % (index_to_col(self.col_end), self.row_end)
            body = a if a == b else a + ":" + b
        return ("%s!%s" % (self.sheet, body)) if with_sheet else body


# One or two corners, each column letters with an optional row; "$" marks
# are allowed and ignored.  A corner may end in one "\n", as "$" let it.
_A1 = re.compile(r"\$?([A-Z]{1,3})\$?([0-9]{1,7})?\n?"
                 r"(?::\$?([A-Z]{1,3})\$?([0-9]{1,7})?\n?)?", re.IGNORECASE)


def parse_a1(sheet: str, text: str) -> GridRange:
    """GridRange for an A1 rectangle like F5:X16, C3 or F:X."""
    m = _A1.fullmatch(text)
    if m is None:
        raise ValueError("bad A1 rectangle %r" % text)
    col1, row1, col2, row2 = m.groups()
    if col2 is None:
        if row1 is None:  # a lone column
            raise ValueError("bad A1 rectangle %r" % text)
        col2, row2 = col1, row1
    elif (row1 is None) != (row2 is None):
        raise ValueError("bad A1 rectangle %r" % text)
    if row1 is None:
        return GridRange(sheet, col_to_index(col1), col_to_index(col2))
    return GridRange(sheet, col_to_index(col1), col_to_index(col2),
                     int(row1), int(row2))


RANGE = "range"
FORMULA = "formula"


class NameDef(Record):
    """One defined name.

    kind "range" names target a GridRange and may carry an array formula
    that populates it.  kind "formula" names are pure expressions with no
    cells.  `derive` records that the target was produced by shifting
    another name's range, as (base identifier, dr, dc).  A range name whose
    target is None is dangling (its sheet was deleted) and evaluates to
    #REF!.  The workbook replaces a definition it changes.
    """

    __slots__ = ("identifier", "scope", "kind", "target", "formula", "array",
                 "derive")
    def __init__(self, identifier, scope=WORKBOOK_SCOPE, kind=RANGE,
                 target=None, formula=None, array=False, derive=None):
        self.identifier, self.scope, self.kind = identifier, scope, kind
        self.target, self.formula, self.array = target, formula, array
        self.derive = derive

    def key(self):
        return (self.scope, self.identifier)

    def display(self) -> str:
        if self.scope is None:
            return self.identifier
        return "%s!%s" % (self.scope, self.identifier)


class Sheet(Record):
    """A sheet's literal cells, stored by column: cell (row, col) is
    columns[col - 1][row - 1], and a blank is None.  Each column is as
    long as its last written row, and the list of columns as long as the
    last column written, so memory grows with the rows written, not the
    rows declared.  A clear trims the blanks it leaves at a column's end,
    so two sheets holding the same cells hold equal columns: sheets are
    equal by their cells.  A range read is a slice of each column.  The
    cells given as a {(row, col): literal} dict are set one by one."""

    __slots__ = ("name", "rows", "cols", "columns")
    def __init__(self, name: str, rows: int, cols: int, cells=None):
        self.name, self.rows, self.cols = name, rows, cols
        self.columns = []
        for (row, col), value in (cells or {}).items():
            self.set(row, col, value)

    @property
    def cells(self):
        """The stored cells as a read-only {(row, col): literal} view,
        built on each access, for inspection: the package reads the
        columns."""
        return MappingProxyType({
            (row, col): value
            for col, column in enumerate(self.columns, 1)
            for row, value in enumerate(column, 1) if value is not None})

    def get(self, row: int, col: int):
        if 0 < col <= len(self.columns):
            column = self.columns[col - 1]
            if 0 < row <= len(column):
                return column[row - 1]
        return None

    def column(self, col: int, row_start: int, row_end: int) -> list:
        """A new list of the cells of column col from row_start to
        row_end, blanks as None."""
        if col > len(self.columns):
            return [None] * (row_end - row_start + 1)
        part = self.columns[col - 1][row_start - 1:row_end]
        short = row_end - row_start + 1 - len(part)
        return part + [None] * short if short else part

    def store(self, col: int, row: int, values):
        """Write values down column col from row on, unchecked: the caller
        knows each is a literal Sheet.set would store as it stands, or
        None, and that they lie inside the sheet.  The blanks this leaves
        at the column's end are dropped, then the empty columns at the
        sheet's end."""
        columns = self.columns
        if (col > len(columns) or row > len(columns[col - 1])) \
                and values.count(None) == len(values):
            return  # blanks past a column's end are blank already
        while len(columns) < col:
            columns.append([])
        column = columns[col - 1]
        if row > len(column):
            column += [None] * (row - 1 - len(column))
        column[row - 1:row - 1 + len(values)] = values
        if column[-1] is None:
            while column and column[-1] is None:
                column.pop()
            while columns and not columns[-1]:
                columns.pop()

    def set(self, row: int, col: int, value):
        """Store a literal; None clears the cell.  A literal is a finite
        number, a bool, text or an error value, since evaluation trusts
        every cell it reads to be one and no document can hold nan or
        inf.  Anything else raises ValueError and leaves the cell as it
        was."""
        if not (1 <= row <= self.rows and 1 <= col <= self.cols):
            raise RefError("cell (%d, %d) outside sheet %s" % (row, col, self.name))
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError("cell (%d, %d) of sheet %s: %r is not finite"
                                 % (row, col, self.name, value))
        elif isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        elif not (value is None or isinstance(value, (bool, str, CellError))):
            raise ValueError("cell (%d, %d) of sheet %s: %r is not a literal"
                             % (row, col, self.name, value))
        self.store(col, row, (value,))

    def copy(self) -> "Sheet":
        """An independent sheet holding the same cells."""
        out = Sheet(self.name, self.rows, self.cols)
        out.columns += [column.copy() for column in self.columns]
        return out


class Workbook:
    """Sheets plus defined names.  Mutators return self for chaining.

    A workbook behaves as a value: evaluation never mutates it, and callers
    that need an independent copy take one with copy().
    """

    def __init__(self):
        self.sheets: dict[str, Sheet] = {}
        self.names: dict[tuple, NameDef] = {}
        # The formula ranges over each run of columns (see _owner_index);
        # None when stale.
        self._owners: dict | None = None
        self._graph = None  # engine.build_dep_graph's result; None when stale
        # The cells written since evaluate() kept its values, as rectangles
        # (sheet, row_start, row_end, col_start, col_end); None while no
        # values are kept, so that nothing is recorded.
        self._written: list | None = None

    # -- sheets ---------------------------------------------------------

    def add_sheet(self, name: str, rows: int, cols: int) -> "Workbook":
        if not _SHEET_NAME_RE.match(name) or name == "workbook":
            raise BadIdentifierError("bad sheet name %r" % name)
        if name in self.sheets:
            raise DuplicateNameError("sheet %r already exists" % name)
        if rows < 1 or cols < 1:
            raise ValueError("sheet extent must be positive")
        self.sheets[name] = Sheet(name, rows, cols)
        self._graph = self._written = None  # a qualifier naming it resolves
        return self

    def sheet(self, name: str) -> Sheet:
        try:
            return self.sheets[name]
        except KeyError:
            raise UnknownSheetError("no sheet named %r" % name) from None

    def bounded(self, rng: GridRange) -> GridRange:
        """rng clamped to the rows its sheet declares."""
        return rng.clamp(self.sheet(rng.sheet).rows)

    def set_cell(self, sheet: str, row: int, col: int, value) -> "Workbook":
        self.sheet(sheet).set(row, col, value)
        if self._written is not None:
            self._written.append((sheet, row, row, col, col))
        return self

    def fill_block(self, rng: GridRange, rows) -> "Workbook":
        """Write a rectangle of literals covering rng, row-major, cell by
        cell through Sheet.set, which converts or refuses each.  Cells
        are written in order, so a refused cell leaves the ones before it
        written."""
        sh = self.sheet(rng.sheet)
        bounded = rng.clamp(sh.rows)
        data = [list(r) for r in rows]
        shape = bounded.shape()
        if len(data) != shape[0] or any(len(r) != shape[1] for r in data):
            raise ValueError("block shape %s does not cover %s"
                             % ((len(data), len(data[0]) if data else 0), rng.address()))
        if self._written is not None:  # before a refused cell stops the loop
            self._written.append((bounded.sheet, bounded.row_start,
                                  bounded.row_end, bounded.col_start,
                                  bounded.col_end))
        cols = range(bounded.col_start, bounded.col_end + 1)
        for row, values in zip(range(bounded.row_start, bounded.row_end + 1),
                               data):
            for col, value in zip(cols, values):
                sh.set(row, col, value)
        return self

    def delete_sheet(self, name: str) -> "Workbook":
        """Remove a sheet, its sheet-scoped names, and dangle the rest.

        Sheet-scoped names die with their sheet.  Workbook-scoped range
        names that target the sheet keep their key but lose the
        target, evaluating to #REF! from then on.
        """
        self.sheet(name)
        del self.sheets[name]
        self._owners = self._graph = self._written = None
        self.names = {k: NameDef(d.identifier, d.scope, d.kind)
                      if d.target is not None and d.target.sheet == name else d
                      for k, d in self.names.items() if d.scope != name}
        return self

    # -- names ----------------------------------------------------------

    def _check_target(self, target: GridRange):
        sh = self.sheet(target.sheet)
        if target.col_end > sh.cols:
            raise RefError("%s exceeds sheet columns" % target.address(True))
        if not target.is_whole_rows and target.row_end > sh.rows:
            raise RefError("%s exceeds sheet rows" % target.address(True))

    def _claim(self, nd: NameDef):
        """Index nd's formula range as the owner of its cells, or raise
        OverlappingFormulaRangeError, naming the earliest-defined owner,
        when a formula range already owns one of them.

        The runs of nd's columns are split off at its edges.  Formula
        ranges never overlap, so within a run they sort by first and by
        last row alike: one bisection per run finds the place past the
        last one starting on or above nd's bottom row, and nd is free in
        that run when the one before that place ends above nd's top row.
        nd goes in at that place in every run once all are free.  A claim
        costs O(runs * log n)."""
        rng = self.bounded(nd.target)
        top, bottom = rng.row_start, rng.row_end
        starts, runs = self._owner_index().setdefault(rng.sheet, ([1], [[]]))
        first = _split(starts, runs, rng.col_start)
        span = runs[first:_split(starts, runs, rng.col_end + 1)]
        probe = (bottom, math.inf)
        places = []
        for owners in span:
            i = bisect_right(owners, probe)
            if i and owners[i - 1][1] >= top:
                taken = self.formula_owners(rng)
                earliest = next(k for k in self.names if k in taken)
                raise OverlappingFormulaRangeError(
                    "%s overlaps formula range %s"
                    % (nd.display(), self.names[earliest].display()))
            places.append(i)
        entry = (top, bottom, nd.key())
        for owners, i in zip(span, places):
            owners.insert(i, entry)

    def _owner_index(self) -> dict:
        """sheet -> (starts, runs): the sheet's columns cut into runs of
        columns that the same formula ranges cover, run k starting at
        column starts[k] and holding the sorted (row_start, row_end, key)
        of those ranges as runs[k]; built on first use."""
        if self._owners is None:
            self._owners = {}
            for nd in self.formula_bearing():
                self._claim(nd)
        return self._owners

    def formula_owners(self, rng: GridRange) -> frozenset:
        """Keys of the formula ranges that own any cell of rng: in each run
        of its columns, bisect as _claim does, then step back while they
        still reach rng's top row.  A query costs O(runs * log n + hits).
        """
        index = self._owner_index().get(rng.sheet)
        sh = self.sheets.get(rng.sheet)
        if index is None or sh is None:
            return frozenset()
        rng = rng.clamp(sh.rows)
        starts, runs = index
        probe, top = (rng.row_end, math.inf), rng.row_start
        hits = set()
        for owners in runs[bisect_right(starts, rng.col_start) - 1:
                           bisect_right(starts, rng.col_end)]:
            i = bisect_right(owners, probe)
            while i > 0 and owners[i - 1][1] >= top:
                i -= 1
                hits.add(owners[i][2])
        return frozenset(hits)

    def define_name(self, nd: NameDef) -> "Workbook":
        if not is_identifier(nd.identifier):
            raise BadIdentifierError("bad identifier %r" % nd.identifier)
        if nd.scope is not None and nd.scope not in self.sheets:
            raise UnknownSheetError("scope sheet %r does not exist" % nd.scope)
        key = (nd.scope, nd.identifier)
        if key in self.names:
            raise DuplicateNameError("name %s already defined" % nd.display())
        if nd.kind == RANGE:
            if nd.target is None:
                raise ValueError("range name %s needs a target" % nd.display())
            self._check_target(nd.target)
            if nd.formula is not None:
                self._claim(nd)
        elif nd.kind == FORMULA:
            if nd.formula is None:
                raise ValueError("formula name %s needs a formula" % nd.display())
            if nd.target is not None:
                raise ValueError("formula name %s cannot target cells" % nd.display())
        else:
            raise ValueError("unknown name kind %r" % nd.kind)
        self.names[key] = nd
        self._graph = self._written = None
        return self

    def rebind_name(self, identifier: str, scope: str | None, refers_to) -> "Workbook":
        """Point an existing name at a new range or a new formula.

        The late-binding contract: formulas referencing this name pick up
        the new meaning on the next evaluation.  Rebinding to a GridRange
        yields a plain range name (any defining formula is dropped);
        rebinding to an Expr yields a pure formula name.
        """
        key = (scope, identifier)
        nd = self.names.get(key)
        if nd is None:
            raise UnknownNameError("no name %r in scope %r" % (identifier, scope))
        self._owners = self._graph = self._written = None
        if isinstance(refers_to, GridRange):
            self._check_target(refers_to)
            nd = NameDef(identifier, scope, RANGE, refers_to, array=nd.array)
        elif isinstance(refers_to, Expr):
            nd = NameDef(identifier, scope, FORMULA, formula=refers_to)
        else:
            raise TypeError("rebind target must be a GridRange or an Expr")
        self.names[key] = nd
        return self

    def resolve(self, identifier: str, context: str | None = None,
                qualifier: str | None = None) -> NameDef | None:
        """Find the definition an occurrence of `identifier` binds to.

        Sheet-scoped names shadow workbook-scoped ones inside their sheet's
        context; an explicit qualifier, which must name a sheet, re-targets
        the context instead.  Returns None when nothing matches (#NAME?).
        """
        if qualifier is not None and qualifier not in self.sheets:
            return None
        where = qualifier if qualifier is not None else context
        if where is not None:
            nd = self.names.get((where, identifier))
            if nd is not None:
                return nd
        return self.names.get((WORKBOOK_SCOPE, identifier))

    def formula_bearing(self):
        """Range names that own an array formula, in definition order."""
        return [d for d in self.names.values()
                if d.kind == RANGE and d.formula is not None and d.target is not None]

    def input_ranges(self):
        """Range names without formulas (the workbook's declared inputs)."""
        return [d for d in self.names.values()
                if d.kind == RANGE and d.formula is None and d.target is not None]

    def context_sheet(self, nd: NameDef) -> str | None:
        """Sheet whose names an unqualified reference in nd's formula sees."""
        if nd.scope is not None:
            return nd.scope
        if nd.target is not None:
            return nd.target.sheet
        return None

    def copy(self) -> "Workbook":
        out = Workbook()
        for sh in self.sheets.values():
            out.sheets[sh.name] = sh.copy()
        out.names = dict(self.names)  # definitions are never changed in place
        return out


def _split(starts: list, runs: list, col: int) -> int:
    """The place of the run that starts at column col, made by cutting the
    run that holds col in two there if it starts before col."""
    k = bisect_right(starts, col) - 1
    if starts[k] != col:
        k += 1
        starts.insert(k, col)
        runs.insert(k, runs[k - 1].copy())
    return k


def shift_name(base: NameDef, identifier: str, dr: int, dc: int) -> NameDef:
    """Displaced twin of a range name, carrying its derivation marker.

    The conventional use is the one-left twin: shift_name(price, "←price",
    0, -1) names the same rectangle displaced one column left, which is what
    lets an array formula read its own previous column.
    """
    if base.target is None:
        raise ValueError("cannot shift a dangling name")
    return NameDef(identifier, base.scope, RANGE,
                   target=base.target.shift(dr, dc),
                   derive=(base.identifier, dr, dc))
