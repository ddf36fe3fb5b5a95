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
from bisect import bisect_right, insort

from .formula import Expr, col_to_index, is_identifier, render
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


_A1_PART = re.compile(r"^\$?([A-Z]{1,3})\$?([0-9]{1,7})?$", re.IGNORECASE)


def parse_a1(sheet: str, text: str) -> GridRange:
    """GridRange for an A1 rectangle like F5:X16, C3 or F:X."""
    parts = text.split(":")
    if len(parts) > 2 or not parts[0]:
        raise ValueError("bad A1 rectangle %r" % text)
    m1 = _A1_PART.match(parts[0])
    m2 = _A1_PART.match(parts[-1])
    if not m1 or not m2:
        raise ValueError("bad A1 rectangle %r" % text)
    c1, r1 = col_to_index(m1.group(1)), m1.group(2)
    c2, r2 = col_to_index(m2.group(1)), m2.group(2)
    if (r1 is None) != (r2 is None):
        raise ValueError("bad A1 rectangle %r" % text)
    if r1 is None:
        if len(parts) == 1:
            raise ValueError("bad A1 rectangle %r" % text)
        lo, hi = sorted((c1, c2))
        return GridRange(sheet, lo, hi)
    return GridRange(sheet, min(c1, c2), max(c1, c2),
                     min(int(r1), int(r2)), max(int(r1), int(r2)))


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

    def formula_text(self) -> str | None:
        return render(self.formula) if self.formula is not None else None


class Sheet(Record):
    __slots__ = ("name", "rows", "cols", "cells")
    def __init__(self, name: str, rows: int, cols: int, cells=None):
        self.name, self.rows, self.cols = name, rows, cols
        self.cells = {} if cells is None else cells  # (row, col) -> literal

    def get(self, row: int, col: int):
        return self.cells.get((row, col))

    def set(self, row: int, col: int, value):
        """Store a literal; None clears the cell.  A literal is a finite
        number, a bool, text or an error value, since evaluation trusts
        every cell it reads to be one and no document can hold nan or
        inf.  Anything else raises ValueError and leaves the cell as it
        was."""
        if not (1 <= row <= self.rows and 1 <= col <= self.cols):
            raise RefError("cell (%d, %d) outside sheet %s" % (row, col, self.name))
        if value is None:
            self.cells.pop((row, col), None)
            return
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError("cell (%d, %d) of sheet %s: %r is not finite"
                                 % (row, col, self.name, value))
        elif isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        elif not isinstance(value, (bool, str, CellError)):
            raise ValueError("cell (%d, %d) of sheet %s: %r is not a literal"
                             % (row, col, self.name, value))
        self.cells[(row, col)] = value


class Workbook:
    """Sheets plus defined names.  Mutators return self for chaining.

    A workbook behaves as a value: evaluation never mutates it, and callers
    that need an independent copy take one with copy().
    """

    def __init__(self):
        self.sheets: dict[str, Sheet] = {}
        self.names: dict[tuple, NameDef] = {}
        # sheet -> column -> sorted [(row_start, row_end, key)], one entry per
        # formula range shared by its columns (no two tie); None when stale.
        self._owners: dict | None = None
        self._owned = {}  # bounded rectangle -> formula_owners' answer
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
        """Write a rectangle of literals covering rng, row-major."""
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
        for i, row in enumerate(range(bounded.row_start, bounded.row_end + 1)):
            for j, col in enumerate(range(bounded.col_start, bounded.col_end + 1)):
                sh.set(row, col, data[i][j])
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

    def _index_owner(self, nd: NameDef):
        self._owned = {}
        rng = self.bounded(nd.target)
        entry = (rng.row_start, rng.row_end, nd.key())
        columns = self._owners.setdefault(rng.sheet, {})
        for col in range(rng.col_start, rng.col_end + 1):
            insort(columns.setdefault(col, []), entry)

    def formula_owners(self, rng: GridRange) -> frozenset:
        """Keys of the formula ranges that own any cell of rng.

        Formula ranges never overlap, so within a column they sort by first
        and by last row alike: bisect past the last one starting on or
        above rng's bottom row, then step back while they still reach its
        top row.  The answer is remembered per bounded rectangle until the
        index changes, so a first read costs O(columns * log n + hits) and
        a repeated one a dict lookup.
        """
        if self._owners is None:
            self._owners, self._owned = {}, {}
            for nd in self.formula_bearing():
                self._index_owner(nd)
        sh = self.sheets.get(rng.sheet)
        if sh is None:
            return frozenset()
        rng = rng.clamp(sh.rows)
        spot = (rng.sheet, rng.row_start, rng.row_end, rng.col_start,
                rng.col_end)
        out = self._owned.get(spot)
        if out is not None:
            return out
        columns = self._owners.get(rng.sheet, {})
        probe, top = (rng.row_end, math.inf), rng.row_start
        hits = set()
        for col in range(rng.col_start, rng.col_end + 1):
            column = columns.get(col, ())
            i = bisect_right(column, probe)
            while i > 0 and column[i - 1][1] >= top:
                i -= 1
                hits.add(column[i][2])
        out = self._owned[spot] = frozenset(hits)
        return out

    def _check_formula_overlap(self, candidate: NameDef):
        if candidate.formula is None or candidate.target is None:
            return
        if not self.formula_owners(candidate.target):
            return
        # Name the earliest-defined conflicting range.
        mine = self.bounded(candidate.target)
        for other in self.names.values():
            if other.formula is None or other.target is None:
                continue
            theirs = self.bounded(other.target)
            if mine.intersect(theirs) is not None:
                raise OverlappingFormulaRangeError(
                    "%s overlaps formula range %s"
                    % (candidate.display(), other.display()))

    def define_name(self, nd: NameDef) -> "Workbook":
        if not is_identifier(nd.identifier):
            raise BadIdentifierError("bad identifier %r" % nd.identifier)
        if nd.scope is not None and nd.scope not in self.sheets:
            raise UnknownSheetError("scope sheet %r does not exist" % nd.scope)
        if nd.key() in self.names:
            raise DuplicateNameError("name %s already defined" % nd.display())
        if nd.kind == RANGE:
            if nd.target is None:
                raise ValueError("range name %s needs a target" % nd.display())
            self._check_target(nd.target)
        elif nd.kind == FORMULA:
            if nd.formula is None:
                raise ValueError("formula name %s needs a formula" % nd.display())
            if nd.target is not None:
                raise ValueError("formula name %s cannot target cells" % nd.display())
        else:
            raise ValueError("unknown name kind %r" % nd.kind)
        self._check_formula_overlap(nd)
        self.names[nd.key()] = nd
        self._graph = self._written = None
        if (self._owners is not None and nd.formula is not None
                and nd.target is not None):
            self._index_owner(nd)
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
            out.sheets[sh.name] = Sheet(sh.name, sh.rows, sh.cols, dict(sh.cells))
        out.names = dict(self.names)  # definitions are never changed in place
        return out


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
