"""The A1 target parser and the formula-owner index that namebook.workbook
used before parse_a1 read a target with one match and define_name
claimed a formula range's cells in one pass per column, unchanged apart
from imports.  Tests compare `namebook.workbook` against them.

`parse_a1` splits the text at ":" and matches each corner on its own.
`ReferenceWorkbook` keeps the owner index as sheet -> column -> sorted
[(row_start, row_end, key)]: define_name asks formula_owners for the
candidate's whole range (a bisection per column), then inserts the new
entry into each column with insort (another bisection per column)."""

from __future__ import annotations

import math
import re
from bisect import bisect_right, insort

from namebook.formula import col_to_index, is_identifier
from namebook.workbook import (FORMULA, RANGE, BadIdentifierError,
                               DuplicateNameError, GridRange, NameDef,
                               OverlappingFormulaRangeError,
                               UnknownSheetError, Workbook)

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


class ReferenceWorkbook(Workbook):
    """A Workbook whose define_name and formula_owners are the old ones."""

    def _index_owner(self, nd: NameDef):
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
        top row.  A query costs O(columns * log n + hits).
        """
        if self._owners is None:
            self._owners = {}
            for nd in self.formula_bearing():
                self._index_owner(nd)
        sh = self.sheets.get(rng.sheet)
        if sh is None:
            return frozenset()
        rng = rng.clamp(sh.rows)
        columns = self._owners.get(rng.sheet, {})
        probe, top = (rng.row_end, math.inf), rng.row_start
        hits = set()
        for col in range(rng.col_start, rng.col_end + 1):
            column = columns.get(col, ())
            i = bisect_right(column, probe)
            while i > 0 and column[i - 1][1] >= top:
                i -= 1
                hits.add(column[i][2])
        return frozenset(hits)

    def _check_formula_overlap(self, candidate: NameDef):
        if candidate.formula is None or candidate.target is None:
            return
        owners = self.formula_owners(candidate.target)
        if owners:  # name the earliest-defined of them
            first = next(k for k in self.names if k in owners)
            raise OverlappingFormulaRangeError(
                "%s overlaps formula range %s"
                % (candidate.display(), self.names[first].display()))

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
