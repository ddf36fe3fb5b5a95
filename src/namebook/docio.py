"""The Names document: export a workbook to text, rebuild it from text.

The document is the workbook.  Sheets give the grid its size, name
declarations carry every formula, and data blocks carry every literal
cell of the non-formula named ranges.  Rebuilding the document and
evaluating gives back exactly the values of the original, and exporting
a rebuilt document reproduces it byte for byte.

This is the one corner of the system where A1 grid addresses are
written down: a range name has to bottom out at actual cells somewhere,
and target= fields are that somewhere.  Formulas never contain them.

Format (UTF-8, LF):

    #%NAMESDOC v1
    [SHEET] <name> rows=<int> cols=<int>
    [NAME] scope=<workbook|sheetname> id=<id> kind=<range|formula> array=<0|1>
      target=<sheet>!<A1rect>
      derive=shift(<base-id>,<dr>,<dc>)
      formula=<canonical formula text>
    [DATA] <sheet>!<A1rect>
    <tab-separated literals, one line per grid row>

Sheet lines keep declaration order; name blocks sort by (scope, id); data
blocks sort by address.  Within a name block the field order is fixed.

Data blocks move a block at a time.  rebuild reads a block of plain
numbers whole (one character check, a tab count per line, one float
conversion and one finiteness check), any other field by field through
decode_field, the one path that refuses a malformed block, and stores
either one column slice at a time.  export_doc reads each column of a
block as one slice and encodes each cell through a table keyed by its
exact type.
"""

from __future__ import annotations

import math
import re
from itertools import chain, repeat

from . import engine
from .formula import parse_formula, render
from .values import TEXT, tab_rows
from .workbook import (RANGE, GridRange, NameDef, Workbook, WorkbookError,
                       parse_a1)

HEADER = "#%NAMESDOC v1"


class ExportError(Exception):
    """The workbook cannot be fully described by a document."""


class DocSyntaxError(Exception):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__("line %d: %s" % (line, reason))


class UnknownVersion(Exception):
    pass


class UndeclaredName(Exception):
    """A formula in the document references a name the document never
    declares, breaking the closed-world property."""

    def __init__(self, name: str, referenced_by: str):
        self.name = name
        self.referenced_by = referenced_by
        super().__init__("%s, referenced by %s, is not declared" %
                         (name, referenced_by))


# --- literal field codec -----------------------------------------------------

# Held to these characters, float() reads just the signed formula numbers,
# not "nan", "inf", "1_000" or padded text; isfinite then refuses "1e999".
_NUMBER_CHARS = frozenset("0123456789.eE+-")
# A data block of these characters alone may be all plain numbers.
_BLOCK_CHARS = _NUMBER_CHARS | {"\t", "\n"}
_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\t": "\\t",
                          "\n": "\\n", "\r": "\\r"})
_UNESCAPES = {"\\": "\\", '"': '"', "t": "\t", "n": "\n", "r": "\r"}
# A quoted field's body: plain characters and the escapes above.
_ESCAPE_SEQ = re.compile(r"\\([%s])" % re.escape("".join(_UNESCAPES)))
_TEXT_BODY = re.compile(r'(?:[^"\\]|%s)*' % _ESCAPE_SEQ.pattern)


# The encoder of each literal type; export_doc looks a cell's exact type
# up here and hands any other to encode_field.
_ENCODERS = {
    **TEXT,
    str: lambda v: '"%s"' % v.translate(_ESCAPES),
}


def encode_field(v) -> str:
    """One literal cell as document text.  Blank is the empty field."""
    for kind, encode in _ENCODERS.items():
        if isinstance(v, kind):
            return encode(v)
    raise ExportError("cell holds an unserializable value %r" % (v,))


def decode_field(text: str, line: int):
    if text == "":
        return None
    if _NUMBER_CHARS.issuperset(text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isfinite(value):
            return value
        raise DocSyntaxError(line, "unreadable literal %r" % text)
    if text == "TRUE":
        return True
    if text == "FALSE":
        return False
    if text.startswith('"'):
        if len(text) < 2 or not text.endswith('"'):
            raise DocSyntaxError(line, "unterminated text literal %r" % text)
        last = len(text) - 1
        stop = _TEXT_BODY.match(text, 1, last).end()
        if stop == last:
            return _ESCAPE_SEQ.sub(lambda m: _UNESCAPES[m[1]], text[1:last])
        if text[stop] == '"':
            raise DocSyntaxError(line, "unescaped quote inside %r" % text)
        if stop + 1 == last:
            raise DocSyntaxError(line, "dangling escape in %r" % text)
        raise DocSyntaxError(line, "unknown escape \\%s" % text[stop + 1])
    raise DocSyntaxError(line, "unreadable literal %r" % text)


def _plain_numbers(block, height: int, width: int):
    """The cells of a data block of height rows by width fields, row-major,
    when every field is a number decode_field reads as a finite float;
    otherwise None, and the block is read field by field instead."""
    text = "\n".join(block)
    if (len(block) != height or not _BLOCK_CHARS.issuperset(text)
            or set(map(str.count, block, repeat("\t"))) != {width - 1}):
        return None
    try:
        numbers = list(map(float, text.replace("\n", "\t").split("\t")))
    except ValueError:  # an empty field, "+", "1e5e5" and the like
        return None
    # Non-finite when some number is, or when finite ones overflow the sum.
    return numbers if math.isfinite(sum(numbers)) else None


# --- export ------------------------------------------------------------------

def _scope_text(scope) -> str:
    return "workbook" if scope is None else scope


def stray_formula_cells(wb: Workbook):
    """Literal text cells that carry a leading "=", i.e. formulas living
    outside any named range's single defining formula, in row-major order
    per sheet.  One pass over the types of a sheet's cells finds its
    kinds of text, and only a column holding one is walked cell by cell."""
    stray = []
    for sheet in wb.sheets.values():
        kinds = set(map(type, chain.from_iterable(sheet.columns)))
        text = {kind for kind in kinds if issubclass(kind, str)}
        if not text:
            continue
        for r, c in sorted([(r, c) for c, column in enumerate(sheet.columns, 1)
                            if not text.isdisjoint(map(type, column))
                            for r, v in enumerate(column, 1)
                            if isinstance(v, str) and v.startswith("=")]):
            stray.append(GridRange(sheet.name, c, c, r, r).address(True))
    return stray


def export_doc(wb: Workbook) -> str:
    stray = stray_formula_cells(wb)
    if stray:
        raise ExportError("formula cells outside any named formula: %s" %
                          ", ".join(stray))
    lines = [HEADER]
    for sheet in wb.sheets.values():
        lines.append("[SHEET] %s rows=%d cols=%d" %
                     (sheet.name, sheet.rows, sheet.cols))

    def name_key(nd: NameDef):
        return (_scope_text(nd.scope), nd.identifier)

    for nd in sorted(wb.names.values(), key=name_key):
        if nd.kind == RANGE and nd.target is None:
            raise ExportError("name %s dangles (its sheet was deleted); "
                              "rebind or delete it before exporting" %
                              nd.display())
        lines.append("[NAME] scope=%s id=%s kind=%s array=%d" %
                     (_scope_text(nd.scope), nd.identifier, nd.kind,
                      1 if nd.array else 0))
        if nd.kind == RANGE:
            lines.append("  target=%s" % nd.target.address(with_sheet=True))
            if nd.derive is not None:
                base, dr, dc = nd.derive
                lines.append("  derive=shift(%s,%d,%d)" % (base, dr, dc))
        if nd.formula is not None:
            text = render(nd.formula)
            if "\n" in text or "\r" in text:
                raise ExportError("formula of %s contains a line break" %
                                  nd.display())
            lines.append("  formula=%s" % text)

    blocks = {nd.target.address(with_sheet=True): nd.target
              for nd in wb.input_ranges()}
    for addr in sorted(blocks):
        rng = blocks[addr]
        sheet = wb.sheet(rng.sheet)
        bounded = rng.clamp(sheet.rows)
        lines.append("[DATA] %s" % addr)
        columns = [sheet.column(c, bounded.row_start, bounded.row_end)
                   for c in range(bounded.col_start, bounded.col_end + 1)]
        cells = (columns[0] if len(columns) == 1
                 else chain.from_iterable(zip(*columns)))
        lines += tab_rows([_ENCODERS.get(type(v), encode_field)(v)
                           for v in cells], len(columns))
    return "\n".join(lines) + "\n"


# --- rebuild -----------------------------------------------------------------

_SHEET_LINE = re.compile(r"^\[SHEET\] (\S+) rows=(\d+) cols=(\d+)$")
_NAME_LINE = re.compile(
    r"^\[NAME\] scope=(\S+) id=(\S+) kind=(range|formula) array=([01])$")
_DATA_LINE = re.compile(r"^\[DATA\] (\S+)!(\S+)$")
_DERIVE = re.compile(r"^shift\(([^,()]+),(-?\d+),(-?\d+)\)$")


def _at(line: int, call, *args):
    """call(*args), refusing the document at line when it raises a
    WorkbookError or a ValueError."""
    try:
        return call(*args)
    except (WorkbookError, ValueError) as exc:
        raise DocSyntaxError(line, str(exc)) from None


def rebuild(text: str) -> Workbook:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DocSyntaxError(1, "empty document")
    if lines[0] != HEADER:
        if lines[0].startswith("#%NAMESDOC"):
            raise UnknownVersion(
                "unknown document version %r; this reader reads %s"
                % (lines[0][len("#%NAMESDOC"):], HEADER))
        raise DocSyntaxError(1, "missing %s header" % HEADER)

    wb = Workbook()
    pending = []           # (line, NameDef fields) until sheets are known
    i = 1
    n = len(lines)

    # sheets come first, in declaration order
    while i < n and lines[i].startswith("[SHEET]"):
        m = _SHEET_LINE.match(lines[i])
        if not m:
            raise DocSyntaxError(i + 1, "bad sheet line %r" % lines[i])
        rows, cols = (_at(i + 1, int, d) for d in m.group(2, 3))
        _at(i + 1, wb.add_sheet, m.group(1), rows, cols)
        i += 1

    # then every name block
    while i < n and lines[i].startswith("[NAME]"):
        m = _NAME_LINE.match(lines[i])
        if not m:
            raise DocSyntaxError(i + 1, "bad name line %r" % lines[i])
        header_line = i + 1
        scope_text, ident, kind, array = m.groups()
        scope = None if scope_text == "workbook" else scope_text
        i += 1
        target = derive = formula = None
        if i < n and lines[i].startswith("  target="):
            spec = lines[i][len("  target="):]
            if "!" not in spec:
                raise DocSyntaxError(i + 1, "target %r has no sheet" % spec)
            target = _at(i + 1, parse_a1, *spec.split("!", 1))
            i += 1
        if i < n and lines[i].startswith("  derive="):
            dm = _DERIVE.match(lines[i][len("  derive="):])
            if not dm:
                raise DocSyntaxError(i + 1, "bad derive %r" % lines[i])
            derive = (dm.group(1), *(_at(i + 1, int, d) for d in dm.group(2, 3)))
            i += 1
        if i < n and lines[i].startswith("  formula="):
            formula = _at(i + 1, parse_formula, lines[i][len("  formula="):])
            i += 1
        nd = NameDef(ident, scope, kind, target=target, formula=formula,
                     array=(array == "1"), derive=derive)
        _at(header_line, wb.define_name, nd)
        pending.append((header_line, nd))

    # then the data blocks
    input_addresses = {nd.target.address(with_sheet=True): nd.target
                       for nd in wb.input_ranges()}
    seen_blocks = set()
    while i < n and lines[i].startswith("[DATA]"):
        m = _DATA_LINE.match(lines[i])
        if not m:
            raise DocSyntaxError(i + 1, "bad data line %r" % lines[i])
        addr = "%s!%s" % (m.group(1), m.group(2))
        rng = input_addresses.get(addr)
        if rng is None:
            raise DocSyntaxError(i + 1, "data block %s matches no input range"
                                 % addr)
        if addr in seen_blocks:
            raise DocSyntaxError(i + 1, "duplicate data block %s" % addr)
        seen_blocks.add(addr)
        block_line = i + 1
        i += 1
        bounded = wb.bounded(rng)
        height, width = bounded.shape()
        cells = _plain_numbers(lines[i:i + height], height, width)
        if cells is not None:
            i += height
        else:
            cells = []
            for k in range(height):
                if i >= n or lines[i].startswith(("[SHEET]", "[NAME]",
                                                  "[DATA]")):
                    raise DocSyntaxError(block_line,
                                         "data block %s needs %d rows, found "
                                         "%d" % (addr, height, k))
                fields = lines[i].split("\t")
                if len(fields) != width:
                    raise DocSyntaxError(i + 1,
                                         "data row has %d fields, range %s is "
                                         "%d wide" % (len(fields), addr, width))
                cells += [decode_field(f, i + 1) for f in fields]
                i += 1
        # decode_field gives only literals Sheet.set stores as they stand,
        # define_name checked that the rectangle lies inside its sheet, and
        # nothing is recorded for a workbook with no kept values.
        sheet = wb.sheet(rng.sheet)
        for k in range(width):
            sheet.store(bounded.col_start + k, bounded.row_start,
                        cells[k::width])

    if i < n:
        raise DocSyntaxError(i + 1, "unexpected line %r" % lines[i])

    _check_closed_world(wb, pending)
    return wb


def _check_closed_world(wb: Workbook, pending):
    unresolved = engine.build_dep_graph(wb).unresolved
    for line, nd in pending:
        if nd.derive is not None:
            base_id, dr, dc = nd.derive
            base = wb.resolve(base_id, context=nd.scope)
            if base is None:
                raise UndeclaredName(base_id, nd.display())
            if base.kind != RANGE or base.target is None:
                raise DocSyntaxError(line, "derive base %s is not a range name"
                                     % base_id)
            if _at(line, base.target.shift, dr, dc) != nd.target:
                raise DocSyntaxError(
                    line, "target of %s does not equal shift(%s,%d,%d)" %
                    (nd.display(), base_id, dr, dc))
        if nd.key() in unresolved:
            raise UndeclaredName(unresolved[nd.key()][0], nd.display())
