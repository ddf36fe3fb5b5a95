"""The cell codecs against the per-cell code they replaced.

rebuild reads a data block of plain numbers whole and stores every
block a column slice at a time, and export_doc and the eval TSV encode
cells through a table keyed by exact type.  The references below are
the per-cell versions: each field through decode_field and Sheet.set,
encode_field's character loop, and the isinstance chain of the TSV
renderer.  Over seeded random books and Arrays the two must give the
same bytes and the same typed cells, and every malformed block must
raise the same error, on the same line, with the same message."""

import math
import random

import pytest

from namebook import cli
from namebook.docio import DocSyntaxError, decode_field, export_doc, rebuild
from namebook.values import ERROR_KINDS, Array, CellError, format_number
from namebook.workbook import GridRange, NameDef, Sheet, Workbook, parse_a1

from arrays import of_rows


# --- the per-cell references -------------------------------------------------

def _ref_format_number(x):
    if x != x or x in (math.inf, -math.inf):
        return "#VALUE!"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _ref_show(scalar):
    if scalar is None:
        return ""
    if isinstance(scalar, bool):
        return "TRUE" if scalar else "FALSE"
    if isinstance(scalar, float):
        return _ref_format_number(scalar)
    if isinstance(scalar, CellError):
        return str(scalar)
    return (scalar.replace("\\", "\\\\").replace("\t", "\\t")
                  .replace("\n", "\\n").replace("\r", "\\r"))


def _ref_value_block(display, value):
    if isinstance(value, Array):
        r, c = value.shape
        lines = ["# %s %dx%d" % (display, r, c)]
        for row in value.cells:
            lines.append("\t".join(_ref_show(s) for s in row))
    else:
        lines = ["# %s 1x1" % display, _ref_show(value)]
    return lines


_REF_ESCAPES = {"\\": "\\\\", '"': '\\"', "\t": "\\t", "\n": "\\n",
                "\r": "\\r"}


def _ref_encode_field(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, float):
        return _ref_format_number(v)
    out = ['"']
    for ch in v:
        out.append(_REF_ESCAPES.get(ch, ch))
    out.append('"')
    return "".join(out)


def _ref_data_section(wb):
    """The data blocks of wb's document, encoded cell by cell."""
    blocks = {nd.target.address(with_sheet=True): nd.target
              for nd in wb.input_ranges()}
    lines = []
    for addr in sorted(blocks):
        sheet = wb.sheet(blocks[addr].sheet)
        rng = blocks[addr].clamp(sheet.rows)
        lines.append("[DATA] %s" % addr)
        for r in range(rng.row_start, rng.row_end + 1):
            lines.append("\t".join(
                _ref_encode_field(sheet.get(r, c))
                for c in range(rng.col_start, rng.col_end + 1)))
    return "\n".join(lines) + "\n"


def _ref_decode(text, wb):
    """Sheets holding text's data blocks, each field decoded and set alone;
    wb gives the sheets' sizes."""
    sheets = {name: Sheet(name, sh.rows, sh.cols)
              for name, sh in wb.sheets.items()}
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        i += 1
        if not lines[i - 1].startswith("[DATA] "):
            continue
        rng = wb.bounded(parse_a1(*lines[i - 1][7:].split("!")))
        for r in range(rng.row_start, rng.row_end + 1):
            fields = lines[i].split("\t")
            for c, field in zip(range(rng.col_start, rng.col_end + 1), fields):
                sheets[rng.sheet].set(r, c, decode_field(field, i + 1))
            i += 1
    return sheets


def _typed(cells):
    """Cells with each value's type and repr, so that 1.0 != True and
    0.0 != -0.0."""
    return {k: (type(v), repr(v)) for k, v in cells.items()}


# --- random cells --------------------------------------------------------------

FLOATS = (-0.0, 0.0, 0.1, 1e16, -1e16, 9999999999999998.0, 5e-324,
          1.7976931348623157e308, -1.7976931348623157e308, 1e-7, 123456.5,
          3.0, -42.0, 1e15)
TEXT_CHARS = 'ab \\"\t\n\r7.-é数😀'


def _float(rng):
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(FLOATS)
    if roll < 0.6:
        return float(rng.randrange(-10**6, 10**6))
    return rng.uniform(-1, 1) * 10.0 ** rng.randrange(-30, 30)


def _text(rng):
    return "".join(rng.choice(TEXT_CHARS) for _ in range(rng.randrange(6)))


def _literal(rng):
    roll = rng.random()
    if roll < 0.5:
        return _float(rng)
    if roll < 0.65:
        return None
    if roll < 0.8:
        return rng.choice((True, False))
    return _text(rng)


def _scalar(rng):
    if rng.random() < 0.15:
        return CellError(rng.choice(ERROR_KINDS))
    return _literal(rng)


def _book(rng):
    """A book of input ranges only, some whole-column, about half of them
    plain numbers."""
    wb = Workbook()
    for k in range(rng.randrange(1, 4)):
        sheet = "s%d" % k
        rows, cols = rng.randrange(1, 40), rng.randrange(1, 9)
        wb.add_sheet(sheet, rows, cols)
        col = 1
        while col <= cols:
            width = rng.randrange(1, min(4, cols - col + 1) + 1)
            if rng.random() < 0.3:
                target = GridRange(sheet, col, col + width - 1)
                height = rows
            else:
                top = rng.randrange(1, rows + 1)
                height = rng.randrange(1, rows - top + 2)
                target = GridRange(sheet, col, col + width - 1,
                                   top, top + height - 1)
            wb.define_name(NameDef("n%d_%d" % (k, col), target=target))
            draw = _float if rng.random() < 0.5 else _literal
            wb.fill_block(target, [[draw(rng) for _ in range(width)]
                                   for _ in range(height)])
            col += width + rng.randrange(2)
    return wb


def _respell(rng, text):
    """text with some number fields written another way that reads back
    to the same float: a plus sign, an exponent, trailing zeros."""
    out = []
    for line in text.split("\n"):
        if line.startswith(("#", "[", " ")) or '"' in line:
            out.append(line)
            continue
        fields = line.split("\t")
        for j, f in enumerate(fields):
            if f in ("", "TRUE", "FALSE") or rng.random() < 0.5:
                continue
            spellings = ["%.20e" % float(f), f if f[0] == "-" else "+" + f]
            if "e" not in f:
                spellings.append(f + ("0" if "." in f else ".00"))
            fields[j] = rng.choice(spellings)
        out.append("\t".join(fields))
    return "\n".join(out)


def _array(rng):
    shape = (rng.randrange(1, 30), 1) if rng.random() < 0.5 else \
        (rng.randrange(1, 6), rng.randrange(1, 6))
    return of_rows([[_scalar(rng) for _ in range(shape[1])]
                    for _ in range(shape[0])])


# --- differential tests ----------------------------------------------------------

def test_format_number_matches_the_reference():
    rng = random.Random(11)
    xs = list(FLOATS) + [math.nan, math.inf, -math.inf]
    xs += [_float(rng) for _ in range(3000)]
    assert [format_number(x) for x in xs] == \
        [_ref_format_number(x) for x in xs]


def test_tsv_render_matches_the_reference():
    rng = random.Random(12)
    for n in range(400):
        value = _array(rng) if rng.random() < 0.8 else _scalar(rng)
        display = "name%d" % n
        assert cli._value_block(display, value) == \
            _ref_value_block(display, value), value


def test_export_and_rebuild_match_the_per_cell_references():
    rng = random.Random(13)
    for seed in range(150):
        wb = _book(rng)
        text = export_doc(wb)
        data = text[text.index("[DATA] "):]
        assert data == _ref_data_section(wb), seed
        back = rebuild(text)
        assert export_doc(back) == text, seed
        want = _ref_decode(text, back)
        for name, sheet in back.sheets.items():
            assert _typed(sheet.cells) == _typed(want[name].cells), seed
        respelled = _respell(rng, text)
        again = rebuild(respelled)
        assert export_doc(again) == text, seed
        want = _ref_decode(respelled, again)
        for name, sheet in again.sheets.items():
            assert _typed(sheet.cells) == _typed(want[name].cells), seed


# --- malformed blocks ------------------------------------------------------------

def _numeric_doc(third_row, tail=""):
    """A 4x2 block of plain numbers whose row 3, on line 10, is given;
    tail follows the block."""
    return ("#%%NAMESDOC v1\n"
            "[SHEET] s rows=9 cols=4\n"
            "[NAME] scope=workbook id=xs kind=range array=0\n"
            "  target=s!A1:B4\n"
            "[NAME] scope=workbook id=ys kind=range array=0\n"
            "  target=s!D1:D2\n"
            "[DATA] s!A1:B4\n"
            "1\t2.5\n-3\t4e2\n%s\n7\t8\n%s" % (third_row, tail))


YS = "[DATA] s!D1:D2\n9\n10\n"


@pytest.mark.parametrize("field", [
    "nan", "inf", "-inf", "1e999", "-1e999", "1_000", " 12", "12 ", "1e5e5",
    "+", ".", "-", "e5", "0x10", "1,5", "１２", '"abc', '"a"b"', "#DIV/0!",
    "true"])
def test_a_bad_field_in_a_numeric_block_is_refused_on_its_line(field):
    with pytest.raises(DocSyntaxError) as exc:
        rebuild(_numeric_doc("5\t" + field, YS))
    kind = "unterminated text literal" if field == '"abc' else \
        "unescaped quote inside" if field == '"a"b"' else "unreadable literal"
    assert (exc.value.line, exc.value.reason) == \
        (10, "%s %r" % (kind, field))


@pytest.mark.parametrize("row,line,reason", [
    ("5\t6\t7", 10, "data row has 3 fields, range s!A1:B4 is 2 wide"),
    ("5", 10, "data row has 1 fields, range s!A1:B4 is 2 wide"),
    ("5\t6\t", 10, "data row has 3 fields, range s!A1:B4 is 2 wide"),
])
def test_a_row_of_the_wrong_width_is_refused_on_its_line(row, line, reason):
    with pytest.raises(DocSyntaxError) as exc:
        rebuild(_numeric_doc(row, YS))
    assert (exc.value.line, exc.value.reason) == (line, reason)
    assert str(exc.value) == "line %d: %s" % (line, reason)


@pytest.mark.parametrize("text,line,reason", [
    ("#%NAMESDOC v1\n[SHEET] s rows=9 cols=4\n"
     "[NAME] scope=workbook id=xs kind=range array=0\n  target=s!A1:B4\n"
     "[NAME] scope=workbook id=ys kind=range array=0\n  target=s!D1:D2\n"
     "[DATA] s!A1:B4\n1\t2\n3\t4\n" + YS,
     7, "data block s!A1:B4 needs 4 rows, found 2"),
    ("#%NAMESDOC v1\n[SHEET] s rows=9 cols=4\n"
     "[NAME] scope=workbook id=xs kind=range array=0\n  target=s!A1:B4\n"
     "[NAME] scope=workbook id=ys kind=range array=0\n  target=s!D1:D2\n"
     "[DATA] s!A1:B4\n1\t2\n3\t4\n5\t6\n",
     7, "data block s!A1:B4 needs 4 rows, found 3"),
])
def test_a_block_cut_short_is_refused_on_its_header(text, line, reason):
    with pytest.raises(DocSyntaxError) as exc:
        rebuild(text)
    assert (exc.value.line, exc.value.reason) == (line, reason)


@pytest.mark.parametrize("row,cells", [
    ("5\t", (5.0, None)),                     # an empty field is a blank
    ("\t6", (None, 6.0)),
    ("-0\t+.5", (-0.0, 0.5)),
    ("1e-400\t00.10", (0.0, 0.1)),
    # Each finite, but their sum overflows: still read, as the numbers.
    ("1.7976931348623157e308\t1.7976931348623157e308",
     (1.7976931348623157e308, 1.7976931348623157e308)),
])
def test_odd_but_valid_numeric_rows_load(row, cells):
    wb = rebuild(_numeric_doc(row, YS))
    got = (wb.sheet("s").get(3, 1), wb.sheet("s").get(3, 2))
    assert [(type(v), repr(v)) for v in got] == \
        [(type(v), repr(v)) for v in cells]
    assert wb.sheet("s").get(4, 2) == 8.0
