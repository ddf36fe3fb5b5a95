"""The document form: export is a fixed point, rebuild inverts it, and every
malformed document is refused with a line-numbered complaint."""

import itertools
import random
import re

import pytest

from namebook.docio import (DocSyntaxError, ExportError, UndeclaredName,
                            UnknownVersion, decode_field, encode_field,
                            export_doc, rebuild, stray_formula_cells)
from namebook.engine import evaluate
from namebook.formula import NUMBER_RE, parse_formula, render
from namebook.values import CellError
from namebook.workbook import (FORMULA, RANGE, GridRange, NameDef, Workbook)

import docio_reference
from arrays import of_rows
from gen import random_workbook

DOC = """#%NAMESDOC v1
[SHEET] s rows=4 cols=4
[NAME] scope=workbook id=dbl kind=range array=1
  target=s!B1:B3
  formula=xs * 2
[NAME] scope=workbook id=xs kind=range array=0
  target=s!A1:A3
[NAME] scope=s id=label kind=range array=0
  target=s!D1
[NAME] scope=workbook id=total kind=formula array=0
  formula=SUM(dbl)
[DATA] s!A1:A3
1
2.5
TRUE
[DATA] s!D1
"two\\tlines"
"""


def test_rebuild_reads_the_whole_structure():
    wb = rebuild(DOC)
    assert set(wb.sheets) == {"s"}
    assert wb.sheet("s").rows == 4 and wb.sheet("s").cols == 4
    xs = wb.resolve("xs")
    assert xs.kind == RANGE and xs.formula is None
    assert xs.target == GridRange("s", 1, 1, 1, 3)
    dbl = wb.resolve("dbl")
    assert dbl.array and render(dbl.formula) == "xs * 2"
    assert wb.resolve("label", context="s").scope == "s"
    assert wb.resolve("total").kind == FORMULA
    assert wb.sheet("s").get(1, 1) == 1.0
    assert wb.sheet("s").get(3, 1) is True
    assert wb.sheet("s").get(1, 4) == "two\tlines"
    store = evaluate(wb)
    assert store.value("total") == 9.0  # TRUE doubles into the number 2


def test_export_is_a_fixed_point_of_rebuild():
    text = export_doc(rebuild(DOC))
    assert rebuild(text) is not None
    assert export_doc(rebuild(text)) == text


def test_round_trip_on_random_workbooks():
    for seed in range(200):
        wb = random_workbook(seed + 5000)
        text = export_doc(wb)
        back = rebuild(text)
        assert export_doc(back) == text, seed
        assert evaluate(back) == evaluate(wb), seed


def test_whole_row_ranges_survive_the_trip():
    wb = Workbook().add_sheet("s", 3, 4)
    wb.set_cell("s", 2, 2, 5.0)
    wb.define_name(NameDef("band", target=GridRange("s", 2, 3)))
    text = export_doc(wb)
    assert "[DATA] s!B:C" in text
    back = rebuild(text)
    assert back.resolve("band").target == GridRange("s", 2, 3)
    assert back.sheet("s").get(2, 2) == 5.0


# --- the field codec --------------------------------------------------------

def test_field_codec_round_trips_every_scalar_shape():
    cases = [None, True, False, 0.0, -1.5, 2.5e300, 1e-9, 123456.0,
             "", "plain", "tab\there", "line\nbreak", 'quote"inside',
             "back\\slash", "carriage\rreturn", "=looks.like(a, formula)"]
    for v in cases:
        assert decode_field(encode_field(v), 1) == v
    assert encode_field(None) == ""
    assert encode_field("") == '""'        # empty text is not blank
    assert encode_field(True) == "TRUE"
    assert encode_field(2.0) == "2"


@pytest.mark.parametrize("field", [
    '"unterminated', '"bad \\x escape"', '"inner " quote"', '"trail\\"',
    "12x", "true", "nan", "-inf", "Infinity", "1_000", "1e999", " 2", "2 ",
    "0x10", "1e", "+", ".",
])
def test_field_codec_rejects_malformed_literals(field):
    with pytest.raises(DocSyntaxError):
        decode_field(field, 7)


def test_number_fields_are_exactly_signed_formula_numbers():
    signed = re.compile(r"[+-]?(?:%s)" % NUMBER_RE.pattern)
    for n in range(1, 5):
        for chars in itertools.product("09.eE+-_ naif", repeat=n):
            text = "".join(chars)
            if signed.fullmatch(text):
                assert decode_field(text, 1) == float(text), text
            else:
                with pytest.raises(DocSyntaxError):
                    decode_field(text, 1)


def _decoded(decode, field, line):
    """decode's value for field, or its error's class, line and message."""
    try:
        return repr(decode(field, line))
    except DocSyntaxError as exc:
        return (type(exc), exc.line, str(exc))


def test_decode_field_agrees_with_the_character_loop():
    # Bodies of quotes, backslashes, the escape letters and one unknown
    # ("q"), blanks, digits and one non-ASCII letter; most quoted, some
    # left open, some bare.
    rng = random.Random(2502)
    chars = '"\\tnrq\t\n é01.e-'
    outcomes = set()
    for _ in range(60_000):
        body = "".join(rng.choice(chars) for _ in range(rng.randint(0, 8)))
        roll = rng.random()
        field = ('"%s"' % body if roll < 0.8 else
                 '"' + body if roll < 0.9 else body)
        line = rng.randint(1, 99)
        got = _decoded(decode_field, field, line)
        assert got == _decoded(docio_reference.decode_field, field, line), (
            field)
        outcomes.add(got[2].split()[2] if type(got) is tuple else "value")
    assert outcomes == {"value", "unescaped", "dangling", "unknown",
                        "unterminated", "unreadable"}


def test_syntax_errors_carry_the_line_number():
    try:
        decode_field("12x", 42)
    except DocSyntaxError as exc:
        assert exc.line == 42
    else:
        pytest.fail("no complaint")


# --- malformed documents ----------------------------------------------------

def _swap(old, new):
    assert old in DOC
    return DOC.replace(old, new)


def test_header_is_mandatory():
    with pytest.raises(DocSyntaxError):
        rebuild("")
    with pytest.raises(DocSyntaxError):
        rebuild("just some text\n")
    with pytest.raises(UnknownVersion):
        rebuild(_swap("#%NAMESDOC v1", "#%NAMESDOC v2"))


@pytest.mark.parametrize("old,new", [
    ("[SHEET] s rows=4 cols=4", "[SHEET] s rows=four cols=4"),
    ("[NAME] scope=workbook id=xs kind=range array=0",
     "[NAME] scope=workbook id=xs kind=mystery array=0"),
    ("[NAME] scope=workbook id=xs kind=range array=0",
     "[NAME] scope=workbook id=B2 kind=range array=0"),
    ("  target=s!A1:A3", "  target=A1:A3"),          # sheetless target
    ("  target=s!A1:A3", "  target=ghost!A1:A3"),    # unknown sheet
    ("  formula=xs * 2", "  formula=xs +* 2"),
    ("[DATA] s!A1:A3", "[DATA] s!A1:A9"),            # matches no input range
    ("2.5", "2.5\textra"),                           # too many fields
])
def test_malformed_documents_are_refused(old, new):
    with pytest.raises(DocSyntaxError):
        rebuild(_swap(old, new))


def test_bad_identifiers_are_refused_at_their_header_line():
    text = _swap("[NAME] scope=workbook id=xs kind=range array=0",
                 "[NAME] scope=workbook id=B2 kind=range array=0")
    header = text.split("\n").index(
        "[NAME] scope=workbook id=B2 kind=range array=0") + 1
    with pytest.raises(DocSyntaxError) as err:
        rebuild(text)
    assert (err.value.line, err.value.reason) == (header, "bad identifier 'B2'")


def test_undeclared_names_are_refused_with_both_parties_named():
    bad = _swap("formula=SUM(dbl)", "formula=SUM(dbl) + mystery")
    with pytest.raises(UndeclaredName) as info:
        rebuild(bad)
    assert info.value.name == "mystery"
    assert info.value.referenced_by == "total"


def test_qualified_references_check_the_exact_scope():
    bad = _swap("formula=SUM(dbl)", "formula=SUM(ghost!dbl)")
    with pytest.raises((UndeclaredName, DocSyntaxError)):
        rebuild(bad)


def test_duplicate_definitions_are_refused():
    dup = DOC.replace("[DATA] s!A1:A3", """[NAME] scope=workbook id=xs kind=range array=0
  target=s!A2:A3
[DATA] s!A1:A3""")
    with pytest.raises(DocSyntaxError):
        rebuild(dup)


def test_duplicate_data_blocks_are_refused():
    dup = DOC + '[DATA] s!D1\n"again"\n'
    with pytest.raises(DocSyntaxError):
        rebuild(dup)


def test_short_data_block_is_refused():
    with pytest.raises(DocSyntaxError):
        rebuild(_swap("1\n2.5\nTRUE\n", "1\n2.5\n"))


def test_sections_must_come_in_order():
    shuffled = DOC + "[SHEET] late rows=2 cols=2\n"
    with pytest.raises(DocSyntaxError):
        rebuild(shuffled)
    with pytest.raises(DocSyntaxError):
        rebuild(DOC + "trailing junk\n")


def test_range_name_without_target_is_refused():
    bad = _swap("""[NAME] scope=workbook id=xs kind=range array=0
  target=s!A1:A3
""", "[NAME] scope=workbook id=xs kind=range array=0\n")
    with pytest.raises(DocSyntaxError):
        rebuild(bad)


def test_formula_name_with_target_is_refused():
    bad = _swap("""[NAME] scope=workbook id=total kind=formula array=0
  formula=SUM(dbl)
""", """[NAME] scope=workbook id=total kind=formula array=0
  target=s!C1
  formula=SUM(dbl)
""")
    with pytest.raises(DocSyntaxError):
        rebuild(bad)


# --- derive blocks ----------------------------------------------------------

DERIVE_DOC = """#%NAMESDOC v1
[SHEET] s rows=3 cols=6
[NAME] scope=workbook id=band kind=range array=1
  target=s!B2:E2
  formula=IF(start, 1, ←band + 1)
[NAME] scope=workbook id=start kind=range array=0
  target=s!B1:E1
[NAME] scope=workbook id=←band kind=range array=0
  target=s!A2:D2
  derive=shift(band,0,-1)
[DATA] s!B1:E1
TRUE\tFALSE\tFALSE\tFALSE
"""


def test_derive_wires_the_displaced_twin():
    wb = rebuild(DERIVE_DOC)
    twin = wb.resolve("←band")
    assert twin.derive == ("band", 0, -1)
    store = evaluate(wb)
    assert store.value("band") == of_rows([[1.0, 2.0, 3.0, 4.0]])
    assert export_doc(rebuild(export_doc(wb))) == export_doc(wb)


def test_derive_must_parse():
    with pytest.raises(DocSyntaxError):
        rebuild(DERIVE_DOC.replace("derive=shift(band,0,-1)",
                                   "derive=shift(band,west)"))


def test_derive_base_must_be_a_declared_range():
    with pytest.raises(UndeclaredName):
        rebuild(DERIVE_DOC.replace("derive=shift(band,0,-1)",
                                   "derive=shift(ghost,0,-1)"))
    # start made a formula name, without the data block that would be
    # refused first: the derive is refused at its [NAME] line.
    bad = DERIVE_DOC.replace("""[NAME] scope=workbook id=start kind=range array=0
  target=s!B1:E1
""", """[NAME] scope=workbook id=start kind=formula array=0
  formula=1
""").replace("derive=shift(band,0,-1)", "derive=shift(start,0,-1)")
    bad = bad[:bad.index("[DATA]")]
    with pytest.raises(DocSyntaxError) as err:
        rebuild(bad)
    assert (err.value.line, err.value.reason) == (
        8, "derive base start is not a range name")


def test_derive_rectangle_must_match_the_shift():
    with pytest.raises(DocSyntaxError):
        rebuild(DERIVE_DOC.replace("target=s!A2:D2\n  derive=shift(band,0,-1)",
                                   "target=s!A2:C2\n  derive=shift(band,0,-1)"))


# A number of more than 4300 digits, which int() refuses to convert.
_LONG = "9" * 5000
_TOO_LONG = ("Exceeds the limit (4300 digits) for integer string conversion: "
             "value has 5000 digits; use sys.set_int_max_str_digits() to "
             "increase the limit")


@pytest.mark.parametrize("doc,old,new,line,reason", [
    (DOC, "[SHEET] s rows=4 cols=4", "[SHEET] s rows=0 cols=4", 2,
     "sheet extent must be positive"),
    (DOC, "[SHEET] s rows=4 cols=4", "[SHEET] s rows=4 cols=0", 2,
     "sheet extent must be positive"),
    (DOC, "  target=s!A1:A3", "  target=s!A1:3", 7,
     "bad A1 rectangle 'A1:3'"),
    (DOC, "  formula=xs * 2", "  formula=xs +* 2", 5,
     "offset 4: expected a value or reference, found '*'"),
    (DOC, "  target=s!A1:A3", "  target=s!A1:A9", 6,
     "s!A1:A9 exceeds sheet rows"),
    (DOC, "id=total kind=formula array=0", "id=total kind=formula array=1",
     10, "formula name total cannot be an array range"),
    (DOC, "  formula=SUM(dbl)", "  derive=shift(xs,0,1)\n  formula=SUM(dbl)",
     10, "formula name total cannot target cells"),
    (DERIVE_DOC, "derive=shift(band,0,-1)", "derive=shift(band,0,-9)", 8,
     "shift moves B2:E2 off the sheet"),
    (DOC, "[SHEET] s rows=4 cols=4", "[SHEET] s rows=%s cols=4" % _LONG, 2,
     _TOO_LONG),
    (DERIVE_DOC, "derive=shift(band,0,-1)", "derive=shift(band,0,-%s)" % _LONG,
     10, _TOO_LONG),
], ids=["no rows", "no columns", "bad rectangle", "bad formula",
        "target off the sheet", "formula name as array",
        "formula name with a derive",
        "derive off the sheet", "long extent",
        "long offset"])
def test_refusals_name_their_line_and_reason(doc, old, new, line, reason):
    # A sheet, a target, a formula, a definition and a derive each
    # refuse a document at the line that carries them, with the reason
    # the workbook, the parser or the number conversion gives.
    assert doc.count(old) == 1
    with pytest.raises(DocSyntaxError) as err:
        rebuild(doc.replace(old, new))
    assert (err.value.line, err.value.reason) == (line, reason)


# --- export refusals --------------------------------------------------------

def test_export_refuses_dangling_names():
    wb = Workbook().add_sheet("s", 2, 2).add_sheet("gone", 2, 2)
    wb.define_name(NameDef("lost", target=GridRange("gone", 1, 1, 1, 1)))
    wb.delete_sheet("gone")
    with pytest.raises(ExportError):
        export_doc(wb)


def test_export_refuses_a_line_break_in_formula_text():
    # A text literal may hold one; a document line cannot.
    wb = Workbook().add_sheet("s", 2, 2)
    wb.define_name(NameDef("t", None, FORMULA,
                           formula=parse_formula('"a\nb" & "c"')))
    with pytest.raises(ExportError, match="line break"):
        export_doc(wb)


def test_export_refuses_error_values_in_cells():
    # The API may store an error value in a cell; no document literal
    # spells one.
    wb = Workbook().add_sheet("s", 2, 2)
    wb.define_name(NameDef("xs", target=GridRange("s", 1, 1, 1, 1)))
    wb.set_cell("s", 1, 1, CellError("#DIV/0!"))
    with pytest.raises(ExportError, match="unserializable value"):
        export_doc(wb)


def test_export_refuses_formula_text_hiding_in_cells():
    wb = Workbook().add_sheet("s", 2, 2)
    wb.set_cell("s", 1, 1, "=A2+1")
    wb.define_name(NameDef("xs", target=GridRange("s", 1, 1, 1, 1)))
    assert stray_formula_cells(wb) == ["s!A1"]
    with pytest.raises(ExportError):
        export_doc(wb)
    wb.set_cell("s", 1, 1, "plain text")
    assert stray_formula_cells(wb) == []
    export_doc(wb)
