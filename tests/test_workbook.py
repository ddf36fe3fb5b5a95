"""Grid geometry and the name table: rectangles intersect like sets,
shifts invert, scope resolution shadows predictably, and the structural
validation catches every malformed definition."""

import math
import random

import pytest

from namebook.docio import export_doc, rebuild
from namebook.engine import evaluate
from namebook.formula import parse_formula
from namebook.values import DIV0_ERROR
from namebook.workbook import (FORMULA, RANGE, BadIdentifierError,
                               DuplicateNameError, GridRange, NameDef,
                               OverlappingFormulaRangeError, RefError, Sheet,
                               UnknownSheetError, Workbook, parse_a1,
                               shift_name)

from arrays import of_rows


def _rect(rng):
    r1 = rng.randrange(1, 30)
    c1 = rng.randrange(1, 20)
    return GridRange("s", c1, c1 + rng.randrange(0, 6),
                     r1, r1 + rng.randrange(0, 8))


def _maybe_whole(rng):
    if rng.random() < 0.2:
        c1 = rng.randrange(1, 20)
        return GridRange("s", c1, c1 + rng.randrange(0, 6))
    return _rect(rng)


# --- GridRange as a rectangle algebra ---------------------------------------

def test_intersect_commutes_and_is_idempotent():
    rng = random.Random(7)
    for _ in range(500):
        a, b = _maybe_whole(rng), _maybe_whole(rng)
        assert a.intersect(b) == b.intersect(a)
        assert a.intersect(a) == a
        got = a.intersect(b)
        if got is not None:
            assert got.intersect(a) == got
            assert got.intersect(b) == got


def test_intersect_associates():
    rng = random.Random(8)
    for _ in range(500):
        a, b, c = (_maybe_whole(rng) for _ in range(3))
        left = a.intersect(b)
        left = left.intersect(c) if left is not None else None
        right = b.intersect(c)
        right = a.intersect(right) if right is not None else None
        assert left == right


def test_intersect_across_sheets_is_empty():
    a = GridRange("s", 1, 3, 1, 3)
    b = GridRange("t", 1, 3, 1, 3)
    assert a.intersect(b) is None


def test_whole_rows_adopt_the_other_operands_bounds():
    whole = GridRange("s", 2, 4)
    rect = GridRange("s", 3, 8, 5, 9)
    assert whole.intersect(rect) == GridRange("s", 3, 4, 5, 9)
    assert whole.intersect(GridRange("s", 2, 3)) == GridRange("s", 2, 3)


def test_disjoint_rectangles():
    a = GridRange("s", 1, 2, 1, 2)
    assert a.intersect(GridRange("s", 3, 4, 1, 2)) is None
    assert a.intersect(GridRange("s", 1, 2, 3, 4)) is None


def test_constructor_normalizes_swapped_bounds():
    g = GridRange("s", 5, 2, 9, 3)
    assert (g.col_start, g.col_end, g.row_start, g.row_end) == (2, 5, 3, 9)
    with pytest.raises(ValueError):
        GridRange("s", 0, 2, 1, 1)
    with pytest.raises(ValueError):
        GridRange("s", 1, 1, None, 4)


def test_shape_clamp_and_cells():
    g = GridRange("s", 2, 3, 4, 6)
    assert g.shape() == (3, 2)
    whole = GridRange("s", 1, 2)
    assert whole.clamp(10) == GridRange("s", 1, 2, 1, 10)
    assert whole.shape(10) == (10, 2)
    with pytest.raises(ValueError):
        whole.shape()
    assert list(g.cells())[0] == (4, 2)
    assert len(list(g.cells())) == 6
    assert g.contains(5, 3) and not g.contains(7, 3)
    assert whole.contains(999, 1) and not whole.contains(1, 3)


def test_a_whole_column_range_asks_for_a_row_count():
    whole = GridRange("s", 1, 2)
    for call in (lambda: whole.clamp(None), whole.shape,
                 lambda: list(whole.cells())):
        with pytest.raises(ValueError, match="needs a row count"):
            call()


def test_shift_is_inverted_by_the_opposite_shift():
    rng = random.Random(9)
    for _ in range(300):
        g = _rect(rng)
        dr = rng.randrange(-3, 4)
        dc = rng.randrange(-3, 4)
        try:
            moved = g.shift(dr, dc)
        except RefError:
            assert g.row_start + dr < 1 or g.col_start + dc < 1
            continue
        assert moved.shift(-dr, -dc) == g


def test_shift_limits():
    with pytest.raises(RefError):
        GridRange("s", 1, 2, 1, 2).shift(0, -1)
    with pytest.raises(RefError):
        GridRange("s", 1, 2).shift(1, 0)
    assert GridRange("s", 1, 2).shift(0, 3) == GridRange("s", 4, 5)


def test_index_slice():
    g = GridRange("s", 2, 4, 10, 20)
    assert g.index_slice(3, 0) == GridRange("s", 2, 4, 12, 12)
    assert g.index_slice(0, 2) == GridRange("s", 3, 3, 10, 20)
    assert g.index_slice(1, 1) == GridRange("s", 2, 2, 10, 10)
    with pytest.raises(RefError):
        g.index_slice(12, 0)
    with pytest.raises(RefError):
        g.index_slice(0, 9)
    with pytest.raises(RefError):
        g.index_slice(-1, 0)
    whole = GridRange("s", 5, 8)
    assert whole.index_slice(0, 4) == GridRange("s", 8, 8)


def test_parse_a1_and_address_round_trip():
    cases = ["B2", "A1:C9", "AA10:AB12", "F:X", "$D$4"]
    for text in cases:
        g = parse_a1("s", text)
        assert parse_a1("s", g.address()) == g
    assert parse_a1("s", "D9:C3") == GridRange("s", 3, 4, 3, 9)
    assert parse_a1("s", "X:F") == GridRange("s", 6, 24)
    assert GridRange("s", 2, 2, 4, 4).address() == "B4"
    assert GridRange("s", 1, 3).address(True) == "s!A:C"


@pytest.mark.parametrize("text", ["", "B", "2", "A0", "A1:B", "A1:2",
                                  "A1:B2:C3", "1:3", "A 1", "a1b2"])
def test_parse_a1_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_a1("s", text)


# --- the name table ---------------------------------------------------------

def _book():
    wb = Workbook()
    wb.add_sheet("main", 12, 8).add_sheet("aux", 6, 6)
    return wb


def test_define_and_resolve_round_trip():
    wb = _book()
    nd = NameDef("price", None, RANGE, target=GridRange("main", 2, 2, 1, 5))
    wb.define_name(nd)
    assert wb.resolve("price") is nd
    assert wb.resolve("price", context="aux") is nd
    assert wb.resolve("missing") is None


def test_sheet_scope_shadows_workbook_scope():
    wb = _book()
    outer = NameDef("x", None, RANGE, target=GridRange("main", 1, 1, 1, 1))
    inner = NameDef("x", "aux", RANGE, target=GridRange("aux", 2, 2, 2, 2))
    wb.define_name(outer).define_name(inner)
    assert wb.resolve("x") is outer
    assert wb.resolve("x", context="main") is outer
    assert wb.resolve("x", context="aux") is inner
    # A qualifier beats the ambient context in both directions.
    assert wb.resolve("x", context="main", qualifier="aux") is inner
    assert wb.resolve("x", context="aux", qualifier="aux") is inner


def test_define_name_validation():
    wb = _book()
    with pytest.raises(BadIdentifierError):
        wb.define_name(NameDef("B2", target=GridRange("main", 1, 1, 1, 1)))
    with pytest.raises(UnknownSheetError):
        wb.define_name(NameDef("x", "ghost",
                               target=GridRange("main", 1, 1, 1, 1)))
    with pytest.raises(ValueError):
        wb.define_name(NameDef("x"))  # range name without a target
    with pytest.raises(ValueError, match="needs a formula"):
        wb.define_name(NameDef("x", None, FORMULA))
    with pytest.raises(ValueError, match="unknown name kind"):
        wb.define_name(NameDef("x", None, "table",
                               target=GridRange("main", 1, 1, 1, 1)))
    with pytest.raises(ValueError):
        wb.define_name(NameDef("x", None, FORMULA,
                               target=GridRange("main", 1, 1, 1, 1),
                               formula=parse_formula("1+1")))
    # A formula name has no cells, so none to lay out as an array or to
    # derive from another name's (export_doc would write a document that
    # rebuild refuses).
    with pytest.raises(ValueError, match="cannot be an array range"):
        wb.define_name(NameDef("x", None, FORMULA,
                               formula=parse_formula("1+1"), array=True))
    with pytest.raises(ValueError, match="cannot target cells"):
        wb.define_name(NameDef("x", None, FORMULA,
                               formula=parse_formula("1+1"),
                               derive=("y", 0, 1)))
    wb.define_name(NameDef("x", target=GridRange("main", 1, 1, 1, 1)))
    with pytest.raises(DuplicateNameError):
        wb.define_name(NameDef("x", target=GridRange("main", 2, 2, 2, 2)))
    # Same identifier under a different scope is a different name.
    wb.define_name(NameDef("x", "aux", target=GridRange("aux", 1, 1, 1, 1)))


def test_target_must_fit_the_sheet():
    wb = _book()
    with pytest.raises(RefError):
        wb.define_name(NameDef("big", target=GridRange("main", 1, 9, 1, 1)))
    with pytest.raises(RefError):
        wb.define_name(NameDef("tall", target=GridRange("main", 1, 1, 1, 13)))


def test_formula_ranges_must_not_overlap_each_other():
    wb = _book()
    f = parse_formula("1+1")
    wb.define_name(NameDef("a", None, RANGE,
                           target=GridRange("main", 1, 2, 1, 4),
                           formula=f, array=True))
    with pytest.raises(OverlappingFormulaRangeError):
        wb.define_name(NameDef("b", None, RANGE,
                               target=GridRange("main", 2, 3, 3, 6),
                               formula=f, array=True))
    # Inputs may overlap anything; formula ranges on other sheets are fine.
    wb.define_name(NameDef("c", None, RANGE,
                           target=GridRange("main", 1, 2, 1, 4)))
    wb.define_name(NameDef("d", None, RANGE,
                           target=GridRange("aux", 1, 2, 1, 4),
                           formula=f, array=True))


def _formula_range(ident, target, scope=None):
    return NameDef(ident, scope, RANGE, target=target,
                   formula=parse_formula("1"), array=True)


def test_overlap_error_names_the_earliest_defined_conflict():
    wb = _book()
    # Defined first but sorting last, so only definition order picks it.
    wb.define_name(_formula_range("zeta", GridRange("main", 1, 2, 1, 1)))
    wb.define_name(_formula_range("alpha", GridRange("main", 1, 2, 2, 2)))
    with pytest.raises(OverlappingFormulaRangeError) as info:
        wb.define_name(_formula_range("late", GridRange("main", 2, 2, 1, 2)))
    assert str(info.value) == "late overlaps formula range zeta"
    assert wb.resolve("late") is None


def test_formula_owners_matches_a_scan_of_every_formula_range():
    rng = random.Random(11)
    for _ in range(40):
        wb = Workbook().add_sheet("s", 30, 20).add_sheet("t", 9, 9)
        defined = []
        for k in range(rng.randrange(1, 25)):
            sheet = rng.choice(("s", "s", "t"))
            c1 = rng.randrange(1, 8)
            if rng.random() < 0.2:
                target = GridRange(sheet, c1, c1 + rng.randrange(0, 2))
            else:
                r1 = rng.randrange(1, 9)
                target = GridRange(sheet, c1, c1 + rng.randrange(0, 2),
                                   r1, r1 + rng.randrange(0, 2))
            try:
                wb.define_name(_formula_range("owner%d" % k, target))
            except OverlappingFormulaRangeError:
                continue
            defined.append(wb.resolve("owner%d" % k))
        for _ in range(30):
            sheet = rng.choice(("s", "t"))
            c1, r1 = rng.randrange(1, 9), rng.randrange(1, 10)
            query = (GridRange(sheet, c1, c1 + rng.randrange(0, 3))
                     if rng.random() < 0.2 else
                     GridRange(sheet, c1, c1 + rng.randrange(0, 3),
                               r1, r1 + rng.randrange(0, 3)))
            rows = wb.sheet(sheet).rows
            expected = {nd.key() for nd in defined
                        if query.clamp(rows).intersect(
                            nd.target.clamp(wb.sheet(nd.target.sheet).rows))}
            assert wb.formula_owners(query) == expected


def test_a_remembered_owner_answer_follows_the_index():
    # Each answer reads the index as it stands after every change to the
    # names or sheets, and a caller cannot change an answer.
    wb = _book()
    spot = GridRange("main", 1, 2, 1, 3)
    assert wb.formula_owners(spot) == set()
    wb.define_name(_formula_range("first", GridRange("main", 2, 2, 3, 4)))
    assert wb.formula_owners(spot) == {(None, "first")}
    with pytest.raises(AttributeError):
        wb.formula_owners(spot).add((None, "other"))
    wb.rebind_name("first", None, GridRange("main", 2, 2, 3, 4))
    assert wb.formula_owners(spot) == set()
    wb.define_name(_formula_range("second", GridRange("aux", 1, 1)))
    assert wb.formula_owners(GridRange("aux", 1, 1, 2, 2)) == {(None,
                                                               "second")}
    wb.delete_sheet("aux")
    wb.add_sheet("aux", 6, 6)
    assert wb.formula_owners(GridRange("aux", 1, 1, 2, 2)) == set()


def test_rebind_frees_formula_cells_for_a_new_formula_range():
    wb = _book()
    wb.define_name(_formula_range("old", GridRange("main", 1, 3, 1, 2)))
    taken = GridRange("main", 2, 2, 2, 3)
    with pytest.raises(OverlappingFormulaRangeError):
        wb.define_name(_formula_range("new", taken))
    wb.rebind_name("old", None, GridRange("main", 1, 3, 1, 2))
    wb.define_name(_formula_range("new", taken))
    assert wb.formula_owners(GridRange("main", 1, 3, 1, 2)) == {(None, "new")}


def test_delete_sheet_frees_formula_cells_for_a_new_formula_range():
    wb = _book()
    wb.define_name(_formula_range("remote", GridRange("aux", 1, 2, 1, 2)))
    assert wb.formula_owners(GridRange("aux", 1, 1, 1, 1)) == {(None,
                                                               "remote")}
    wb.delete_sheet("aux")
    wb.add_sheet("aux", 6, 6)
    assert wb.formula_owners(GridRange("aux", 1, 1, 1, 1)) == set()
    wb.define_name(_formula_range("again", GridRange("aux", 1, 2, 1, 2)))
    assert wb.formula_owners(GridRange("aux", 2, 2, 2, 2)) == {(None,
                                                               "again")}


def test_defining_in_a_copy_leaves_the_original_index_alone():
    wb = _book()
    wb.define_name(_formula_range("kept", GridRange("main", 1, 1, 1, 1)))
    spot = GridRange("main", 2, 2, 1, 1)
    assert wb.formula_owners(spot) == set()
    dup = wb.copy()
    dup.define_name(_formula_range("extra", spot))
    assert dup.formula_owners(spot) == {(None, "extra")}
    assert wb.formula_owners(spot) == set()
    wb.define_name(_formula_range("mine", spot))
    assert dup.formula_owners(spot) == {(None, "extra")}
    assert wb.formula_owners(GridRange("main", 1, 2, 1, 1)) == {
        (None, "kept"), (None, "mine")}


def test_delete_sheet_kills_its_scope_and_dangles_targets():
    wb = _book()
    wb.define_name(NameDef("local", "aux", RANGE,
                           target=GridRange("aux", 1, 1, 1, 1)))
    wb.define_name(NameDef("remote", None, RANGE,
                           target=GridRange("aux", 2, 2, 1, 2)))
    wb.define_name(NameDef("home", None, RANGE,
                           target=GridRange("main", 1, 1, 1, 1)))
    wb.delete_sheet("aux")
    assert wb.resolve("local", context="aux") is None
    dangling = wb.resolve("remote")
    assert dangling is not None and dangling.target is None
    assert wb.resolve("home").target is not None
    with pytest.raises(UnknownSheetError):
        wb.sheet("aux")
    with pytest.raises(UnknownSheetError):
        wb.delete_sheet("aux")


def test_rebind_name_switches_kind_with_the_payload():
    wb = _book()
    wb.define_name(NameDef("n", target=GridRange("main", 1, 1, 1, 1)))
    wb.rebind_name("n", None, parse_formula("2*3"))
    nd = wb.resolve("n")
    assert nd.kind == FORMULA and nd.target is None
    wb.rebind_name("n", None, GridRange("main", 2, 2, 2, 2))
    nd = wb.resolve("n")
    assert nd.kind == RANGE and nd.formula is None
    with pytest.raises(Exception):
        wb.rebind_name("ghost", None, GridRange("main", 1, 1, 1, 1))
    with pytest.raises(TypeError):
        wb.rebind_name("n", None, 5)  # neither a GridRange nor an Expr


def test_shift_name_records_its_derivation():
    base = NameDef("price", None, RANGE, target=GridRange("main", 3, 7, 2, 2))
    twin = shift_name(base, "←price", 0, -1)
    assert twin.target == GridRange("main", 2, 6, 2, 2)
    assert twin.derive == ("price", 0, -1)
    assert twin.scope == base.scope
    with pytest.raises(RefError):
        shift_name(base, "bad", 0, -3)
    with pytest.raises(ValueError):
        shift_name(NameDef("gone", None, RANGE), "x", 0, 0)


def test_cell_values_coerce_and_clear():
    wb = _book()
    wb.set_cell("main", 1, 1, 7)
    assert wb.sheet("main").get(1, 1) == 7.0
    assert isinstance(wb.sheet("main").get(1, 1), float)
    wb.set_cell("main", 1, 1, None)
    assert wb.sheet("main").get(1, 1) is None
    with pytest.raises(RefError):
        wb.set_cell("main", 0, 1, 1.0)
    with pytest.raises(RefError):
        wb.set_cell("main", 13, 1, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_cells_are_refused_so_documents_rebuild(bad):
    wb = _book()
    wb.define_name(NameDef("xs", target=GridRange("main", 1, 2, 1, 1)))
    wb.set_cell("main", 1, 1, 2.0)
    with pytest.raises(ValueError):
        wb.set_cell("main", 1, 1, bad)
    with pytest.raises(ValueError):
        wb.set_cell("main", 1, 2, bad)
    with pytest.raises(ValueError):
        wb.fill_block(GridRange("main", 1, 2, 1, 1), [[bad, 3.0]])
    assert wb.sheet("main").cells == {(1, 1): 2.0}
    text = export_doc(wb)
    assert "[DATA] main!A1:B1\n2\t\n" in text
    assert export_doc(rebuild(text)) == text


@pytest.mark.parametrize("bad", [[1.0], of_rows([[1.0]]), object()],
                         ids=["list", "array", "object"])
def test_cells_hold_only_literals(bad):
    # Sheet.set is where data enters, so evaluation can trust every cell.
    wb = _book()
    wb.set_cell("main", 1, 1, 2.0)
    with pytest.raises(ValueError):
        wb.set_cell("main", 1, 1, bad)
    with pytest.raises(ValueError):
        wb.fill_block(GridRange("main", 2, 3, 1, 1), [[bad, 3.0]])
    assert wb.sheet("main").cells == {(1, 1): 2.0}
    wb.fill_block(GridRange("main", 1, 4, 2, 2), [[3, True, "t", DIV0_ERROR]])
    assert [wb.sheet("main").get(2, c) for c in range(1, 5)] == \
        [3.0, True, "t", DIV0_ERROR]


def test_numbers_and_text_are_stored_as_float_and_str():
    # A subclass (a numpy float, say) is stored as the plain value, so &,
    # the CLI and the document spell every cell by its exact type.
    class Number(float):
        pass

    class Text(str):
        pass
    wb = _book()
    wb.define_name(NameDef("a", target=GridRange("main", 1, 1, 1, 1)))
    wb.define_name(NameDef("b", target=GridRange("main", 2, 2, 1, 1)))
    wb.define_name(NameDef("ab", None, FORMULA, formula=parse_formula("a & b")))
    wb.set_cell("main", 1, 1, Number(2.5)).set_cell("main", 1, 2, Text("x"))
    assert [type(wb.sheet("main").get(1, c)) for c in (1, 2)] == [float, str]
    assert evaluate(wb).scalar("ab") == "2.5x"
    assert "[DATA] main!A1\n2.5\n[DATA] main!B1\n\"x\"\n" in export_doc(wb)


def test_fill_block_rejects_shape_mismatch():
    wb = _book()
    g = GridRange("main", 1, 2, 1, 2)
    wb.fill_block(g, [[1.0, 2.0], [3.0, 4.0]])
    assert wb.sheet("main").get(2, 2) == 4.0
    with pytest.raises(ValueError):
        wb.fill_block(g, [[1.0, 2.0]])


def test_fill_block_past_the_last_column_writes_the_cells_to_its_left():
    # Rows are written in order and each row left to right, so the cells
    # before the first one outside the sheet are written when it raises.
    wb = _book()
    with pytest.raises(RefError):
        wb.fill_block(GridRange("main", 7, 9, 1, 2),
                      [[1.0, "a", 2.0], [True, None, 3.0]])
    assert wb.sheet("main").cells == {(1, 7): 1.0, (1, 8): "a"}


def test_fill_block_keeps_the_cells_before_a_refused_one():
    wb = _book()
    wb.set_cell("main", 2, 2, "old")
    with pytest.raises(ValueError):
        wb.fill_block(GridRange("main", 1, 3, 1, 2),
                      [[1.0, 2, None], [False, math.inf, "late"]])
    assert wb.sheet("main").cells == {(1, 1): 1.0, (1, 2): 2.0,
                                      (2, 1): False, (2, 2): "old"}
    assert type(wb.sheet("main").cells[1, 2]) is float


def test_copy_is_independent():
    wb = _book()
    wb.define_name(NameDef("n", target=GridRange("main", 1, 1, 1, 2)))
    wb.set_cell("main", 1, 1, 5.0)
    dup = wb.copy()
    dup.set_cell("main", 1, 1, 9.0)
    dup.rebind_name("n", None, GridRange("main", 2, 2, 1, 1))
    assert wb.sheet("main").get(1, 1) == 5.0
    assert wb.resolve("n").target == GridRange("main", 1, 1, 1, 2)


def test_context_sheet_prefers_scope_then_target():
    wb = _book()
    scoped = NameDef("a", "aux", RANGE, target=GridRange("main", 1, 1, 1, 1))
    plain = NameDef("b", None, RANGE, target=GridRange("main", 1, 1, 1, 1))
    pure = NameDef("c", None, FORMULA, formula=parse_formula("1"))
    wb.define_name(scoped).define_name(plain).define_name(pure)
    assert wb.context_sheet(scoped) == "aux"
    assert wb.context_sheet(plain) == "main"
    assert wb.context_sheet(pure) is None
