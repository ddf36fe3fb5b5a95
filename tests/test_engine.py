"""Evaluation semantics, checked two ways: unit pins for every builtin and
error rule, and bit-for-bit agreement with an independently written
cell-at-a-time interpreter over hundreds of random workbooks.

The interpreter in oracle.py shares no evaluation code with the engine
(its own coercions, its own broadcasting, its own builtin loops, recursion
where the engine runs scheduled sweeps), so agreement between the two is
evidence about the semantics rather than about one implementation."""

import cProfile
import pstats
import random

import pytest

from namebook.docio import UndeclaredName, export_doc, rebuild
from namebook.engine import CycleError, build_dep_graph, evaluate
from namebook.formula import parse_formula
from namebook.values import (CYCLE_ERROR, DIV0_ERROR, ERROR_KINDS, NAME_ERROR,
                             NULL_ERROR, REF_ERROR, VALUE_ERROR, Array,
                             CellError)
from namebook.workbook import (FORMULA, RANGE, GridRange, NameDef, Workbook,
                               shift_name)

from arrays import of_rows
from gen import _INDEX_POOL, _LOOKUP_POOL, lookup_workbook, random_workbook
from oracle import oracle_evaluate


def _shape(v):
    if isinstance(v, Array):
        return v.shape
    return (1, 1)


def _calc(text, **inputs):
    """Evaluate one formula against named column inputs on a fresh sheet."""
    lists = {k: v if isinstance(v, list) else [v] for k, v in inputs.items()}
    rows = max([len(v) for v in lists.values()], default=1)
    wb = Workbook().add_sheet("s", max(rows, 1), max(len(lists) + 1, 1))
    for ci, (name, vals) in enumerate(lists.items(), start=1):
        for ri, s in enumerate(vals, start=1):
            if s is not None:
                wb.set_cell("s", ri, ci, s)
        wb.define_name(NameDef(name, target=GridRange("s", ci, ci, 1,
                                                      len(vals))))
    wb.define_name(NameDef("outf", None, FORMULA,
                           formula=parse_formula(text)))
    return evaluate(wb).value("outf")


def _col(v):
    assert isinstance(v, Array) and v.shape[1] == 1
    return [r[0] for r in v.cells]


# --- agreement with the independent interpreter -----------------------------

def test_matches_independent_interpreter_on_random_workbooks():
    for seed in range(300):
        wb = random_workbook(seed)
        store = evaluate(wb)
        want = oracle_evaluate(wb)
        assert set(store.values) == set(want), seed
        for key in want:
            assert store.values[key] == want[key], (seed, key)


def test_evaluation_is_deterministic():
    for seed in (3, 77, 1234):
        wb = random_workbook(seed)
        assert evaluate(wb) == evaluate(wb)
        assert evaluate(wb.copy()) == evaluate(wb)


def test_stored_shape_always_matches_the_declared_target():
    for seed in range(100, 160):
        wb = random_workbook(seed)
        store = evaluate(wb)
        for nd in wb.formula_bearing():
            declared = nd.target.clamp(wb.sheet(nd.target.sheet).rows).shape()
            assert _shape(store.values[nd.key()]) == declared, (seed,
                                                                nd.display())


# --- coercion and operators -------------------------------------------------

def test_arithmetic_coercions():
    assert _calc("1 + 2") == 3.0
    assert _calc("TRUE + TRUE") == 2.0
    assert _calc("xs + 1", xs=[None]) == 1.0      # blank counts as zero
    assert _calc('"5" + 1') == VALUE_ERROR        # text never coerces
    assert _calc("1/0") == DIV0_ERROR
    assert _calc("0/0") == DIV0_ERROR
    assert _calc("(0-8) ^ 0.5") == VALUE_ERROR    # complex result
    assert _calc("1e200 ^ 2") == VALUE_ERROR      # power overflow is guarded
    assert _calc("1e200 * 1e200") == float("inf")
    assert _calc("50% + 1") == 1.5
    assert _calc("2 ^ 3 ^ 2") == 64.0             # left associative


# One of each class of scalar: blank, bools, text (numeric text too),
# signed zeros, the edge of overflow and every error kind.
_EVERY_SCALAR = ([None, True, False, "", "x", "2.5", 0.0, -0.0, 1e300, -1e300]
                 + [CellError(k) for k in ERROR_KINDS])


def test_minus_percent_and_not_run_on_the_binary_and_if_kernels():
    # -x runs as 0 - x, x% as x / 100 and NOT(x) as IF(x, FALSE, TRUE),
    # whole over a row of every scalar class and in a sweep down a band
    # whose places each read one class, with the first step reading the
    # classes again past the band.  The oracle keeps its own unary rules.
    n = len(_EVERY_SCALAR)
    wb = Workbook().add_sheet("s", 9, n)
    for c, s in enumerate(_EVERY_SCALAR, 1):
        for row in (1, 6):  # x, and the cells one step past the band
            if s is not None:
                wb.set_cell("s", row, c, s)
    wb.define_name(NameDef("x", target=GridRange("s", 1, n, 1, 1)))
    for row, (ident, text) in enumerate((
            ("neg", "-x"), ("pct", "x%"), ("nt", "NOT(x)"),
            ("mix", "-(x%) * 2 + NOT(x)")), 2):
        wb.define_name(NameDef(ident, None, RANGE,
                               GridRange("s", 1, n, row, row),
                               parse_formula(text), array=True))
    band = NameDef("w", None, RANGE, GridRange("s", 1, n, 7, 9),
                   parse_formula("-←w% + x / 2"), array=True)
    wb.define_name(band)
    wb.define_name(shift_name(band, "←w", -1, 0))
    store = evaluate(wb)
    assert store.values == oracle_evaluate(wb)
    errors = [CellError(k) for k in ERROR_KINDS]
    assert repr(store.value("neg").flat) == repr(
        [0.0, -1.0, 0.0] + [VALUE_ERROR] * 3
        + [0.0, 0.0, -1e300, 1e300] + errors)
    assert store.value("nt").flat == (
        [True, False, True] + [VALUE_ERROR] * 3
        + [True, True, False, False] + errors)
    assert store.value("pct").flat[8:10] == [1e300 / 100, -1e300 / 100]
    [group] = [g for g in build_dep_graph(wb).plan if (None, "w") in g.members]
    assert group.failed is None and group.direction == (-1, 0)


def test_error_precedence_is_left_first():
    assert _calc("1/0 + nope") == DIV0_ERROR
    assert _calc("nope + 1/0") == NAME_ERROR


def test_comparison_rules():
    assert _calc('"abc" = "ABC"') is True
    assert _calc('5 < "a"') is True               # numbers sort before text
    assert _calc('"z" < TRUE') is True            # text sorts before booleans
    assert _calc("xs = 0", xs=[None]) is True     # blank takes a zero
    assert _calc('xs = ""', xs=[None]) is True
    assert _calc("1 <> TRUE") is True             # class mismatch, not equal


def test_concat_formats_numbers():
    assert _calc('1 & "x"') == "1x"
    assert _calc('2.5 & ""') == "2.5"
    assert _calc("TRUE & 1") == "TRUE1"


def test_broadcasting():
    v = _calc("xs * 2", xs=[1.0, 2.0, 3.0])
    assert _col(v) == [2.0, 4.0, 6.0]
    v = _calc("xs + ys", xs=[1.0, 2.0], ys=[10.0, 20.0])
    assert _col(v) == [11.0, 22.0]
    v = _calc("xs + ys", xs=[1.0, 2.0], ys=[100.0])
    assert _col(v) == [101.0, 102.0]              # length-one axis stretches
    # Unequal axes that are both longer than one refuse to combine.
    assert _calc("xs + ys", xs=[1.0, 2.0], ys=[1.0, 2.0, 3.0]) == VALUE_ERROR


# --- builtins ---------------------------------------------------------------

def test_sum_skips_nonnumbers_but_propagates_errors():
    assert _calc("SUM(xs)", xs=[1.0, "t", True, None, 2.0]) == 3.0
    assert _calc("SUM(xs, 10)", xs=[1.0, 2.0]) == 13.0
    assert _calc("SUM(xs)", xs=["a", "b"]) == 0.0
    assert _calc("SUM(xs / 0)", xs=[1.0, 2.0]) == DIV0_ERROR


def test_min_max():
    assert _calc("MIN(xs)", xs=[3.0, "t", 1.0, None]) == 1.0
    assert _calc("MAX(xs, 9)", xs=[3.0, 1.0]) == 9.0
    assert _calc("MIN(xs)", xs=["a"]) == 0.0      # nothing numeric counts


def test_and_or():
    assert _calc("AND(TRUE, 1)") is True
    assert _calc("AND(TRUE, 0)") is False
    assert _calc("OR(xs)", xs=[None, "t", 1.0]) is True
    assert _calc("AND(xs)", xs=["t", None]) == VALUE_ERROR
    assert _calc("OR(FALSE)") is False
    assert _calc("NOT(0)") is True
    assert _calc("AND()") == VALUE_ERROR           # at least one argument
    assert _calc("NOT(1, 2)") == VALUE_ERROR       # exactly one
    assert _calc("AND(TRUE, 1/0)") == DIV0_ERROR
    assert _calc("OR(xs / 0)", xs=[1.0, 2.0]) == DIV0_ERROR


def test_if_forms():
    assert _calc("IF(TRUE, 1, 2)") == 1.0
    assert _calc("IF(FALSE, 1)") is False         # missing branch yields FALSE
    v = _calc("IF(xs > 1, xs, 0)", xs=[1.0, 2.0, 3.0])
    assert _col(v) == [0.0, 2.0, 3.0]
    assert _calc("IF(1/0, 1, 2)") == DIV0_ERROR
    assert _calc("IF(1)") == VALUE_ERROR          # two or three arguments


def test_match():
    keys = [10.0, None, 20.0, 30.0]
    assert _calc("MATCH(20, xs, 0)", xs=keys) == 3.0  # blanks keep their slot
    assert _calc("MATCH(99, xs, 0)", xs=keys) == VALUE_ERROR
    assert _calc("MATCH(25, xs, 1)", xs=keys) == 3.0  # last element <= key
    assert _calc("MATCH(25, xs)", xs=keys) == 3.0     # default is approximate
    assert _calc("MATCH(5, xs, 1)", xs=keys) == VALUE_ERROR
    assert _calc('MATCH("x", xs, 1)', xs=keys) == VALUE_ERROR  # wrong class
    assert _calc('MATCH("b", xs, 0)', xs=["A", "B"]) == 2.0    # case folded
    assert _calc("MATCH(1)") == VALUE_ERROR
    assert _calc("MATCH(1, xs, 1/0)", xs=keys) == DIV0_ERROR  # match type


def test_lookup():
    got = _calc("LOOKUP(25, keys, vals)", keys=[10.0, 20.0, 30.0],
                vals=[1.0, 2.0, 3.0])
    assert got == 2.0
    got = _calc("LOOKUP(35, keys, vals)", keys=[10.0, 20.0, 30.0],
                vals=[1.0, 2.0])
    assert got == REF_ERROR                       # position past the results
    v = _calc("LOOKUP(xs, keys, vals)", xs=[10.0, 30.0],
              keys=[10.0, 20.0, 30.0], vals=[1.0, 2.0, 3.0])
    assert _col(v) == [1.0, 3.0]                  # vectorizes over the key
    assert _calc("LOOKUP(1, xs)", xs=[1.0]) == VALUE_ERROR  # no result vector


def test_index():
    xs = [10.0, 20.0, 30.0]
    assert _calc("INDEX(xs, 2)", xs=xs) == 20.0
    v = _calc("INDEX(xs, 0)", xs=xs)              # zero keeps the whole axis
    assert _col(v) == xs
    assert _calc("INDEX(xs, 4)", xs=xs) == REF_ERROR
    v = _calc("INDEX(xs, ks)", xs=xs, ks=[3.0, 1.0])
    assert _col(v) == [30.0, 10.0]                # array index gathers
    assert _col(_calc("INDEX(xs, ks)", xs=xs, ks=[0.0, 5.0])) == [VALUE_ERROR,
                                                                  REF_ERROR]
    assert _calc("SUM(INDEX(xs, 0) * 2)", xs=xs) == 120.0
    assert _calc("INDEX(xs)", xs=xs) == VALUE_ERROR
    assert _calc("INDEX(1/0, xs)", xs=xs) == DIV0_ERROR  # the source's error


def test_index_needs_both_axes_on_a_rectangle():
    wb = Workbook().add_sheet("s", 3, 3)
    wb.fill_block(GridRange("s", 1, 2, 1, 2),
                  [[1.0, 2.0], [3.0, 4.0]])
    wb.define_name(NameDef("grid", target=GridRange("s", 1, 2, 1, 2)))
    wb.define_name(NameDef("one", None, FORMULA,
                           formula=parse_formula("INDEX(grid, 2, 1)")))
    wb.define_name(NameDef("flat", None, FORMULA,
                           formula=parse_formula("INDEX(grid, 2)")))
    wb.define_name(NameDef("row", None, FORMULA,
                           formula=parse_formula("SUM(INDEX(grid, 2, 0))")))
    # A column past the width, of the reference and of a computed value.
    for ident, text in (("wide", "INDEX(grid, 1, 3)"),
                        ("wide.value", "INDEX(grid * 1, 1, 3)")):
        wb.define_name(NameDef(ident, None, FORMULA,
                               formula=parse_formula(text)))
    store = evaluate(wb)
    assert store.values == oracle_evaluate(wb)
    assert store.value("one") == 3.0
    assert store.value("flat") == VALUE_ERROR
    assert store.value("row") == 7.0
    assert store.value("wide") == REF_ERROR
    assert store.value("wide.value") == REF_ERROR


def test_index_over_a_scalar_source_treats_it_as_one_cell():
    # A literal source is a 1x1 block: index 1 or a whole-axis 0 picks
    # it, and any index past it is #REF!.
    wb = Workbook().add_sheet("s", 1, 1)
    wb.set_cell("s", 1, 1, 2.0)
    wb.define_name(NameDef("k", target=GridRange("s", 1, 1, 1, 1)))
    picks = {"one": ("INDEX(7, 1)", 7.0), "cell": ("INDEX(7, 1, 1)", 7.0),
             "whole": ("INDEX(7, 0)", 7.0), "text": ('INDEX("x", 1, 0)', "x"),
             "flag": ("INDEX(TRUE, k - 1)", True),
             "below": ("INDEX(7, 2)", REF_ERROR),
             "beside": ("INDEX(7, 1, 2)", REF_ERROR),
             "by.name": ("INDEX(7, k)", REF_ERROR)}
    for ident, (text, _) in picks.items():
        wb.define_name(NameDef(ident, None, FORMULA,
                               formula=parse_formula(text)))
    store = evaluate(wb)
    assert store.values == oracle_evaluate(wb)
    for ident, (_, want) in picks.items():
        assert repr(store.value(ident)) == repr(want), ident


def test_an_error_index_or_an_error_source_is_the_result():
    # A scalar index that is an error, and array indices into a one-cell
    # source holding an error, each give that error.
    wb = Workbook().add_sheet("s", 3, 3)
    wb.fill_block(GridRange("s", 1, 2, 1, 3),
                  [[10.0, 1.0], [20.0, 1.0], [30.0, NULL_ERROR]])
    wb.define_name(NameDef("xs", target=GridRange("s", 1, 1, 1, 3)))
    wb.define_name(NameDef("ks", target=GridRange("s", 2, 2, 1, 2)))
    wb.define_name(NameDef("bad", target=GridRange("s", 2, 2, 3, 3)))
    for ident, text in (("by.error", "INDEX(xs, 1/0)"),
                        ("by.error.col", "INDEX(xs, 1, nope)"),
                        ("of.error", "INDEX(bad, ks)"),
                        ("of.error.grid", "INDEX(bad, ks, ks)")):
        wb.define_name(NameDef(ident, None, FORMULA,
                               formula=parse_formula(text)))
    store = evaluate(wb)
    assert store.values == oracle_evaluate(wb)
    assert [store.value(i) for i in ("by.error", "by.error.col", "of.error",
                                     "of.error.grid")] == [
        DIV0_ERROR, NAME_ERROR, NULL_ERROR, NULL_ERROR]


def test_an_index_past_a_whole_column_band_is_a_ref_error():
    # A whole-column band ends at its sheet's last row, as a bounded
    # range ends at its own: scalar and array indices agree past it.
    wb = Workbook().add_sheet("s", 5, 3)
    wb.fill_block(GridRange("s", 1, 2, 1, 5),
                  [[10.0, 1.0], [20.0, 2.0], [30.0, 3.0], [40.0, 4.0],
                   [50.0, 5.0]])
    wb.define_name(NameDef("band", target=GridRange("s", 1, 1)))
    wb.define_name(NameDef("box", target=GridRange("s", 2, 2, 1, 5)))
    wb.define_name(NameDef("past", kind=RANGE, array=True,
                           target=GridRange("s", 3, 3, 1, 5),
                           formula=parse_formula("INDEX(band, box + 4)")))
    for ident, text in (("last", "INDEX(band, 5)"),
                        ("next", "INDEX(band, 6) + 1"),
                        ("far", "INDEX(band, 9)"),
                        ("cell", "INDEX(band, 6, 1)"),
                        ("boxed", "INDEX(box, 9)")):
        wb.define_name(NameDef(ident, None, FORMULA,
                               formula=parse_formula(text)))
    store = evaluate(wb)
    assert store.values == oracle_evaluate(wb)
    assert store.value("last") == 50.0
    for ident in ("next", "far", "cell", "boxed"):
        assert store.value(ident) == REF_ERROR, ident
    assert store.value("past") == of_rows([[50.0]] + [[REF_ERROR]] * 4)


def test_lookups_over_computed_arrays_match_the_oracle():
    # INDEX and MATCH over Arrays rather than references: two Array
    # indices, one Array index into a row, a whole row or column picked
    # by a 0 index, and an Array of keys, one of them missing.
    wb = Workbook().add_sheet("s", 3, 6)
    wb.fill_block(GridRange("s", 1, 3, 1, 3),
                  [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    wb.fill_block(GridRange("s", 4, 5, 1, 2), [[2.0, 1.0], [3.0, 3.0]])
    wb.fill_block(GridRange("s", 6, 6, 1, 2), [[3.0], [1.0]])
    wb.define_name(NameDef("grid", target=GridRange("s", 1, 3, 1, 3)))
    wb.define_name(NameDef("ri", target=GridRange("s", 4, 4, 1, 2)))
    wb.define_name(NameDef("ci", target=GridRange("s", 5, 5, 1, 2)))
    wb.define_name(NameDef("rk", target=GridRange("s", 6, 6, 1, 2)))
    wb.define_name(NameDef("row", target=GridRange("s", 1, 3, 3, 3)))
    for ident, text in (("pairs", "INDEX(grid + 0, ri, ci)"),
                        ("along", "INDEX(row * 1, rk)"),
                        ("across", "INDEX(grid * 1, 2, 0)"),
                        ("down", "INDEX(grid * 1, 0, 3)"),
                        ("found", "MATCH(ri, ci, 0)")):
        wb.define_name(NameDef(ident, None, FORMULA,
                               formula=parse_formula(text)))
    store = evaluate(wb)
    assert store.values == oracle_evaluate(wb)
    assert store.value("pairs") == of_rows([[4.0], [9.0]])
    assert store.value("along") == of_rows([[9.0], [7.0]])
    assert store.value("across") == of_rows([[4.0, 5.0, 6.0]])
    assert store.value("down") == of_rows([[3.0], [6.0], [9.0]])
    assert store.value("found") == of_rows([[VALUE_ERROR], [2.0]])


def _reprs(values):
    return {k: repr(v) for k, v in values.items()}


def test_lookup_books_match_the_oracle_and_a_full_evaluation():
    # Values compare through repr: computed vectors may hold nan.
    for seed in range(150):
        wb = lookup_workbook(seed)
        assert _reprs(evaluate(wb).values) == _reprs(oracle_evaluate(wb)), seed
        rng = random.Random(seed)
        for _ in range(3):
            r, c = rng.randint(1, wb.sheet("d").rows), rng.randint(1, 8)
            wb.set_cell("d", r, c, rng.choice(_LOOKUP_POOL + _INDEX_POOL
                                              + (DIV0_ERROR,)))
            assert (_reprs(evaluate(wb).values)
                    == _reprs(evaluate(wb.copy()).values)), seed


def test_a_whole_column_band_matches_the_oracle():
    # The bench's bands module over 800-row columns, where the operators
    # map their float twins, IF selects over a bool condition and SUM,
    # MIN and MAX fold in C.  `over` makes inf and nan by overflow, which
    # a comparison and the folds then read.
    n = 800
    rng = random.Random(19)
    wb = Workbook().add_sheet("s", n, 5)
    wb.fill_block(GridRange("s", 1, 1, 1, n),
                  [[rng.randrange(0, 400) / 4] for _ in range(n)])
    wb.define_name(NameDef("input", target=GridRange("s", 1, 1)))
    for ident, col, text in (
            ("double", 2, "input * 2 + 1"),
            ("kept", 3, "IF(double > 100, double, 0)"),
            ("over", 4, "input * 1e300 * 1e300 - double * 1e300 * 1e300"),
            ("flag", 5, "over >= kept")):
        wb.define_name(NameDef(ident, target=GridRange("s", col, col),
                               formula=parse_formula(text), array=True))
    for ident, text in (("total", "SUM(kept)"), ("top", "MAX(kept, over)"),
                        ("low", "MIN(over, kept)"), ("all", "SUM(over)")):
        wb.define_name(NameDef(ident, None, FORMULA,
                               formula=parse_formula(text)))
    store = evaluate(wb)
    assert _reprs(store.values) == _reprs(oracle_evaluate(wb))
    assert repr(store.value("all")) == "nan"


@pytest.mark.parametrize("text", ["MATCH(keys, xs, 1)", "MATCH(keys, xs, 0)",
                                  "LOOKUP(keys, xs, ys)"])
def test_a_lookup_indexes_its_vector_once(text):
    # A fresh evaluate of one lookup over n keys and n sorted slots makes
    # a bounded number of calls per row; a scan per key makes O(n) of them.
    n = 2000
    wb = Workbook().add_sheet("s", n, 3)
    wb.fill_block(GridRange("s", 1, 3, 1, n),
                  [[float(3 * i % n), float(i), float(-i)] for i in range(n)])
    for ident, col in (("keys", 1), ("xs", 2), ("ys", 3)):
        wb.define_name(NameDef(ident, target=GridRange("s", col, col, 1, n)))
    wb.define_name(NameDef("pos", None, FORMULA, formula=parse_formula(text)))
    prof = cProfile.Profile()
    prof.enable()
    store = evaluate(wb)
    prof.disable()
    assert pstats.Stats(prof).total_calls <= 40 * n
    want = [float(3 * i % n + 1) for i in range(n)]
    if text.startswith("LOOKUP"):
        want = [1.0 - k for k in want]
    assert _col(store.value("pos")) == want


def test_unknown_function_and_cell_references():
    assert _calc("NOSUCHFN(1)") == NAME_ERROR
    assert _calc("nope + 1") == NAME_ERROR
    assert _calc("B2 + 1") == REF_ERROR           # raw grid addresses refuse


def test_intersection_values():
    wb = Workbook().add_sheet("s", 4, 4)
    wb.fill_block(GridRange("s", 1, 3, 1, 3),
                  [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    wb.define_name(NameDef("rows", target=GridRange("s", 1, 3, 2, 2)))
    wb.define_name(NameDef("cols", target=GridRange("s", 2, 2, 1, 3)))
    wb.define_name(NameDef("apart", target=GridRange("s", 4, 4, 1, 1)))
    wb.define_name(NameDef("hit", None, FORMULA,
                           formula=parse_formula("rows cols")))
    wb.define_name(NameDef("miss", None, FORMULA,
                           formula=parse_formula("rows apart")))
    wb.define_name(NameDef("scalar", None, FORMULA,
                           formula=parse_formula("SUM(rows) rows")))
    store = evaluate(wb)
    assert store.value("hit") == 5.0
    assert store.value("miss") == NULL_ERROR
    assert store.value("scalar") == VALUE_ERROR   # not a reference


# --- array formulas and recurrences -----------------------------------------

def test_whole_column_formula_target_clamps_to_the_sheet():
    wb = Workbook().add_sheet("s", 4, 3)
    for r, v in enumerate([1.0, 2.0, 3.0, 4.0], start=1):
        wb.set_cell("s", r, 1, v)
    wb.define_name(NameDef("xs", target=GridRange("s", 1, 1, 1, 4)))
    wb.define_name(NameDef("wide", None, RANGE, target=GridRange("s", 2, 2),
                           formula=parse_formula("xs * 2"), array=True))
    store = evaluate(wb)
    assert _col(store.value("wide")) == [2.0, 4.0, 6.0, 8.0]
    # The grid itself stays untouched; computed cells live in the store
    # and are served to readers through the owner map.
    assert wb.sheet("s").get(3, 2) is None


def test_scalar_formula_range_rejects_array_results():
    wb = Workbook().add_sheet("s", 4, 3)
    for r, v in enumerate([1.0, 2.0, 3.0], start=1):
        wb.set_cell("s", r, 1, v)
    wb.define_name(NameDef("xs", target=GridRange("s", 1, 1, 1, 3)))
    wb.define_name(NameDef("one", None, RANGE,
                           target=GridRange("s", 2, 2, 1, 1),
                           formula=parse_formula("xs + 1")))
    store = evaluate(wb)
    assert store.value("one") == VALUE_ERROR


def _band(direction):
    """Five-slot recurrence band laid out across, down, or reversed."""
    if direction == "right":
        wb = Workbook().add_sheet("s", 3, 7)
        init = [True, False, False, False, False]
        for c, v in enumerate(init, start=2):
            wb.set_cell("s", 1, c, v)
        wb.define_name(NameDef("start",
                               target=GridRange("s", 2, 6, 1, 1)))
        band = NameDef("roll", None, RANGE, target=GridRange("s", 2, 6, 2, 2),
                       formula=parse_formula("IF(start, 3, ←roll * 2)"),
                       array=True)
        twin = ("←roll", 0, -1)
    elif direction == "down":
        wb = Workbook().add_sheet("s", 7, 3)
        init = [True, False, False, False, False]
        for r, v in enumerate(init, start=2):
            wb.set_cell("s", r, 1, v)
        wb.define_name(NameDef("start",
                               target=GridRange("s", 1, 1, 2, 6)))
        band = NameDef("roll", None, RANGE, target=GridRange("s", 2, 2, 2, 6),
                       formula=parse_formula("IF(start, 3, ←roll * 2)"),
                       array=True)
        twin = ("←roll", -1, 0)
    else:  # leftward sweep seeded in the last slot
        wb = Workbook().add_sheet("s", 3, 7)
        init = [False, False, False, False, True]
        for c, v in enumerate(init, start=2):
            wb.set_cell("s", 1, c, v)
        wb.define_name(NameDef("start",
                               target=GridRange("s", 2, 6, 1, 1)))
        band = NameDef("roll", None, RANGE, target=GridRange("s", 2, 6, 2, 2),
                       formula=parse_formula("IF(start, 3, ←roll * 2)"),
                       array=True)
        twin = ("←roll", 0, 1)
    wb.define_name(band)
    wb.define_name(shift_name(band, *twin))
    return wb


def test_recurrence_sweeps_left_to_right():
    store = evaluate(_band("right"))
    assert store.value("roll") == of_rows([[3.0, 6.0, 12.0, 24.0, 48.0]])


def test_recurrence_sweeps_top_to_bottom():
    store = evaluate(_band("down"))
    assert _col(store.value("roll")) == [3.0, 6.0, 12.0, 24.0, 48.0]


def test_recurrence_sweeps_right_to_left_when_the_twin_points_right():
    store = evaluate(_band("reversed"))
    assert store.value("roll") == of_rows([[48.0, 24.0, 12.0, 6.0, 3.0]])


def test_lazy_condition_guards_the_out_of_band_read():
    # The seed slot must not evaluate its recurrence branch at all: one
    # column left of the band lies off the rectangle, and an eager read
    # there would poison the whole band.
    wb = _band("right")
    store = evaluate(wb)
    assert not store.has_errors()


def test_co_swept_members_sharing_one_formula_read_their_own_scope():
    # Two members of one sweep group share a formula object but resolve
    # k and other in different scopes, so the sweep-constant SUM(k) must
    # be computed once per scope, not once per formula object.
    wb = Workbook().add_sheet("s", 3, 6).add_sheet("aux", 1, 1)
    wb.set_cell("s", 1, 1, 10.0)
    wb.set_cell("s", 2, 1, 100.0)
    for col, flag in zip(range(3, 7), (True, False, False, False)):
        wb.set_cell("s", 3, col, flag)
    wb.define_name(NameDef("first?", target=GridRange("s", 3, 6, 3, 3)))
    wb.define_name(NameDef("k", target=GridRange("s", 1, 1, 1, 1)))
    wb.define_name(NameDef("k", "aux", RANGE,
                           target=GridRange("s", 1, 1, 2, 2)))
    shared = parse_formula("IF(first?, SUM(k), other + 1)")
    for scope, row in ((None, 1), ("aux", 2)):
        wb.define_name(NameDef("acc", scope, RANGE,
                               target=GridRange("s", 3, 6, row, row),
                               formula=shared, array=True))
    # Each member's "other" is the other member, one column left.
    wb.define_name(NameDef("other", None, RANGE,
                           target=GridRange("s", 2, 5, 2, 2)))
    wb.define_name(NameDef("other", "aux", RANGE,
                           target=GridRange("s", 2, 5, 1, 1)))
    store = evaluate(wb)
    assert store.value("acc") == of_rows([[10.0, 101.0, 12.0, 103.0]])
    assert store.value("acc", "aux") == of_rows([[100.0, 11.0, 102.0, 13.0]])
    assert store.values == oracle_evaluate(wb)


# --- cycles -----------------------------------------------------------------

def test_pure_formula_cycle_raises_before_any_work():
    wb = Workbook().add_sheet("s", 2, 2)
    wb.define_name(NameDef("pf", None, FORMULA, formula=parse_formula("qf + 1")))
    wb.define_name(NameDef("qf", None, FORMULA, formula=parse_formula("pf + 1")))
    for _ in range(2):  # a cycle is never planned, so it raises every time
        with pytest.raises(CycleError) as info:
            evaluate(wb)
        assert "pf" in str(info.value) and "qf" in str(info.value)


def test_mutually_referencing_formula_ranges_raise():
    wb = Workbook().add_sheet("s", 3, 6)
    wb.define_name(NameDef("aaa", None, RANGE,
                           target=GridRange("s", 1, 1, 1, 2),
                           formula=parse_formula("bbb + 1"), array=True))
    wb.define_name(NameDef("bbb", None, RANGE,
                           target=GridRange("s", 2, 2, 1, 2),
                           formula=parse_formula("aaa * 2"), array=True))
    for _ in range(2):
        with pytest.raises(CycleError):
            evaluate(wb)


def test_hidden_self_read_through_an_alias_fills_cycle_errors():
    # The name graph is acyclic (outp reads cover, an input), but cover's
    # cells are the very cells outp writes, so the group cannot be ordered.
    wb = Workbook().add_sheet("s", 3, 6)
    wb.define_name(NameDef("cover", target=GridRange("s", 2, 4, 1, 1)))
    wb.define_name(NameDef("outp", None, RANGE,
                           target=GridRange("s", 2, 4, 1, 1),
                           formula=parse_formula("cover + 1"), array=True))
    store = evaluate(wb)
    assert store.value("outp") == of_rows([[CYCLE_ERROR] * 3])
    assert store.has_errors()


def test_dangling_name_evaluates_to_ref_error():
    wb = Workbook().add_sheet("s", 2, 2).add_sheet("gone", 2, 2)
    wb.define_name(NameDef("lost", target=GridRange("gone", 1, 1, 1, 1)))
    wb.define_name(NameDef("user", None, FORMULA,
                           formula=parse_formula("lost + 1")))
    wb.delete_sheet("gone")
    store = evaluate(wb)
    assert store.value("lost") == REF_ERROR
    assert store.value("user") == REF_ERROR


def test_a_qualifier_naming_no_sheet_is_a_name_error():
    # nosuch!x used to fall back to the workbook's x, which export_doc
    # then wrote into a document that rebuild refused.
    wb = Workbook().add_sheet("s", 2, 2)
    wb.set_cell("s", 1, 1, 5.0)
    wb.define_name(NameDef("x", target=GridRange("s", 1, 1, 1, 1)))
    wb.define_name(NameDef("y", None, FORMULA,
                           formula=parse_formula("nosuch!x * 2")))
    assert wb.resolve("x", context="s", qualifier="nosuch") is None
    assert evaluate(wb).value("y") == NAME_ERROR
    assert oracle_evaluate(wb)[(None, "y")] == NAME_ERROR
    graph = build_dep_graph(wb)
    assert graph.edges[(None, "y")] == ()
    assert graph.unresolved == {(None, "y"): ("nosuch!x",)}
    with pytest.raises(UndeclaredName, match="nosuch!x"):
        rebuild(export_doc(wb))
    # Once the sheet exists the qualifier reaches the workbook's x.
    wb.add_sheet("nosuch", 1, 1)
    assert build_dep_graph(wb).edges[(None, "y")] == ((None, "x"),)
    assert evaluate(wb).value("y") == 10.0


# --- the store --------------------------------------------------------------

def test_store_lookup_falls_back_to_a_unique_scoped_name():
    wb = Workbook().add_sheet("s", 2, 2)
    wb.set_cell("s", 1, 1, 5.0)
    wb.define_name(NameDef("only", "s", RANGE,
                           target=GridRange("s", 1, 1, 1, 1)))
    store = evaluate(wb)
    assert store.value("only") == 5.0
    assert store.value("only", "s") == 5.0
    with pytest.raises(KeyError):
        store.value("other")


def test_store_scalar_collapses_single_cells_only():
    wb = Workbook().add_sheet("s", 2, 2)
    wb.set_cell("s", 1, 1, 5.0)
    wb.set_cell("s", 2, 1, 6.0)
    wb.define_name(NameDef("pair", target=GridRange("s", 1, 1, 1, 2)))
    store = evaluate(wb)
    assert isinstance(store.value("pair"), Array)
    assert store.scalar("pair") == of_rows([[5.0], [6.0]])
    wb2 = Workbook().add_sheet("s", 2, 2)
    wb2.set_cell("s", 1, 1, 7.0)
    wb2.define_name(NameDef("one", target=GridRange("s", 1, 1, 1, 1)))
    assert evaluate(wb2).scalar("one") == 7.0
