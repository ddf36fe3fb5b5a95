"""Records: the AST nodes and value types are plain slot classes.

Importing the CLI loads no dataclasses, inspect or typing.  Every record
is equal to another only when both are of one class with equal fields,
hashes agree with equality, and the validation and reprs the frozen
dataclasses had are kept."""

import os
import subprocess
import sys

import pytest

from namebook.audit import (Finding, GraphSlice, ListingEntry, focus_graph,
                            linear_listing, lint)
from namebook.corpus import fixture_a, fixture_c
from namebook.engine import (DepGraph, RangeValue, ValueStore, _Group,
                             build_dep_graph, evaluate)
from namebook.formula import (Binary, BoolLit, Call, CellRef, Intersect,
                              NameRef, NumberLit, Percent, TextLit, Unary,
                              parse_formula)
from namebook.values import CYCLE_ERROR, Array, CellError
from namebook.workbook import FORMULA, GridRange, NameDef, Sheet

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # -S leaves out site-packages, whose .pth files may import typing
    # before namebook does.  enum is not checked: re imports it.
    code = ("import sys, namebook.cli; print(' '.join(m for m in "
            "('dataclasses', 'inspect', 'typing') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def _x():
    return NameRef("x")


# Two builders per record class: each call makes a new record, and the
# second differs from the first in one field.
_RECORDS = {
    NumberLit: (lambda: NumberLit(1.0), lambda: NumberLit(2.0)),
    TextLit: (lambda: TextLit("a"), lambda: TextLit("b")),
    BoolLit: (lambda: BoolLit(True), lambda: BoolLit(False)),
    NameRef: (lambda: NameRef("a1", "s"), lambda: NameRef("a1")),
    CellRef: (lambda: CellRef("A1", "s"), lambda: CellRef("A2", "s")),
    Unary: (lambda: Unary("-", _x()), lambda: Unary("-", NameRef("y"))),
    Binary: (lambda: Binary("+", _x(), NumberLit(1.0)),
             lambda: Binary("-", _x(), NumberLit(1.0))),
    Intersect: (lambda: Intersect(_x(), NameRef("y")),
                lambda: Intersect(NameRef("y"), _x())),
    Percent: (lambda: Percent(_x()), lambda: Percent(NumberLit(1.0))),
    Call: (lambda: Call("SUM", (_x(),)), lambda: Call("SUM", ())),
    CellError: (lambda: CellError("#REF!"), lambda: CellError("#NAME?")),
    GridRange: (lambda: GridRange("s", 1, 2, 3, 4),
                lambda: GridRange("s", 1, 2)),
    NameDef: (lambda: NameDef("a", None, FORMULA, formula=_x()),
              lambda: NameDef("a", "s", FORMULA, formula=_x())),
    Sheet: (lambda: Sheet("s", 2, 3, {(1, 1): 1.0}),
            lambda: Sheet("s", 2, 3)),
    DepGraph: (lambda: DepGraph(("a",), {"a": ()}, frozenset(), {}, {}),
               lambda: DepGraph(("a",), {"a": ()}, frozenset(), {},
                                {"a": "a"})),
    ValueStore: (lambda: ValueStore({"a": 1.0}, {}),
                 lambda: ValueStore({"a": 2.0}, {})),
    RangeValue: (lambda: RangeValue(GridRange("s", 1, 1)),
                 lambda: RangeValue(GridRange("s", 2, 2))),
    _Group: (lambda: _Group(["a"], {}), lambda: _Group(["a"], {},
                                                      failed="x")),
    ListingEntry: (lambda: ListingEntry("a", "input", None, "s!A1", (1, 1)),
                   lambda: ListingEntry("a", "input", None, "s!A2", (1, 1))),
    GraphSlice: (lambda: GraphSlice("a", ("a",), (), frozenset(), {}),
                 lambda: GraphSlice("b", ("b",), (), frozenset(), {})),
    Finding: (lambda: Finding("N4", "warning", "a", "m"),
              lambda: Finding("N4", "warning", "b", "m")),
}


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda c: c.__name__)
def test_records_are_equal_by_class_and_fields(cls):
    same, other = _RECORDS[cls]
    a, b, c = same(), same(), other()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert not hasattr(a, "__dict__")
    try:
        hash(a)
    except TypeError:  # a field is a dict or a list
        return
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_records_of_different_classes_with_equal_fields_differ():
    # A tuple subclass, or equality on the fields alone, would make each
    # of these pairs equal.
    x = _x()
    pairs = [(NumberLit(1.0), BoolLit(True)), (NumberLit(0.0), BoolLit(False)),
             (NameRef("a1"), CellRef("a1")), (TextLit("x"), NameRef("x")),
             (Intersect(x, x), Binary("+", x, x)), (Percent(x), Unary("-", x)),
             (NameRef("a1"), ("a1", None)), (NumberLit(1.0), 1.0),
             (CellError("#REF!"), "#REF!"),
             (GridRange("s", 1, 1, 1, 1), ("s", 1, 1, 1, 1))]
    for a, b in pairs:
        assert a != b and b != a and not a == b, (a, b)
    assert len({NumberLit(1.0), BoolLit(True), NameRef("a1"),
                CellRef("a1")}) == 4


def test_parsed_trees_compare_and_hash_by_value():
    a = parse_formula("SUM(a, s!b) + -c% * IF(x y, 1, \"t\")")
    b = parse_formula("SUM(a, s!b) + -c% * IF(x y, 1, \"t\")")
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != parse_formula("SUM(a, s!b) + -c% * IF(x y, 1, \"u\")")


def test_dep_graph_equality_and_repr_ignore_the_plan():
    wb = fixture_c()
    planned = build_dep_graph(wb)
    evaluate(wb)
    assert planned.plan
    fresh = build_dep_graph(wb.copy())
    assert not fresh.plan
    assert planned == fresh and repr(planned) == repr(fresh)
    assert "plan" not in repr(planned)


def test_grid_range_orders_swapped_bounds_and_refuses_zero():
    assert GridRange("s", 3, 1, 5, 2) == GridRange("s", 1, 3, 2, 5)
    swapped = GridRange("s", 4, 2, 9, 7)
    assert (swapped.col_start, swapped.col_end,
            swapped.row_start, swapped.row_end) == (2, 4, 7, 9)
    assert GridRange("s", 5, 5).row_start is None
    for args in (("s", 0, 2), ("s", 2, 0), ("s", 1, 2, 0, 3),
                 ("s", 1, 2, 3, 0), ("s", 1, 2, 3), ("s", 1, 2, None, 3)):
        with pytest.raises(ValueError):
            GridRange(*args)


def test_cell_errors_refuse_unknown_kinds_and_keep_their_repr():
    with pytest.raises(ValueError):
        CellError("#BAD")
    assert repr(CellError("#CYCLE!")) == "CellError(kind='#CYCLE!')"
    assert str(CYCLE_ERROR) == "#CYCLE!"
    assert (repr(Array([[1.0, CYCLE_ERROR], [None, "t"]]))
            == "Array([[1.0, CellError(kind='#CYCLE!')], [None, 't']])")


def test_record_reprs_name_every_field():
    assert repr(NameRef("a")) == "NameRef(name='a', sheet=None)"
    assert (repr(Binary("+", NumberLit(1.0), BoolLit(True)))
            == "Binary(op='+', lhs=NumberLit(value=1.0), "
               "rhs=BoolLit(value=True))")
    assert (repr(GridRange("s", 1, 2)) == "GridRange(sheet='s', "
            "col_start=1, col_end=2, row_start=None, row_end=None)")
    wb = fixture_a()
    assert repr(linear_listing(wb)[0]).startswith("ListingEntry(name=")
    assert repr(lint(wb)[0]).startswith("Finding(rule=")
    assert repr(focus_graph(wb, "revenue")).startswith("GraphSlice(focus=")


def test_the_workbook_replaces_the_definitions_it_changes():
    # A definition once handed out never changes: rebind_name and
    # delete_sheet put new ones in place, so a copy sharing the old
    # definitions keeps them.
    wb = fixture_a()
    key = next(k for k, nd in wb.names.items() if nd.target is not None)
    before = wb.names[key]
    kept = NameDef(before.identifier, before.scope, before.kind,
                   before.target, before.formula, before.array, before.derive)
    copy = wb.copy()
    wb.rebind_name(key[1], key[0], parse_formula("1 + 1"))
    assert wb.names[key] is not before and before == kept
    assert copy.names[key] is before
    wb.delete_sheet(kept.target.sheet)
    assert copy.names[key] == kept
    assert evaluate(copy) == evaluate(fixture_a())
