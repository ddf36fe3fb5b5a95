"""An Array's kind (float, bool, or False) and what it buys.

The kind is passed by the constructors that know it (a float twin's
result, IF's select) and found by one scan otherwise.  A wrong kind
shows in a value only where a later operation trusts it, so the oracle
comparisons can miss one; the truth test
records every Array that evaluate constructs, over the fixtures and
every generated family, after a full evaluation and after an
incremental one that follows a random edit, and checks each kind
against the cells and that every value returned is a scalar or an
Array, never a reference (a GridRange).  The call-count gate shows
that whole-column IF over a comparison of floats runs no Python per
cell, and that one text cell upstream sends it back to _if."""

import cProfile
import os
import pstats
import random

import pytest

from namebook.docio import rebuild
from namebook.engine import CycleError, evaluate
from namebook.formula import parse_formula
from namebook.values import Array, CellError
from namebook.workbook import FORMULA, GridRange, NameDef, Workbook

from arrays import kind_of
from gen import (_literal, lookup_workbook, random_workbook,
                 recurrence_workbook, sweep_group_workbook)

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
# The exact types of the values evaluate may return.
_VALUE_TYPES = (type(None), bool, float, str, CellError, Array)


def _books():
    for name in ("fixtureA", "fixtureB", "fixtureC"):
        with open(os.path.join(ROOT, "fixtures", name + ".nsdoc"),
                  encoding="utf-8") as fh:
            yield name, rebuild(fh.read())
    for make in (random_workbook, lookup_workbook, recurrence_workbook,
                 sweep_group_workbook):
        for seed in range(150):
            yield "%s %d" % (make.__name__, seed), make(seed)


def _edit(rng, wb):
    """One cell of a random input name set to a float or a literal."""
    inputs = sorted((nd for nd in wb.names.values()
                     if nd.formula is None and nd.target is not None),
                    key=lambda d: (d.identifier, d.scope or ""))
    if not inputs:
        return
    rect = wb.bounded(rng.choice(inputs).target)
    value = (float(rng.randrange(-9, 60)) if rng.random() < 0.5
             else _literal(rng))
    wb.set_cell(rect.sheet, rng.randint(rect.row_start, rect.row_end),
                rng.randint(rect.col_start, rect.col_end), value)


def test_every_kind_evaluate_makes_holds_for_every_cell(monkeypatch):
    made = []
    init = Array.__init__

    def recording(self, flat, shape, kind=None):
        init(self, flat, shape, kind)
        made.append(self)
    monkeypatch.setattr(Array, "__init__", recording)
    kinds = dict.fromkeys((float, bool, False), 0)
    for label, wb in _books():
        rng = random.Random(label)
        for step in ("full", "incremental"):
            if step == "incremental":
                _edit(rng, wb)
            del made[:]
            try:
                store = evaluate(wb)
            except CycleError:
                break
            for a in made:
                assert a.kind is kind_of(a.flat), (label, step, a)
                kinds[a.kind] += 1
            for key, v in store.values.items():
                assert type(v) in _VALUE_TYPES, (label, step, key, v)
    assert min(kinds.values()) > 500, kinds


def _band(rows, text_at=None):
    """The bench's bands module: input, double = input * 2 + 1, kept =
    IF(double > 100, double, 0) and total = SUM(kept), with one text cell
    in the input at row text_at if given."""
    rng = random.Random(23)
    wb = Workbook().add_sheet("s", rows, 3)
    wb.fill_block(GridRange("s", 1, 1, 1, rows),
                  [[rng.randrange(0, 400) / 4] for _ in range(rows)])
    if text_at is not None:
        wb.set_cell("s", text_at, 1, "n/a")
    wb.define_name(NameDef("input", target=GridRange("s", 1, 1)))
    for ident, col, text in (("double", 2, "input * 2 + 1"),
                             ("kept", 3, "IF(double > 100, double, 0)")):
        wb.define_name(NameDef(ident, target=GridRange("s", col, col),
                               formula=parse_formula(text), array=True))
    wb.define_name(NameDef("total", None, FORMULA,
                           formula=parse_formula("SUM(kept)")))
    return wb


def _calls(wb):
    """evaluate's calls of engine._if and values.to_bool."""
    prof = cProfile.Profile()
    prof.enable()
    evaluate(wb)
    prof.disable()
    counts = {fn: 0 for fn in ("_if", "to_bool")}
    for (path, _, fn), (_, calls, *_) in pstats.Stats(prof).stats.items():
        if fn in counts and os.path.basename(path) in ("engine.py",
                                                       "values.py"):
            counts[fn] += calls
    return counts


@pytest.mark.parametrize("text_at", [None, 17])
def test_whole_column_if_runs_no_python_per_cell(text_at):
    rows = 800
    counts = _calls(_band(rows, text_at))
    if text_at is None:
        assert counts == {"_if": 0, "to_bool": 0}
    else:
        # The text cell makes double's cell #VALUE!, so the condition is
        # not bools alone and every cell goes through _if.
        assert counts == {"_if": rows, "to_bool": rows}
