"""Incremental evaluation: evaluate keeps its values with the plan, and
after set_cell or fill_block it computes only the names the written
cells reach.

The differential check applies random edit sequences to random
workbooks, the three fixtures and the benchmark's generated books, and
after every edit compares evaluate(wb) with a full evaluation of a copy
(which keeps nothing), value by value through repr.  A store returned
before an edit must not change.  The work gate counts what one edit to
one of four independent modules costs: its module, and nothing else;
and a write hidden under formula ranges' blocks, nothing at all."""

import cProfile
import math
import os
import pstats
import random
import sys

import pytest

from namebook import engine
from namebook.docio import rebuild
from namebook.engine import CycleError, build_dep_graph, evaluate
from namebook.formula import parse_formula
from namebook.values import DIV0_ERROR, VALUE_ERROR
from namebook.workbook import FORMULA, GridRange, NameDef, Workbook

from gen import _literal, random_workbook, sweep_group_workbook

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402


def _reprs(store):
    return [(store.display[k], repr(v)) for k, v in store.values.items()]


def _check(wb, earlier):
    """evaluate(wb) gives what a full evaluation of a copy gives, and the
    stores it returned before are as they were."""
    try:
        want = _reprs(evaluate(wb.copy()))
    except CycleError as exc:
        with pytest.raises(CycleError) as info:
            evaluate(wb)
        assert info.value.members == exc.members
        return
    store = evaluate(wb)
    assert _reprs(store) == want
    for old, text in earlier:
        assert _reprs(old) == text
    earlier[:] = earlier[-1:] + [(store, want)]


def _value(rng):
    roll = rng.random()
    if roll < 0.1:
        return rng.choice((DIV0_ERROR, VALUE_ERROR))
    if roll < 0.13:
        return 1e200  # its square overflows to inf, and inf - inf is nan
    return _literal(rng)


def _any_cell(rng, wb, nd):
    rect = wb.bounded(nd.target)
    return (rect.sheet, rng.randint(rect.row_start, rect.row_end),
            rng.randint(rect.col_start, rect.col_end))


def _unread_cell(rng, wb):
    """A cell inside no name's rectangle, or None."""
    targets = [wb.bounded(nd.target) for nd in wb.names.values()
               if nd.target is not None]
    for _ in range(30):
        sh = wb.sheets[rng.choice(sorted(wb.sheets))]
        r, c = rng.randint(1, sh.rows), rng.randint(1, sh.cols)
        if not any(t.sheet == sh.name and t.contains(r, c) for t in targets):
            return sh.name, r, c
    return None


def _swept_inputs(wb):
    """The input names the members of a valid sweep read."""
    graph = build_dep_graph(wb)
    out = set()
    for g in graph.plan or ():
        if g.direction is None or g.failed is not None:
            continue
        for m in g.members:
            reads, _ = engine._through_formulas(wb, graph, m)
            out.update(v for v in reads if wb.names[v].formula is None)
    return sorted(out, key=engine._sort_key)


def _edit(rng, wb, kind, serial):
    """Apply one edit of the given kind; returns the kind applied, which
    falls back to "input" when the book has nothing of that kind."""
    names = sorted(wb.names.values(),
                   key=lambda d: (d.identifier, d.scope or ""))
    inputs = [nd for nd in names if nd.formula is None
              and nd.target is not None]
    formulas = [nd for nd in names if nd.formula is not None
                and nd.target is not None]
    if kind == "unread":
        spot = _unread_cell(rng, wb)
        if spot is not None:
            wb.set_cell(*spot, _value(rng))
            return kind
    elif kind == "formula" and formulas:
        wb.set_cell(*_any_cell(rng, wb, rng.choice(formulas)), _value(rng))
        return kind
    elif kind == "over" and formulas:
        # A block partly hidden under a formula range: its rectangle grown
        # by a row and a column where the sheet has room.
        rect = wb.bounded(rng.choice(formulas).target)
        sh = wb.sheets[rect.sheet]
        grown = GridRange(rect.sheet, rect.col_start,
                          min(sh.cols, rect.col_end + 1), rect.row_start,
                          min(sh.rows, rect.row_end + 1))
        rows, cols = grown.shape()
        wb.fill_block(grown, [[_value(rng) for _ in range(cols)]
                              for _ in range(rows)])
        return kind
    elif kind == "swept":
        swept = _swept_inputs(wb)
        if swept:
            nd = wb.names[rng.choice(swept)]
            wb.set_cell(*_any_cell(rng, wb, nd),
                        float(rng.randrange(-9, 60)))
            return kind
    elif kind == "blank" and inputs:
        wb.set_cell(*_any_cell(rng, wb, rng.choice(inputs)), None)
        return kind
    elif kind == "fill" and inputs:
        rect = wb.bounded(rng.choice(inputs).target)
        rows, cols = rect.shape()
        wb.fill_block(rect, [[_value(rng) for _ in range(cols)]
                             for _ in range(rows)])
        return kind
    elif kind == "nan":
        wide = [nd for nd in inputs + formulas
                if wb.bounded(nd.target).shape() != (1, 1)]
        if wide:
            rect = wb.bounded(rng.choice(wide).target)
            rows, cols = rect.shape()
            data = [[float(rng.randrange(-9, 60)) for _ in range(cols)]
                    for _ in range(rows)]
            k = rng.randrange(1, rows * cols)
            data[k // cols][k % cols] = math.nan
            with pytest.raises(ValueError):
                wb.fill_block(rect, data)
            return kind
    elif kind in ("rebind", "define"):
        _edit(rng, wb, "input", serial)
        if kind == "rebind" and inputs:
            nd = rng.choice(inputs)
            sh = wb.sheets[nd.target.sheet]
            c, r = rng.randint(1, sh.cols), rng.randint(1, sh.rows)
            target = rng.choice((nd.target, GridRange(
                sh.name, c, min(sh.cols, c + rng.randrange(2)), r,
                min(sh.rows, r + rng.randrange(3)))))
            wb.rebind_name(nd.identifier, nd.scope, target)
            return kind
        if kind == "define":
            read = rng.choice(names).display()
            wb.define_name(NameDef("late.%d" % serial, None, FORMULA,
                                   formula=parse_formula(
                                       "SUM(%s) + 1" % read)))
            return kind
    if inputs:
        wb.set_cell(*_any_cell(rng, wb, rng.choice(inputs)), _value(rng))
    return "input"


KINDS = ("unread", "formula", "over", "swept", "blank", "fill", "nan",
         "rebind", "define", "input")


def _books():
    for seed in (403, 431):
        for doc in workloads.fixtures(seed):
            yield "%s %d" % (doc.name, seed), rebuild(doc.text), doc.edits
    for seed in range(200):
        yield "gen %d" % seed, random_workbook(seed), ()
    # Co-swept bands: text, bool, blank, error and 1e200 edits flip their
    # constant parts between float and not between two sweeps of one
    # kept layout.
    for seed in range(60):
        yield "sweep group %d" % seed, sweep_group_workbook(seed), ()
    for seed in (403, 431):
        for make in (workloads.sweep, workloads.chain, workloads.bands):
            doc = make(seed)[0]
            yield "%s %d" % (doc.name, seed), rebuild(doc.text), doc.edits


def test_incremental_evaluation_matches_a_full_one_after_every_edit(
        monkeypatch):
    monkeypatch.chdir(ROOT)  # workloads.fixtures reads fixtures/*.nsdoc
    done = dict.fromkeys(KINDS, 0)
    for label, wb, recorded in _books():
        rng = random.Random(label)
        earlier = []
        _check(wb, earlier)
        for steps in recorded:
            workloads.apply_edit(wb, steps)
            _check(wb, earlier)
        for serial in range(6):
            done[_edit(rng, wb, rng.choice(KINDS), serial)] += 1
            try:
                _check(wb, earlier)
            except AssertionError:
                raise AssertionError("%s, edit %d" % (label, serial))
    assert min(done.values()) > 50, done


# --- what one edit costs -------------------------------------------------------

def _bands(rows=40):
    """Four independent modules, each an input column, two whole-column
    formula ranges over it and a formula name totalling the last."""
    wb = Workbook()
    for k in range(4):
        sheet, ident = "band.%s" % "abcd"[k], "mod%d" % k
        wb.add_sheet(sheet, rows, 3)
        wb.fill_block(GridRange(sheet, 1, 1),
                      [[float((7 * r + k) % 60)] for r in range(rows)])
        wb.define_name(NameDef(ident + ".input",
                               target=GridRange(sheet, 1, 1)))
        wb.define_name(NameDef(ident + ".double", array=True,
                               target=GridRange(sheet, 2, 2),
                               formula=parse_formula(ident +
                                                     ".input * 2 + 1")))
        wb.define_name(NameDef(ident + ".kept", array=True,
                               target=GridRange(sheet, 3, 3),
                               formula=parse_formula(
                                   "IF(%s.double > 100, %s.double, 0)"
                                   % (ident, ident))))
        wb.define_name(NameDef(ident + ".total", None, FORMULA,
                               formula=parse_formula("SUM(%s.kept)"
                                                     % ident)))
    return wb


def _work(wb, monkeypatch):
    """Evaluate wb; returns the cProfile call count of _eval_whole_name,
    the formula ranges it ran for and the formula names evaluated."""
    whole, named = [], []
    formulas = {nd.key(): nd.display() for nd in wb.names.values()
                if nd.kind == FORMULA}
    eval_whole, program = engine._eval_whole_name, engine._EvalState.program

    def whole_spy(state, nd):
        whole.append(nd.display())
        return eval_whole(state, nd)

    def program_spy(state, key):  # run once per name computed
        if key in formulas:
            named.append(formulas[key])
        return program(state, key)

    monkeypatch.setattr(engine, "_eval_whole_name", whole_spy)
    monkeypatch.setattr(engine._EvalState, "program", program_spy)
    prof = cProfile.Profile()
    prof.enable()
    store = evaluate(wb)
    prof.disable()
    monkeypatch.undo()
    calls = pstats.Stats(prof).stats.get(
        cProfile.label(eval_whole.__code__), (0, 0))[1]
    assert store == evaluate(wb.copy())
    return calls, sorted(whole), sorted(named)


def test_an_edit_recomputes_only_the_module_it_reaches(monkeypatch):
    wb = _bands()
    calls, whole, named = _work(wb, monkeypatch)
    assert calls == 8 and len(named) == 4
    wb.set_cell("band.a", 5, 1, 99.0)
    assert _work(wb, monkeypatch) == (2, ["mod0.double", "mod0.kept"],
                                      ["mod0.total"])
    wb.set_cell("band.d", 1, 3, 1.0)  # hidden under mod3.kept's block
    assert _work(wb, monkeypatch) == (0, [], [])
    wb.fill_block(GridRange("band.c", 2, 3, 4, 5), [[1.0, 2.0], [3.0, 4.0]])
    assert _work(wb, monkeypatch) == (0, [], [])  # under two owners
    assert _work(wb, monkeypatch) == (0, [], [])
    wb.rebind_name("mod3.input", None, GridRange("band.d", 1, 1))
    calls, whole, named = _work(wb, monkeypatch)
    assert calls == 8 and len(whole) == 8 and len(named) == 4


def test_a_name_that_holds_anothers_array_keeps_its_store():
    # b = a over a block of a's shape holds a's own Array object, and so
    # does c = x of the input's; a later edit and recalc must leave the
    # stores returned before as they were.
    wb = Workbook().add_sheet("s", 3, 5)
    for r in range(1, 4):
        wb.set_cell("s", r, 1, float(r))
    wb.define_name(NameDef("x", target=GridRange("s", 1, 1, 1, 3)))
    for ident, text, col in (("a", "x * 2", 2), ("b", "a", 3), ("c", "x", 4)):
        wb.define_name(NameDef(ident, target=GridRange("s", col, col, 1, 3),
                               formula=parse_formula(text), array=True))
    first = evaluate(wb)
    assert first.value("b") is first.value("a")
    assert first.value("c") == first.value("x")
    text = _reprs(first)
    earlier = [(first, text)]
    for value in (-5.0, 7.0):
        wb.set_cell("s", 2, 1, value)
        _check(wb, earlier)
        assert _reprs(first) == text
    assert evaluate(wb).value("b").cells == [[2.0], [14.0], [6.0]]
