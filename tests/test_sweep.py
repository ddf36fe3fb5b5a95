"""Recurrence sweeps in all four directions.

A band that reads its twin, its own range shifted one cell, is swept one
step at a time.  At the first step the read reaches past the band, into
the twin's off-band slice, which the sweep reads once, as the padding
after the band's step lists.  The fuzz checks books of tests/gen.py's
recurrence_workbook, and its sweep_group_workbook of two co-swept bands
and the formula names between them, against the independent interpreter
in oracle.py, then writes a cell of an off-band slice and checks the
incremental evaluation against a full one.  The gate counts the range
reads of one sweep in each direction.  A division by zero past the
first step must reach the operator that reads it, and a band of floats
over -x, x% and a division by a number literal keeps its float kind.  A
step runs an IF branch for all its places only if some
place takes it; the mixed-condition book checks that every untaken
value is discarded and counts the kernel calls of each branch."""

import cProfile
import collections
import gc
import pstats
import random

from namebook import engine, values
from namebook.engine import build_dep_graph, evaluate
from namebook.formula import names_referenced, parse_formula
from namebook.values import DIV0_ERROR, NULL_ERROR, VALUE_ERROR
from namebook.workbook import RANGE, GridRange, NameDef, Workbook, shift_name

from gen import (_literal, off_band_slice, recurrence_workbook,
                 sweep_group_workbook)
from oracle import oracle_evaluate


def _reprs(store):
    return [(store.display[k], repr(v)) for k, v in store.values.items()]


def test_four_direction_recurrences_match_the_oracle_and_a_full_evaluation():
    seen = collections.Counter()
    for seed in range(400):
        wb = recurrence_workbook(seed)
        store = evaluate(wb)
        assert store.values == oracle_evaluate(wb), seed
        [group] = [g for g in build_dep_graph(wb).plan
                   if (None, "roll") in g.members]
        assert group.failed is None, seed
        guarded = (None, "first") in names_referenced(
            wb.names[None, "roll"].formula)
        seen[group.direction, guarded, (None, "edge") in wb.names] += 1
        rng = random.Random(seed)
        wb.set_cell("s", *rng.choice(off_band_slice(wb)), _literal(rng))
        assert _reprs(evaluate(wb)) == _reprs(evaluate(wb.copy())), seed
    # Each direction, guarded or not, with the slice plain or owned.
    assert len(seen) == 16 and min(seen.values()) >= 5, seen


def test_co_swept_bands_and_their_inlined_names_match_the_oracle():
    seen = collections.Counter()
    for seed in range(600):
        wb = sweep_group_workbook(seed)
        store = evaluate(wb)
        assert store.values == oracle_evaluate(wb), seed
        [group] = [g for g in build_dep_graph(wb).plan
                   if (None, "a") in g.members]
        assert group.failed is None and len(group.members) == 2, seed
        a, b = (wb.names[None, m].target.shape() for m in ("a", "b"))
        seen[group.direction, a != b] += 1
        seen[bool(group.inlined[None, "a"] or group.inlined[None, "b"])] += 1
        rng = random.Random(seed)
        cell = rng.choice(off_band_slice(wb, rng.choice("ab")))
        wb.set_cell("s", *cell, _literal(rng))
        assert _reprs(evaluate(wb)) == _reprs(evaluate(wb.copy())), seed
    # Each direction, with "b" narrower than "a" or not; inlined formula
    # names or none.
    assert len(seen) == 10 and min(seen.values()) >= 10, seen


def _roll(step):
    """An unguarded 12x10 band roll = ←roll * 2 + 1 amid plain literals,
    its twin shifted by step."""
    wb = Workbook().add_sheet("s", 14, 12)
    for r in range(1, 15):
        for c in range(1, 13):
            wb.set_cell("s", r, c, float(r * 13 + c))
    band = NameDef("roll", None, RANGE, GridRange("s", 2, 11, 2, 13),
                   parse_formula("←roll * 2 + 1"), array=True)
    wb.define_name(band)
    wb.define_name(shift_name(band, "←roll", *step))
    return wb


def test_a_sweep_reads_its_off_band_slice_once():
    # One materialize fills the padding, the other is ←roll's own value;
    # no read of a cell past the band is made per cell.
    for step in ((0, -1), (0, 1), (-1, 0), (1, 0)):
        wb = _roll(step)
        prof = cProfile.Profile()
        prof.enable()
        store = evaluate(wb)
        prof.disable()
        calls = pstats.Stats(prof).stats[
            cProfile.label(engine._EvalState.materialize.__code__)][1]
        assert calls == 2, (step, calls)
        assert store.values == oracle_evaluate(wb), step


def test_a_division_by_zero_past_the_first_step_reaches_its_reader():
    # w = ←w / den + 1 over floats alone: / by a cell maps its kernel at
    # every step, and so never counts as floats alone, so where den holds
    # 0 it gives #DIV/0!, which reaches the + reading it and the reader.
    wb = Workbook().add_sheet("s", 2, 6).set_cell("s", 1, 1, 1.0)
    for c, den in enumerate((2.0, 4.0, 0.0, 5.0, 1.0), 2):
        wb.set_cell("s", 2, c, den)
    wb.define_name(NameDef("den", None, RANGE, GridRange("s", 2, 6, 2, 2)))
    band = NameDef("w", None, RANGE, GridRange("s", 2, 6, 1, 1),
                   parse_formula("←w / den + 1"), array=True)
    wb.define_name(band)
    wb.define_name(shift_name(band, "←w", 0, -1))
    store = evaluate(wb)
    assert store.value("w").flat == [1.5, 1.375] + [DIV0_ERROR] * 3
    assert store.values == oracle_evaluate(wb)


def test_minus_percent_and_a_literal_divisor_keep_a_band_of_floats():
    # -y runs as 0 - y and y% as y / 100, and / by a nonzero number
    # literal maps its float twin, so a band of floats over them holds
    # floats at every step and is stored with its kind; / by the literal
    # 0 maps its kernel and gives #DIV/0!.
    for text, kind in (("←w% * 50 + x / 2 - -←w", float),
                       ("←w / 0 + x", None)):
        wb = Workbook().add_sheet("s", 2, 6).set_cell("s", 1, 1, 1.0)
        for c in range(2, 7):
            wb.set_cell("s", 2, c, c / 4)
        wb.define_name(NameDef("x", None, RANGE, GridRange("s", 2, 6, 2, 2)))
        band = NameDef("w", None, RANGE, GridRange("s", 2, 6, 1, 1),
                       parse_formula(text), array=True)
        wb.define_name(band)
        wb.define_name(shift_name(band, "←w", 0, -1))
        store = evaluate(wb)
        assert store.value("w")._kind is kind, text
        assert store.values == oracle_evaluate(wb), text
    assert store.value("w").flat == [DIV0_ERROR] * 5


def test_a_sweep_leaves_nothing_for_the_cycle_collector():
    # Its closures hold its step lists and the evaluation state; a
    # reference cycle among them would keep each sweep's state until a
    # gc run.
    wb = _roll((0, -1))
    evaluate(wb)
    gc.collect()
    gc.disable()
    try:
        for value in (1.0, 2.0, 3.0):
            wb.set_cell("s", 2, 1, value)  # in the off-band slice
            assert evaluate(wb).value("roll").cells[0][0] == value * 2 + 1
        assert gc.collect() == 0
    finally:
        gc.enable()


# IF's condition at each of the five steps of "w", one value per place:
# mixed (bools, a number, a blank, text, an error), all TRUE, all FALSE,
# mixed again with an empty text and another error, then mixed numbers.
_CONDS = ([True, False, 2.0, None, "x", NULL_ERROR],
          [True] * 6,
          [False] * 6,
          [0.0, 1.0, -0.0, "", DIV0_ERROR, True],
          [False, True, True, False, 3.5, None])


def _mixed_book(step):
    """w = IF(cond, ←w + nw * add, ←w / den), six places wide, and the
    narrow nw = IF(flag, ←nw + 1, ←w), one place wide, swept together in
    the direction of step.  Where a place takes one branch, the other
    would give an error there: den is 0 where cond is true and add is
    text where it is not, and nw's read of the wider ←w is #VALUE!, the
    branch it takes at the all-FALSE step alone."""
    n, across = len(_CONDS), step[1] != 0

    def at(s, p):  # (row, col) of place p of step s, both from 1
        return (p, s) if across else (s, p)

    def rect(sheet, p0, places, s0=1):
        (r1, c1), (r2, c2) = at(s0, p0), at(s0 + n - 1, p0 + places - 1)
        return GridRange(sheet, c1, c2, r1, r2)

    wb = Workbook()
    wb.add_sheet("s", *at(n + 2, 8)).add_sheet("c", *at(n, 19))
    for s in (1, n + 2):  # the off-band slices, either side of the bands
        for p in range(1, 7):
            wb.set_cell("s", *at(s, p), 10.0 * s + p)
        wb.set_cell("s", *at(s, 8), 1.0)
    for s, conds in enumerate(_CONDS, 1):
        wb.set_cell("c", *at(s, 7), s != 3)  # flag: FALSE at all-FALSE
        for p, c in enumerate(conds, 1):
            if c is not None:
                wb.set_cell("c", *at(s, p), c)
            yes = c is True or type(c) is float and c != 0
            wb.set_cell("c", *at(s, p + 7), 0.0 if yes else 2.0)
            wb.set_cell("c", *at(s, p + 13), 1.0 if yes else "x")
    for ident, p0, places in (("cond", 1, 6), ("flag", 7, 1),
                              ("den", 8, 6), ("add", 14, 6)):
        wb.define_name(NameDef(ident, None, RANGE, rect("c", p0, places)))
    for ident, p0, places, formula in (
            ("w", 1, 6, "IF(cond, ←w + nw * add, ←w / den)"),
            ("nw", 8, 1, "IF(flag, ←nw + 1, ←w)")):
        band = NameDef(ident, None, RANGE, rect("s", p0, places, 2),
                       parse_formula(formula), array=True)
        wb.define_name(band)
        wb.define_name(shift_name(band, "←" + ident, *step))
    return wb


def _counting(monkeypatch, op):
    """Count the calls of op's kernel, as the sweep looks it up."""
    calls = []
    kernel = values.BINARY[op]

    def counted(a, b):
        calls.append(1)
        return kernel(a, b)
    monkeypatch.setitem(values.BINARY, op, counted)
    return calls


def test_a_mixed_condition_runs_each_branch_some_place_takes(monkeypatch):
    for step in ((0, -1), (0, 1), (-1, 0), (1, 0)):
        wb = _mixed_book(step)
        with monkeypatch.context() as m:
            yes, no = _counting(m, "*"), _counting(m, "/")
            store = evaluate(wb)
        [group] = [g for g in build_dep_graph(wb).plan
                   if (None, "w") in g.members]
        assert group.failed is None and group.direction == step, step
        assert store.values == oracle_evaluate(wb), step
        # Each branch runs for all six places at the four steps some
        # place takes it: not the no-branch at the all-TRUE step, nor the
        # yes-branch at the all-FALSE one.
        assert (len(yes), len(no)) == (24, 24), step
        # An error condition gives its own error; text and an empty text
        # give #VALUE!.
        cells = store.value("w").cells
        steps = list(zip(*cells)) if step[1] else cells
        assert steps[0][5] == NULL_ERROR and steps[0][4] == VALUE_ERROR
        assert steps[3][4] == DIV0_ERROR and steps[3][3] == VALUE_ERROR
        # nw takes its read of the wider ←w at the all-FALSE step alone.
        assert store.value("nw").flat[2] == VALUE_ERROR, step
