"""Recurrence sweeps in all four directions.

A band that reads its twin, its own range shifted one cell, is swept one
step at a time.  At the first step the read reaches past the band, into
the twin's off-band slice, which the sweep reads once, as the padding
after the band's step lists.  The fuzz checks books of tests/gen.py's
recurrence_workbook, and its sweep_group_workbook of two co-swept bands
and the formula names between them, against the independent interpreter
in oracle.py, then writes a cell of an off-band slice and checks the
incremental evaluation against a full one.  The gate counts the range
reads of one sweep in each direction."""

import cProfile
import collections
import gc
import pstats
import random

from namebook import engine
from namebook.engine import build_dep_graph, evaluate
from namebook.formula import names_referenced, parse_formula
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
