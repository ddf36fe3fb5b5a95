"""Compiled formulas: each formula range and formula name is compiled once
per plan into a flat step program, and a read of exactly one formula
range's block is bound to that owner's value.

The reads are checked against the independent interpreter in
oracle.py, before and after cell edits.  The gates count what a second
evaluate of the chain book does (no name lookups, a range copy only for
reads that are not an owner's exact block, and no operand layout), how
often two recalcs test operand kinds, what a first one asks of the
owner index, what its programs keep in memory, and how many calls a
rebuild makes per name."""

import cProfile
import os
import pstats
import sys
import tracemalloc

from namebook import docio, engine
from namebook.docio import rebuild
from namebook.engine import build_dep_graph, evaluate
from namebook.formula import NameRef, parse_formula, walk
from namebook.values import CYCLE_ERROR, NAME_ERROR, broadcast_shapes
from namebook.workbook import (FORMULA, RANGE, GridRange, NameDef, Sheet,
                               Workbook)

from arrays import of_rows
from oracle import oracle_evaluate

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402


def _define(wb, ident, formula=None, target=None, scope=None):
    kind = FORMULA if target is None else RANGE
    wb.define_name(NameDef(ident, scope, kind, target,
                           None if formula is None else parse_formula(formula),
                           array=formula is not None and target is not None))


def _reads_book():
    """One book holding each kind of read the compiler tells apart."""
    wb = Workbook().add_sheet("s", 4, 6).add_sheet("t", 4, 2)
    wb.add_sheet("w", 5, 3)
    for r in range(1, 5):
        wb.set_cell("s", r, 1, float(r * r))
        wb.set_cell("s", r, 6, float(10 - r))
    for r in range(1, 6):
        wb.set_cell("w", r, 1, float(r) - 2.5)
    _define(wb, "base", target=GridRange("s", 1, 1, 1, 4))
    _define(wb, "dbl", "base * 2", GridRange("s", 2, 2, 1, 4))
    # An input name laid exactly over dbl's block, read whole.
    _define(wb, "over", target=GridRange("s", 2, 2, 1, 4))
    _define(wb, "via.over", "over + 1", GridRange("s", 3, 3, 1, 4))
    # A strict sub-rectangle of one owner, and a read spanning two.
    _define(wb, "part", target=GridRange("s", 2, 2, 2, 3))
    _define(wb, "via.part", "SUM(part) + part")
    _define(wb, "span", target=GridRange("s", 2, 3, 1, 4))
    _define(wb, "via.span", "SUM(span)")
    # A sheet-scoped input over dbl's block, read from sheet t qualified.
    _define(wb, "mine", target=GridRange("s", 2, 2, 1, 4), scope="s")
    _define(wb, "qual", "s!mine - s!base", GridRange("t", 1, 1, 1, 4))
    _define(wb, "nosuch", "nosuch!dbl + 1")
    # INDEX and intersection over an owned range keep the reference.
    _define(wb, "second", target=GridRange("s", 1, 6, 2, 2))
    _define(wb, "picked", "INDEX(dbl, 3) + INDEX(dbl, 0, 1)",
            GridRange("s", 4, 4, 1, 4))
    _define(wb, "meet", "dbl second * 10")
    _define(wb, "meet.ref", "via.over second")
    # A formula name that yields a reference, read whole, through INDEX
    # and through an intersection.
    _define(wb, "ref", "dbl")
    _define(wb, "via.ref", "ref + INDEX(ref, 2) + SUM(ref second)",
            GridRange("t", 2, 2, 1, 4))
    # A whole-column band reading a whole-column owner.
    _define(wb, "col", target=GridRange("w", 1, 1))
    _define(wb, "wcol", "col * 3", GridRange("w", 2, 2))
    _define(wb, "wread", "IF(wcol > 0, wcol, -wcol)", GridRange("w", 3, 3))
    return wb


def _steps(wb, ident):
    graph = build_dep_graph(wb)
    return graph.programs[wb.resolve(ident, "s").key()]


def _owner_reads(wb, ident):
    return sorted(arg[1] for op, arg in _steps(wb, ident)
                  if op == engine._OWNER)


def _range_reads(wb, ident):
    return sorted(arg[0].rng.address(True) for op, arg in _steps(wb, ident)
                  if op == engine._READ)


def test_every_kind_of_read_matches_the_oracle():
    wb = _reads_book()
    for edit in ((), ("s", 2, 1, -7.0), ("s", 3, 2, 99.0), ("w", 4, 1, 8.0)):
        if edit:
            wb.set_cell(*edit)
        store = evaluate(wb)
        assert store.values == oracle_evaluate(wb), edit
    assert store.value("nosuch") == NAME_ERROR
    assert store.value("meet") == -140.0  # base (-7) * 2 * 10, one cell


def test_only_a_read_of_one_owners_exact_block_binds_to_its_value():
    wb = _reads_book()
    evaluate(wb)
    assert _owner_reads(wb, "via.over") == ["dbl"]
    assert _owner_reads(wb, "qual") == ["dbl"]
    assert _owner_reads(wb, "wread") == ["wcol", "wcol", "wcol"]
    assert _range_reads(wb, "qual") == ["s!A1:A4"]
    for ident in ("via.part", "via.span", "picked", "meet", "ref"):
        assert _owner_reads(wb, ident) == [], ident
    assert _range_reads(wb, "via.part") == ["s!B2:B3", "s!B2:B3"]
    assert _range_reads(wb, "via.span") == ["s!B1:C4"]
    # INDEX and intersection operands, and a formula name's own result,
    # stay references: nothing is read where they are computed.
    for ident in ("picked", "meet", "meet.ref", "ref", "via.ref"):
        assert _range_reads(wb, ident) == [], ident
    assert _steps(wb, "nosuch")[0] == (engine._CONST, NAME_ERROR)


def _sum_of_a_member_book():
    """u = SUM(w) and w = ←w + ←u, swept together one cell at a time: u
    reads w whole, which a sweep can only compute whole, on demand."""
    wb = Workbook().add_sheet("s", 2, 6)
    wb.set_cell("s", 1, 1, 1.0).set_cell("s", 2, 1, 2.0)
    _define(wb, "seed", target=GridRange("s", 1, 1, 1, 2))
    _define(wb, "u", "SUM(w)", GridRange("s", 2, 6, 1, 1))
    _define(wb, "w", "←w + ←u", GridRange("s", 2, 6, 2, 2))
    _define(wb, "←u", target=GridRange("s", 1, 5, 1, 1))
    _define(wb, "←w", target=GridRange("s", 1, 5, 2, 2))
    return wb


def test_a_sweep_computes_a_member_it_reads_whole_on_demand(monkeypatch):
    wb = _sum_of_a_member_book()
    asked = []
    ensure = engine._EvalState.ensure_computed

    def spy(state, key):
        if key in state.computed:
            return ensure(state, key)
        busy = key in state.in_progress
        value = ensure(state, key)
        asked.append((key[1], busy))
        if busy:  # read as materialize would lay it out: five cells
            assert value == of_rows([[CYCLE_ERROR] * 5])
        return value

    monkeypatch.setattr(engine._EvalState, "ensure_computed", spy)
    store = evaluate(wb)
    [group] = build_dep_graph(wb).plan
    assert group.direction == (0, -1) and group.failed is None
    # In the order they end: w is computed whole while u's SUM is
    # compiled; its read of its own twin, and u's SUM(w) inside it, meet
    # w still in progress.
    assert asked == [("w", True), ("w", True), ("u", False), ("w", False)]
    assert store.values == oracle_evaluate(wb)
    assert store.value("u") == of_rows([[CYCLE_ERROR] * 5])
    assert store.value("w").cells[0][0] == 3.0


# --- gates on the chain book ---------------------------------------------------

def _chain():
    doc = workloads.chain(403)[0]
    return doc, rebuild(doc.text)


def _unbound_reads(wb, stale):
    """Reads of range names in the formulas of stale names that are not
    one owner's exact block, counted from the definitions, plus one read
    per stale input name for its own value."""
    count = 0
    for key in stale:
        nd = wb.names[key]
        if nd.formula is None:
            count += nd.target is not None
            continue
        ctx = wb.context_sheet(nd)
        for e, _ in walk(nd.formula):
            if type(e) is not NameRef:
                continue
            hit = wb.resolve(e.name, ctx, e.sheet)
            if hit.kind == FORMULA:
                continue
            owners = [wb.names[w] for w in wb.formula_owners(hit.target)]
            count += not (len(owners) == 1
                          and owners[0].target == hit.target)
    return count


def test_a_second_evaluate_resolves_no_name_and_copies_only_unbound_reads():
    doc, wb = _chain()
    evaluate(wb)
    workloads.apply_edit(wb, doc.edits[0])
    stale = engine._stale(wb, build_dep_graph(wb))
    assert len(stale) == len(wb.names)  # the edit reaches every name
    want = _unbound_reads(wb, stale)
    prof = cProfile.Profile()
    prof.enable()
    evaluate(wb)
    prof.disable()
    stats = pstats.Stats(prof).stats
    calls = {f.__name__: stats.get(cProfile.label(f.__code__), (0, 0))[1]
             for f in (Workbook.resolve, engine._EvalState.materialize)}
    assert calls == {"resolve": 0, "materialize": want}
    assert want == 9  # of 561 range reads in the book's formulas


def test_a_fresh_evaluate_asks_the_owner_index_once_per_range_name():
    # The plan asks for each range name's owners once and keeps them;
    # compiled reads, input values and overlays take them from the plan.
    _, wb = _chain()
    prof = cProfile.Profile()
    prof.enable()
    evaluate(wb)
    prof.disable()
    stats = pstats.Stats(prof).stats
    asked = stats[cProfile.label(Workbook.formula_owners.__code__)][1]
    ranges = sum(nd.target is not None for nd in wb.names.values())
    assert asked <= ranges == 321


def _recalc_calls(doc, wb, *functions):
    """Calls of each function in an evaluate after the document's first
    recorded edit."""
    evaluate(wb)
    workloads.apply_edit(wb, doc.edits[0])
    prof = cProfile.Profile()
    prof.enable()
    evaluate(wb)
    prof.disable()
    stats = pstats.Stats(prof).stats
    return [stats.get(cProfile.label(f.__code__), (0, 0))[1]
            for f in functions]


def _layout_calls(doc, wb):
    return _recalc_calls(doc, wb, broadcast_shapes, engine._flat_of)


def test_a_second_evaluate_works_out_no_shape():
    # The plan keeps each formula range's shape.
    assert _recalc_calls(*_chain(), Workbook.bounded, GridRange.shape) == \
        [0, 0]


def test_operands_of_one_shape_are_never_laid_out():
    # Every kernel step of the chain book is a 1x8 row against a 1x8 row
    # or a scalar, so none needs a shape fold or a layout.
    assert _layout_calls(*_chain()) == [0, 0]
    # The sweep book's recurrences run per-cell closures, which keep
    # their own shape checks and lay their constant parts out by step.
    # The flat layout runs twice: on the off-band slice of ←balance, the
    # padding after balance's step lists, and on balance's block as it
    # is laid into the value of ←balance.
    doc = workloads.sweep(403)[0]
    assert _layout_calls(doc, rebuild(doc.text)) == [11, 2]


def test_broadcast_tests_the_kinds_of_its_operands_in_one_call():
    # _all_of takes a whole operand list, so a step other than IF (which
    # the chain book does not use) asks it at most once: over the book's
    # two recalc edits it makes no more calls than _broadcast.
    doc, wb = _chain()
    evaluate(wb)
    prof = cProfile.Profile()
    prof.enable()
    for steps in doc.edits:
        workloads.apply_edit(wb, steps)
        evaluate(wb)
    prof.disable()
    stats = pstats.Stats(prof).stats
    kinds, steps = [stats.get(cProfile.label(f.__code__), (0, 0))[1]
                    for f in (engine._all_of, engine._broadcast)]
    assert 0 < kinds <= steps, (kinds, steps)


def test_the_kept_programs_of_the_chain_book_are_small():
    # Compiled again from a warm book, so that what tracemalloc still
    # holds at the end is the programs alone.  Small tuples are first
    # taken off CPython's free lists, whose reuse tracemalloc cannot see.
    _, wb = _chain()
    evaluate(wb)
    graph = build_dep_graph(wb)
    keys = list(graph.programs)
    assert len(keys) == 321  # 320 formula ranges and one formula name
    graph.programs.clear()
    state = engine._EvalState(wb, graph, {}, {})
    held = [tuple(range(n)) for n in range(1, 21) for _ in range(2100)]
    tracemalloc.start()
    for key in keys:
        state.program(key)
    kept = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert held and kept < 150_000, kept


# --- the data-block codec ------------------------------------------------------

def test_rebuild_reads_plain_number_blocks_whole():
    # The bands book's four 800-row input columns hold plain numbers
    # only, so no field is decoded and no cell is set one at a time.
    text = workloads.bands(403)[0].text
    prof = cProfile.Profile()
    prof.enable()
    wb = rebuild(text)
    prof.disable()
    stats = pstats.Stats(prof).stats
    calls = [stats.get(cProfile.label(f.__code__), (0, 0))[1]
             for f in (docio.decode_field, Sheet.set)]
    assert calls == [0, 0]
    assert sum(len(sheet.cells) for sheet in wb.sheets.values()) == 3200


def test_rebuild_stores_decoded_blocks_without_setting_cells():
    # The fixtures' and the sweep book's blocks hold bools and blanks as
    # well as numbers, so they are decoded field by field, and the cells
    # decoded are stored as they stand: no cell goes through fill_block's
    # or Sheet.set's checks a second time.
    texts = [workloads.sweep(403)[0].text]
    for name in ("fixtureA", "fixtureB", "fixtureC"):
        with open(os.path.join(ROOT, "fixtures", name + ".nsdoc"),
                  encoding="utf-8") as fh:
            texts.append(fh.read())
    for text in texts:
        prof = cProfile.Profile()
        prof.enable()
        rebuild(text)
        prof.disable()
        stats = pstats.Stats(prof).stats
        calls = [stats.get(cProfile.label(f.__code__), (0, 0))[1]
                 for f in (docio.decode_field, Workbook.fill_block, Sheet.set)]
        assert calls[0] > 0 and calls[1:] == [0, 0], calls


# --- load cost ----------------------------------------------------------------

def _rebuild_calls_per_name(text):
    rebuild(text)  # first, so that nothing is built once per process
    prof = cProfile.Profile()
    prof.enable()
    wb = rebuild(text)
    prof.disable()
    return pstats.Stats(prof).total_calls / len(wb.names)


def test_a_rebuild_makes_the_same_calls_per_name_at_any_size():
    # cProfile calls per name of one rebuild of the chain book, at half
    # and at full size: 113.1 and 112.9.  Before the lexer, the parser,
    # the A1 target parser, the owner index and the closed-world graph
    # were reworked they were 180.2 and 180.3.
    half, full = (_rebuild_calls_per_name(workloads.chain(403, scale)[0].text)
                  for scale in (0.5, 1.0))
    assert abs(half - full) <= 0.05 * full
    assert max(half, full) < 120
