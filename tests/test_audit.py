"""Audit views: the straight-line listing respects dependencies, focus
graphs slice by distance in both directions, DOT arrows follow data flow,
and each lint rule fires exactly where it should."""

import cProfile
import pstats
import random
import time

import pytest

from namebook.audit import (ERROR, WARNING, GraphSlice, _find_name,
                            export_dot, focus_graph, has_errors,
                            linear_listing, lint)
from namebook.docio import ExportError, export_doc
from namebook.engine import (CycleError, DepGraph, _sort_key,
                             build_dep_graph)
from namebook.formula import names_referenced, parse_formula, render
from namebook.workbook import (FORMULA, RANGE, GridRange, NameDef,
                               UnknownNameError, Workbook, shift_name)

from corpus import fixture_a, fixture_c
from gen import random_workbook


def _chain():
    """c reads b reads a, plus an unrelated name off to the side."""
    wb = Workbook().add_sheet("s", 4, 6)
    wb.set_cell("s", 1, 1, 2.0)
    wb.define_name(NameDef("base", target=GridRange("s", 1, 1, 1, 1)))
    wb.define_name(NameDef("mid", None, FORMULA,
                           formula=parse_formula("base * 10")))
    wb.define_name(NameDef("top", None, FORMULA,
                           formula=parse_formula("mid + 1")))
    wb.define_name(NameDef("aside", target=GridRange("s", 2, 2, 1, 1)))
    return wb


# --- linear listing ---------------------------------------------------------

def test_listing_declares_inputs_then_formulas_in_dependency_order():
    entries = linear_listing(_chain())
    kinds = [e.kind for e in entries]
    assert kinds == sorted(kinds, key=lambda k: k != "input")
    pos = {e.name: i for i, e in enumerate(entries)}
    assert pos["mid"] < pos["top"]
    assert entries[pos["base"]].address == "s!A1"
    assert entries[pos["base"]].shape == (1, 1)
    assert entries[pos["base"]].formula is None
    assert entries[pos["top"]].formula == "mid + 1"
    assert entries[pos["top"]].address is None


def test_listing_order_holds_on_random_workbooks():
    for seed in range(80):
        wb = random_workbook(seed + 9000)
        entries = linear_listing(wb)
        assert len(entries) == len(wb.names)
        pos = {e.name: i for i, e in enumerate(entries)}
        formula_names = {e.name for e in entries if e.kind == "formula"}
        for e in entries:
            if e.formula is None:
                continue
            nd = _lookup(wb, e.name)
            ctx = wb.context_sheet(nd)
            for qual, ident in names_referenced(nd.formula):
                ref = wb.resolve(ident, ctx, qual)
                if ref is None:
                    continue
                shown = ref.display()
                if shown in formula_names and shown != e.name:
                    assert pos[shown] < pos[e.name], (seed, e.name, shown)


def _lookup(wb, display):
    for nd in wb.names.values():
        if nd.display() == display:
            return nd
    raise AssertionError(display)


def test_listing_reports_cycles():
    wb = Workbook().add_sheet("s", 2, 2)
    wb.define_name(NameDef("pf", None, FORMULA, formula=parse_formula("qf")))
    wb.define_name(NameDef("qf", None, FORMULA, formula=parse_formula("pf")))
    with pytest.raises(CycleError):
        linear_listing(wb)


# --- focus graphs -----------------------------------------------------------

def test_focus_graph_respects_the_radius():
    wb = _chain()
    s0 = focus_graph(wb, "mid", radius=0)
    assert s0.nodes == ("mid",) and s0.edges == ()
    s1 = focus_graph(wb, "mid", radius=1)
    assert s1.nodes == ("base", "mid", "top")
    assert s1.edges == (("mid", "base"), ("top", "mid"))
    s_far = focus_graph(wb, "base", radius=1)
    assert s_far.nodes == ("base", "mid")
    s_all = focus_graph(wb, "base", radius=2)
    assert s_all.nodes == ("base", "mid", "top")
    assert "aside" not in s_all.nodes
    assert s_all.focus == "base"
    assert s_all.labels["base"] == "s!A1"
    assert s_all.labels["top"] == "mid + 1"


def test_a_huge_radius_costs_what_the_graph_does():
    # Past the farthest name the frontier is empty and the walk stops,
    # so the radius itself costs nothing.
    for wb, name in ((_chain(), "mid"), (fixture_a(), "revenue"),
                     (fixture_c(), "debt.balance")):
        start = time.perf_counter()
        far = focus_graph(wb, name, radius=10**7)
        assert time.perf_counter() - start < 0.5
        assert far == focus_graph(wb, name, radius=len(wb.names))


def test_focus_graph_rejects_unknown_names():
    with pytest.raises(UnknownNameError):
        focus_graph(_chain(), "nothing.here")


def test_focus_graph_labels_a_dangling_name_ref():
    wb = _chain().add_sheet("gone", 2, 2)
    wb.define_name(NameDef("lost", target=GridRange("gone", 1, 1, 1, 1)))
    wb.define_name(NameDef("user", None, FORMULA,
                           formula=parse_formula("lost + 1")))
    wb.delete_sheet("gone")
    assert focus_graph(wb, "user").labels["lost"] == "#REF!"


def test_focus_graph_finds_scoped_names_by_bare_identifier():
    wb = Workbook().add_sheet("s", 2, 2)
    wb.set_cell("s", 1, 1, 1.0)
    wb.define_name(NameDef("only", "s", RANGE,
                           target=GridRange("s", 1, 1, 1, 1)))
    assert focus_graph(wb, "only").focus == "s!only"
    assert focus_graph(wb, "s!only").focus == "s!only"


def _recurrence_book():
    wb = Workbook().add_sheet("s", 3, 7)
    for c, v in enumerate([True, False, False, False, False], start=2):
        wb.set_cell("s", 1, c, v)
    wb.define_name(NameDef("start", target=GridRange("s", 2, 6, 1, 1)))
    band = NameDef("roll", None, RANGE, target=GridRange("s", 2, 6, 2, 2),
                   formula=parse_formula("IF(start, 1, ←roll * 2)"),
                   array=True)
    wb.define_name(band)
    wb.define_name(shift_name(band, "←roll", 0, -1))
    return wb


def test_recurrence_edges_are_flagged():
    s = focus_graph(_recurrence_book(), "roll")
    assert ("roll", "←roll") in s.edges
    assert ("roll", "←roll") in s.recurrence
    assert ("roll", "start") in s.edges
    assert ("roll", "start") not in s.recurrence


# --- DOT export -------------------------------------------------------------

def test_dot_arrows_follow_the_flow_of_data():
    text = export_dot(focus_graph(_chain(), "mid"))
    assert text.startswith("digraph names {")
    assert text.rstrip().endswith("}")
    assert '"base" -> "mid";' in text            # mid reads base
    assert '"mid" -> "top";' in text
    assert "shape=box" in text                   # the focus stands out
    assert text.count("shape=box") == 1


def test_dot_recurrence_edges_are_dashed():
    text = export_dot(focus_graph(_recurrence_book(), "roll"))
    assert '"←roll" -> "roll" [style=dashed];' in text
    assert '"start" -> "roll";' in text


def test_dot_quotes_awkward_labels():
    wb = Workbook().add_sheet("s", 2, 2)
    wb.set_cell("s", 1, 1, 1.0)
    wb.define_name(NameDef("is.ready?", target=GridRange("s", 1, 1, 1, 1)))
    wb.define_name(NameDef("says", None, FORMULA,
                           formula=parse_formula('IF(is.ready?, "a ""b""", 0)')))
    text = export_dot(focus_graph(wb, "says"))
    assert '"is.ready?"' in text
    assert "\\\"b\\\"" in text                   # quotes inside labels escape


# --- lint -------------------------------------------------------------------

def _clean_book():
    wb = Workbook().add_sheet("s", 4, 6)
    wb.set_cell("s", 1, 1, 2.0)
    wb.define_name(NameDef("base", target=GridRange("s", 1, 1, 1, 1)))
    wb.define_name(NameDef("twice", None, FORMULA,
                           formula=parse_formula("base * 2")))
    return wb


def test_clean_workbook_yields_only_the_output_warning():
    wb = _clean_book()
    assert [f.rule for f in lint(wb)] == ["N4"]  # nothing reads `twice`
    assert lint(wb, outputs=("twice",)) == []
    assert lint(wb, outputs=("twice",)) == lint(wb, outputs=("twice",))


def test_n1_formula_cell_in_the_grid():
    wb = _clean_book()
    wb.set_cell("s", 3, 3, "=B1+1")
    findings = lint(wb, outputs=("twice",))
    assert [(f.rule, f.severity, f.locus) for f in findings] == [
        ("N1", ERROR, "s!C3")]
    assert has_errors(findings)


def test_n2_grid_address_inside_a_formula():
    wb = _clean_book()
    wb.define_name(NameDef("bad", None, FORMULA,
                           formula=parse_formula("$A$1 + base")))
    wb.define_name(NameDef("bad.sheet", None, FORMULA,
                           formula=parse_formula("s!A1 + 1")))
    findings = lint(wb, outputs=("twice", "bad", "bad.sheet"))
    assert [(f.rule, f.locus, f.message) for f in findings] == [
        ("N2", "bad", "grid address $A$1 in formula"),
        ("N2", "bad.sheet", "grid address s!A1 in formula")]


def test_n3_overlapping_inputs_warn_once_per_pair():
    wb = _clean_book()
    wb.define_name(NameDef("again", target=GridRange("s", 1, 2, 1, 2)))
    findings = lint(wb, outputs=("twice",))
    n3 = [f for f in findings if f.rule == "N3"]
    assert len(n3) == 1
    assert n3[0].severity == WARNING
    assert "again" in n3[0].message and "base" in n3[0].message
    assert not has_errors(findings)


def test_n3_sees_through_whole_row_bounds():
    wb = Workbook().add_sheet("s", 4, 6)
    wb.define_name(NameDef("whole", target=GridRange("s", 2, 3)))
    wb.define_name(NameDef("spot", target=GridRange("s", 3, 3, 2, 2)))
    rules = [f.rule for f in lint(wb, outputs=("whole", "spot"))]
    assert rules == ["N3"]


def test_n4_exemptions_and_derive_bases():
    wb = _recurrence_book()
    findings = lint(wb)
    # `roll` is read by nothing, but it is the derive base of its own
    # twin, which counts as a reference; nothing else is unreferenced.
    assert [f.rule for f in findings] == []
    wb.define_name(NameDef("orphan", target=GridRange("s", 7, 7, 1, 1)))
    findings = lint(wb)
    assert [(f.rule, f.locus) for f in findings] == [("N4", "orphan")]
    assert lint(wb, outputs=("orphan",)) == []


def test_n5_multi_cell_range_with_drifting_addresses():
    wb = Workbook().add_sheet("s", 4, 6)
    wb.set_cell("s", 1, 1, 1.0)
    wb.define_name(NameDef("seedv", target=GridRange("s", 1, 1, 1, 1)))
    wb.define_name(NameDef("spread", None, RANGE,
                           target=GridRange("s", 2, 2, 1, 3),
                           formula=parse_formula("A1 * 2"), array=False))
    findings = lint(wb, outputs=("spread", "seedv"))
    assert [f.rule for f in findings] == ["N2", "N5"]
    assert findings[1].locus == "spread"
    # Marking it as an array formula settles the ambiguity.
    wb2 = Workbook().add_sheet("s", 4, 6)
    wb2.set_cell("s", 1, 1, 1.0)
    wb2.define_name(NameDef("seedv", target=GridRange("s", 1, 1, 1, 1)))
    wb2.define_name(NameDef("spread", None, RANGE,
                            target=GridRange("s", 2, 2, 1, 3),
                            formula=parse_formula("A1 * 2"), array=True))
    assert [f.rule for f in lint(wb2, outputs=("spread", "seedv"))] == ["N2"]
    # Absolute addresses cannot drift, so no N5 either.
    wb3 = Workbook().add_sheet("s", 4, 6)
    wb3.set_cell("s", 1, 1, 1.0)
    wb3.define_name(NameDef("seedv", target=GridRange("s", 1, 1, 1, 1)))
    wb3.define_name(NameDef("spread", None, RANGE,
                            target=GridRange("s", 2, 2, 1, 3),
                            formula=parse_formula("$A$1 * 2"), array=False))
    assert [f.rule for f in lint(wb3, outputs=("spread", "seedv"))] == ["N2"]


def test_findings_sort_by_rule_then_locus():
    wb = _clean_book()
    wb.set_cell("s", 3, 3, "=B1")
    wb.set_cell("s", 2, 2, "=C1")
    wb.define_name(NameDef("bad", None, FORMULA,
                           formula=parse_formula("$A$1")))
    findings = lint(wb, outputs=("twice", "bad"))
    assert [(f.rule, f.locus) for f in findings] == [
        ("N1", "s!B2"), ("N1", "s!C3"), ("N2", "bad")]
    for f in findings:
        assert f.line() == "\t".join((f.rule, f.severity, f.locus, f.message))


def test_n1_and_export_share_one_predicate():
    wb = _clean_book()
    wb.set_cell("s", 3, 3, "=B1+1")
    assert any(f.rule == "N1" for f in lint(wb))
    with pytest.raises(ExportError):
        export_doc(wb)
    wb.set_cell("s", 3, 3, None)
    assert not any(f.rule == "N1" for f in lint(wb))
    export_doc(wb)


def test_random_workbooks_lint_without_errors():
    # The generator builds well-formed books: warnings are fair game
    # (overlaps and outputs), hard errors never.
    for seed in range(60):
        findings = lint(random_workbook(seed + 400))
        assert not has_errors(findings), seed


# --- linear-time N3 and focus graphs -----------------------------------------

def _pairwise_n3(wb):
    """The direct form of N3: every two input ranges compared."""
    inputs = sorted((nd for nd in wb.names.values()
                     if nd.kind == RANGE and nd.formula is None
                     and nd.target is not None),
                    key=lambda d: (d.identifier, d.scope or ""))
    out = []
    for i, a in enumerate(inputs):
        for b in inputs[i + 1:]:
            if a.target.sheet != b.target.sheet:
                continue
            rows = wb.sheet(a.target.sheet).rows
            if a.target.clamp(rows).intersect(b.target.clamp(rows)):
                out.append(("N3", a.display(), "input ranges %s and %s overlap"
                            % (a.display(), b.display())))
    return sorted(out)


def _overlapping_inputs_book(seed):
    """Inputs of random size, whole columns among them, crowded onto two
    small sheets so that many pairs overlap."""
    rng = random.Random(seed)
    wb = Workbook().add_sheet("s", 12, 9).add_sheet("t", 6, 4)
    for k in range(40):
        sheet, rows, cols = rng.choice((("s", 12, 9), ("t", 6, 4)))
        c1, c2 = sorted(rng.randrange(1, cols + 1) for _ in range(2))
        if rng.random() < 0.2:
            target = GridRange(sheet, c1, c2)
        else:
            r1, r2 = sorted(rng.randrange(1, rows + 1) for _ in range(2))
            target = GridRange(sheet, c1, c2, r1, r2)
        wb.define_name(NameDef("inp.%02d" % k, rng.choice((None, sheet)),
                               target=target))
    return wb


def test_n3_matches_the_pairwise_check():
    books = [_overlapping_inputs_book(seed) for seed in range(20)]
    books += [random_workbook(seed) for seed in range(200)]
    overlapping = 0
    for wb in books:
        got = sorted((f.rule, f.locus, f.message) for f in lint(wb)
                     if f.rule == "N3")
        assert got == _pairwise_n3(wb)
        overlapping += len(got)
    assert overlapping > 1000


def _one_cell_inputs(n):
    wb = Workbook().add_sheet("s", n, 2)
    for r in range(1, n + 1):
        wb.define_name(NameDef("in.%04d" % r, target=GridRange("s", 1, 2, r, r)))
    wb.define_name(NameDef("in.dup", target=GridRange("s", 2, 2, n, n)))
    return wb


def test_n3_grows_linearly_with_the_inputs():
    # A call count keeps the gate deterministic; comparing every pair of
    # 2000 inputs made 2 million calls to intersect alone.
    small, large = _one_cell_inputs(1000), _one_cell_inputs(2000)
    assert [f.message for f in lint(large) if f.rule == "N3"] == [
        "input ranges in.2000 and in.dup overlap"]
    ratio = _python_calls(lint, large) / _python_calls(lint, small)
    assert ratio < 2.3


def _python_calls(fn, *args):
    prof = cProfile.Profile()
    prof.enable()
    fn(*args)
    prof.disable()
    return pstats.Stats(prof).total_calls


def _scanning_focus_graph(wb, name, radius):
    """focus_graph as it was, with the dependents of each name found by
    scanning every edge of the graph."""
    g = build_dep_graph(wb)
    focus = _find_name(wb, name).key()
    kept, seen, back = set(), {focus}, {focus}
    frontier = [focus]
    for _ in range(max(radius, 0)):
        nxt = []
        for u in frontier:
            for v in g.edges[u]:
                kept.add((u, v))
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    frontier = [focus]
    for _ in range(max(radius, 0)):
        nxt = []
        for u in frontier:
            for w in sorted((w for w, vs in g.edges.items() if u in vs),
                            key=_sort_key):
                kept.add((w, u))
                if w not in back:
                    back.add(w)
                    nxt.append(w)
        frontier = nxt
    seen |= back
    labels = {}
    for key in seen:
        nd = wb.names[key]
        labels[nd.display()] = (render(nd.formula) if nd.formula is not None
                                else nd.target.address(with_sheet=True))
    disp = g.display
    return GraphSlice(disp[focus], tuple(sorted(disp[k] for k in seen)),
                      tuple(sorted((disp[u], disp[v]) for u, v in kept)),
                      frozenset((disp[u], disp[v]) for u, v in kept
                                if (u, v) in g.recurrence), labels)


def test_focus_graph_matches_the_edge_scan():
    for seed in range(40):
        wb = random_workbook(seed)
        for nd in sorted(wb.names.values(), key=lambda d: d.display())[:6]:
            for radius in (0, 1, 2, 5):
                want = _scanning_focus_graph(wb, nd.display(), radius)
                got = focus_graph(wb, nd.display(), radius)
                assert got == want
                assert export_dot(got) == export_dot(want)


def _name_chain(n):
    wb = Workbook().add_sheet("s", 1, 1)
    wb.set_cell("s", 1, 1, 1.0)
    wb.define_name(NameDef("n.0000", target=GridRange("s", 1, 1, 1, 1)))
    for i in range(1, n + 1):
        wb.define_name(NameDef("n.%04d" % i, None, FORMULA,
                               formula=parse_formula("n.%04d + 1" % (i - 1))))
    return wb


class _CountingEdges(dict):
    """An edge map that counts the entries read from it, by key or by
    iteration."""

    visits = 0

    def __getitem__(self, key):
        self.visits += 1
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.visits += 1
        return dict.get(self, key, default)

    def __iter__(self):
        for key in dict.__iter__(self):
            self.visits += 1
            yield key

    def keys(self):
        return iter(self)

    def items(self):
        for item in dict.items(self):
            self.visits += 1
            yield item


def _edge_visits(wb, name, radius):
    """Edge-map entries focus_graph reads, on the workbook's kept graph."""
    g = build_dep_graph(wb)
    edges = _CountingEdges(g.edges)
    wb._graph = DepGraph(g.nodes, edges, g.recurrence, g.unresolved,
                         g.display)
    focus_graph(wb, name, radius)
    return edges.visits


def test_focus_graph_grows_linearly_with_the_names():
    # Counts the edge-map entries read, which is deterministic where a
    # time ratio is not.  Walking a whole chain from its base reads each
    # entry a bounded number of times, so three times the names read
    # three times the entries; a scan of every edge per dependents lookup
    # reads nine times as many.
    small, large = _name_chain(1000), _name_chain(3000)
    assert len(focus_graph(large, "n.0000", 3000).nodes) == 3001
    ratio = (_edge_visits(large, "n.0000", 3000)
             / _edge_visits(small, "n.0000", 1000))
    assert ratio < 3.3
