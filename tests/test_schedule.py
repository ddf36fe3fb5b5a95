"""The evaluation schedule: which formula ranges read which, the groups
they form and the order those groups run in.

The scheduler reads the range names each formula reads from the
dependency graph, finds the owners of each read of an input name through
the workbook's formula-owner index (a formula range owns its own cells)
and orders the formula ranges with one heap-based Kahn sort.  Only when
that sort stalls on a cycle does it find the groups with Tarjan's
algorithm and order them with a second Kahn sort, so an acyclic book
pays for neither, and planning costs the same calls per formula range at
any size; the planner reads every name by the key the graph holds.
topo_order's CycleError names the cycle whose first member sorts first.  The reference below is the direct form of the same rules: the
reads found by walking each formula's syntax tree through formula names,
every read checked against every formula range, and the next group
picked by sorting all that are ready after each pick.  Both must agree
exactly, and the indexed form must grow linearly with the number of
names, a sweep's per-cell work must not look names up again, and reading
a document must cost few calls per formula token.  The graph itself is
kept on the workbook: it must follow every change to the name table, and
one command must walk each formula once (lint twice).  evaluate keeps its
plan, the ordered groups, with that graph: a second evaluate of an
unchanged name table plans nothing, and each sweep's reads of its own
members are the scheduler's, equal to the reference below that derives
them per sweep."""

import cProfile
import itertools
import pstats
import random

import pytest

from namebook import formula
from namebook.cli import main
from namebook.docio import rebuild
from namebook.engine import (CycleError, _kahn, _plan, _shift_between,
                             _sort_key, _tarjan, _through_formulas,
                             _validate, build_dep_graph, evaluate,
                             topo_order)
from namebook.formula import (Binary, NameRef, names_referenced,
                              parse_formula, tokenize)
from namebook.values import CYCLE_ERROR
from namebook.workbook import (FORMULA, RANGE, GridRange, NameDef, Workbook,
                               shift_name)

from corpus import fixture_a, fixture_b, fixture_c
from gen import random_workbook


def _expanded_range_targets(wb, nd):
    """Range names readable from nd's formula, seen through formula names."""
    out = []
    seen_formula = set()

    def visit(expr, ctx):
        for qual, ident in sorted(names_referenced(expr),
                                  key=lambda p: (p[1], p[0] or "")):
            hit = wb.resolve(ident, context=ctx, qualifier=qual)
            if hit is None:
                continue
            if hit.kind == FORMULA:
                if hit.key() in seen_formula:
                    continue
                seen_formula.add(hit.key())
                visit(hit.formula, wb.context_sheet(hit))
            elif hit.target is not None:
                out.append(hit)

    visit(nd.formula, wb.context_sheet(nd))
    return out


def _overlapping(wb, a, b):
    rows_a = wb.sheet(a.sheet).rows if a.sheet in wb.sheets else 1
    rows_b = wb.sheet(b.sheet).rows if b.sheet in wb.sheets else 1
    return a.clamp(rows_a).intersect(b.clamp(rows_b)) is not None


def _ready_first(nodes, deps, key):
    """Order nodes after their deps, re-sorting the ready ones each step;
    None when a cycle is left."""
    left = {n: set(deps[n]) & set(nodes) for n in nodes}
    out = []
    while left:
        ready = sorted((n for n, d in left.items() if not d & left.keys()),
                       key=key)
        if not ready:
            return None
        del left[ready[0]]
        out.append(ready[0])
    return out


def _reference_schedule(wb):
    """(members, order, failed, direction) per group, in evaluation
    order: every read checked against every formula range, every shift of
    each (reader, owner) pair kept, and the refusal rules applied in turn."""
    fkeys = sorted((nd.key() for nd in wb.formula_bearing()), key=_sort_key)
    plain = {k: set() for k in fkeys}
    disp = []  # (u, w, (dr, dc)), one per displaced read
    bad_self = set()
    for u in fkeys:
        for v in _expanded_range_targets(wb, wb.names[u]):
            for w in fkeys:
                wt = wb.names[w].target
                if wt.sheet != v.target.sheet:
                    continue
                if not _overlapping(wb, v.target, wt):
                    continue
                if v.target == wt:
                    (plain[u].add(w) if w != u else bad_self.add(u))
                    continue
                d = _shift_between(wb.names[w], v)
                if d is not None and abs(d[0]) + abs(d[1]) == 1:
                    disp.append((u, w, d))
                elif w == u:
                    bad_self.add(u)
                else:
                    plain[u].add(w)
    adj = {u: plain[u] | {w for (x, w, _) in disp if x == u} for u in fkeys}
    comps = _tarjan(fkeys, adj)
    index = {m: i for i, comp in enumerate(comps) for m in comp}
    gdeps = {i: {index[w] for u in comp for w in adj[u]} - {i}
             for i, comp in enumerate(comps)}
    order = _ready_first(list(gdeps), gdeps,
                         lambda i: _sort_key(comps[i][0]))
    groups = []
    for i in order:
        comp = comps[i]
        dirs = {d for u, w, d in disp if u in comp and w in comp}
        inside = {u: {w for w in plain[u] if w in comp} for u in comp}
        within = _ready_first(comp, inside, _sort_key)
        direction = next(iter(dirs)) if len(dirs) == 1 else None
        axis = 1 if direction and direction[1] else 0
        extents = {wb.names[m].target.shape(wb.sheet(
            wb.names[m].target.sheet).rows)[axis] for m in comp}
        if bad_self & set(comp):
            failed = "self-overlapping read"
        elif not dirs:
            failed = "mutual reference" if len(comp) > 1 else None
        elif len(dirs) > 1:
            failed = "conflicting recurrence directions"
        elif len(extents) > 1:
            failed = "recurrence ranges disagree on sweep extent"
        elif within is None:
            failed = "mutual reference"
        else:
            failed = None
        groups.append((comp, within if dirs and failed is None else None,
                       failed, direction))
    return groups


def _crossed_book():
    """Two scopes' accumulators swept as one group, one name reading the
    cells of both, and a third name competing with them to go first."""
    wb = Workbook().add_sheet("s", 4, 6)
    wb.add_sheet("ab", 1, 1).add_sheet("aux", 1, 1)
    for col, flag in zip(range(3, 7), (True, False, False, False)):
        wb.set_cell("s", 3, col, flag)

    def formula_range(ident, scope, target, text):
        wb.define_name(NameDef(ident, scope, RANGE, target=target,
                               formula=parse_formula(text), array=True))

    wb.define_name(NameDef("first?", target=GridRange("s", 3, 6, 3, 3)))
    wb.define_name(NameDef("cover", target=GridRange("s", 3, 6, 1, 2)))
    wb.define_name(NameDef("other", target=GridRange("s", 2, 5, 2, 2)))
    wb.define_name(NameDef("other", "aux", RANGE,
                           target=GridRange("s", 2, 5, 1, 1)))
    formula_range("acc", None, GridRange("s", 3, 6, 1, 1),
                  "IF(first?, 1, other + 1)")
    formula_range("acc", "aux", GridRange("s", 3, 6, 2, 2),
                  "IF(first?, 2, other + 1)")
    formula_range("acc", "ab", GridRange("s", 1, 1, 4, 4), "3")
    formula_range("total", None, GridRange("s", 2, 2, 4, 4), "SUM(cover)")
    return wb


def _formula_range(wb, ident, target, text):
    nd = NameDef(ident, None, RANGE, target=target,
                 formula=parse_formula(text), array=True)
    wb.define_name(nd)
    return nd


def _row_recurrence(text, *twins, cols=8):
    """acc over s!C1:G1, with first? over the row below it and each
    (identifier, dc) in twins a shift of acc."""
    wb = Workbook().add_sheet("s", 2, cols)
    wb.set_cell("s", 2, 3, True)
    wb.define_name(NameDef("first?", target=GridRange("s", 3, 7, 2, 2)))
    acc = _formula_range(wb, "acc", GridRange("s", 3, 7, 1, 1), text)
    for ident, dc in twins:
        wb.define_name(shift_name(acc, ident, 0, dc))
    return wb


def _stalled_book():
    """A swept pair, m and n, whose keys sort between lone formula ranges:
    a and b are ready before it, c reads it, and z is ready before it
    but sorts after it, so a Kahn sort of the ranges stalls on the pair
    and the pair runs between them."""
    wb = Workbook().add_sheet("s", 7, 8)
    wb.set_cell("s", 7, 3, True)
    wb.define_name(NameDef("first?", target=GridRange("s", 3, 7, 7, 7)))
    _formula_range(wb, "a", GridRange("s", 3, 7, 1, 1), "2")
    _formula_range(wb, "b", GridRange("s", 3, 7, 2, 2), "3")
    _formula_range(wb, "c", GridRange("s", 3, 7, 3, 3), "n + 1")
    _formula_range(wb, "m", GridRange("s", 3, 7, 4, 4),
                   "IF(first?, a, ←n + 1)")
    n = _formula_range(wb, "n", GridRange("s", 3, 7, 5, 5), "m * 2")
    wb.define_name(shift_name(n, "←n", 0, -1))
    _formula_range(wb, "z", GridRange("s", 3, 7, 6, 6), "b")
    return wb


def _refused_books():
    """One small book per reason a group is refused: label, book, the
    refused members and the reason."""
    yield ("self overlap", _row_recurrence(
        "IF(first?, 1, back2 + 1)", ("back2", -2)),
        ["acc"], "self-overlapping read")

    wb = Workbook().add_sheet("s", 2, 3)
    wb.define_name(NameDef("ain", target=GridRange("s", 1, 3, 1, 1)))
    wb.define_name(NameDef("bin", target=GridRange("s", 1, 3, 2, 2)))
    _formula_range(wb, "a", GridRange("s", 1, 3, 1, 1), "bin + 1")
    _formula_range(wb, "b", GridRange("s", 1, 3, 2, 2), "ain + 1")
    yield "mutual", wb, ["a", "b"], "mutual reference"

    wb = Workbook().add_sheet("s", 2, 7)
    wide = _formula_range(wb, "wide", GridRange("s", 2, 7, 1, 1), "←narrow")
    narrow = _formula_range(wb, "narrow", GridRange("s", 2, 6, 2, 2),
                            "←wide + 1")
    wb.define_name(shift_name(wide, "←wide", 0, -1))
    wb.define_name(shift_name(narrow, "←narrow", 0, -1))
    yield ("extents", wb, ["narrow", "wide"],
           "recurrence ranges disagree on sweep extent")

    # acc reads its twins on both sides, in one formula or through a
    # second member; a sweep in either direction reads a cell not yet made.
    yield ("both ways", _row_recurrence(
        "IF(first?, 1, ←acc + nxt)", ("←acc", -1), ("nxt", 1)),
        ["acc"], "conflicting recurrence directions")
    wb = _row_recurrence("IF(first?, 1, ←acc + ahead)", ("←acc", -1),
                         ("nxt", 1))
    wb.add_sheet("t", 1, 8)
    _formula_range(wb, "ahead", GridRange("t", 3, 7, 1, 1), "nxt * 2")
    yield ("both ways, two members", wb, ["acc", "ahead"],
           "conflicting recurrence directions")


def test_each_refused_group_names_its_reason_and_paints_cycle():
    for label, wb, members, reason in _refused_books():
        store = evaluate(wb)
        plan = build_dep_graph(wb).plan
        group = next(g for g in plan if members[0] in
                     [m[1] for m in g.members])
        assert [m[1] for m in group.members] == members, label
        assert group.failed == reason, label
        for m in members:
            cells = store.value(m).cells
            assert all(c == CYCLE_ERROR for row in cells for c in row), label


def _books():
    yield "crossed", _crossed_book()
    yield "stalled", _stalled_book()
    for label, wb, _, _ in _refused_books():
        yield label, wb
    yield "fixtureA", fixture_a()
    yield "fixtureB", fixture_b()
    yield "fixtureC", fixture_c()
    for seed in range(50):
        yield "gen %d" % seed, random_workbook(seed)


def test_schedule_matches_the_direct_scan_and_selection_order():
    swept = 0
    refused = set()
    for label, wb in _books():
        graph = build_dep_graph(wb)
        for nd in wb.formula_bearing():
            walked = [v.key() for v in _expanded_range_targets(wb, nd)]
            reads = _through_formulas(wb, graph, nd.key())[0]
            assert reads == list(dict.fromkeys(walked)), (label, nd.display())
        got = [(g.members, g.order, g.failed, g.direction)
               for g in _plan(wb, graph)]
        want = _reference_schedule(wb)
        assert got == want, label
        swept += sum(order is not None for _, order, _, _ in got)
        refused.update(failed for _, _, failed, _ in got if failed)
    assert swept > 10   # the books exercise recurrence sweeps
    assert len(refused) == 4, refused  # and every refusal reason


def _chain_doc(n):
    """n 1x8 array names, each reading the one before it."""
    lines = ["#%NAMESDOC v1", "[SHEET] s rows=%d cols=8" % (n + 1),
             "[NAME] scope=workbook id=base kind=range array=0",
             "  target=s!A1:H1"]
    for i in range(1, n + 1):
        prev = "base" if i == 1 else "link.%04d" % (i - 1)
        lines += ["[NAME] scope=workbook id=link.%04d kind=range array=1" % i,
                  "  target=s!A%d:H%d" % (i + 1, i + 1),
                  "  formula=%s + 1" % prev]
    lines += ["[DATA] s!A1:H1", "\t".join(str(j) for j in range(8))]
    return "\n".join(lines) + "\n"


def _python_calls(text):
    prof = cProfile.Profile()
    prof.enable()
    store = evaluate(rebuild(text))
    prof.disable()
    assert not store.has_errors()
    return pstats.Stats(prof).total_calls


def test_rebuild_and_evaluate_grow_linearly_with_the_names():
    # Counting calls instead of timing keeps the gate deterministic.  A
    # linear engine doubles its calls when the names double; the
    # quadratic overlap check and owner scan gave a ratio above 3.
    small = _python_calls(_chain_doc(50))
    large = _python_calls(_chain_doc(100))
    assert large / small <= 2.3


def test_rebuild_spends_few_calls_per_formula_token():
    # Reading a document is mostly lexing and parsing its formulas, so its
    # cost is counted per formula token.  The regex lexer and the
    # precedence-climbing parser make about 12 calls per token here, one
    # __init__ per tree node among them; the character-loop lexer and
    # one-method-per-level parser made about 40.  Calls are summed over
    # code objects, since pstats keeps one of several that share a label.
    lines = _chain_doc(100).split("\n")
    for i, line in enumerate(lines):
        if line.startswith("  formula="):
            prev = line[len("  formula="):-len(" + 1")]
            lines[i] = "  formula=(%s + base) * 0.5 - SUM(base) / 8" % prev
    text = "\n".join(lines)
    tokens = sum(len(tokenize(line[len("  formula="):])) for line in lines
                 if line.startswith("  formula="))
    prof = cProfile.Profile()
    prof.enable()
    rebuild(text)
    prof.disable()
    assert tokens == 1400
    assert sum(e.callcount for e in prof.getstats()) / tokens < 19


def _one_row_recurrence(width):
    """acc = IF(first?, seed, ←acc + grow) over one row, where grow is a
    formula name reading the swept twin and rate one that does not."""
    wb = Workbook().add_sheet("s", 3, width + 1)
    for col in range(2, width + 2):
        wb.set_cell("s", 1, col, col == 2)
    wb.set_cell("s", 3, 1, 4.0)
    wb.define_name(NameDef("first?", target=GridRange("s", 2, width + 1, 1, 1)))
    wb.define_name(NameDef("seed", target=GridRange("s", 1, 1, 3, 3)))
    wb.define_name(NameDef("rate", None, FORMULA,
                           formula=parse_formula("SUM(seed) / 100")))
    wb.define_name(NameDef("grow", None, FORMULA,
                           formula=parse_formula("←acc * rate")))
    acc = NameDef("acc", None, RANGE, GridRange("s", 2, width + 1, 2, 2),
                  formula=parse_formula("IF(first?, seed, ←acc + grow)"),
                  array=True)
    wb.define_name(acc)
    wb.define_name(shift_name(acc, "←acc", 0, -1))
    return wb


def _resolves_during_evaluate(wb, monkeypatch):
    calls = []
    resolve = Workbook.resolve

    def counted(self, *args, **kwargs):
        calls.append(args)
        return resolve(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Workbook, "resolve", counted)
        store = evaluate(wb)
    assert not store.has_errors()
    return len(calls), store


def test_a_sweep_resolves_names_once_not_per_cell(monkeypatch):
    # Counting calls instead of timing keeps the gate deterministic: a
    # sweep compiles each member formula once, so widening the swept row
    # adds cells but no name lookups.
    narrow, _ = _resolves_during_evaluate(_one_row_recurrence(20),
                                          monkeypatch)
    wide, store = _resolves_during_evaluate(_one_row_recurrence(40),
                                            monkeypatch)
    assert wide == narrow
    acc, rate = 4.0, 4.0 / 100
    want = [acc]
    for _ in range(39):
        acc = acc + acc * rate
        want.append(acc)
    assert store.value("acc").cells == [want]


def _shift_by_scan(u, v):
    """The displacement found by comparing shapes, then clamping both
    ranges and intersecting them."""
    a, b = u.target, v.target
    if a is None or b is None or a.sheet != b.sheet:
        return None
    if a.is_whole_rows != b.is_whole_rows:
        return None
    if (a.col_end - a.col_start) != (b.col_end - b.col_start):
        return None
    dr = 0
    if not a.is_whole_rows:
        if (a.row_end - a.row_start) != (b.row_end - b.row_start):
            return None
        dr = b.row_start - a.row_start
    dc = b.col_start - a.col_start
    if (dr, dc) == (0, 0):
        return None
    return (dr, dc)


def test_shift_between_is_the_displacement_of_overlapping_twins():
    found = {"overlapping": 0, "apart": 0}
    for label, wb in _books():
        ranges = [nd for nd in wb.names.values() if nd.target is not None]
        for u in ranges:
            for v in ranges:
                want = _shift_by_scan(u, v)
                if want is not None:
                    if _overlapping(wb, u.target, v.target):
                        found["overlapping"] += 1
                    else:
                        found["apart"] += 1
                        want = None
                assert _shift_between(u, v) == want, (label, u.display(),
                                                      v.display())
    assert min(found.values()) > 50, found


def test_the_kept_graph_follows_every_change_to_the_name_table():
    changed = 0
    for seed in range(40):
        wb = random_workbook(seed)
        rng = random.Random(seed)
        kept = build_dep_graph(wb)
        _outcome(wb)
        sheet = next(iter(wb.sheets))
        wb.set_cell(sheet, 1, 1, 1.5)
        assert build_dep_graph(wb) is kept  # cells are not in the graph
        assert _outcome(wb) == _outcome(wb.copy()), seed
        names = sorted(wb.names.values(),
                       key=lambda d: (d.identifier, d.scope or ""))
        read = rng.choice(names)
        fresh = Binary("+", NameRef(read.identifier, read.scope),
                       NameRef(read.identifier, "later"))
        formulas = [nd for nd in names if nd.formula is not None]
        inputs = [nd for nd in names if nd.formula is None
                  and nd.target is not None]
        steps = [
            lambda: wb.define_name(NameDef("fresh", None, FORMULA,
                                           formula=fresh)),
            lambda: wb.add_sheet("later", 2, 2),
            lambda: wb.rebind_name(formulas[0].identifier, formulas[0].scope,
                                   GridRange("later", 1, 1, 1, 1)),
            lambda: wb.rebind_name(inputs[0].identifier, inputs[0].scope,
                                   NameRef(read.identifier, read.scope)),
            lambda: wb.delete_sheet(rng.choice(sorted(wb.sheets))),
        ]
        for step in steps:
            before = build_dep_graph(wb)
            _outcome(wb)  # keeps a plan, unless the book has a cycle
            step()
            after = build_dep_graph(wb)
            assert after == build_dep_graph(wb.copy()), seed
            assert _outcome(wb) == _outcome(wb.copy()), seed
            changed += after != before
    assert changed > 150


def _outcome(wb):
    try:
        return evaluate(wb)
    except CycleError as exc:
        return exc.members


# Three cycles, each with a name downstream of it: a self-loop (c), two
# formula names (b, k), and three names through the formula range q with
# the sheet-scoped t!a.  Each cycle's first member by _sort_key is
# (a, t), (b) and (c), so the three-name cycle is named first, although
# its display t!a sorts last, Early, which reads it, sorts first, and it
# reads the self-loop, so a Kahn sort of the components places it last.
_CYCLES_DOC = """#%NAMESDOC v1
[SHEET] s rows=2 cols=2
[SHEET] t rows=1 cols=1
[NAME] scope=workbook id=Early kind=formula array=0
  formula=p + 1
[NAME] scope=workbook id=b kind=formula array=0
  formula=k * 2
[NAME] scope=workbook id=k kind=formula array=0
  formula=b + 1
[NAME] scope=workbook id=c kind=formula array=0
  formula=c + 1
[NAME] scope=workbook id=p kind=formula array=0
  formula=SUM(q) + 1
[NAME] scope=workbook id=q kind=range array=1
  target=s!A1:B1
  formula=t!a * 2 + c
[NAME] scope=t id=a kind=formula array=0
  formula=p - 1
[NAME] scope=workbook id=after.b kind=range array=1
  target=s!A2:B2
  formula=b + k
[NAME] scope=workbook id=after.c kind=formula array=0
  formula=c * 2
"""


def test_a_cycle_error_names_the_cycle_whose_first_member_sorts_first(
        tmp_path, capsys):
    # Each cycle is broken in turn, so the next one is named, until the
    # book evaluates; evaluate, linear_listing and `namebook eval` name
    # the same cycle.
    from namebook.audit import linear_listing
    text = _CYCLES_DOC
    doc = tmp_path / "cycles.nsdoc"
    for named, broken in (("p, q, t!a", "formula=p - 1"),
                          ("b, k", "formula=k * 2"),
                          ("c", "formula=c + 1")):
        message = "cycle through {%s}" % named
        for run in (evaluate, linear_listing):
            with pytest.raises(CycleError) as info:
                run(rebuild(text))
            assert str(info.value) == message, run
        doc.write_text(text, encoding="utf-8")
        assert main(["eval", str(doc)]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "#CYCLE! %s\n" % message)
        text = text.replace(broken, "formula=1")
    store = evaluate(rebuild(text))
    assert store.scalar("Early") == 8.0 and store.scalar("after.c") == 2.0
    assert not store.has_errors()


def _walks_per_formula(tmp_path, capsys, argv):
    doc = tmp_path / "chain.nsdoc"
    doc.write_text(_chain_doc(300), encoding="utf-8")
    prof = cProfile.Profile()
    prof.enable()
    code = main([str(doc) if a == "DOC" else a for a in argv])
    prof.disable()
    capsys.readouterr()
    assert code == 0
    walks = sum(nc for (path, _, func), (_, nc, *_) in
                pstats.Stats(prof).stats.items()
                if func == "walk" and path == formula.__file__)
    return walks / 300


def test_one_command_walks_each_formula_once(tmp_path, capsys):
    # rebuild builds the name graph and keeps it on the workbook, so the
    # closed-world check, evaluate and the audit views all read that one
    # walk; lint walks each formula once more for its grid addresses.
    for argv in (["eval", "DOC"], ["fmt", "DOC"], ["audit", "list", "DOC"],
                 ["audit", "graph", "DOC", "--focus", "link.0150",
                  "--radius", "2"]):
        assert _walks_per_formula(tmp_path, capsys, argv) == 1, argv
    assert _walks_per_formula(tmp_path, capsys, ["lint", "DOC"]) == 2


def _reference_sweep_maps(wb, graph, group):
    """A valid sweep's refmap and inlined, derived the way each sweep did
    before the scheduler kept them: every member's reads walked through
    formula names again and matched against the members' ranges."""
    direction = group.direction
    by_target = {wb.names[m].target: m for m in group.members}
    refmap = {}
    through = {}
    for m in group.members:
        reads, entered = _through_formulas(wb, graph, m)
        through[m] = entered[:-1]
        for vkey in reads:
            if vkey in refmap:
                continue
            v = wb.names[vkey]
            vrng = v.target.clamp(wb.sheet(v.target.sheet).rows)
            aligned = by_target.get(v.target)
            if aligned is not None:
                refmap[vkey] = (aligned, 0, 0, vrng)
                continue
            for w in group.members:
                if _shift_between(wb.names[w], v) == direction:
                    refmap[vkey] = (w, *direction, vrng)
                    break
    inlined = set()
    for m in group.members:
        for k in through[m]:
            if any(t in refmap or t in inlined for t in graph.edges[k]):
                inlined.add(k)
    return refmap, {m: [k for k in through[m] if k in inlined]
                    for m in group.members}


def test_each_sweep_reads_its_members_as_the_scheduler_found_them():
    sweeps = inlining = 0
    books = itertools.chain(
        _books(), [("one row", _one_row_recurrence(8))],
        (("gen %d" % seed, random_workbook(seed))
         for seed in range(50, 300)))
    for label, wb in books:
        graph = build_dep_graph(wb)
        for g in _plan(wb, graph):
            if g.direction is not None and g.failed is None:
                want = _reference_sweep_maps(wb, graph, g)
                assert (g.refmap, g.inlined) == want, label
                sweeps += 1
                inlining += any(g.inlined.values())
    assert sweeps > 150 and inlining > 0


_PLANNING = [topo_order, _through_formulas, _plan, _validate]


def _profiled_evaluate(wb):
    prof = cProfile.Profile()
    prof.enable()
    store = evaluate(wb)
    prof.disable()
    assert not store.has_errors()
    return store, pstats.Stats(prof).stats


def test_a_second_evaluate_plans_nothing():
    # The plan is kept with the name graph, which set_cell keeps, so the
    # evaluate after a cell edit runs no cycle check, no read walk and no
    # grouping; a sweep reads its members through the kept plan and walks
    # formula names only to evaluate the ones constant across it.
    planning = {cProfile.label(f.__code__) for f in _PLANNING}
    for wb, cell in ((rebuild(_chain_doc(100)), ("s", 1, 1)),
                     (_one_row_recurrence(8), ("s", 3, 1))):
        _, first = _profiled_evaluate(wb)
        assert planning <= first.keys()
        wb.set_cell(*cell, 6.0)
        store, again = _profiled_evaluate(wb)
        assert store == evaluate(wb.copy())
        assert planning & again.keys() <= {cProfile.label(
            _through_formulas.__code__)}
        walks = again.get(cProfile.label(_through_formulas.__code__))
        if walks is not None:
            assert {func for _, _, func in walks[4]} == {"formula_value"}


def test_a_book_without_formula_ranges_is_planned_once():
    # Its plan is empty, which must still count as planned.
    wb = Workbook().add_sheet("s", 2, 2)
    wb.set_cell("s", 1, 1, 2.0)
    wb.define_name(NameDef("x", None, RANGE, GridRange("s", 1, 1, 1, 2)))
    wb.define_name(NameDef("twice", None, FORMULA,
                           formula=parse_formula("SUM(x) * 2")))
    _, first = _profiled_evaluate(wb)
    assert cProfile.label(_plan.__code__) in first
    wb.set_cell("s", 2, 1, 3.0)
    store, again = _profiled_evaluate(wb)
    assert store.scalar("twice") == 10.0
    assert not {cProfile.label(f.__code__) for f in (topo_order, _plan)} \
        & again.keys()


def _sorts_in_a_fresh_evaluate(wb):
    """[_tarjan calls, _kahn calls] of one evaluate."""
    prof = cProfile.Profile()
    prof.enable()
    evaluate(wb)
    prof.disable()
    stats = pstats.Stats(prof).stats
    return [stats.get(cProfile.label(f.__code__), (0, 0))[1]
            for f in (_tarjan, _kahn)]


def test_only_a_book_whose_reads_form_a_cycle_finds_components():
    # An acyclic book is ordered by topo_order's Kahn sort and by one
    # more in _plan.  A group of two or more formula ranges stalls that
    # sort, so _plan finds the components and orders them with a second
    # Kahn sort, and a valid sweep orders its members with a third.  A
    # lone range reading its own cells is refused by _validate alone.
    assert _sorts_in_a_fresh_evaluate(rebuild(_chain_doc(300))) == [0, 2]
    assert _sorts_in_a_fresh_evaluate(_stalled_book()) == [1, 4]
    for label, wb, members, _ in _refused_books():
        tarjan, kahn = _sorts_in_a_fresh_evaluate(wb)
        assert tarjan == (len(members) > 1), label
        assert kahn == 2 + tarjan, label


def _planning_calls_per_formula_range(n):
    wb = rebuild(_chain_doc(n))
    graph = build_dep_graph(wb)
    prof = cProfile.Profile()
    prof.enable()
    topo_order(graph)
    _plan(wb, graph)
    prof.disable()
    return pstats.Stats(prof).total_calls / n


def test_planning_costs_the_same_calls_per_formula_range_at_any_size():
    # Counting calls instead of timing keeps the gate deterministic: a
    # linear planner makes as many calls per formula range at 300 ranges
    # as at 150.
    small = _planning_calls_per_formula_range(150)
    large = _planning_calls_per_formula_range(300)
    assert abs(large / small - 1) <= 0.05, (small, large)


def test_a_fresh_plan_keys_an_input_range_name_at_most_once():
    # The plan lists the formula ranges off graph.nodes, which are in
    # _sort_key order, and reads every name by the key graph.edges holds,
    # so it builds a key only to ask the owner index about an input name.
    key = cProfile.label(NameDef.key.__code__)
    books = itertools.chain(_books(), [("chain", rebuild(_chain_doc(300)))])
    for label, wb in books:
        graph = build_dep_graph(wb)
        prof = cProfile.Profile()
        prof.enable()
        _plan(wb, graph)
        prof.disable()
        calls = pstats.Stats(prof).stats.get(key, (0, 0))[1]
        assert calls <= len(wb.input_ranges()), label


def _diamond_into_the_sweep(levels):
    """bal = prev + f.0001 over a 1x5 band, where each f.k reads f.(k+1)
    twice and the last reads the swept twin."""
    lines = ["#%NAMESDOC v1", "[SHEET] s rows=1 cols=6",
             "[NAME] scope=workbook id=bal kind=range array=1",
             "  target=s!B1:F1", "  formula=prev + f.0001"]
    for i in range(1, levels + 1):
        link = ("f.%04d + f.%04d" % (i + 1, i + 1) if i < levels
                else "prev * 0.01 + 0.1")
        lines += ["[NAME] scope=workbook id=f.%04d kind=formula array=0" % i,
                  "  formula=" + link]
    lines += ["[NAME] scope=workbook id=opening kind=range array=0",
              "  target=s!A1",
              "[NAME] scope=workbook id=prev kind=range array=0",
              "  target=s!A1:E1", "  derive=shift(bal,0,-1)",
              "[DATA] s!A1", "1.5"]
    return "\n".join(lines) + "\n"


def test_a_diamond_of_names_inlined_into_a_sweep_costs_linear_calls():
    # Each inlined name is computed once per cell into rows of its own, so
    # doubling the levels doubles the calls; calling each name's closure
    # from its reader's made it 2^levels per cell.
    small = _python_calls(_diamond_into_the_sweep(8))
    large = _python_calls(_diamond_into_the_sweep(16))
    assert large / small <= 2.3


def _reachable(adj, v):
    seen, todo = {v}, [v]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def test_tarjan_finds_the_mutually_reachable_sets():
    # Components closed by the brute force: u and v share one when each
    # reaches the other.  Each component comes sorted, and none before a
    # component it reaches (Tarjan closes sinks first).
    rng = random.Random(2501)
    for case in range(400):
        nodes = [(None, "n%02d" % i) for i in range(rng.randint(1, 14))]
        p = rng.random() * 0.4
        adj = {u: {w for w in nodes if rng.random() < p} for u in nodes}
        lone = [(None, "z%d" % i) for i in range(rng.randint(0, 2))]
        adj.update((u, set()) for u in lone)
        nodes += lone
        rng.shuffle(nodes)
        comps = _tarjan(nodes, adj)
        reach = {u: _reachable(adj, u) for u in nodes}
        want = {frozenset(w for w in reach[u] if u in reach[w])
                for u in nodes}
        assert {frozenset(c) for c in comps} == want, case
        assert sorted(map(len, comps)) == sorted(map(len, want)), case
        assert all(c == sorted(c, key=_sort_key) for c in comps), case
        closed = set()
        for c in comps:
            assert reach[c[0]] - set(c) <= closed, case
            closed.update(c)


def test_tarjan_closes_a_long_cycle_without_recursing():
    n = 100_000
    nodes = [(None, "n%06d" % i) for i in range(n)]
    adj = {u: {nodes[(i + 1) % n]} for i, u in enumerate(nodes)}
    assert _tarjan(nodes, adj) == [nodes]
