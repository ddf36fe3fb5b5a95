"""Audit views over a workbook: listing, graph slices, DOT export, linter.

A workbook built purely from names reads like a program.  linear_listing
prints it as one: declarations first, then each formula in an order where
everything is defined before it is used.  focus_graph cuts out the
neighborhood of one name for inspection, export_dot renders that cut for
Graphviz, and lint enforces the discipline that makes the rest work.
"""

from __future__ import annotations

import heapq

from .docio import stray_formula_cells
from .engine import build_dep_graph, topo_order
from .formula import cell_refs, render
from .values import Record
from .workbook import FORMULA, RANGE, UnknownNameError, Workbook


class ListingEntry(Record):
    __slots__ = ("name", "kind", "formula", "address", "shape")
    def __init__(self, name, kind, formula, address, shape):
        self.name = name        # display text, sheet-qualified when sheet-scoped
        self.kind = kind        # "input" or "formula"
        self.formula = formula  # canonical text, None for plain inputs
        self.address = address  # target rectangle, None for formula names
        self.shape = shape      # (rows, cols), None for formula names


def _address_and_shape(wb: Workbook, nd):
    if nd.target is None:
        return None, None
    rng = wb.bounded(nd.target)
    return nd.target.address(with_sheet=True), rng.shape()


def linear_listing(wb: Workbook):
    """The workbook as a straight-line program.

    Plain input ranges come first as declarations, then every
    formula-bearing name in dependency order.  Raises CycleError when no
    such order exists.
    """
    g = build_dep_graph(wb)
    order = topo_order(g)
    entries = []
    for key in order:
        nd = wb.names[key]
        if nd.formula is not None:
            continue
        address, shape = _address_and_shape(wb, nd)
        entries.append(ListingEntry(nd.display(), "input", None, address, shape))
    for key in order:
        nd = wb.names[key]
        if nd.formula is None:
            continue
        address, shape = _address_and_shape(wb, nd)
        entries.append(ListingEntry(nd.display(), "formula",
                                    render(nd.formula), address, shape))
    return entries


class GraphSlice(Record):
    __slots__ = ("focus", "nodes", "edges", "recurrence", "labels")
    def __init__(self, focus, nodes, edges, recurrence, labels):
        self.focus = focus            # display text of the focus name
        self.nodes = nodes            # display texts, sorted
        self.edges = edges            # (from_display, to_display) reference edges, sorted
        self.recurrence = recurrence  # the subset of edges that are displaced self-reads
        self.labels = labels          # display -> annotation (formula text or address)


def _find_name(wb: Workbook, name: str):
    if "!" in name:
        qual, ident = name.split("!", 1)
        nd = wb.resolve(ident, qualifier=qual)
    else:
        nd = wb.resolve(name)
        if nd is None:
            hits = [d for d in wb.names.values() if d.identifier == name]
            if len(hits) == 1:
                nd = hits[0]
    if nd is None:
        raise UnknownNameError("no name %r in this workbook" % name)
    return nd


def focus_graph(wb: Workbook, name: str, radius: int = 1) -> GraphSlice:
    """The names within the given distance of one focus name.

    Predecessors are what the focus (transitively, up to radius) reads;
    dependents are what reads it.  Edges point from referencing name to
    referenced name, mirroring build_dep_graph.
    """
    g = build_dep_graph(wb)
    focus = _find_name(wb, name).key()
    readers = {}  # key -> the names whose formulas read it, in node order
    for u in g.nodes:
        for v in g.edges[u]:
            readers.setdefault(v, []).append(u)
    ahead, ahead_edges = _within(focus, g.edges, radius)
    behind, behind_edges = _within(focus, readers, radius)
    seen = ahead | behind
    kept_edges = ahead_edges | {(w, u) for (u, w) in behind_edges}
    labels = {}
    for key in seen:
        nd = wb.names[key]
        if nd.formula is not None:
            labels[nd.display()] = render(nd.formula)
        elif nd.target is not None:
            labels[nd.display()] = nd.target.address(with_sheet=True)
        else:
            labels[nd.display()] = "#REF!"
    disp = g.display
    nodes = tuple(sorted(disp[k] for k in seen))
    edges = tuple(sorted((disp[u], disp[v]) for (u, v) in kept_edges))
    rec = frozenset((disp[u], disp[v]) for (u, v) in kept_edges
                    if (u, v) in g.recurrence)
    return GraphSlice(disp[focus], nodes, edges, rec, labels)


def _within(start, step, radius):
    """The keys at most radius hops from start along step (key -> keys),
    and the hops taken, as (from, to) pairs."""
    seen = {start}
    hops = set()
    frontier = [start]
    for _ in range(max(radius, 0)):
        nxt = []
        for u in frontier:
            for v in step.get(u, ()):
                hops.add((u, v))
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen, hops


def _dot_quote(text: str) -> str:
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(slice: GraphSlice) -> str:
    """DOT digraph of a slice.  Arrows follow the flow of data, so an
    edge u -> v means v's formula reads u.  Recurrence reads are dashed."""
    lines = ["digraph names {", "  rankdir=LR;"]
    for node in slice.nodes:
        label = node
        note = slice.labels.get(node)
        if note:
            label = "%s\\n%s" % (node, note.replace("\\", "\\\\")
                                          .replace('"', '\\"'))
        shape = "box" if node == slice.focus else "ellipse"
        lines.append("  %s [shape=%s, label=\"%s\"];" %
                     (_dot_quote(node), shape, label))
    for (u, v) in slice.edges:
        attr = " [style=dashed]" if (u, v) in slice.recurrence else ""
        lines.append("  %s -> %s%s;" % (_dot_quote(v), _dot_quote(u), attr))
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- linter ------------------------------------------------------------------

ERROR = "error"
WARNING = "warning"


class Finding(Record):
    __slots__ = ("rule", "severity", "locus", "message")
    def __init__(self, rule: str, severity: str, locus: str, message: str):
        self.rule, self.severity = rule, severity
        self.locus, self.message = locus, message

    def line(self) -> str:
        return "\t".join((self.rule, self.severity, self.locus, self.message))


def lint(wb: Workbook, outputs=()) -> list:
    """Name-discipline findings, machine-readable.

    N1 (error):   a formula living in a plain cell instead of a name.
    N2 (error):   a grid address inside a formula.
    N3 (warning): two input ranges overlap.
    N4 (warning): a name nothing references, unless listed in outputs.
    N5 (error):   a multi-cell formula range not marked as an array
                  formula whose copies would disagree cell to cell.

    outputs lists names (identifier or sheet-qualified display text) that
    are meant to be read from outside the workbook; they are exempt from
    N4.
    """
    findings = []
    for addr in stray_formula_cells(wb):
        findings.append(Finding("N1", ERROR, addr,
                                "formula cell outside any named formula"))

    def by_name(d):
        return (d.identifier, d.scope or "")

    sorted_names = sorted(wb.names.values(), key=by_name)
    for nd in sorted_names:
        if nd.formula is None:
            continue
        refs = cell_refs(nd.formula)
        for ref in refs:
            shown = ref.ref if ref.sheet is None else "%s!%s" % (ref.sheet,
                                                                 ref.ref)
            findings.append(Finding("N2", ERROR, nd.display(),
                                    "grid address %s in formula" % shown))
        if (nd.kind == RANGE and not nd.array
                and any(ref.is_relative for ref in refs)
                and wb.bounded(nd.target).shape() != (1, 1)):
            findings.append(Finding(
                "N5", ERROR, nd.display(),
                "multi-cell range repeats a formula whose relative "
                "addresses drift cell to cell; mark it as an array formula"))

    inputs = sorted(wb.input_ranges(), key=by_name)
    for i, j in _overlapping_pairs(wb, inputs):
        a, b = inputs[i].display(), inputs[j].display()
        findings.append(Finding("N3", WARNING, a,
                                "input ranges %s and %s overlap" % (a, b)))

    referenced = set()
    g = build_dep_graph(wb)
    for u, vs in g.edges.items():
        referenced.update(vs)
    for nd in sorted_names:
        if nd.derive is not None:
            base = wb.resolve(nd.derive[0], context=nd.scope)
            if base is not None:
                referenced.add(base.key())
    exempt = set(outputs)
    for nd in sorted_names:
        if nd.key() in referenced:
            continue
        if nd.identifier in exempt or nd.display() in exempt:
            continue
        findings.append(Finding("N4", WARNING, nd.display(),
                                "name is never referenced"))

    order = {"N1": 1, "N2": 2, "N3": 3, "N4": 4, "N5": 5}
    findings.sort(key=lambda f: (order[f.rule], f.locus, f.message))
    return findings


def _overlapping_pairs(wb: Workbook, inputs) -> set:
    """(i, j), i < j, for every two inputs whose rectangles share a cell.

    Each sheet column is swept down its rows: the spans that cover it are
    sorted by first row, and a heap keeps those still open, each of which
    overlaps the next span to open.  The cost is the total width of the
    inputs plus the pairs found, not the square of their number."""
    columns = {}
    for i, nd in enumerate(inputs):
        rng = wb.bounded(nd.target)
        for col in range(rng.col_start, rng.col_end + 1):
            columns.setdefault((rng.sheet, col), []).append(
                (rng.row_start, rng.row_end, i))
    pairs = set()
    for spans in columns.values():
        spans.sort()
        open_spans = []  # heap of (last row, input)
        for first, last, i in spans:
            while open_spans and open_spans[0][0] < first:
                heapq.heappop(open_spans)
            pairs.update((j, i) if j < i else (i, j) for _, j in open_spans)
            heapq.heappush(open_spans, (last, i))
    return pairs


def has_errors(findings) -> bool:
    return any(f.severity == ERROR for f in findings)
