"""Evaluation: dependency graph, scheduling, array semantics.

Every range name with a formula evaluates that single formula once as an
array formula, broadcast over its rectangle.  The interesting case is a
recurrence: a formula that reads a displaced copy of the range it is being
computed into (the "←" idiom).  Such names cannot be computed whole; they
are swept cell by cell in the direction that makes each displaced
predecessor available, and any names entangled with them through same-shape
displaced reads are swept together in the same pass.

Every formula is evaluated whole by running a program compiled from it
once per plan (_compile), as Sestoft compiles sheet-defined functions
instead of interpreting them: a flat tuple of (step, argument) pairs in
postfix order, run on one stack by _run.  Names are resolved when it is
compiled, and a read of exactly one formula range's block is bound to
that owner's computed value, so it copies no cells.  The programs are
compiled on first use and kept with the plan, and so is the layout of
each sweep, so after a cell edit evaluate() compiles nothing and
resolves no name.  A sweep (_run_sweep) goes one step at a time, a
cell's position along the sweep, and turns each node of a member's
formula into one closure s -> the node's values at every place of step
s: a read of a member indexes its step lists, one per step and one more
holding the cells one step past it, and an operator maps its kernel
over its operands' steps.  Each part constant across the sweep is a
slot, which each sweep refills by running its program once and laying
it out by step.  Past the first step, the one that reads cells past the
band, an operator over operands that hold floats at every step maps its
float twin instead, as found once per sweep; / does so only by a
nonzero number literal, so no twin raises.  IF runs a branch at a step
only if some place of that step takes it, and each place keeps its own
branch's value, discarding the other's, so every value equals the one
IF gives cell by cell, and the first column of a guarded band never
depends on the cell to its left.  A formula name that reads a member is
filled into step lists of its own just before its reader at each step,
so chains and diamonds of such names cost one closure call per name per
step.  Programs and closures apply the same operator kernels
(values.BINARY): -x runs as 0 - x and x% as x / 100, NOT(x) is
IF(x, FALSE, TRUE), and SUM, MIN and MAX are one fold (_fold).  A whole
value is a scalar or an Array(flat, shape), one row-major list and its
shape, so a step is one map over its operands' lists laid out to one
shape, and a one-column read is the slice the sheet gives.  An Array
knows its kind (all floats, all bools, or neither), so such a map runs
in C where it can: a kernel's float twin (values.FLOAT_TWIN) over
floats, IF's pick over bools.

There is one dependency graph (build_dep_graph / topo_order), and it is
syntactic: edges mirror names_referenced over the defining formulas, with
the subset whose target is a displaced overlapping copy of the referencing
name's own range classified as recurrence edges.  The workbook keeps it
until its name table changes, so rebuild's closed-world check, evaluate()
and the audit views share one walk of each formula.  evaluate() refuses
cycles on it, and there is one read analysis over it, the planner's
(_plan): one table of who owns the cells each formula reads, seen
through formula names and the owners of each range name.  A formula
range owns its own cells alone, so the plan asks Workbook.formula_owners
only about each input range name, once.  One Kahn sort orders the
names (topo_order) and one the formula ranges; only where one stalls on
a cycle does _components find the components (_tarjan) and order them.
Groups, their order, each refusal or sweep direction, and what each
sweep reads of its own members all come from that table, which is what
makes cross-name recurrences (interest on a prior balance feeding the
balance itself) come out in the right order.  The plan, the ordered
groups and those owners, is kept with the graph with the compiled
programs, so only a change to the name table makes evaluate() plan and
compile again; a cell edit does not.

So are the last values.  While they are kept, Workbook.set_cell and
fill_block record the rectangles they write, and the next evaluate()
recomputes only the names those reach: each name whose rectangle holds
a written cell that no formula range's block hides, and downstream of
it every name that references it or, for a formula range, lays an input
name over its cells (_stale).  The stale groups run in plan order;
every other value is the kept one.  A full evaluation is the same pass
with every name stale.  This is the
dirty-bit rebuild of Mokhov, Mitchell and Peyton Jones, "Build Systems
a la Carte" (ICFP 2018), over the support graph of Sestoft,
"Spreadsheet Implementation Technology" (2014).
"""

from __future__ import annotations

import heapq
import math
import operator
from bisect import bisect_right
from functools import reduce
from itertools import accumulate, chain, repeat

from . import values as V
from .formula import (Binary, Call, CellRef, Expr, Intersect, NameRef,
                      NumberLit, Percent, Unary, names_referenced)
from .values import Array, CellError, Record
from .workbook import FORMULA, GridRange, NameDef, Workbook

NameKey = tuple  # (scope | None, identifier)


class CycleError(Exception):
    """Raised by topo_order for a strongly connected component of names."""

    def __init__(self, members):
        self.members = tuple(sorted(members))
        super().__init__("cycle through {%s}" % ", ".join(self.members))


class DepGraph(Record):
    _fields = ("nodes", "edges", "recurrence", "unresolved", "display")
    # evaluate's state, filled in on first use, is left out of == and repr
    __slots__ = _fields + ("plan", "shapes", "owners", "programs",
                           "_readers", "overlays", "kept")
    def __init__(self, nodes, edges, recurrence, unresolved, display):
        self.nodes = nodes
        self.edges = edges            # NameKey -> tuple of NameKey, sorted
        self.recurrence = recurrence  # subset of (u, v) edges that are displaced self-reads
        self.unresolved = unresolved  # NameKey -> tuple of reference texts with no definition
        self.display = display        # NameKey -> display text
        self.plan = None     # the ordered _Groups, once planned
        self.shapes = None   # formula range -> its bounded shape, once planned
        self.owners = None   # range name -> its owners, sorted, once planned
        # NameKey -> its formula's compiled steps, and the members of a
        # sweep, in step order -> the run of its kept layout (_run_sweep)
        self.programs = {}
        self._readers = None  # readers(), once built
        self.overlays = None  # formula range -> the input names laid over it
        self.kept = None     # the last evaluate's (values, formula names' values)

    def readers(self) -> dict:
        """NameKey -> the names whose formulas reference it, in node order:
        the edges reversed, built on first use."""
        if self._readers is None:
            self._readers = {}
            for u in self.nodes:
                for v in self.edges[u]:
                    self._readers.setdefault(v, []).append(u)
        return self._readers


def _sort_key(key: NameKey):
    return (key[1], key[0] or "")


def _shift_between(u: NameDef, v: NameDef):
    """(dr, dc) such that v's range is u's range displaced and overlapping
    it, else None.

    Only same-sheet, same-shape ranges qualify; whole-column bands pair
    with whole-column bands.  Two ranges of one shape overlap exactly when
    the shift is shorter than the shape along both axes.
    """
    a, b = u.target, v.target
    if a is None or b is None or a.sheet != b.sheet:
        return None
    if a.is_whole_rows != b.is_whole_rows:
        return None
    width = a.col_end - a.col_start
    if width != b.col_end - b.col_start:
        return None
    dr = 0
    if not a.is_whole_rows:
        height = a.row_end - a.row_start
        if height != b.row_end - b.row_start:
            return None
        dr = b.row_start - a.row_start
        if abs(dr) > height:
            return None
    dc = b.col_start - a.col_start
    if abs(dc) > width or (dr, dc) == (0, 0):
        return None
    return (dr, dc)


def build_dep_graph(wb: Workbook) -> DepGraph:
    """The names each formula references.  The workbook keeps the graph
    until its name table changes, so its readers share it and must not
    change it."""
    if wb._graph is not None:
        return wb._graph
    names = wb.names
    edges = {}
    recurrence = set()
    unresolved = {}
    for key, nd in names.items():
        if nd.formula is None:
            edges[key] = ()
            continue
        ctx = wb.context_sheet(nd)
        targets = set()
        missing = []
        for qual, ident in names_referenced(nd.formula):
            hit = wb.resolve(ident, ctx, qual)
            if hit is None:
                missing.append((qual, ident))
            else:
                targets.add(hit.key())
        edges[key] = out = tuple(sorted(targets, key=_sort_key))
        if missing:  # (sheet, identifier) pairs sort as name keys do
            unresolved[key] = tuple(("%s!%s" % ref) if ref[0] else ref[1]
                                    for ref in sorted(missing, key=_sort_key))
        if nd.target is not None:
            for t in out:
                if _shift_between(nd, names[t]):
                    recurrence.add((key, t))
    nodes = tuple(sorted(names, key=_sort_key))
    display = {key: names[key].display() for key in nodes}
    wb._graph = DepGraph(nodes, edges, frozenset(recurrence), unresolved,
                         display)
    return wb._graph


def topo_order(g: DepGraph) -> list:
    """Names ordered so each follows its non-recurrence predecessors.

    Ties break in lexicographic identifier order, so the result is total
    and deterministic.  Raises CycleError naming the cyclic component of
    _components whose first member sorts first when no such order exists.
    """
    deps = {u: {v for v in g.edges.get(u, ()) if (u, v) not in g.recurrence}
            for u in g.nodes}
    order = _kahn(g.nodes, deps)
    if len(order) != len(g.nodes):
        comp = min((c for c in _components(g.nodes, deps)
                    if len(c) > 1 or c[0] in deps[c[0]]),
                   key=lambda c: _sort_key(c[0]))
        raise CycleError([g.display[k] for k in comp])
    return order


def _kahn(nodes, deps):
    """Kahn's sort: each node after those of deps[n] that are nodes, ties
    broken by position in nodes, so the heap holds places.  Nodes on or
    behind a cycle (a self-loop too) are left out, so a short result
    means a cycle."""
    place = {n: i for i, n in enumerate(nodes)}
    waiting = [0] * len(nodes)
    dependents = [[] for _ in nodes]
    for i, n in enumerate(nodes):
        for d in deps[n]:
            j = place.get(d)
            if j is not None:
                waiting[i] += 1
                dependents[j].append(i)
    ready = [i for i, w in enumerate(waiting) if not w]  # ascending: a heap
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(nodes[i])
        for u in dependents[i]:
            waiting[u] -= 1
            if not waiting[u]:
                heapq.heappush(ready, u)
    return order


def _components(nodes, deps):
    """A stalled Kahn sort's strongly connected components (_tarjan) of
    nodes, which hold every node deps names: sorted by first member, then
    ordered by a second Kahn sort so each follows those it depends on."""
    comps = sorted(_tarjan(nodes, deps), key=lambda c: _sort_key(c[0]))
    index = {m: i for i, c in enumerate(comps) for m in c}
    gdeps = [{index[w] for u in c for w in deps[u]} - {i}
             for i, c in enumerate(comps)]
    return [comps[i] for i in _kahn(range(len(comps)), gdeps)]


def _tarjan(nodes, adj):
    """Strongly connected components (Tarjan, 1972), each sorted, in the
    order they close.  A work stack of (node, iterator) pairs replaces the
    recursion; an iterator of None marks a first visit, which opens it."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    for v in nodes:
        work = [] if v in index else [(v, None)]
        while work:
            node, it = work.pop()
            if it is None:
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack.add(node)
                it = iter(adj[node])
            for w in it:
                if w not in index:
                    work += (node, it), (w, None)
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            else:
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = [stack.pop()]
                    while comp[-1] != node:
                        comp.append(stack.pop())
                    on_stack.difference_update(comp)
                    comps.append(sorted(comp, key=_sort_key))
    return comps


# --- value store -------------------------------------------------------------

class ValueStore(Record):
    """Computed value for every name, keyed by (scope, identifier)."""

    __slots__ = ("values", "display")
    def __init__(self, values: dict, display: dict):
        self.values, self.display = values, display

    def value(self, identifier: str, scope: str | None = None):
        key = (scope, identifier)
        if key not in self.values and scope is None:
            hits = [k for k in self.values if k[1] == identifier]
            if len(hits) == 1:
                key = hits[0]
        return self.values[key]

    def scalar(self, identifier: str, scope: str | None = None):
        return V.collapse(self.value(identifier, scope))

    def has_errors(self) -> bool:
        return any(CellError in map(type, _scalars(v))
                   for v in self.values.values())

    def items(self):
        return sorted(self.values.items(), key=lambda kv: _sort_key(kv[0]))

    def __eq__(self, other):
        return isinstance(other, ValueStore) and self.values == other.values


# --- scheduling --------------------------------------------------------------

def _through_formulas(wb: Workbook, graph: DepGraph, root, skip=()):
    """Depth-first walk of graph.edges from root that enters formula names,
    except those in skip.  Returns the range names reached, in the order
    first reached, and the formula names entered, each after every one
    it reads (post-order), with root last; both as NameKeys."""
    reads = []
    entered = []
    seen = set()
    stack = [(root, iter(graph.edges[root]))]
    while stack:
        key, succ = stack[-1]
        for k in succ:
            if k in seen or k in skip:
                continue
            seen.add(k)
            nd = wb.names[k]
            if nd.kind == FORMULA:
                stack.append((k, iter(graph.edges[k])))
                break
            if nd.target is not None:
                reads.append(k)
        else:
            stack.pop()
            entered.append(key)
    return reads, entered


# Shifts a sweep can order: an aligned read, or one cell along one axis.
_ORDERABLE = {(0, 0), (0, -1), (0, 1), (-1, 0), (1, 0)}


class _Group(Record):
    __slots__ = ("members", "direction", "order", "failed", "refmap",
                 "inlined")
    def __init__(self, members, direction=None, order=None, failed=None,
                 refmap=None, inlined=None):
        self.members = members      # NameKeys of formula ranges scheduled together
        self.direction = direction  # the one step (dr, dc) members read one another at
        self.order = order          # within-step member order of a valid sweep
        self.failed = failed        # why the group cannot be swept, or None
        # Of a valid sweep: each range name its members read that denotes a
        # member's cells -> (member, dr, dc, the read clamped to its sheet),
        # aligned or displaced by the sweep direction; and per member, the
        # formula names it reads that reach one, each after those it reads.
        self.refmap, self.inlined = refmap, inlined


def _plan(wb: Workbook, graph: DepGraph) -> list:
    """The formula ranges as _Groups, in evaluation order.

    graph.owners gets each range name's owners.  Formula ranges never
    overlap, so one owns its own cells alone, and only an input range
    asks Workbook.formula_owners.  The read table holds, per formula
    range u, one (read, owner, shift) entry for each owner of each range
    name u reads through formula names, both NameKeys as graph.edges
    holds them.  The shift is (0, 0) for an aligned read, the one-cell
    step of a displaced read a sweep can order, or None for any other
    read, which needs its owner whole first.  Groups are the strongly
    connected components of reader -> owner, owners first, ties broken by
    first member.  One Kahn sort of the ranges, each range's reads of
    itself dropped, gives that order when every component is a lone
    range; only when it stalls on a cycle does _components find them."""
    names = wb.names
    fkeys = [u for u in graph.nodes  # in _sort_key order
             if names[u].formula is not None and names[u].target is not None]
    graph.shapes = {u: wb.bounded(names[u].target).shape() for u in fkeys}
    graph.owners = {u: [u] for u in fkeys}
    for nd in wb.input_ranges():
        graph.owners[nd.key()] = sorted(wb.formula_owners(nd.target),
                                        key=_sort_key)
    table = {}
    entered = {}  # formula range -> the formula names it reads, post-order
    for u in fkeys:
        reads, walked = _through_formulas(wb, graph, u)
        entered[u] = walked[:-1]  # u itself comes last
        row = table[u] = []
        for v in reads:
            read = names[v]
            for w in graph.owners[v]:
                owner = names[w]
                d = ((0, 0) if read.target == owner.target
                     else _shift_between(owner, read))
                row.append((v, w, d if d in _ORDERABLE else None))
    deps = {u: {w for _, w, _ in table[u] if w != u} for u in fkeys}
    order = _kahn(fkeys, deps)
    comps = ([[u] for u in order] if len(order) == len(fkeys)
             else _components(fkeys, deps))
    return [_validate(wb, graph, c, table, entered) for c in comps]


def _validate(wb: Workbook, graph: DepGraph, members, table, entered):
    """The _Group of one component: a single range evaluated whole, a
    valid sweep, or a group refused with its reason.

    One pass over the members' reads of one another sorts each: a step
    gives a sweep direction, a member's read of itself that is no step
    cannot be ordered, and any other read orders its reader after its
    owner within a step."""
    if len(members) == 1 and all(w != members[0]
                                  for _, w, _ in table[members[0]]):
        return _Group(members)  # a lone range that reads none of its cells
    deps = {m: set() for m in members}
    dirs = set()
    swept = []  # (read, member, shift) a valid sweep reads at each cell
    self_overlap = False
    for u in members:
        for v, w, d in table[u]:
            if w not in deps:
                continue
            if d is not None and d != (0, 0):
                dirs.add(d)
            elif w == u:
                self_overlap = True
            else:
                deps[u].add(w)
            if d is not None:
                swept.append((v, w, d))
    direction = next(iter(dirs)) if len(dirs) == 1 else None
    if self_overlap:
        return _Group(members, direction, failed="self-overlapping read")
    if not dirs:
        return _Group(members, failed="mutual reference"
                      if len(members) > 1 else None)
    if direction is None:
        return _Group(members, failed="conflicting recurrence directions")
    axis = 1 if direction[1] != 0 else 0
    extents = {graph.shapes[m][axis] for m in members}
    if len(extents) > 1:
        return _Group(members, direction, failed="recurrence ranges "
                      "disagree on sweep extent")
    order = _kahn(members, deps)
    if len(order) != len(members):
        return _Group(members, direction, failed="mutual reference")
    refmap = {v: (w, *d, wb.bounded(wb.names[v].target)) for v, w, d in swept}
    inlined = set()
    for m in members:
        for k in entered[m]:
            if any(t in refmap or t in inlined for t in graph.edges[k]):
                inlined.add(k)
    return _Group(members, direction, order, None, refmap,
                  {m: [k for k in entered[m] if k in inlined]
                   for m in members})


# --- builtin functions -------------------------------------------------------

def _scalars(v):
    """The scalars of a value in row-major order."""
    return v.flat if isinstance(v, Array) else (v,)


def _all_of(vs, t):
    """True when each of vs is exactly of type t or an Array of kind t."""
    for v in vs:
        if (v.kind if isinstance(v, Array) else type(v)) is not t:
            return False
    return True


def _flat_of(v, shape):
    """v laid out row-major over shape: a scalar, single row or single
    column repeats along the missing axis, and an Array of shape is its
    own list.  v must conform to shape."""
    rows, cols = shape
    if not isinstance(v, Array):
        return [v] * (rows * cols)
    flat = v.flat
    if v.shape[1] != cols:
        flat = list(chain.from_iterable(zip(*[flat] * cols)))
    return flat if v.shape[0] == rows else flat * rows


def _broadcast(fn, *args):
    """fn applied across args broadcast to one shape; #VALUE! when the
    shapes do not conform, a scalar when they are all 1x1.

    The first Array gives the shape, and each later Array of another
    shape is combined with it.  Every operand is then laid out over that
    shape in one pass: an Array of the shape is its own list, a scalar
    repeats in place, and any other Array (a row, a column, a 1x1) is
    laid out by _flat_of.  The result is one map over those lists.  When
    the operands are floats alone (by kind), fn's float twin
    (values.FLOAT_TWIN) is mapped in fn's place if it has one, and fn
    itself when the twin raises (/ by 0); IF over a condition of bools
    alone picks each cell from its branches in C."""
    shape = None
    for a in args:
        if isinstance(a, Array) and a.shape != shape:
            shape = (a.shape if shape is None
                     else V.broadcast_shapes(shape, a.shape))
            if shape is None:
                return V.VALUE_ERROR
    if shape is None:
        return fn(*args)
    if shape == (1, 1):
        return fn(*map(V.collapse, args))
    flats = [(a.flat if a.shape == shape else _flat_of(a, shape))
             if isinstance(a, Array) else repeat(a) for a in args]
    twin, kind = V.FLOAT_TWIN.get(fn, (None, None))
    if twin and _all_of(args, float):
        try:
            return Array(list(map(twin, *flats)), shape, kind)
        except ZeroDivisionError:  # where _divide gives #DIV/0!
            pass
    if fn is _if and _all_of(args[:1], bool):  # no defaults to False
        picks = zip((*flats, repeat(False))[2], flats[1])
        floats = _all_of((*args, False)[1:3], float)
        return Array(list(map(operator.getitem, picks, flats[0])),
                     shape, float if floats else None)
    return Array(list(map(fn, *flats)), shape)


def _fold(args, fn, acc=None):
    """SUM, MIN and MAX: fn folded over the numbers of args left to right,
    from acc, or from the first number when acc is None; blanks, bools and
    text are skipped and the first error is returned, and no number at
    all is 0.  An Array of floats alone is folded by reduce, the same
    calls in the same order without a Python step per cell, so a nan met
    first by min or max stays and a later one is passed over."""
    for v in args:
        if isinstance(v, Array) and v.kind is float:
            acc = (reduce(fn, v.flat) if acc is None
                   else reduce(fn, v.flat, acc))
            continue
        for s in _scalars(v):
            if isinstance(s, CellError):
                return s
            if s is None or isinstance(s, (bool, str)):
                continue
            acc = float(s) if acc is None else fn(acc, float(s))
    return 0.0 if acc is None else acc


def _if(cond, yes, no=False):
    t = V.to_bool(cond)
    if isinstance(t, CellError):
        return t
    return yes if t else no


def _as_vector(v):
    """The scalars of a single-row or single-column value, in order."""
    if not isinstance(v, Array):
        return [v]
    return v.flat if 1 in v.shape else None


def _exact_key(s):
    """The dict key under which = finds s: numbers as floats, text
    casefolded, bools tagged apart from 1.0 and 0.0; None for nan."""
    if isinstance(s, bool):
        return (s,)
    if isinstance(s, str):
        return s.casefold()
    s = float(s)
    return s if s == s else None


# The keys a blank key equals in exact mode: the zero of every class.
_BLANK_KEYS = (0.0, "", (False,))


def _matcher(vector, exact):
    """fn(key) giving MATCH's position of key in vector, a list of
    scalars, which is indexed once here; LOOKUP shares it.  A blank slot
    is skipped but keeps its position, nan matches nothing, and no hit is
    #VALUE!.

    Exact: the first slot equal to key.  A dict holds each value's first
    position up to the first error slot, and that error answers every key
    the dict misses.  A blank key equals the zero of every class.

    Approximate: the last slot <= key among the slots of the key's class
    (numbers, with a blank key as 0; text; bools), sorted or not.  Each
    class's values are sorted beside a running maximum of position, so
    one bisect answers a key.  An error slot anywhere answers every key."""
    first_error = None
    if exact:
        first = {}
        for pos, s in enumerate(vector, 1):
            if s is None:
                continue
            if isinstance(s, CellError):
                first_error = s
                break
            k = _exact_key(s)
            if k is not None and k not in first:
                first[k] = float(pos)
        missing = first_error or V.VALUE_ERROR
        blank = min((first[k] for k in _BLANK_KEYS if k in first),
                    default=missing)

        def one(key):
            if isinstance(key, CellError):
                return key
            if key is None:
                return blank
            k = _exact_key(key)
            return missing if k is None else first.get(k, missing)
        return one

    classes = {float: [], str: [], bool: []}
    for pos, s in enumerate(vector, 1):
        if s is None:
            continue
        if isinstance(s, CellError):
            first_error = s
            break
        if isinstance(s, bool):
            classes[bool].append((s, pos))
        elif isinstance(s, str):
            classes[str].append((s.casefold(), pos))
        elif s == s:
            classes[float].append((s, pos))
    if first_error is not None:
        return lambda key: key if isinstance(key, CellError) else first_error
    for cls, pairs in classes.items():
        pairs.sort()
        values = [v for v, _ in pairs]
        best = list(accumulate([float(p) for _, p in pairs], max))
        classes[cls] = values, best

    def one(key):
        if isinstance(key, CellError):
            return key
        if isinstance(key, bool):
            values, best = classes[bool]
        elif isinstance(key, str):
            key = key.casefold()
            values, best = classes[str]
        elif key != key:
            return V.VALUE_ERROR
        else:
            key = 0.0 if key is None else key
            values, best = classes[float]
        i = bisect_right(values, key)
        return best[i - 1] if i else V.VALUE_ERROR
    return one


def _builtin_match(args):
    if len(args) not in (2, 3):
        return V.VALUE_ERROR
    vector = _as_vector(args[1])
    if vector is None:
        return V.VALUE_ERROR
    exact = False
    if len(args) == 3:
        mode = V.to_number(V.collapse(args[2]))
        if isinstance(mode, CellError):
            return mode
        exact = (mode == 0)
    return _broadcast(_matcher(vector, exact), args[0])


def _builtin_lookup(args):
    if len(args) != 3:
        return V.VALUE_ERROR
    vector = _as_vector(args[1])
    result = _as_vector(args[2])
    if vector is None or result is None:
        return V.VALUE_ERROR
    match = _matcher(vector, exact=False)
    n = len(result)

    def one(k):
        pos = match(k)
        if isinstance(pos, CellError):
            return pos
        return result[int(pos) - 1] if pos <= n else V.REF_ERROR

    return _broadcast(one, args[0])


def _index_int(s):
    """An INDEX index as an int: #VALUE! unless a finite number >= 0."""
    n = s if type(s) is float else V.to_number(s)
    if isinstance(n, CellError):
        return n
    if not 0 <= n < math.inf:
        return V.VALUE_ERROR
    return int(n)


def _builtin_index(state, args):
    if len(args) not in (2, 3):
        return V.VALUE_ERROR
    source = args[0]
    if isinstance(source, CellError):
        return source
    idx_args = [_deref(state, a) for a in args[1:]]
    for a in idx_args:
        if isinstance(a, CellError):
            return a
    if all(V.value_shape(a) == (1, 1) for a in idx_args):
        nums = [_index_int(V.collapse(a)) for a in idx_args]
        for n in nums:
            if isinstance(n, CellError):
                return n
        if isinstance(source, GridRange):
            r, c = state.wb.bounded(source).shape()
        else:
            src = (source if isinstance(source, Array)
                   else Array([source], (1, 1)))
            r, c = src.shape
        # A lone index selects along a single column or row.
        if len(nums) == 2:
            row, col = nums
        elif c == 1:
            row, col = nums[0], 0
        elif r == 1:
            row, col = 0, nums[0]
        else:
            return V.VALUE_ERROR
        if row > r or col > c:
            return V.REF_ERROR
        if isinstance(source, GridRange):
            return source.index_slice(row, col)
        flat = src.flat
        if row:
            flat, r = flat[(row - 1) * c:row * c], 1
        if col:
            flat, c = flat[col - 1::c], 1
        return flat[0] if r == c == 1 else Array(flat, (r, c))

    # Array indices gather elementwise; a whole-axis 0 has no meaning here.
    src = _deref(state, source)
    if isinstance(src, CellError):
        return src
    if not isinstance(src, Array):
        src = Array([src], (1, 1))
    r, c = src.shape
    flat = src.flat
    if len(idx_args) == 1:
        # A lone index runs down a single column, else along the first row.
        line = flat if c == 1 else flat[:c]
        n = len(line)

        def along(k):
            if type(k) is float and 1.0 <= k < n + 1:
                return line[int(k) - 1]
            i = _index_int(k)
            if isinstance(i, CellError):
                return i
            if i == 0:
                return V.VALUE_ERROR
            if i > n:
                return V.REF_ERROR
            return line[i - 1]

        return _broadcast(along, idx_args[0])

    def gather(ri, ci):
        i = _index_int(ri)
        if isinstance(i, CellError):
            return i
        j = _index_int(ci)
        if isinstance(j, CellError):
            return j
        if i == 0 or j == 0:
            return V.VALUE_ERROR
        if i > r or j > c:
            return V.REF_ERROR
        return flat[(i - 1) * c + j - 1]

    return _broadcast(gather, *idx_args)


def _bool_reduce(args, fold, seed):
    acc = seed
    seen = False
    for v in args:
        for s in _scalars(v):
            if isinstance(s, CellError):
                return s
            if s is None or isinstance(s, str):
                continue
            b = s if isinstance(s, bool) else (float(s) != 0)
            acc = fold(acc, b)
            seen = True
    if not seen:
        return V.VALUE_ERROR
    return acc


# name -> fn(state, args): only INDEX's arguments may be references.
_BUILTINS = {
    "AND": lambda st, args: _bool_reduce(args, lambda a, b: a and b, True),
    "IF": lambda st, args: (_broadcast(_if, *args) if len(args) in (2, 3)
                            else V.VALUE_ERROR),
    "INDEX": _builtin_index,
    "LOOKUP": lambda st, args: _builtin_lookup(args),
    "MATCH": lambda st, args: _builtin_match(args),
    "MAX": lambda st, args: _fold(args, max),
    "MIN": lambda st, args: _fold(args, min),
    "NOT": lambda st, args: (_broadcast(_if, *args, False, True)
                             if len(args) == 1 else V.VALUE_ERROR),
    "OR": lambda st, args: _bool_reduce(args, lambda a, b: a or b, False),
    "SUM": lambda st, args: _fold(args, operator.add, 0.0),
}
BUILTIN_FUNCTIONS = tuple(_BUILTINS)


def _meet(state, args):
    """The intersection of two references."""
    for v in args:
        if isinstance(v, CellError):
            return v
    a, b = args
    if not isinstance(a, GridRange) or not isinstance(b, GridRange):
        return V.VALUE_ERROR
    hit = a.intersect(b)
    return V.NULL_ERROR if hit is None else hit


# --- whole-array evaluation --------------------------------------------------

# The step kinds of a compiled formula (_compile), run by _run, and the
# steps that are the same wherever they occur, shared by every program.
_CONST, _OWNER, _READ, _NAME, _DEREF, _BINARY, _CALL = range(7)
_BINARY_STEPS = {op: (_BINARY, kernel) for op, kernel in V.BINARY.items()}
_DEREF_STEP, _MEET_STEP = (_DEREF, None), (_CALL, (_meet, 2))
# -x runs as 0 - x and x% as x / 100, on the kernels of - and /.
_AS_BINARY = {Unary: lambda e: Binary("-", NumberLit(0.0), e.operand),
              Percent: lambda e: Binary("/", e.operand, NumberLit(100.0))}


def _compile(wb: Workbook, e: Expr, ctx_sheet, steps: list, keep_ref=False):
    """Append to steps the program computing e whole, in postfix order,
    with every name resolved.  A reference, the GridRange a range name
    targets, stays unread only where keep_ref is set: INDEX's and
    intersection's operands and a formula name's result.  Elsewhere a
    read of exactly one formula range's block is its owner's value, and
    any other range is read."""
    t = type(e)
    if t is Binary:
        _compile(wb, e.lhs, ctx_sheet, steps)
        _compile(wb, e.rhs, ctx_sheet, steps)
        steps.append(_BINARY_STEPS[e.op])
        return
    if t is Unary or t is Percent:
        _compile(wb, _AS_BINARY[t](e), ctx_sheet, steps)
        return
    if t is Intersect or t is Call and e.func in _BUILTINS:
        index = t is Intersect or e.func == "INDEX"
        args = (e.lhs, e.rhs) if t is Intersect else e.args
        for a in args:
            _compile(wb, a, ctx_sheet, steps, index)
        steps.append(_MEET_STEP if t is Intersect
                     else (_CALL, (_BUILTINS[e.func], len(args))))
        if index and not keep_ref:
            steps.append(_DEREF_STEP)
        return
    if t is not NameRef:  # a literal, a cell address or an unknown call
        steps.append((_CONST, V.REF_ERROR if t is CellRef else
                       V.NAME_ERROR if t is Call else e.value))
        return
    nd = wb.resolve(e.name, context=ctx_sheet, qualifier=e.sheet)
    if nd is None:
        steps.append((_CONST, V.NAME_ERROR))
    elif nd.kind == FORMULA:
        steps.append((_NAME, nd.key()))
        if not keep_ref:
            steps.append(_DEREF_STEP)
    elif nd.target is None:
        steps.append((_CONST, V.REF_ERROR))
    elif keep_ref:
        steps.append((_CONST, nd.target))
    else:
        owners = wb._graph.owners[nd.key()]  # as _plan found them
        w = owners[0] if len(owners) == 1 else None
        if w is not None and (w == nd.key() or wb.bounded(
                wb.names[w].target) == wb.bounded(nd.target)):
            steps.append((_OWNER, w))
        else:
            steps.append((_READ, (nd.target, owners)))


def _run(state, steps):
    """The value of a compiled formula: its steps run on one stack."""
    stack = []
    push, pop = stack.append, stack.pop
    computed = state.computed
    for op, arg in steps:
        if op == _CONST:
            push(arg)
        elif op == _OWNER:
            push(computed[arg] if arg in computed
                 else state.ensure_computed(arg))
        elif op == _BINARY:
            b = pop()
            push(_broadcast(arg, pop(), b))
        elif op == _READ:
            push(state.materialize(*arg))
        elif op == _DEREF:
            push(_deref(state, pop()))
        elif op == _NAME:
            push(state.formula_value(arg))
        else:  # _CALL
            fn, n = arg
            args = stack[len(stack) - n:]
            del stack[len(stack) - n:]
            push(fn(state, args))
    return stack[0]


class _EvalState:
    def __init__(self, wb: Workbook, graph: DepGraph, computed,
                 formula_cache):
        self.wb = wb
        self.graph = graph
        self.computed = computed            # NameKey -> Value, read for formula ranges
        self.formula_cache = formula_cache  # NameKey -> Value | GridRange
        self.in_progress = set()
        self.plain = {}  # GridRange with no owners -> its materialized value

    def program(self, key):
        """The compiled steps of a formula name or formula range, made on
        first use and kept with the plan (graph.programs)."""
        steps = self.graph.programs.get(key)
        if steps is None:
            nd = self.wb.names[key]
            steps = []
            _compile(self.wb, nd.formula, self.wb.context_sheet(nd), steps,
                     nd.kind == FORMULA)
            steps = self.graph.programs[key] = tuple(steps)
        return steps

    def ensure_computed(self, key):
        if key in self.computed:
            return self.computed[key]
        # The plan computes every owner before its whole readers.  A sweep
        # reads a member it is still building outside its refmap only
        # through a part constant across the sweep (SUM(member), say):
        # that member is then computed whole here, and a read of a range
        # still in progress is a cycle error in each of its cells.
        if key in self.in_progress:
            return _expand_to_shape(V.CYCLE_ERROR, self.graph.shapes[key])
        self.in_progress.add(key)
        try:
            value = _eval_whole_name(self, self.wb.names[key])
            self.computed[key] = value
            return value
        finally:
            self.in_progress.discard(key)

    def formula_value(self, key):
        """Value of a formula name.  The uncached formula names it reaches
        are evaluated first, each after the ones it reads, so a chain of
        names costs no recursion per hop.  topo_order has refused every
        cycle through a formula name, so none can be reached twice."""
        if key not in self.formula_cache:
            _, entered = _through_formulas(self.wb, self.graph, key,
                                           self.formula_cache)
            for k in entered:
                self.formula_cache[k] = _run(self, self.program(k))
        return self.formula_cache[key]

    def materialize(self, ref: GridRange, owners):
        """The cells of a reference: plain cells from the sheet, one slice
        per column (a one-column read is that slice), overlaid with the
        blocks of owners, its formula ranges in _sort_key order, one slice
        per row of each overlap.  Evaluation writes no cell, so a rectangle
        with no owners is copied once per evaluate and its value shared
        (values are read-only)."""
        if not owners:
            value = self.plain.get(ref)
            if value is not None:
                return value
        sh = self.wb.sheets[ref.sheet]
        rng = ref.clamp(sh.rows)
        r0, r1, c0 = rng.row_start, rng.row_end, rng.col_start
        rows, cols = r1 - r0 + 1, rng.col_end - c0 + 1
        if cols == 1:
            flat = sh.column(c0, r0, r1)
        else:
            flat = [None] * (rows * cols)
            for k in range(cols):
                flat[k::cols] = sh.column(c0 + k, r0, r1)
        for okey in owners:
            own = self.wb.names[okey].target.clamp(sh.rows)
            block = _flat_of(self.ensure_computed(okey), own.shape())
            width = own.col_end - own.col_start + 1
            hit = own.intersect(rng)
            lo, m = hit.col_start, hit.col_end - hit.col_start + 1
            for r in range(hit.row_start, hit.row_end + 1):
                at = (r - r0) * cols + lo - c0
                of = (r - own.row_start) * width + lo - own.col_start
                flat[at:at + m] = block[of:of + m]
        value = flat[0] if rows == cols == 1 else Array(flat, (rows, cols))
        if not owners:
            self.plain[ref] = value
        return value


def _deref(state, v):
    if isinstance(v, GridRange):
        return state.materialize(v, sorted(state.wb.formula_owners(v),
                                           key=_sort_key))
    return v


def _expand_to_shape(value, shape):
    """Broadcast a computed value over the owning rectangle.  An Array of
    exactly that shape is returned as it is, so two names may hold one
    Array object; values are never written in place (see Array)."""
    if shape == (1, 1):
        out = V.collapse(value)
        return V.VALUE_ERROR if isinstance(out, Array) else out
    if isinstance(value, Array) and value.shape == shape:
        return value
    if V.broadcast_shapes(V.value_shape(value), shape) != shape:
        value = V.VALUE_ERROR
    return Array(_flat_of(value, shape), shape)


def _eval_whole_name(state: _EvalState, nd: NameDef):
    return _expand_to_shape(_run(state, state.program(nd.key())),
                            state.graph.shapes[nd.key()])


# --- recurrence sweeps, a step at a time ------------------------------------

def _step_of(part):
    """A node of a sweep (see _run_sweep) as a closure s -> step s."""
    return part if callable(part) else part.__getitem__


def _hoisted(fn, kids):
    """fn mapped over each step of kids, parts constant across a sweep
    given as lists of their steps; when each kid repeats one step object,
    that step is mapped once."""
    if all([all(map(operator.is_, k, repeat(k[0]))) for k in kids]):
        return [list(map(fn, *[k[0] for k in kids]))] * len(kids[0])
    return [list(map(fn, *at)) for at in zip(*kids)]


def _taken(t):
    """What IF does at a step whose condition takes the values t: True or
    False when every place takes that branch, else each place's pick as
    _if makes it, a bool or the error value the place gives.  Only True
    and 1.0 equal True, and only False, 0.0 and -0.0 equal False."""
    m = len(t)
    if t.count(True) == m:
        return True
    if t.count(False) == m:
        return False
    return [c if type(c) is bool else V.to_bool(c) for c in t]


def _decided(cond):
    """_taken at each step of an IF condition constant across a sweep,
    given as the list of its steps; a run of one step object is decided
    once."""
    taken, last = [], None
    for c in cond:
        if c is not last:
            t, last = _taken(c), c
        taken.append(t)
    return taken


def _laid(value, shape, axis):
    """A value constant across a sweep of members of shape, as the list
    of its steps along axis (see _run_sweep), and its kind.  A value one
    place wide lists one step per cell, shared by each occurrence of that
    cell object (a bool always); one step long, it repeats its one step; a
    value that does not conform is #VALUE! at every place."""
    n, m = shape[axis], shape[1 - axis]
    if isinstance(value, Array):
        if V.broadcast_shapes(value.shape, shape) != shape:
            value = V.VALUE_ERROR
        else:
            flat, cols = value.flat, value.shape[1]
            if value.shape[1 - axis] < m:
                laid = {id(x): [x] * m for x in flat}
                laid = [laid[id(x)] for x in flat]
            else:  # its columns, or its rows
                laid = ([flat[t::cols] for t in range(cols)] if axis
                        else value.cells)
            return laid * (n // len(laid)), value.kind
    return [[value] * m] * n, type(value)


# The operand kinds under which a sweep node gives floats (_run_sweep):
# of a binary operator, whose twin then maps, and of IF.
_FLOATS = {(float, float), (bool, float, float), (float, float, float)}


def _run_sweep(state: _EvalState, group: _Group):
    """Sweep a valid group one step at a time in its step order, and
    store each member's value.

    Each member, and each formula name inlined into one, keeps its cells
    as n + 1 step lists: step s holds the cells at the m places of
    position s along the sweep axis (a column of a sweep across, a row
    of a sweep down).  Each node of their formulas that reads a member
    is one closure s -> the list of its values at the places of step s,
    so a step costs one call per node, not one per cell; a node constant
    across the sweep is a slot holding the list of its n steps.  List n
    is the padding: one materialize of the twin's off-band slice, the
    cells one step past the member, fills it for each member read
    displaced.  A read at the first step lands there, at index -1 on a
    forward sweep and at n on a backward one, so no read tests bounds.

    The layout is made on the group's first sweep and kept with the plan.
    The first step maps the kernels.  Then a node's kind is float if it
    gives floats at every later step, found from the kinds of the slots
    and of the members' first steps, dropping each member whose formula
    may give another value; over floats an operator maps its float twin
    (values.FLOAT_TWIN), / only by a nonzero number literal, and a member
    is stored with its kind."""
    run = state.graph.programs.get(tuple(group.order))
    (run or _lay_out(state, group))(state)


def _lay_out(state: _EvalState, group: _Group):
    """The run of each sweep of a valid group (see _run_sweep), kept in
    graph.programs."""
    wb, graph = state.wb, state.graph
    shapes, refmap, members = graph.shapes, group.refmap, group.members
    dr, dc = group.direction
    axis = 1 if dc else 0  # the sweep axis; the places run along the other
    n = shapes[group.order[0]][axis]
    first, *rest = range(n) if dr + dc < 0 else range(n - 1, -1, -1)
    past = 1 if dr + dc < 0 else n  # the twin's step off the band
    # (member, member or inlined name) -> its step lists and the padding
    partial = {(m, k): [None] * (n + 1)
               for m in members for k in group.inlined[m] + [m]}
    twins = {}  # member read displaced -> its twin's off-band slice
    consts = {}  # (sheet, part, places) -> (slot, program, shape, node)
    refills = []  # (slot, fn, args): the operators hoisted, IFs decided
    # Each node's kind, found per sweep, and per operator or IF after the
    # nodes it reads: (its node, its kind over operands whose kinds are
    # in _FLOATS, their kinds, [the fn it maps, its kernel], its twin).
    kinds, rules, roots = [], [], {}  # roots: (member, name) -> node

    def leaf(kind=False):
        kinds.append(kind)
        return len(kinds) - 1
    seeds = {w: leaf() for w in members}  # the kind of a member's reads

    def hoist(fn, *args):
        """A slot that each sweep fills with fn(*args)."""
        slot = []
        refills.append((slot, fn, args))
        return slot

    def node(e, member, ctx_sheet):
        """The values e takes at the places of each step of member, a
        slot of its n steps when e is constant across the sweep, else a
        closure s -> step s, and its node in kinds."""
        shape = shapes[member]
        m = shape[1 - axis]
        t = type(e)
        if t is NameRef:
            nd = wb.resolve(e.name, context=ctx_sheet, qualifier=e.sheet)
            key = None if nd is None else nd.key()
            part = partial.get((member, key))  # an inlined formula name
            if part is not None:
                return part.__getitem__, roots[member, key]
            hit = refmap.get(key)
            if hit is not None:
                w, hr, hc, vrng = hit
                vshape = shapes[w]  # a refmap name has its owner's shape
                if V.broadcast_shapes(vshape, shape) != shape:
                    return [[V.VALUE_ERROR] * m] * n, leaf()
                # Step s reads the owner's step s + d; an owner one
                # place wide repeats its one place.
                d, part = hr + hc, partial[w, w]
                if d:
                    twins[w] = vrng.index_slice(*((0, past) if axis
                                                  else (past, 0)))
                if vshape[1 - axis] < m:
                    return (lambda s: part[s + d] * m), seeds[w]
                return ((lambda s: part[s + d]) if d
                        else part.__getitem__), seeds[w]
        elif t is Binary or t is Unary or t is Percent:
            if t is not Binary:
                e = _AS_BINARY[t](e)
            fn = V.BINARY[e.op]
            kids, at = zip(*[node(a, member, ctx_sheet)
                             for a in (e.lhs, e.rhs)])
            twin, out = V.FLOAT_TWIN.get(fn, (fn, False))
            # / maps its twin only by a nonzero number literal, by which
            # the twin never raises; by anything else it maps its kernel.
            if e.op == "/" and not (type(e.rhs) is NumberLit
                                    and e.rhs.value):
                twin, out = fn, False
            k, fns = leaf(), [fn, fn]
            rules.append((k, out, operator.itemgetter(*at), fns, twin))
            if not any(map(callable, kids)):
                return hoist(_hoisted, fn, kids), k
            lhs, rhs = map(_step_of, kids)
            return (lambda s: list(map(fns[0], lhs(s), rhs(s)))), k
        elif t is Call and e.func == "IF" and len(e.args) in (2, 3):
            args = [node(a, member, ctx_sheet) for a in e.args]
            args.append(([[False] * m] * n, leaf(bool)))  # a missing no
            (cond, c), (yes, y), (no, f) = args[:3]
            yes, no, k = _step_of(yes), _step_of(no), leaf()
            rules.append((k, float, operator.itemgetter(c, y, f), [0, 0], 0))
            # A condition constant across the sweep is decided for every
            # step before the first.
            taken = None if callable(cond) else hoist(_decided, cond)

            def pick(s):
                # A branch runs for the whole step if some place takes
                # it; each place keeps its own branch's value.
                t = taken[s] if taken else _taken(cond(s))
                if t is True:
                    return yes(s)
                if t is False:
                    return no(s)
                a = yes(s) if True in t else t
                b = no(s) if False in t else t
                return [(y if c else x) if type(c) is bool else c
                        for c, y, x in zip(t, a, b)]
            return pick, k
        # Literals, other names, aggregations, gathers and intersections are
        # constant across the sweep, so compute them whole once and index in.
        slot = consts.get((ctx_sheet, e, m))
        if slot is None:
            steps = []
            _compile(wb, e, ctx_sheet, steps)
            slot = consts[ctx_sheet, e, m] = ([], steps, shape, leaf())
        return slot[0], slot[3]

    plan = []
    for m in group.order:
        for k in group.inlined[m] + [m]:
            nd = wb.names[k]
            fill, roots[m, k] = node(nd.formula, m, wb.context_sheet(nd))
            plan.append((_step_of(fill), partial[m, k]))
    del node  # it holds itself in its closure; free it now, not at a gc run

    def run(state):
        for slot, steps, shape, k in consts.values():
            slot[:], kinds[k] = _laid(_run(state, steps), shape, axis)
        for slot, fn, args in refills:
            slot[:] = fn(*args)
        for w, edge in twins.items():
            partial[w, w][n] = _flat_of(_deref(state, edge), edge.shape())
        for *_, fns, _ in rules:  # the first step maps the kernels
            fns[0] = fns[1]
        for fill, part in plan:
            part[first] = fill(first)
        for w in members:
            kinds[seeds[w]] = (set(map(type, partial[w, w][first]))
                               == {float} and float)
        lost = True
        while lost:
            for k, out, got, fns, twin in rules:
                floats = got(kinds) in _FLOATS
                kinds[k], fns[0] = floats and out, twin if floats else fns[1]
            lost = [w for w in members
                    if kinds[seeds[w]] and kinds[roots[w, w]] is not float]
            for w in lost:
                kinds[seeds[w]] = False
        for s in rest:
            for fill, part in plan:
                part[s] = fill(s)
        for m in members:
            steps = partial[m, m][:n]  # without the padding
            state.computed[m] = Array(list(chain.from_iterable(
                zip(*steps) if axis else steps)), shapes[m],
                kinds[seeds[m]] or None)
    graph.programs[tuple(group.order)] = run
    return run


def _stale(wb: Workbook, graph: DepGraph) -> set:
    """The names evaluate must compute: all of them when no values are
    kept; else those whose rectangle holds a cell written since the
    values were kept, and every name downstream of them: the names that
    reference one (graph.readers) and, for a formula range, the input
    names laid over its cells (graph.overlays).  Every read of a formula
    range's cells, the planner's read table included, names it or such an
    input, so these edges reach every reader.  A write wholly under
    formula ranges' blocks is hidden from every read, so it makes nothing
    stale; formula ranges never overlap, so the areas of their overlaps
    with it add up to its own when they cover it."""
    if graph.kept is None:
        return set(graph.nodes)
    stale = set()
    for sheet, r1, r2, c1, c2 in set(wb._written):
        rect = GridRange(sheet, c1, c2, r1, r2)
        hidden = 0
        for w in wb.formula_owners(rect):
            rows, cols = wb.bounded(wb.names[w].target).intersect(rect).shape()
            hidden += rows * cols
        if hidden == (r2 - r1 + 1) * (c2 - c1 + 1):
            continue
        for key, nd in wb.names.items():
            t = nd.target
            if (t is not None and t.sheet == sheet and t.col_start <= c2
                    and c1 <= t.col_end and (t.row_start is None or (
                        t.row_start <= r2 and r1 <= t.row_end))):
                stale.add(key)
    if graph.overlays is None:
        graph.overlays = {}
        for nd in wb.input_ranges():
            for w in graph.owners[nd.key()]:
                graph.overlays.setdefault(w, []).append(nd.key())
    readers, overlays = graph.readers(), graph.overlays
    todo = list(stale)
    while todo:
        u = todo.pop()
        for k in chain(readers.get(u, ()), overlays.get(u, ())):
            if k not in stale:
                stale.add(k)
                todo.append(k)
    return stale


def evaluate(wb: Workbook) -> ValueStore:
    """Evaluate every name.  A static dependency cycle raises CycleError;
    every other failure surfaces as an error value in the affected cells.

    The values are kept with the plan, and the next evaluate computes
    only the names that the cells written since can reach (_stale),
    taking every other value from the kept ones."""
    graph = build_dep_graph(wb)
    if graph.plan is None:
        # A name-level cycle fails here, on every call, before any work.
        topo_order(graph)
        graph.plan = _plan(wb, graph)
    stale = _stale(wb, graph)
    kept, kept_formulas = graph.kept or ({}, {})

    state = _EvalState(wb, graph,
                       {k: v for k, v in kept.items() if k not in stale},
                       {k: v for k, v in kept_formulas.items()
                        if k not in stale})
    for group in graph.plan:
        if stale.isdisjoint(group.members):
            continue
        if group.failed is not None:
            for m in group.members:
                state.computed[m] = _expand_to_shape(V.CYCLE_ERROR,
                                                     graph.shapes[m])
        elif group.direction is not None:
            _run_sweep(state, group)
        else:
            key = group.members[0]
            state.computed[key] = _eval_whole_name(state, wb.names[key])

    store = {}
    for key in graph.nodes:
        nd = wb.names[key]
        if key not in stale:
            store[key] = kept[key]
        elif nd.kind == FORMULA:
            store[key] = _deref(state, state.formula_value(key))
        elif nd.target is None:
            store[key] = V.REF_ERROR
        elif nd.formula is not None:
            store[key] = state.ensure_computed(key)
        else:
            store[key] = state.materialize(nd.target, graph.owners[key])
    graph.kept = (store, state.formula_cache)
    wb._written = []
    return ValueStore(dict(store), graph.display)
