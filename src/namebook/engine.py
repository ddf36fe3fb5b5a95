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
compiled on first use and kept with the plan, so after a cell edit
evaluate() resolves names only for the sweeps it reruns.  A sweep
(_run_sweep) compiles each member's formula once into a closure over
(step, place), a cell's position along the sweep and across it: a read
of a member indexes its step lists, one per step and one more holding
the cells one step past it, and every part constant across the sweep
runs as a program once and is laid out by step.  A formula name that
reads a member is filled into step lists of its own just before its
reader at each step, so chains and diamonds of such names cost one
closure call per name per cell.  Programs and closures apply the same
operator kernels (values.BINARY).  A whole value is a scalar or an
Array(flat, shape), one row-major list and its shape, so a step over
operands of one shape is one map over their lists, and a one-column
read is the slice the sheet gives.  An Array knows its kind (all floats,
all bools, or neither), so such a map runs in C where it can: a kernel's
float twin (values.FLOAT_TWIN) over floats, IF's pick over bools.

There is one dependency graph (build_dep_graph / topo_order), and it is
syntactic: edges mirror names_referenced over the defining formulas, with
the subset whose target is a displaced overlapping copy of the referencing
name's own range classified as recurrence edges.  The workbook keeps it
until its name table changes, so rebuild's closed-world check, evaluate()
and the audit views share one walk of each formula.  evaluate() refuses
cycles on it, and there is one read analysis over it, the planner's
(_plan): one table of who owns the cells each formula reads, seen
through formula names and the owners of each range name, which the plan
asks of Workbook.formula_owners once.  Groups, their order, each refusal
or sweep direction, and what each sweep reads of its own members all
come from that table, which is what makes cross-name recurrences
(interest on a prior balance feeding the balance itself) come out in the
right order.  The plan, the ordered groups and those owners, is kept
with the graph with the compiled programs, so only a change to the name
table makes evaluate() plan and compile again; a cell edit does not.

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
                      Percent, Unary, names_referenced)
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
        self.programs = {}   # NameKey -> its formula's compiled steps
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
    and deterministic.  Raises CycleError naming the strongly connected
    component when no such order exists.
    """
    deps = {u: {v for v in g.edges.get(u, ()) if (u, v) not in g.recurrence}
            for u in g.nodes}
    order = _kahn(g.nodes, deps, _sort_key)
    if len(order) != len(g.nodes):
        placed = set(order)
        stuck = [k for k in g.nodes if k not in placed]
        comp = _cycle_component(stuck, deps)
        raise CycleError([g.display[k] for k in comp])
    return order


def _kahn(nodes, deps, key):
    """Kahn's sort: each node after those of deps[n] that are nodes, the
    ready node of least key(n) first.  Nodes on or behind a cycle (a
    self-loop too) are left out, so a short result means a cycle."""
    waiting = {n: 0 for n in nodes}
    dependents = {n: [] for n in nodes}
    for n in nodes:
        for d in deps[n]:
            if d in waiting:
                waiting[n] += 1
                dependents[d].append(n)
    ready = [(key(n), n) for n in nodes if not waiting[n]]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)[1]
        order.append(n)
        for u in dependents[n]:
            waiting[u] -= 1
            if not waiting[u]:
                heapq.heappush(ready, (key(u), u))
    return order


def _cycle_component(stuck, deps):
    """Smallest strongly connected knot among the unordered names."""
    stuck_set = set(stuck)
    adj = {k: deps[k] & stuck_set for k in stuck}
    comps = _tarjan(stuck, adj)
    cyclic = [c for c in comps if len(c) > 1 or c[0] in adj[c[0]]]
    return min(cyclic, key=lambda c: _sort_key(c[0]))


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


class RangeValue(Record):
    """A reference flowing through evaluation before any cells are read."""

    __slots__ = ("rng",)
    def __init__(self, rng: GridRange):
        self.rng = rng


# --- scheduling --------------------------------------------------------------

def _through_formulas(wb: Workbook, graph: DepGraph, root, skip=()):
    """Depth-first walk of graph.edges from root that enters formula names,
    except those in skip.  Returns the range names reached, in the order
    first reached, and the keys of the formula names entered, each after
    every one it reads (post-order), with root last."""
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
                reads.append(nd)
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

    graph.owners gets each range name's owners (Workbook.formula_owners).
    The read table holds, per formula range u, one (read, owner, shift)
    entry for each owner of each range name u reads through formula
    names.  The shift is (0, 0) for an aligned read, the one-cell step
    of a displaced read a sweep can order, or None for any other read,
    which needs its owner whole first.  Groups are the strongly connected
    components of reader -> owner, owners first, the least first member
    leading among those ready."""
    fkeys = sorted((nd.key() for nd in wb.formula_bearing()), key=_sort_key)
    graph.shapes = {u: wb.bounded(wb.names[u].target).shape() for u in fkeys}
    graph.owners = {nd.key(): sorted(wb.formula_owners(nd.target),
                                     key=_sort_key)
                    for nd in wb.names.values() if nd.target is not None}
    table = {}
    entered = {}  # formula range -> the formula names it reads, post-order
    for u in fkeys:
        reads, walked = _through_formulas(wb, graph, u)
        entered[u] = walked[:-1]  # u itself comes last
        row = table[u] = []
        for v in reads:
            for w in graph.owners[v.key()]:
                owner = wb.names[w]
                d = ((0, 0) if v.target == owner.target
                     else _shift_between(owner, v))
                row.append((v, w, d if d in _ORDERABLE else None))
    comps = _tarjan(fkeys, {u: {w for _, w, _ in table[u]} for u in fkeys})
    index = {m: i for i, c in enumerate(comps) for m in c}
    gdeps = [{index[w] for u in c for _, w, _ in table[u]} - {i}
             for i, c in enumerate(comps)]
    order = _kahn(range(len(comps)), gdeps, lambda i: _sort_key(comps[i][0]))
    return [_validate(wb, graph, comps[i], table, entered) for i in order]


def _validate(wb: Workbook, graph: DepGraph, members, table, entered):
    """The _Group of one component: a single range evaluated whole, a
    valid sweep, or a group refused with its reason.

    One pass over the members' reads of one another sorts each: a step
    gives a sweep direction, a member's read of itself that is no step
    cannot be ordered, and any other read orders its reader after its
    owner within a step."""
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
    order = _kahn(members, deps, _sort_key)
    if len(order) != len(members):
        return _Group(members, direction, failed="mutual reference")
    refmap = {v.key(): (w, *d, wb.bounded(v.target)) for v, w, d in swept}
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


def _all_of(v, t):
    """True when v is exactly of type t, or an Array of kind t."""
    return v.kind is t if isinstance(v, Array) else type(v) is t


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

    Operands that need no layout go straight to fn: all scalars, or
    scalars and Arrays of one shape other than 1x1, whose result is one
    map of fn over the Arrays' lists with each scalar repeated in place.
    On that path, operands that are floats alone (by kind) map fn's
    float twin (values.FLOAT_TWIN) if it has one, and fn itself when the
    twin raises (/ by 0), and IF over a condition of bools alone picks
    each cell from its branches in C.  Any other mix (a 1x1 Array, which
    collapses, a row against a column, shapes that do not conform) takes
    the fold over the shapes below."""
    shape = None
    for a in args:
        if isinstance(a, Array):
            if shape is None:
                shape = a.shape
            elif a.shape != shape:
                break
    else:
        if shape is None:
            return fn(*args)
        if shape != (1, 1):
            flats = [a.flat if isinstance(a, Array) else repeat(a)
                     for a in args]
            twin, kind = V.FLOAT_TWIN.get(fn, (None, None))
            if twin and all(map(_all_of, args, repeat(float))):
                try:
                    return Array(list(map(twin, *flats)), shape, kind)
                except ZeroDivisionError:  # where _divide gives #DIV/0!
                    pass
            if fn is _if and _all_of(args[0], bool):  # no defaults to False
                picks = zip((*flats, repeat(False))[2], flats[1])
                floats = all(map(_all_of, (*args, False)[1:3], repeat(float)))
                return Array(list(map(operator.getitem, picks, flats[0])),
                             shape, float if floats else None)
            return Array(list(map(fn, *flats)), shape)
    shape = (1, 1)
    for a in args:
        shape = V.broadcast_shapes(shape, V.value_shape(a))
        if shape is None:
            return V.VALUE_ERROR
    if shape == (1, 1):
        return fn(*map(V.collapse, args))
    return Array(list(map(fn, *[_flat_of(a, shape) for a in args])), shape)


def _builtin_sum(args):
    """SUM: numbers added left to right, blanks, bools and text skipped,
    the first error returned.  An Array of floats alone is folded by
    reduce, the same additions in the same order without a Python step
    per cell."""
    total = 0.0
    for v in args:
        if isinstance(v, Array) and v.kind is float:
            total = reduce(operator.add, v.flat, total)
            continue
        for s in _scalars(v):
            if isinstance(s, CellError):
                return s
            if s is None or isinstance(s, (bool, str)):
                continue
            total += float(s)
    return total


def _builtin_minmax(args, pick):
    """MIN or MAX (pick is the builtin min or max): the running best kept
    against each number left to right, as SUM skips and fails.  An Array
    of floats alone goes to one call of pick, starting from the best so
    far, which makes the same comparisons in the same order: a nan met
    first stays, a later one is passed over."""
    best = None
    for v in args:
        if isinstance(v, Array) and v.kind is float:
            best = pick(v.flat) if best is None else pick(best, *v.flat)
            continue
        for s in _scalars(v):
            if isinstance(s, CellError):
                return s
            if s is None or isinstance(s, (bool, str)):
                continue
            s = float(s)
            best = s if best is None else pick(best, s)
    return 0.0 if best is None else best


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


def _index_pair(nums, shape):
    """INDEX's (row, col) into a value of shape: a lone index selects along
    a single column or row; None when the value is wider."""
    if len(nums) == 2:
        return nums
    if shape[1] == 1:
        return nums[0], 0
    if shape[0] == 1:
        return 0, nums[0]
    return None


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
        if isinstance(source, RangeValue):
            rng = source.rng
            rows_decl = (state.wb.sheet(rng.sheet).rows
                         if rng.sheet in state.wb.sheets else 1)
            r, c = rng.clamp(rows_decl).shape()
        else:
            src = (source if isinstance(source, Array)
                   else Array([source], (1, 1)))
            r, c = src.shape
        pair = _index_pair(nums, (r, c))
        if pair is None:
            return V.VALUE_ERROR
        row, col = pair
        if row > r or col > c:
            return V.REF_ERROR
        if isinstance(source, RangeValue):
            return RangeValue(rng.index_slice(row, col))
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
    "MAX": lambda st, args: _builtin_minmax(args, max),
    "MIN": lambda st, args: _builtin_minmax(args, min),
    "NOT": lambda st, args: (_broadcast(V.logical_not, *args)
                             if len(args) == 1 else V.VALUE_ERROR),
    "OR": lambda st, args: _bool_reduce(args, lambda a, b: a or b, False),
    "SUM": lambda st, args: _builtin_sum(args),
}
BUILTIN_FUNCTIONS = tuple(_BUILTINS)


def _meet(state, args):
    """The intersection of two references."""
    for v in args:
        if isinstance(v, CellError):
            return v
    a, b = args
    if not isinstance(a, RangeValue) or not isinstance(b, RangeValue):
        return V.VALUE_ERROR
    hit = a.rng.intersect(b.rng)
    return V.NULL_ERROR if hit is None else RangeValue(hit)


# --- whole-array evaluation --------------------------------------------------

# The step kinds of a compiled formula (_compile), run by _run, and the
# steps that are the same wherever they occur, shared by every program.
_CONST, _OWNER, _READ, _NAME, _DEREF, _UNARY, _BINARY, _CALL = range(8)
_BINARY_STEPS = {op: (_BINARY, kernel) for op, kernel in V.BINARY.items()}
_UNARY_STEPS = {Unary: (_UNARY, V.negate), Percent: (_UNARY, V.percent)}
_DEREF_STEP, _MEET_STEP = (_DEREF, None), (_CALL, (_meet, 2))


def _compile(wb: Workbook, e: Expr, ctx_sheet, steps: list, keep_ref=False):
    """Append to steps the program computing e whole, in postfix order,
    with every name resolved.  A reference (RangeValue) stays unread only
    where keep_ref is set: INDEX's and intersection's operands and a
    formula name's result.  Elsewhere a read of exactly one formula
    range's block is its owner's value, and any other range is read."""
    t = type(e)
    if t is Binary:
        _compile(wb, e.lhs, ctx_sheet, steps)
        _compile(wb, e.rhs, ctx_sheet, steps)
        steps.append(_BINARY_STEPS[e.op])
        return
    if t is Unary or t is Percent:
        _compile(wb, e.operand, ctx_sheet, steps)
        steps.append(_UNARY_STEPS[t])
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
        steps.append((_CONST, RangeValue(nd.target)))
    else:
        owners = wb._graph.owners[nd.key()]  # as _plan found them
        w = owners[0] if len(owners) == 1 else None
        if w is not None and (wb.bounded(wb.names[w].target)
                              == wb.bounded(nd.target)):
            steps.append((_OWNER, w))
        else:
            steps.append((_READ, (RangeValue(nd.target), owners)))


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
        elif op == _UNARY:
            push(_broadcast(arg, pop()))
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
        self.formula_cache = formula_cache  # NameKey -> Value | RangeValue
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

    def materialize(self, rv: RangeValue, owners):
        """The cells of a rectangle: plain cells from the sheet, one slice
        per column (a one-column read is that slice), overlaid with the
        blocks of owners, its formula ranges in _sort_key order, one slice
        per row of each overlap.  Evaluation writes no cell, so a rectangle
        with no owners is copied once per evaluate and its value shared
        (values are read-only)."""
        if not owners:
            value = self.plain.get(rv.rng)
            if value is not None:
                return value
        sh = self.wb.sheets.get(rv.rng.sheet)
        if sh is None:
            return V.REF_ERROR
        rng = rv.rng.clamp(sh.rows)
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
            self.plain[rv.rng] = value
        return value


def _deref(state, v):
    if isinstance(v, RangeValue):
        return state.materialize(v, sorted(state.wb.formula_owners(v.rng),
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


# --- per-cell recurrence sweeps ----------------------------------------------

def _run_sweep(state: _EvalState, group: _Group):
    """Sweep a valid group one step at a time in its step order, and
    store each member's value.

    Each member, and each formula name inlined into one, keeps its cells
    as n + 1 step lists: step s holds the cells at position s along the
    sweep axis (a column of a sweep across, a row of a sweep down), and
    the closures take (s, k), the step and the place in it.  Slot n is
    the padding: one materialize of the twin's off-band slice, the cells
    one step past the member, fills it for each member read displaced.
    A read at the first step lands there, at index -1 on a forward sweep
    and at n on a backward one, so no read tests bounds."""
    wb, shapes, refmap = state.wb, state.graph.shapes, group.refmap
    dr, dc = group.direction
    axis = 1 if dc else 0  # the sweep axis; the places run along the other
    n = shapes[group.order[0]][axis]
    # (member, member or inlined name) -> its step lists and the padding
    partial = {(m, k): [None] * (n + 1)
               for m in group.members for k in group.inlined[m] + [m]}
    twins = {}  # member read displaced -> its twin, clamped to its sheet

    def reader(hit, shape):
        """Closure reading a refmap name at a place of a member of shape."""
        w, hr, hc, vrng = hit
        vshape = shapes[w]  # a refmap name has its owner's shape
        if V.broadcast_shapes(vshape, shape) != shape:
            return lambda s, k: V.VALUE_ERROR
        # Place k of step s reads the owner's place k * sk of step s + d:
        # an owner one cell wide across the sweep repeats its one place.
        d, sk = hr + hc, vshape[1 - axis] == shape[1 - axis]
        if d:
            twins.setdefault(w, vrng)
        part = partial[w, w]
        return lambda s, k: part[s + d][k * sk]

    def cell(e, member, ctx_sheet):
        """Closure (s, k) -> the scalar e takes at place k of step s of
        member.  Names are resolved here, once per sweep; IF stays lazy
        per cell."""
        shape = shapes[member]
        if isinstance(e, NameRef):
            nd = wb.resolve(e.name, context=ctx_sheet, qualifier=e.sheet)
            key = None if nd is None else nd.key()
            part = partial.get((member, key))  # an inlined formula name
            if part is not None:
                return lambda s, k: part[s][k]
            hit = refmap.get(key)
            if hit is not None:
                return reader(hit, shape)
        elif isinstance(e, (Unary, Percent)):
            fn = V.negate if isinstance(e, Unary) else V.percent
            operand = cell(e.operand, member, ctx_sheet)
            return lambda s, k: fn(operand(s, k))
        elif isinstance(e, Binary):
            lhs = cell(e.lhs, member, ctx_sheet)
            rhs = cell(e.rhs, member, ctx_sheet)
            kernel = V.BINARY[e.op]
            return lambda s, k: kernel(lhs(s, k), rhs(s, k))
        elif isinstance(e, Call) and e.func == "IF" and len(e.args) in (2, 3):
            cond, yes, *no = [cell(a, member, ctx_sheet) for a in e.args]
            no = no[0] if no else (lambda s, k: False)

            def pick(s, k):
                t = cond(s, k)
                if type(t) is not bool:
                    t = V.to_bool(t)
                    if isinstance(t, CellError):
                        return t
                return yes(s, k) if t else no(s, k)
            return pick
        # Literals, other names, aggregations, gathers and intersections are
        # constant across the sweep, so compute them whole once and index in.
        steps = []
        _compile(wb, e, ctx_sheet, steps)
        value = _run(state, steps)
        if isinstance(value, Array):
            if V.broadcast_shapes(value.shape, shape) != shape:
                value = V.VALUE_ERROR
            else:
                # By step.  A value one place wide lists one cell per
                # step; one step long, it repeats its one step object.
                flat, cols, m = value.flat, value.shape[1], shape[1 - axis]
                if value.shape[1 - axis] < m:
                    laid = [[x] * m for x in flat]
                else:  # its columns, or its rows
                    laid = ([flat[t::cols] for t in range(cols)] if axis
                            else value.cells)
                laid *= n // len(laid)
                return lambda s, k: laid[s][k]
        return lambda s, k: value

    plan = []
    for m in group.order:
        for k in group.inlined[m] + [m]:
            nd = wb.names[k]
            plan.append((cell(nd.formula, m, wb.context_sheet(nd)),
                         partial[m, k], range(shapes[m][1 - axis])))
    del cell  # it holds itself in its closure; free it now, not at a gc run
    for w, vrng in twins.items():
        # The twin's first column or row on a forward sweep, else its last.
        t = 1 if dr + dc < 0 else n
        edge = vrng.index_slice(*((0, t) if axis else (t, 0)))
        partial[w, w][n] = _flat_of(_deref(state, RangeValue(edge)),
                                    edge.shape())
    for s in (range(n) if dr + dc < 0 else range(n - 1, -1, -1)):
        for fill, part, places in plan:
            step = [None] * len(places)
            for k in places:
                step[k] = fill(s, k)
            part[s] = step
    for m in group.members:
        steps = partial[m, m]
        del steps[n]  # the padding
        state.computed[m] = Array(list(chain.from_iterable(
            zip(*steps) if axis else steps)), shapes[m])


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
            store[key] = state.materialize(RangeValue(nd.target),
                                           graph.owners[key])
    graph.kept = (store, state.formula_cache)
    wb._written = []
    return ValueStore(dict(store), graph.display)
