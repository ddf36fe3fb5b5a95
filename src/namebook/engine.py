"""Evaluation: dependency graph, scheduling, array semantics.

Every range name with a formula evaluates that single formula once as an
array formula, broadcast over its rectangle.  The interesting case is a
recurrence: a formula that reads a displaced copy of the range it is being
computed into (the "←" idiom).  Such names cannot be computed whole; they
are swept cell by cell in the direction that makes each displaced
predecessor available, and any names entangled with them through same-shape
displaced reads are swept together in the same pass.

A sweep compiles each member's formula once into a closure over the cell
position (_compile_cell): names are resolved, reads of the members
become index closures, and every part constant across the sweep is
evaluated whole once and indexed.  A formula name that reads a member is
filled into rows of its own just before its reader at each step, so
chains and diamonds of such names cost one closure call per name per
cell.  The whole-array path stays an interpreter, since it runs each
formula only once per evaluate and compiling it would save nothing.
Both paths apply the same operator kernels (values.BINARY).

There is one dependency graph (build_dep_graph / topo_order), and it is
syntactic: edges mirror names_referenced over the defining formulas, with
the subset whose target is a displaced overlapping copy of the referencing
name's own range classified as recurrence edges.  The workbook keeps it
until its name table changes, so rebuild's closed-world check, evaluate()
and the audit views share one walk of each formula.  evaluate() refuses
cycles on it, and there is one read analysis over it, the planner's
(_plan): one table of who owns the cells each formula reads, seen
through formula names and Workbook.formula_owners (the index that also
serves every range read).  Groups, their order, each refusal or sweep
direction, and what each sweep reads of its own members all come from
that table, which is what makes cross-name recurrences (interest on a
prior balance feeding the balance itself) come out in the right order.
The plan, the ordered groups, is kept with the graph, so only a change
to the name table makes evaluate() plan again; a cell edit does not.

So are the last values.  While they are kept, Workbook.set_cell and
fill_block record the rectangles they write, and the next evaluate()
recomputes only the names those reach: each name whose rectangle holds
a written cell, and downstream of it every name that references it or,
for a formula range, lays an input name over its cells (_stale).  The
stale groups run in plan order; every other value is the kept one.  A
full evaluation is the same pass with every name stale.  This is the
dirty-bit rebuild of Mokhov, Mitchell and Peyton Jones, "Build Systems
a la Carte" (ICFP 2018), over the support graph of Sestoft,
"Spreadsheet Implementation Technology" (2014).
"""

from __future__ import annotations

import heapq

from . import values as V
from .formula import (BoolLit, Call, CellRef, Expr, Intersect, NameRef,
                      NumberLit, Percent, TextLit, Unary, Binary,
                      names_referenced)
from .values import Array, CellError, Record
from .workbook import FORMULA, GridRange, NameDef, RefError, Workbook

NameKey = tuple  # (scope | None, identifier)


class CycleError(Exception):
    """Raised by topo_order for a strongly connected component of names."""

    def __init__(self, members):
        self.members = tuple(sorted(members))
        super().__init__("cycle through {%s}" % ", ".join(self.members))


class DepGraph(Record):
    _fields = ("nodes", "edges", "recurrence", "unresolved", "display")
    # evaluate's state, filled in on first use, is left out of == and repr
    __slots__ = _fields + ("plan", "readers", "kept")
    def __init__(self, nodes, edges, recurrence, unresolved, display):
        self.nodes = nodes
        self.edges = edges            # NameKey -> tuple of NameKey, sorted
        self.recurrence = recurrence  # subset of (u, v) edges that are displaced self-reads
        self.unresolved = unresolved  # NameKey -> tuple of reference texts with no definition
        self.display = display        # NameKey -> display text
        self.plan = None     # the ordered _Groups, once planned
        self.readers = None  # NameKey -> the names whose values read its value
        self.kept = None     # the last evaluate's (values, formula names' values)


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
    edges = {}
    recurrence = set()
    unresolved = {}
    display = {key: nd.display() for key, nd in wb.names.items()}
    for key, nd in wb.names.items():
        if nd.formula is None:
            edges[key] = ()
            continue
        ctx = wb.context_sheet(nd)
        targets = set()
        missing = []
        for qual, ident in sorted(names_referenced(nd.formula),
                                  key=lambda p: (p[1], p[0] or "")):
            hit = wb.resolve(ident, context=ctx, qualifier=qual)
            if hit is None:
                missing.append(("%s!%s" % (qual, ident)) if qual else ident)
            else:
                targets.add(hit.key())
        edges[key] = tuple(sorted(targets, key=_sort_key))
        if missing:
            unresolved[key] = tuple(missing)
        if nd.target is not None:
            recurrence.update((key, t) for t in edges[key]
                              if _shift_between(nd, wb.names[t]))
    nodes = tuple(sorted(wb.names.keys(), key=_sort_key))
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
    adj = {k: sorted((v for v in deps[k] if v in stuck_set), key=_sort_key)
           for k in stuck}
    comps = _tarjan(sorted(stuck, key=_sort_key), adj)
    cyclic = [c for c in comps if len(c) > 1 or c[0] in adj[c[0]]]
    return min(cyclic, key=lambda c: min(_sort_key(k) for k in c))


def _tarjan(nodes, adj):
    """Strongly connected components, iterative so deep chains don't recurse."""
    index = {}
    low = {}
    on_stack = {}
    stack = []
    counter = [0]
    comps = []

    def connect(root):
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(sorted(adj[root], key=_sort_key)))]
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(adj[w], key=_sort_key))))
                    advanced = True
                    break
                elif on_stack.get(w):
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                comps.append(sorted(comp, key=_sort_key))

    for v in nodes:
        if v not in index:
            connect(v)
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
        for v in self.values.values():
            for s in _iter_scalars(v):
                if isinstance(s, CellError):
                    return True
        return False

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

    The read table holds, per formula range u, one (read, owner, shift)
    entry for each owner (Workbook.formula_owners) of each range name u
    reads through formula names.  The shift is (0, 0) for an aligned
    read, the one-cell step of a displaced read a sweep can order, or
    None for any other read, which needs its owner whole first.  Groups
    are the strongly connected components of reader -> owner, owners
    first, the least first member leading among those ready."""
    fkeys = sorted((nd.key() for nd in wb.formula_bearing()), key=_sort_key)
    table = {}
    entered = {}  # formula range -> the formula names it reads, post-order
    for u in fkeys:
        reads, walked = _through_formulas(wb, graph, u)
        entered[u] = walked[:-1]  # u itself comes last
        row = table[u] = []
        for v in reads:
            for w in sorted(wb.formula_owners(v.target), key=_sort_key):
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
    extents = {wb.bounded(wb.names[m].target).shape()[axis] for m in members}
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

BUILTIN_FUNCTIONS = ("AND", "IF", "INDEX", "LOOKUP", "MATCH", "MAX", "MIN",
                     "NOT", "OR", "SUM")


def _iter_scalars(v):
    if isinstance(v, Array):
        for row in v.cells:
            yield from row
    else:
        yield v


def _rows_of(v, shape):
    """v laid out as rows of shape: a scalar, single row or single column
    repeats along the missing axis.  v must conform to shape."""
    rows, cols = shape
    if not isinstance(v, Array):
        return [[v] * cols] * rows
    cells = v.cells
    if len(cells[0]) != cols:
        cells = [row * cols for row in cells]
    return cells if len(cells) == rows else cells * rows


def _broadcast(fn, *args):
    """fn applied across args broadcast to one shape; #VALUE! when the
    shapes do not conform, a scalar when they are all 1x1."""
    shape = (1, 1)
    for a in args:
        shape = V.broadcast_shapes(shape, V.value_shape(a))
        if shape is None:
            return V.VALUE_ERROR
    if shape == (1, 1):
        return fn(*map(V.collapse, args))
    laid_out = [_rows_of(a, shape) for a in args]
    return Array([list(map(fn, *row)) for row in zip(*laid_out)])


def _builtin_sum(args):
    total = 0.0
    for v in args:
        for s in _iter_scalars(v):
            if isinstance(s, CellError):
                return s
            if s is None or isinstance(s, (bool, str)):
                continue
            total += float(s)
    return total


def _builtin_minmax(args, pick):
    best = None
    for v in args:
        for s in _iter_scalars(v):
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
    """(position, scalar) pairs of a single-row or single-column value."""
    if not isinstance(v, Array):
        return [(1, v)]
    r, c = v.shape
    if r != 1 and c != 1:
        return None
    out = []
    pos = 0
    for row in v.cells:
        for s in row:
            pos += 1
            out.append((pos, s))
    return out


def _match_scalar(key, vector, exact):
    """Position of key in vector.  Blank slots are skipped but still count
    toward the position.  exact picks the first equal element; otherwise
    the last element <= key over ascending data wins.  No hit is #VALUE!."""
    if isinstance(key, CellError):
        return key
    best = None
    for pos, s in vector:
        if s is None:
            continue
        if isinstance(s, CellError):
            return s
        if exact:
            eq = V.BINARY["="](key, s)
            if isinstance(eq, CellError):
                return eq
            if eq:
                return float(pos)
        else:
            same_class = (isinstance(s, bool) == isinstance(key, bool)
                          and isinstance(s, str) == isinstance(key, str))
            if not same_class:
                continue
            le = V.BINARY["<="](s, key)
            if isinstance(le, CellError):
                return le
            if le:
                best = float(pos)
    if best is None:
        return V.VALUE_ERROR
    return best


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
    return _broadcast(lambda k: _match_scalar(k, vector, exact), args[0])


def _builtin_lookup(args):
    if len(args) != 3:
        return V.VALUE_ERROR
    vector = _as_vector(args[1])
    result = _as_vector(args[2])
    if vector is None or result is None:
        return V.VALUE_ERROR
    by_pos = dict(result)

    def one(k):
        pos = _match_scalar(k, vector, exact=False)
        if isinstance(pos, CellError):
            return pos
        if int(pos) not in by_pos:
            return V.REF_ERROR
        return by_pos[int(pos)]

    return _broadcast(one, args[0])


def _index_int(s):
    n = V.to_number(s)
    if isinstance(n, CellError):
        return n
    if n < 0:
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
            pair = _index_pair(nums, rng.clamp(rows_decl).shape())
            if pair is None:
                return V.VALUE_ERROR
            try:
                return RangeValue(rng.index_slice(*pair))
            except RefError:
                return V.REF_ERROR
        src = source if isinstance(source, Array) else Array([[source]])
        r, c = src.shape
        pair = _index_pair(nums, (r, c))
        if pair is None:
            return V.VALUE_ERROR
        row, col = pair
        if row > r or col > c:
            return V.REF_ERROR
        rows = range(r) if row == 0 else [row - 1]
        cols = range(c) if col == 0 else [col - 1]
        out = [[src.cells[i][j] for j in cols] for i in rows]
        if len(out) == 1 and len(out[0]) == 1:
            return out[0][0]
        return Array(out)

    # Array indices gather elementwise; a whole-axis 0 has no meaning here.
    src = _deref(state, source)
    if isinstance(src, CellError):
        return src
    if not isinstance(src, Array):
        src = Array([[src]])
    r, c = src.shape
    if len(idx_args) == 1:
        if c == 1:
            row_idx, col_idx = idx_args[0], 1.0
        else:
            row_idx, col_idx = 1.0, idx_args[0]
    else:
        row_idx, col_idx = idx_args

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
        return src.cells[i - 1][j - 1]

    return _broadcast(gather, row_idx, col_idx)


def _bool_reduce(args, fold, seed):
    acc = seed
    seen = False
    for v in args:
        for s in _iter_scalars(v):
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


# --- whole-array evaluation --------------------------------------------------

class _EvalState:
    def __init__(self, wb: Workbook, graph: DepGraph, computed,
                 formula_cache):
        self.wb = wb
        self.graph = graph
        self.computed = computed            # NameKey -> Value, read for formula ranges
        self.formula_cache = formula_cache  # NameKey -> Value | RangeValue
        self.in_progress = set()

    def ensure_computed(self, key):
        if key in self.computed:
            return self.computed[key]
        # The schedule normally precomputes every owner; this on-demand
        # path answers reads of a range still being swept, which can only
        # be an unorderable read and so collapses to the cycle error.
        if key in self.in_progress:
            return V.CYCLE_ERROR
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
                nd = self.wb.names[k]
                self.formula_cache[k] = _eval_expr(self, nd.formula,
                                                   self.wb.context_sheet(nd))
        return self.formula_cache[key]

    def materialize(self, rv: RangeValue):
        """The cells of a rectangle: plain cells from the sheet, overlaid
        with the blocks of the formula ranges that own any of them."""
        sh = self.wb.sheets.get(rv.rng.sheet)
        if sh is None:
            return V.REF_ERROR
        rng = rv.rng.clamp(sh.rows)
        r0, c0 = rng.row_start, rng.col_start
        cols = range(c0, rng.col_end + 1)
        rows = [[sh.cells.get((r, c)) for c in cols]
                for r in range(r0, rng.row_end + 1)]
        for okey in sorted(self.wb.formula_owners(rng), key=_sort_key):
            value = self.ensure_computed(okey)
            own = self.wb.names[okey].target.clamp(sh.rows)
            block = _rows_of(value, own.shape())
            hit = own.intersect(rng)
            lo, hi = hit.col_start - own.col_start, hit.col_end - own.col_start
            for r in range(hit.row_start, hit.row_end + 1):
                rows[r - r0][hit.col_start - c0:hit.col_end - c0 + 1] = \
                    block[r - own.row_start][lo:hi + 1]
        if len(rows) == 1 and len(rows[0]) == 1:
            return rows[0][0]
        return Array(rows)


def _deref(state, v):
    if isinstance(v, RangeValue):
        return state.materialize(v)
    return v


def _eval_call(state, func, raw_args, ctx_sheet):
    if func not in BUILTIN_FUNCTIONS:
        return V.NAME_ERROR
    args = [_eval_expr(state, a, ctx_sheet) for a in raw_args]
    if func == "INDEX":
        return _builtin_index(state, args)
    args = [_deref(state, a) for a in args]
    if func == "IF":
        if len(args) not in (2, 3):
            return V.VALUE_ERROR
        return _broadcast(_if, *args)
    if func == "SUM":
        return _builtin_sum(args)
    if func == "MIN":
        return _builtin_minmax(args, min)
    if func == "MAX":
        return _builtin_minmax(args, max)
    if func == "MATCH":
        return _builtin_match(args)
    if func == "LOOKUP":
        return _builtin_lookup(args)
    if func == "AND":
        return _bool_reduce(args, lambda a, b: a and b, True)
    if func == "OR":
        return _bool_reduce(args, lambda a, b: a or b, False)
    if len(args) != 1:  # NOT
        return V.VALUE_ERROR
    return _broadcast(V.logical_not, args[0])


def _eval_expr(state: _EvalState, e: Expr, ctx_sheet):
    """Whole-array evaluation; may yield a RangeValue for reference results."""
    if isinstance(e, (NumberLit, TextLit, BoolLit)):
        return e.value
    if isinstance(e, CellRef):
        return V.REF_ERROR
    if isinstance(e, NameRef):
        nd = state.wb.resolve(e.name, context=ctx_sheet, qualifier=e.sheet)
        if nd is None:
            return V.NAME_ERROR
        if nd.kind == FORMULA:
            return state.formula_value(nd.key())
        if nd.target is None:
            return V.REF_ERROR
        return RangeValue(nd.target)
    if isinstance(e, (Unary, Percent)):
        v = _deref(state, _eval_expr(state, e.operand, ctx_sheet))
        return _broadcast(V.negate if type(e) is Unary else V.percent, v)
    if isinstance(e, Binary):
        a = _deref(state, _eval_expr(state, e.lhs, ctx_sheet))
        b = _deref(state, _eval_expr(state, e.rhs, ctx_sheet))
        return _broadcast(V.BINARY[e.op], a, b)
    if isinstance(e, Intersect):
        a = _eval_expr(state, e.lhs, ctx_sheet)
        b = _eval_expr(state, e.rhs, ctx_sheet)
        for v in (a, b):
            if isinstance(v, CellError):
                return v
        if not isinstance(a, RangeValue) or not isinstance(b, RangeValue):
            return V.VALUE_ERROR
        hit = a.rng.intersect(b.rng)
        if hit is None:
            return V.NULL_ERROR
        return RangeValue(hit)
    if isinstance(e, Call):
        return _eval_call(state, e.func, e.args, ctx_sheet)
    raise TypeError("not an expression: %r" % (e,))


def _expand_to_shape(value, shape):
    """Broadcast a computed value over the owning rectangle."""
    if shape == (1, 1):
        out = V.collapse(value)
        return V.VALUE_ERROR if isinstance(out, Array) else out
    if V.broadcast_shapes(V.value_shape(value), shape) != shape:
        value = V.VALUE_ERROR
    return Array(_rows_of(value, shape))


def _eval_whole_name(state: _EvalState, nd: NameDef):
    shape = state.wb.bounded(nd.target).shape()
    raw = _deref(state, _eval_expr(state, nd.formula, state.wb.context_sheet(nd)))
    return _expand_to_shape(raw, shape)


# --- per-cell recurrence sweeps ----------------------------------------------

class _SweepContext:
    """Shared state for the members of one co-swept recurrence group.

    Reads through the plan's refmap (see _Group) index the rows being
    built.  Each member formula is compiled once per sweep (_compile_cell)
    into a closure over the cell position.  Everything in it that is
    constant across the sweep is computed whole once, at compile time, and
    indexed per cell: plain range names, aggregates, gathers,
    intersections, and the formula names whose reads reach no refmap name.
    Each of the plan's inlined formula names has rows of its own per
    member, filled at every step just before its reader's, so a read of it
    is an aligned read of those rows and no closure calls another's.
    """

    def __init__(self, state: _EvalState, group: _Group):
        self.state = state
        self.refmap = group.refmap
        self.partial = {}  # (member, member or inlined name) -> its rows
        self.shapes = {}
        for m in group.members:
            shape = state.wb.bounded(state.wb.names[m].target).shape()
            self.shapes[m] = shape
            for k in group.inlined[m] + [m]:
                self.partial[m, k] = [[None] * shape[1]
                                      for _ in range(shape[0])]

    def reader(self, hit, shape):
        """Closure reading a refmap name at a cell of a member of shape."""
        w, dr, dc, vrng = hit
        vshape = vrng.shape()
        if V.broadcast_shapes(vshape, shape) != shape:
            return _const(V.VALUE_ERROR)
        # A cell (i, j) reads (i * si, j * sj): the read runs along an axis
        # it shares with the member and repeats its one row or column.
        si, sj = vshape[0] == shape[0], vshape[1] == shape[1]
        part = self.partial[w, w]
        rows, cols = self.shapes[w]
        materialize = self.state.materialize

        def read(i, j):
            vi, vj = i * si, j * sj
            ti, tj = vi + dr, vj + dc
            if 0 <= ti < rows and 0 <= tj < cols:
                return part[ti][tj]
            # The slice of the band hanging past the swept range holds
            # plain sheet cells; read them directly.
            row, col = vrng.row_start + vi, vrng.col_start + vj
            return materialize(RangeValue(
                GridRange(vrng.sheet, col, col, row, row)))
        return read


def _const(value):
    return lambda i, j: value


def _indexer(value, shape):
    """Closure giving a sweep-constant value's scalar at a cell of shape."""
    if not isinstance(value, Array):
        return _const(value)
    if V.broadcast_shapes(value.shape, shape) != shape:
        return _const(V.VALUE_ERROR)
    rows = _rows_of(value, shape)
    return lambda i, j: rows[i][j]


def _compile_cell(swp: _SweepContext, e: Expr, member, ctx_sheet):
    """Closure (i, j) -> the scalar e takes at cell (i, j) of member.

    Names are resolved here, once per sweep; IF stays lazy per cell."""
    state = swp.state
    shape = swp.shapes[member]
    if isinstance(e, (NumberLit, TextLit, BoolLit)):
        return _const(e.value)
    if isinstance(e, CellRef):
        return _const(V.REF_ERROR)
    if isinstance(e, NameRef):
        nd = state.wb.resolve(e.name, context=ctx_sheet, qualifier=e.sheet)
        if nd is None:
            return _const(V.NAME_ERROR)
        if nd.kind == FORMULA:
            part = swp.partial.get((member, nd.key()))
            if part is not None:
                return lambda i, j: part[i][j]
            return _indexer(_deref(state, state.formula_value(nd.key())),
                            shape)
        if nd.target is None:
            return _const(V.REF_ERROR)
        hit = swp.refmap.get(nd.key())
        if hit is not None:
            return swp.reader(hit, shape)
    elif isinstance(e, (Unary, Percent)):
        fn = V.negate if isinstance(e, Unary) else V.percent
        operand = _compile_cell(swp, e.operand, member, ctx_sheet)
        return lambda i, j: fn(operand(i, j))
    elif isinstance(e, Binary):
        lhs = _compile_cell(swp, e.lhs, member, ctx_sheet)
        rhs = _compile_cell(swp, e.rhs, member, ctx_sheet)
        kernel = V.BINARY[e.op]
        return lambda i, j: kernel(lhs(i, j), rhs(i, j))
    elif isinstance(e, Call) and e.func == "IF" and len(e.args) in (2, 3):
        cond, yes, *no = [_compile_cell(swp, a, member, ctx_sheet)
                          for a in e.args]
        no = no[0] if no else _const(False)

        def pick(i, j):
            t = cond(i, j)
            if type(t) is not bool:
                t = V.to_bool(t)
                if isinstance(t, CellError):
                    return t
            return yes(i, j) if t else no(i, j)
        return pick
    # Plain range names, aggregations, gathers and intersections read
    # whole ranges; those are constant across the sweep, so compute once
    # and index in.
    return _indexer(_deref(state, _eval_expr(state, e, ctx_sheet)), shape)


def _run_sweep(state: _EvalState, group: _Group):
    wb = state.wb
    swp = _SweepContext(state, group)
    dr, dc = group.direction
    plan = []
    for m in group.order:
        for k in group.inlined[m] + [m]:
            nd = wb.names[k]
            plan.append((_compile_cell(swp, nd.formula, m,
                                       wb.context_sheet(nd)),
                         swp.partial[m, k], swp.shapes[m]))
    first = swp.shapes[group.order[0]]
    if dc != 0:
        for j in (range(first[1]) if dc < 0 else range(first[1] - 1, -1, -1)):
            for cell, part, (rows, _) in plan:
                for i in range(rows):
                    part[i][j] = cell(i, j)
    else:
        for i in (range(first[0]) if dr < 0 else range(first[0] - 1, -1, -1)):
            for cell, part, (_, cols) in plan:
                row = part[i]
                for j in range(cols):
                    row[j] = cell(i, j)
    for m in group.members:
        cells = swp.partial[m, m]
        if len(cells) == 1 and len(cells[0]) == 1:
            state.computed[m] = cells[0][0]
        else:
            state.computed[m] = Array(cells)


def _readers(wb: Workbook, graph: DepGraph) -> dict:
    """NameKey -> the names whose values read its value: the names that
    reference it (graph.edges reversed) and, for a formula range, the
    input names laid over its cells.  Every read of a formula range's
    cells, the planner's read table included, names it or such an input,
    so these edges reach every reader."""
    readers = {}
    for u, targets in graph.edges.items():
        for v in targets:
            readers.setdefault(v, []).append(u)
    for nd in wb.input_ranges():
        for w in wb.formula_owners(nd.target):
            readers.setdefault(w, []).append(nd.key())
    return readers


def _stale(wb: Workbook, graph: DepGraph) -> set:
    """The names evaluate must compute: all of them when no values are
    kept; else those whose rectangle holds a cell written since the
    values were kept, and every name downstream of them (graph.readers)."""
    if graph.kept is None:
        return set(graph.nodes)
    stale = set()
    for sheet, r1, r2, c1, c2 in set(wb._written):
        for key, nd in wb.names.items():
            t = nd.target
            if (t is not None and t.sheet == sheet and t.col_start <= c2
                    and c1 <= t.col_end and (t.row_start is None or (
                        t.row_start <= r2 and r1 <= t.row_end))):
                stale.add(key)
    if graph.readers is None:
        graph.readers = _readers(wb, graph)
    todo = list(stale)
    while todo:
        for k in graph.readers.get(todo.pop(), ()):
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
                shape = wb.bounded(wb.names[m].target).shape()
                state.computed[m] = _expand_to_shape(V.CYCLE_ERROR, shape)
        elif group.direction is not None:
            _run_sweep(state, group)
        else:
            key = group.members[0]
            state.computed[key] = _eval_whole_name(state, wb.names[key])

    store = {}
    display = {}
    for key in graph.nodes:
        nd = wb.names[key]
        display[key] = nd.display()
        if key not in stale:
            store[key] = kept[key]
        elif nd.kind == FORMULA:
            store[key] = _deref(state, state.formula_value(key))
        elif nd.target is None:
            store[key] = V.REF_ERROR
        elif nd.formula is not None:
            store[key] = state.ensure_computed(key)
        else:
            store[key] = state.materialize(RangeValue(nd.target))
    graph.kept = (store, state.formula_cache)
    wb._written = []
    return ValueStore(dict(store), display)
