"""The benchmark's four workloads, each a seeded list of documents.

Every document comes with the values each of its names must take, in
two states: as written, and after the edit that the *recalc* action
applies.  The expected values never come from the engine under test.
Generated documents are computed by plain loops that perform the same
float operations in the same order as their formulas; the committed
fixtures are computed by the cell-at-a-time interpreter in
tests/oracle.py and cross-checked against its closed-form loops.

Sizes are smaller than the defects they expose would like: one round of
the five timed actions must stay under a second on an idle 2-core host,
so that each action gets enough samples for a tail percentile within
one run.  `scale` shrinks a generated book for the traced run's
half-size pass.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from docs import DocWriter, Rect, read_doc


@dataclass
class Doc:
    name: str
    text: str
    states: list     # [as written, after edits[0]]: display -> grid
    edits: list      # [steps into state 1, steps back into state 0]
    focus: str       # display of the name `audit graph` centres on


def _set(sheet, row, col, value):
    return {"op": "set_cell", "sheet": sheet, "row": row, "col": col,
            "value": value}


# --- sweep: a loan book of co-swept recurrences ------------------------------

SWEEP_ROWS, SWEEP_PERIODS = 12, 40


def _loan_values(amount, rate, principal, periods):
    """balance, interest and service for one loan, as the formulas sweep."""
    bal, intr, svc = [amount], [0.0], [0.0]
    for _ in range(1, periods):
        prev = bal[-1]
        it = prev * rate
        sv = it + principal
        intr.append(it)
        svc.append(sv)
        bal.append(prev + it - sv)
    return bal, intr, svc


def _sweep_values(amount, rate, principal, periods):
    loans = [_loan_values(a, r, p, periods)
             for a, r, p in zip(amount, rate, principal)]
    total = 0.0
    for _, intr, _ in loans:
        for v in intr:
            total += v
    return {
        "balance": [b for b, _, _ in loans],
        "interest": [i for _, i, _ in loans],
        "service": [s for _, _, s in loans],
        "←balance": [[None] + b[:-1] for b, _, _ in loans],
        "first.period?": [[True] + [False] * (periods - 1)],
        "loan.amount": [[a] for a in amount],
        "loan.rate": [[r] for r in rate],
        "loan.principal": [[p] for p in principal],
        "total.interest": [[total]],
    }


def sweep(seed: int, scale: float = 1.0):
    rng = random.Random(seed)
    n, periods = max(1, round(SWEEP_ROWS * scale)), SWEEP_PERIODS
    amount = [float(rng.randrange(10, 1000) * 100) for _ in range(n)]
    rate = [rng.randrange(1, 120) / 1000 for _ in range(n)]
    principal = [round(a / periods, 2) for a in amount]
    rb, ri, rs = 6, 7 + n, 8 + 2 * n          # first rows of the three bands
    last = 6 + periods
    w = DocWriter()
    w.sheet("book", rs + n - 1, last)

    def band(r):
        return Rect("book", 7, last, r, r + n - 1)

    first = "IF(first.period?, "
    w.range("balance", band(rb), first +
            "loan.amount, ←balance + interest - service)")
    w.range("←balance", Rect("book", 6, last - 1, rb, rb + n - 1),
            derive=("balance", 0, -1))
    w.range("interest", band(ri), first + "0, ←balance * loan.rate)")
    w.range("service", band(rs), first + "0, interest + loan.principal)")
    w.range("first.period?", Rect("book", 7, last, 2, 2),
            data=[[True] + [False] * (periods - 1)])
    for col, ident, vals in ((2, "loan.amount", amount),
                             (3, "loan.rate", rate),
                             (4, "loan.principal", principal)):
        w.range(ident, Rect("book", col, col, rb, rb + n - 1),
                data=[[v] for v in vals])
    w.formula("total.interest", "SUM(interest)")

    row = rng.randrange(n)
    edited = list(rate)
    edited[row] = rng.randrange(1, 120) / 1000 + 0.0005
    return [Doc("sweep.nsdoc", w.text(),
                [_sweep_values(amount, rate, principal, periods),
                 _sweep_values(amount, edited, principal, periods)],
                [[_set("book", rb + row, 3, edited[row])],
                 [_set("book", rb + row, 3, rate[row])]],
                "interest")]


# --- chain: a long DAG of small array names ----------------------------------

CHAIN_LINKS = 320
CHAIN_SHEETS = ("alpha", "beta", "gamma", "delta")
CHAIN_WIDTH = 8


def _chain_values(root, links):
    scale = 0.0
    for v in root:
        scale += v
    scale = scale / 8
    vals = {"chain.root": root}
    for display, refs, tail in links:
        cols = []
        for j in range(CHAIN_WIDTH):
            xs = [vals[r][j] for r in refs]
            acc = xs[0]
            for x in xs[1:]:
                acc = acc + x
            if len(xs) > 1:
                acc = acc / len(xs)
            cols.append(acc + (scale if tail == "chain.scale" else 1.0))
        vals[display] = cols
    out = {k: [v] for k, v in vals.items()}
    out["chain.scale"] = [[scale]]
    return out


def chain(seed: int, scale: float = 1.0):
    rng = random.Random(seed)
    n = max(4, round(CHAIN_LINKS * scale))
    rows = n // len(CHAIN_SHEETS) + 2
    w = DocWriter()
    for s in CHAIN_SHEETS:
        w.sheet(s, rows, CHAIN_WIDTH)
    root = [float(rng.randrange(1, 1000)) for _ in range(CHAIN_WIDTH)]
    w.range("chain.root", Rect("alpha", 1, CHAIN_WIDTH, 1, 1), data=[root])
    w.formula("chain.scale", "SUM(chain.root) / 8")
    displays = ["chain.root"]
    links = []
    for i in range(1, n + 1):
        sheet = CHAIN_SHEETS[i % len(CHAIN_SHEETS)]
        ident = "link.%04d" % i
        scope = sheet if i % 10 == 0 else None
        # The predecessor plus 0-2 earlier names, in a fixed pattern so
        # that every seed builds a book of the same cost.
        refs = [displays[-1]] + rng.sample(displays[:-1],
                                           (0, 0, 1, 2)[i % 4])
        tail = "chain.scale" if i % 5 == 0 else "1"
        body = " + ".join(refs)
        if len(refs) > 1:
            body = "(%s) / %d" % (body, len(refs))
        row = i // len(CHAIN_SHEETS) + 2
        w.range(ident, Rect(sheet, 1, CHAIN_WIDTH, row, row),
                "%s + %s" % (body, tail), scope=scope)
        display = "%s!%s" % (scope, ident) if scope else ident
        links.append((display, refs, tail))
        displays.append(display)

    edited = list(root)
    col = rng.randrange(CHAIN_WIDTH)
    edited[col] = root[col] + 0.25
    return [Doc("chain.nsdoc", w.text(),
                [_chain_values(root, links), _chain_values(edited, links)],
                [[_set("alpha", 1, col + 1, edited[col])],
                 [_set("alpha", 1, col + 1, root[col])]],
                links[n // 2][0])]


# --- bands: independent whole-column modules ---------------------------------

BAND_ROWS = 800
BAND_SHEETS = ("band.a", "band.b", "band.c", "band.d")


def _band_values(ident, inputs):
    dbl = [x * 2 + 1 for x in inputs]
    kept = [d if d > 100 else 0.0 for d in dbl]
    total = 0.0
    for v in kept:
        total += v
    return {ident + ".input": [[x] for x in inputs],
            ident + ".double": [[d] for d in dbl],
            ident + ".kept": [[k] for k in kept],
            ident + ".total": [[total]]}


def bands(seed: int, scale: float = 1.0):
    rng = random.Random(seed)
    rows = max(2, round(BAND_ROWS * scale))
    w = DocWriter()
    inputs = []
    for k, sheet in enumerate(BAND_SHEETS):
        w.sheet(sheet, rows, 3)
        ident = "mod%d" % k
        xs = [rng.randrange(0, 400) / 4 for _ in range(rows)]
        inputs.append(xs)
        w.range(ident + ".input", Rect(sheet, 1, 1), data=[[x] for x in xs])
        w.range(ident + ".double", Rect(sheet, 2, 2), ident + ".input * 2 + 1")
        w.range(ident + ".kept", Rect(sheet, 3, 3),
                "IF(%s.double > 100, %s.double, 0)" % (ident, ident))
        w.formula(ident + ".total", "SUM(%s.kept)" % ident)

    def values(ins):
        out = {}
        for k, xs in enumerate(ins):
            out.update(_band_values("mod%d" % k, xs))
        return out

    row = rng.randrange(rows)
    edited = [list(xs) for xs in inputs]
    edited[0][row] = 100.0 - inputs[0][row]
    return [Doc("bands.nsdoc", w.text(), [values(inputs), values(edited)],
                [[_set(BAND_SHEETS[0], row + 1, 1, edited[0][row])],
                 [_set(BAND_SHEETS[0], row + 1, 1, inputs[0][row])]],
                "mod0.kept")]


# --- fixtures: the committed real-world workbooks ----------------------------

FIXTURES = ("fixtureA", "fixtureB", "fixtureC")
# The fixtures cannot be halved; for the traced run's `.growth` this pair
# stands in, with 46% of the three documents' bytes.
HALF_FIXTURES = ("fixtureB", "fixtureC")
FOCUS = {"fixtureA": "revenue", "fixtureB": "mergeRoutine!value",
         "fixtureC": "debt.balance"}


def _oracle_state(wb, model):
    from oracle import oracle_evaluate
    out = {}
    for key, v in oracle_evaluate(wb).items():
        out[model.names[key].display] = (
            [list(r) for r in v.cells] if hasattr(v, "cells") else [[v]])
    return out


def _column(model, rect):
    return [model.cells[(rect.sheet, r, rect.c1)]
            for r in range(rect.r1, rect.r2 + 1)
            if (rect.sheet, r, rect.c1) in model.cells]


def _fixture_edits(name, model, rng):
    """Edits that go to state 1 and back, and the closed-form loop that
    state 1 must also satisfy."""
    from oracle import amortization_schedule, merged_lists
    names = {n.display: n for n in model.names.values()}
    if name == "fixtureB":
        def bind(a, b):
            return [{"op": "rebind", "scope": "mergeRoutine", "ident": ident,
                     "address": addr}
                    for ident, addr in (("private.list.A", a),
                                        ("private.list.B", b))]
        dummy = [names["mergeRoutine!dummy.%s" % s].target for s in "AB"]
        master = [names["mergeRoutine!private.list.%s" % s].target
                  for s in "AB"]
        want = merged_lists(*(_column(model, r) for r in dummy))

        def check(state):
            return [r[0] for r in state["merged.list"]] == want
        return ([bind(*(r.address() for r in dummy)),
                 bind(*(r.address() for r in master))], check)
    if name == "fixtureC":
        cell = names["loan.amount"].target
        old = model.cells[(cell.sheet, cell.r1, cell.c1)]
        new = old + rng.randrange(1, 100) * 500.0
        r = names["interest.rate"].target
        rate = model.cells[(r.sheet, r.r1, r.c1)]

        def check(state):
            cols = [[r[0] for r in state[n]] for n in
                    ("grace.periods", "isFixedPayment?", "payment.amount",
                     "principal.fixed")]
            return all(state["debt.balance"][p] == amortization_schedule(
                new, rate, 12, *(c[p] for c in cols))
                for p in range(len(cols[0])))
        return ([[_set(cell.sheet, cell.r1, cell.c1, new)],
                 [_set(cell.sheet, cell.r1, cell.c1, old)]], check)
    cell = names["price.escalationPerPeriod"].target
    old = model.cells[(cell.sheet, cell.r1, cell.c1)]
    new = old + rng.randrange(1, 50) / 1000
    return ([[_set(cell.sheet, cell.r1, cell.c1, new)],
             [_set(cell.sheet, cell.r1, cell.c1, old)]], None)


def apply_edit(wb, steps):
    """Apply one recorded edit to a namebook Workbook."""
    from namebook.workbook import parse_a1
    for st in steps:
        if st["op"] == "set_cell":
            wb.set_cell(st["sheet"], st["row"], st["col"], st["value"])
        else:
            sheet, a1 = st["address"].split("!")
            wb.rebind_name(st["ident"], st["scope"], parse_a1(sheet, a1))


def fixtures(seed: int, scale: float = 1.0):
    from namebook.docio import rebuild
    rng = random.Random(seed)
    picked = list(FIXTURES if scale >= 1 else HALF_FIXTURES)
    rng.shuffle(picked)
    out = []
    for name in picked:
        with open(os.path.join("fixtures", name + ".nsdoc"),
                  encoding="utf-8") as fh:
            text = fh.read()
        model = read_doc(text)
        edits, check = _fixture_edits(name, model, rng)
        wb = rebuild(text)
        states = [_oracle_state(wb, model)]
        apply_edit(wb, edits[0])
        states.append(_oracle_state(wb, model))
        if check is not None and not check(states[1]):
            raise RuntimeError("oracle and closed form disagree on " + name)
        out.append(Doc(name + ".nsdoc", text, states, edits, FOCUS[name]))
    return out


WORKLOADS = {"fixtures": fixtures, "sweep": sweep, "chain": chain,
             "bands": bands}
