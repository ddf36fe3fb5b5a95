"""Three ready-made workbooks exercising the whole engine, built in
Python; the same books are committed as documents under fixtures/.

fixture_a: a product revenue plan.  Twelve products priced over nineteen
periods, half of them escalating period over period through a displaced
self-read, a revenue array multiplying price by volume, and a period
total picked out with a range intersection.

fixture_b: a reusable merge routine on its own sheet.  Sheet-scoped
private names bind the routine's inputs; rebinding them is how a caller
points the routine at real data.  The routine merges two sorted lists
without any helper cells beyond its own ranges.

fixture_c: a loan amortization schedule.  Four repayment profiles run in
parallel rows: fixed principal and fixed payment, each with and without
an up-front grace period.  The balance is a classic recurrence on its
own previous column.
"""

from __future__ import annotations

import random

from namebook.formula import parse_formula
from namebook.workbook import (FORMULA, NameDef, RANGE, Workbook, parse_a1,
                               shift_name)


def _range_name(identifier, sheet, a1, scope=None, formula=None, array=False):
    nd = NameDef(identifier, scope, RANGE, target=parse_a1(sheet, a1),
                 formula=parse_formula(formula) if formula else None,
                 array=array)
    return nd


def _formula_name(identifier, text, scope=None):
    return NameDef(identifier, scope, FORMULA, formula=parse_formula(text))


def _fill_column(wb, sheet, a1, values):
    wb.fill_block(parse_a1(sheet, a1), [[v] for v in values])


def _fill_row(wb, sheet, a1, values):
    wb.fill_block(parse_a1(sheet, a1), [list(values)])


PRODUCT_COUNT = 12
PERIOD_COUNT = 19

PRICE_INITIAL = (20.0, 20.0, 20.0, 20.0, 10.0, 20.0,
                 15.0, 15.0, 12.0, 10.0, 30.0, 20.0)
ESCALATION = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
              0.0017, 0.0012, 0.0041, 0.0072, -0.0087, 0.0032)
IS_ESCALATED = (False,) * 6 + (True,) * 6

VOLUME_SEED = 20150401


def fixture_a() -> Workbook:
    """Product revenue plan: 12 products, 19 periods, escalating prices."""
    wb = Workbook()
    wb.add_sheet("plan", rows=48, cols=24)

    wb.define_name(_range_name("selected.key", "plan", "C2"))
    wb.define_name(_range_name("initialise?", "plan", "F2:X2"))
    wb.define_name(_range_name("period.index", "plan", "F4:X4"))
    wb.define_name(_range_name("isEscalated?", "plan", "B5:B16"))
    wb.define_name(_range_name("price.initial", "plan", "C5:C16"))
    wb.define_name(_range_name("price.escalationPerPeriod", "plan", "D5:D16"))

    price = _range_name(
        "product.price", "plan", "F5:X16", array=True,
        formula="IF(isEscalated?, IF(initialise?, price.initial, ←price)"
                " * (1 + price.escalationPerPeriod), price.initial)")
    wb.define_name(price)
    wb.define_name(shift_name(price, "←price", 0, -1))

    wb.define_name(_range_name("revenue", "plan", "F20:X31", array=True,
                               formula="volume * product.price"))
    wb.define_name(_range_name("volume", "plan", "F35:X46"))
    wb.define_name(_range_name("model", "plan", "F:X"))
    wb.define_name(_range_name("cost.rate", "plan", "C18", formula="30%"))

    wb.define_name(_formula_name("selectedPeriod",
                                 "MATCH(selected.key, period.index, 0)"))
    wb.define_name(_formula_name("inPeriod", "INDEX(model, 0, selectedPeriod)"))
    wb.define_name(_formula_name("total.periodRevenue",
                                 "SUM(revenue inPeriod)"))
    wb.define_name(_formula_name("cost.periodTotal",
                                 "total.periodRevenue * cost.rate"))

    wb.set_cell("plan", 2, 3, 1.0)  # selected.key
    _fill_row(wb, "plan", "F2:X2", [True] + [False] * (PERIOD_COUNT - 1))
    _fill_row(wb, "plan", "F4:X4", [float(p) for p in range(1, PERIOD_COUNT + 1)])
    _fill_column(wb, "plan", "B5:B16", list(IS_ESCALATED))
    _fill_column(wb, "plan", "C5:C16", list(PRICE_INITIAL))
    _fill_column(wb, "plan", "D5:D16", list(ESCALATION))

    rng = random.Random(VOLUME_SEED)
    volumes = [[float(rng.randrange(300, 701)) for _ in range(PERIOD_COUNT)]
               for _ in range(PRODUCT_COUNT)]
    wb.fill_block(parse_a1("plan", "F35:X46"), volumes)
    return wb


DUMMY_A = (2.0, 4.0, 6.0)
DUMMY_B = (1.0, 3.0, 5.0, 7.0)
MASTER_A = (3.0, 8.0, 9.0, 14.0, 21.0)
MASTER_B = (1.0, 4.0, 10.0, 11.0, 12.0, 25.0, 30.0)

LIST_SLOTS = 20
OUT_SLOTS = 40

_MERGE_VALUE = (
    "IF(out.index > size.total, 0,"
    " IF(na.count = 0, INDEX(private.list.B, out.index - na.count),"
    " IF(out.index - na.count = 0, INDEX(private.list.A, na.count),"
    " IF(INDEX(private.list.A, na.count) >"
    " INDEX(private.list.B, out.index - na.count),"
    " INDEX(private.list.A, na.count),"
    " INDEX(private.list.B, out.index - na.count)))))")

_POS_A = (
    "private.index + IF(private.list.A > 0,"
    " IF(size.B = 0, 0,"
    " IF(private.list.A - 1 < INDEX(private.list.B, 1), 0,"
    " MATCH(private.list.A - 1, private.list.B, 1))), 9999)")


def _padded(values):
    out = [float(v) for v in values]
    if len(out) > LIST_SLOTS:
        raise ValueError("list longer than the %d available slots" % LIST_SLOTS)
    return out + [None] * (LIST_SLOTS - len(out))


def fixture_b(list_a=MASTER_A, list_b=MASTER_B, bound="master") -> Workbook:
    """Sorted-list merge routine with rebindable private inputs.

    The lists hold strictly increasing positive integers, at most 20 each.
    bound selects where the routine's private names point: "master" for
    the real data, "dummy" for the routine's built-in unit data.  The
    merged result, padded with zeros to 40 slots, is published as the
    workbook-level name merged.list.
    """
    if bound not in ("master", "dummy"):
        raise ValueError("bound must be 'master' or 'dummy'")
    wb = Workbook()
    wb.add_sheet("master", rows=24, cols=6)
    wb.add_sheet("mergeRoutine", rows=45, cols=8)
    m = "mergeRoutine"

    wb.define_name(_range_name("list.A", "master", "B2:B21"))
    wb.define_name(_range_name("list.B", "master", "C2:C21"))

    wb.define_name(_range_name("private.index", m, "B2:B21", scope=m))
    wb.define_name(_range_name("dummy.A", m, "C2:C21", scope=m))
    wb.define_name(_range_name("dummy.B", m, "D2:D21", scope=m))
    if bound == "master":
        wb.define_name(_range_name("private.list.A", "master", "B2:B21",
                                   scope=m))
        wb.define_name(_range_name("private.list.B", "master", "C2:C21",
                                   scope=m))
    else:
        wb.define_name(_range_name("private.list.A", m, "C2:C21", scope=m))
        wb.define_name(_range_name("private.list.B", m, "D2:D21", scope=m))
    wb.define_name(_range_name("out.index", m, "F2:F41", scope=m))

    wb.define_name(_formula_name(
        "size.A", "SUM(IF(private.list.A > 0, 1, 0))", scope=m))
    wb.define_name(_formula_name(
        "size.B", "SUM(IF(private.list.B > 0, 1, 0))", scope=m))
    wb.define_name(_formula_name("size.total", "size.A + size.B", scope=m))
    wb.define_name(_formula_name("pos.A", _POS_A, scope=m))
    wb.define_name(_formula_name(
        "na.count",
        "IF(out.index < INDEX(pos.A, 1), 0, MATCH(out.index, pos.A, 1))",
        scope=m))
    wb.define_name(_range_name("value", m, "G2:G41", scope=m, array=True,
                               formula=_MERGE_VALUE))
    wb.define_name(_formula_name("merged.list", "mergeRoutine!value"))

    _fill_column(wb, "master", "B2:B21", _padded(list_a))
    _fill_column(wb, "master", "C2:C21", _padded(list_b))
    _fill_column(wb, m, "B2:B21",
                 [float(i) for i in range(1, LIST_SLOTS + 1)])
    _fill_column(wb, m, "C2:C21", _padded(DUMMY_A))
    _fill_column(wb, m, "D2:D21", _padded(DUMMY_B))
    _fill_column(wb, m, "F2:F41",
                 [float(i) for i in range(1, OUT_SLOTS + 1)])
    return wb


LOAN_AMOUNT = 100000.0
INTEREST_RATE = 0.005
LOAN_PERIODS = 12
GRACE = 6

# profile order: rows are fixed-principal, fixed-principal-grace,
# fixed-payment, fixed-payment-grace
PROFILE_GRACE = (0.0, float(GRACE), 0.0, float(GRACE))
PROFILE_FIXED_PAYMENT = (False, True)


def _annuity_payment(principal, rate, n):
    return principal * rate / (1.0 - (1.0 + rate) ** (-n))


def fixture_c(amount=LOAN_AMOUNT, rate=INTEREST_RATE) -> Workbook:
    """Loan schedule: four repayment profiles over twelve periods.

    Period 1 initialises the balance to the full amount; payments run
    from period 2.  Grace profiles pay nothing for the first six
    periods, so interest accrues onto the balance; their payment
    figures are sized for the six periods that remain.
    """
    wb = Workbook()
    wb.add_sheet("loan", rows=26, cols=18)

    wb.define_name(_range_name("loan.amount", "loan", "B2"))
    wb.define_name(_range_name("interest.rate", "loan", "B3"))
    wb.define_name(_range_name("initialise.loan?", "loan", "G2:R2"))
    wb.define_name(_range_name("period.index", "loan", "G3:R3"))
    wb.define_name(_range_name("grace.periods", "loan", "B6:B9"))
    wb.define_name(_range_name("isFixedPayment?", "loan", "C6:C9"))
    wb.define_name(_range_name("payment.amount", "loan", "D6:D9"))
    wb.define_name(_range_name("principal.fixed", "loan", "E6:E9"))

    balance = _range_name(
        "debt.balance", "loan", "G6:R9", array=True,
        formula="IF(initialise.loan?, loan.amount,"
                " ←debt.balance + interest.expense - debt.service)")
    wb.define_name(balance)
    wb.define_name(shift_name(balance, "←debt.balance", 0, -1))

    wb.define_name(_formula_name("inGrace?", "period.index <= grace.periods"))
    wb.define_name(_range_name(
        "interest.expense", "loan", "G12:R15", array=True,
        formula="IF(initialise.loan?, 0, ←debt.balance * interest.rate)"))
    wb.define_name(_range_name(
        "debt.service", "loan", "G17:R20", array=True,
        formula="IF(initialise.loan?, 0, IF(inGrace?, 0,"
                " IF(isFixedPayment?, payment.amount,"
                " interest.expense + principal.fixed)))"))
    wb.define_name(_range_name(
        "principal.repaid", "loan", "G22:R25", array=True,
        formula="debt.service - interest.expense"))

    wb.set_cell("loan", 2, 2, float(amount))
    wb.set_cell("loan", 3, 2, float(rate))
    _fill_row(wb, "loan", "G2:R2", [True] + [False] * (LOAN_PERIODS - 1))
    _fill_row(wb, "loan", "G3:R3",
              [float(p) for p in range(1, LOAN_PERIODS + 1)])
    _fill_column(wb, "loan", "B6:B9", list(PROFILE_GRACE))
    _fill_column(wb, "loan", "C6:C9", [False, False, True, True])

    plain_n = LOAN_PERIODS - 1      # payments in periods 2..12
    grace_n = LOAN_PERIODS - GRACE  # payments in periods 7..12
    grown = amount * (1.0 + rate) ** (GRACE - 1)
    payments = [0.0, 0.0,
                _annuity_payment(amount, rate, plain_n),
                _annuity_payment(grown, rate, grace_n)]
    principals = [amount / plain_n, grown / grace_n, 0.0, 0.0]
    _fill_column(wb, "loan", "D6:D9", payments)
    _fill_column(wb, "loan", "E6:E9", principals)
    return wb
