"""Ten end-to-end acceptance checks, one per shipped guarantee.

Each check prints an ACCEPTANCE line so a log scan shows at a glance
which guarantees were exercised.  Tolerances are part of the contract:
exact equality where the computation is reproducible bit for bit, 1e-9
relative where a closed form is compared against iterated arithmetic,
1e-6 of the principal's scale for amortization runoff."""

import random
import time

import pytest

from namebook.audit import focus_graph, has_errors, lint
from namebook.cli import main
from namebook.docio import export_doc, rebuild
from namebook.engine import evaluate
from namebook.formula import parse_formula, render
from namebook.values import Array
from namebook.workbook import (FORMULA, RANGE, GridRange, NameDef, Workbook,
                               parse_a1, shift_name)

from corpus import DUMMY_A, DUMMY_B, fixture_a, fixture_b, fixture_c
from gen import random_workbook
from oracle import (amortization_schedule, escalated_price, merged_lists,
                    oracle_evaluate)


@pytest.fixture(scope="module")
def plan_store():
    return evaluate(fixture_a())


@pytest.fixture(scope="module")
def loan_store():
    return evaluate(fixture_c())


def test_acceptance_1_revenue_is_one_array_formula_over_228_cells(plan_store):
    wb = fixture_a()
    revenue_def = wb.resolve("revenue")
    rows, cols = revenue_def.target.shape()
    assert rows * cols == 228
    assert revenue_def.array
    assert render(revenue_def.formula) == "volume * product.price"

    started = time.perf_counter()
    store = evaluate(wb)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.02

    revenue = store.value("revenue")
    price = store.value("product.price")
    volume = store.value("volume")
    assert revenue.shape == (rows, cols)
    for i in range(rows):
        for j in range(cols):
            # Same two floats, same multiplication: zero ULP of slack.
            assert revenue.get(i, j) == volume.get(i, j) * price.get(i, j)
    print("ACCEPTANCE 1: PASS")


def _escalation_book(rng, periods, products=100):
    wb = Workbook().add_sheet("s", products + 2, periods + 3)
    initials = [rng.uniform(1.0, 50.0) for _ in range(products)]
    rates = [rng.uniform(-0.02, 0.02) for _ in range(products)]
    for i in range(products):
        wb.set_cell("s", i + 3, 1, initials[i])
        wb.set_cell("s", i + 3, 2, rates[i])
    for t in range(periods):
        wb.set_cell("s", 1, t + 4, t == 0)
    top, bottom = 3, products + 2
    wb.define_name(NameDef("first?", target=GridRange("s", 4, periods + 3,
                                                      1, 1)))
    wb.define_name(NameDef("seed.value", target=GridRange("s", 1, 1,
                                                          top, bottom)))
    wb.define_name(NameDef("growth", target=GridRange("s", 2, 2,
                                                      top, bottom)))
    price = NameDef("level", None, RANGE,
                    target=GridRange("s", 4, periods + 3, top, bottom),
                    formula=parse_formula(
                        "IF(first?, seed.value, ←level) * (1 + growth)"),
                    array=True)
    wb.define_name(price)
    wb.define_name(shift_name(price, "←level", 0, -1))
    return wb, initials, rates


def test_acceptance_2_escalation_matches_the_closed_form(plan_store):
    # The shipped plan first: escalated rows compound, constant rows hold.
    price = plan_store.value("product.price")
    initial = [r[0] for r in plan_store.value("price.initial").cells]
    esc = [r[0] for r in
           plan_store.value("price.escalationPerPeriod").cells]
    flagged = [r[0] for r in plan_store.value("isEscalated?").cells]
    for i in range(12):
        for t in range(1, 20):
            if flagged[i]:
                assert price.get(i, t - 1) == pytest.approx(
                    escalated_price(initial[i], esc[i], t), rel=1e-9)
    for i, want in ((3, 20.0), (4, 10.0), (5, 20.0)):
        assert not flagged[i]
        for t in range(19):
            assert price.get(i, t) == want

    # Then 1000 fresh (initial, rate, n) recurrences across ten books.
    rng = random.Random(20260822)
    checked = 0
    for _ in range(10):
        periods = rng.randrange(5, 51)
        wb, initials, rates = _escalation_book(rng, periods)
        level = evaluate(wb).value("level")
        for i in range(100):
            t = rng.randrange(1, periods + 1)
            assert level.get(i, t - 1) == pytest.approx(
                escalated_price(initials[i], rates[i], t), rel=1e-9)
            checked += 1
    assert checked == 1000
    print("ACCEPTANCE 2: PASS")


def test_acceptance_3_intersection_total_equals_the_column_sum(plan_store):
    want = oracle_evaluate(fixture_a())[(None, "revenue")]
    first_col = 0.0
    for i in range(12):
        first_col = first_col + want.get(i, 0)
    assert plan_store.value("selectedPeriod") == 1.0
    assert plan_store.value("total.periodRevenue") == first_col
    print("ACCEPTANCE 3: PASS")


def test_acceptance_4_loan_profiles_amortize_correctly(loan_store):
    balance = loan_store.value("debt.balance")
    interest = loan_store.value("interest.expense")
    service = loan_store.value("debt.service")
    grace = [r[0] for r in loan_store.value("grace.periods").cells]
    fixed = [r[0] for r in loan_store.value("isFixedPayment?").cells]
    payment = [r[0] for r in loan_store.value("payment.amount").cells]
    principal = [r[0] for r in loan_store.value("principal.fixed").cells]

    for p in range(4):
        want = amortization_schedule(100000.0, 0.005, 12, grace[p], fixed[p],
                                     payment[p], principal[p])
        for t in range(12):
            assert balance.get(p, t) == pytest.approx(want[t], rel=1e-9)

    # Fixed payment, no grace: the loan runs off to zero.
    assert grace[2] == 0.0 and fixed[2] is True
    assert abs(balance.get(2, 11)) <= 1e-6 * 100000.0

    # Grace profiles: no service due, balance grows by exactly the
    # interest accrued.
    for p in (1, 3):
        for t in range(1, 12):
            if t + 1 <= grace[p]:
                assert service.get(p, t) == 0.0
                assert balance.get(p, t) == (balance.get(p, t - 1)
                                             + interest.get(p, t))
    print("ACCEPTANCE 4: PASS")


def test_acceptance_5_balance_dependencies_are_exactly_its_formula():
    wb = fixture_c()
    s = focus_graph(wb, "debt.balance", radius=1)
    preds = {v for (u, v) in s.edges if u == "debt.balance"}
    deps = {u for (u, v) in s.edges if v == "debt.balance"}
    assert preds == {"initialise.loan?", "loan.amount", "←debt.balance",
                     "interest.expense", "debt.service"}
    assert deps == set()

    s2 = focus_graph(wb, "←debt.balance", radius=1)
    readers = {u for (u, v) in s2.edges if v == "←debt.balance"}
    assert "debt.balance" in readers
    print("ACCEPTANCE 5: PASS")


def test_acceptance_6_documents_round_trip_bit_for_bit():
    books = [fixture_a(), fixture_b(), fixture_c()]
    books += [random_workbook(seed) for seed in range(200)]
    for i, wb in enumerate(books):
        text = export_doc(wb)
        back = rebuild(text)
        assert export_doc(back) == text, i
        assert evaluate(back) == evaluate(wb), i
    print("ACCEPTANCE 6: PASS")


def _random_sorted_pair(rng):
    na, nb = rng.randrange(0, 21), rng.randrange(0, 21)
    a = sorted(rng.sample(range(1, 500), na))
    b = sorted(rng.sample(range(1, 500), nb))
    return [float(x) for x in a], [float(x) for x in b]


def test_acceptance_7_merge_module_rebinds_between_data_sets():
    dummy_want = merged_lists(DUMMY_A, DUMMY_B)
    rng = random.Random(7041776)
    for _ in range(100):
        a, b = _random_sorted_pair(rng)
        wb = fixture_b(list_a=a, list_b=b, bound="dummy")
        store = evaluate(wb)
        got = [r[0] for r in store.value("merged.list").cells]
        assert got == dummy_want            # bound to its built-in unit data

        wb.rebind_name("private.list.A", "mergeRoutine",
                       parse_a1("master", "B2:B21"))
        wb.rebind_name("private.list.B", "mergeRoutine",
                       parse_a1("master", "C2:C21"))
        store = evaluate(wb)
        got = [r[0] for r in store.value("merged.list").cells]
        assert got == merged_lists(a, b)    # rebound to the real lists
    print("ACCEPTANCE 7: PASS")


def test_acceptance_8_lint_is_clean_until_a_grid_address_sneaks_in(
        tmp_path, capsys):
    for build in (fixture_a, fixture_b, fixture_c):
        assert not has_errors(lint(build()))

    doc = tmp_path / "plan.nsdoc"
    tainted = export_doc(fixture_a()).replace(
        "formula=total.periodRevenue * cost.rate",
        "formula=total.periodRevenue * cost.rate + $J$16")
    assert tainted.count("$J$16") == 1
    doc.write_text(tainted, encoding="utf-8")
    assert main(["lint", str(doc)]) == 3
    rows = [line.split("\t") for line in
            capsys.readouterr().out.splitlines()]
    errors = [r for r in rows if r[1] == "error"]
    assert len(errors) == 1
    assert errors[0][0] == "N2" and "$J$16" in errors[0][3]
    print("ACCEPTANCE 8: PASS")


STATE_CODES = ("AZ", "CA", "NY", "TX", "WA")
STATE_RATES = (0.056, 0.0725, 0.04, 0.0625, 0.065)


def _tax_book(key, legacy_flag):
    wb = Workbook().add_sheet("s", 8, 6)
    for i, (code, rate) in enumerate(zip(STATE_CODES, STATE_RATES), start=1):
        wb.set_cell("s", i, 1, code)
        wb.set_cell("s", i, 2, rate)
    wb.set_cell("s", 1, 3, key)
    wb.set_cell("s", 2, 3, STATE_RATES[STATE_CODES.index(key)])
    wb.set_cell("s", 3, 3, legacy_flag)
    wb.define_name(NameDef("state.codes", target=GridRange("s", 1, 1, 1, 5)))
    wb.define_name(NameDef("state.rates", target=GridRange("s", 2, 2, 1, 5)))
    wb.define_name(NameDef("state.key", target=GridRange("s", 3, 3, 1, 1)))
    wb.define_name(NameDef("taxRate.legacy",
                           target=GridRange("s", 3, 3, 2, 2)))
    wb.define_name(NameDef("isLegacyCalculation?",
                           target=GridRange("s", 3, 3, 3, 3)))
    wb.define_name(NameDef("taxRate.lookup", None, FORMULA,
                           formula=parse_formula(
                               "LOOKUP(state.key, state.codes, state.rates)")))
    wb.define_name(NameDef("taxRate.indexed", None, FORMULA,
                           formula=parse_formula(
                               "INDEX(state.rates,"
                               " MATCH(state.key, state.codes, 0))")))
    wb.define_name(NameDef("taxRate.chosen", None, FORMULA,
                           formula=parse_formula(
                               "IF(isLegacyCalculation?, taxRate.legacy,"
                               " taxRate.lookup)")))
    return wb


def test_acceptance_9_tax_rate_definitions_agree_on_every_state():
    for key in STATE_CODES:
        want = STATE_RATES[STATE_CODES.index(key)]
        store = evaluate(_tax_book(key, legacy_flag=False))
        assert store.value("taxRate.lookup") == want
        assert store.value("taxRate.indexed") == want
        assert store.value("taxRate.legacy") == want
        assert store.value("taxRate.chosen") == want
        legacy = evaluate(_tax_book(key, legacy_flag=True))
        assert legacy.value("taxRate.chosen") == want
    print("ACCEPTANCE 9: PASS")


def test_acceptance_10_property_suites_hold_at_their_stated_counts():
    started = time.perf_counter()

    # Parser: canonical text round trips.
    import test_formula
    rng = random.Random(886)
    for _ in range(1000):
        tree = test_formula._expr(rng, rng.randrange(0, 5))
        assert parse_formula(render(tree)) == tree

    # Intersection algebra.
    rng = random.Random(887)
    for _ in range(500):
        a = _sample_rect(rng)
        b = _sample_rect(rng)
        assert a.intersect(b) == b.intersect(a)
        assert a.intersect(a) == a

    # Shift inverse.
    rng = random.Random(888)
    for _ in range(300):
        g = _sample_rect(rng)
        moved = g.shift(2, 3)
        assert moved.shift(-2, -3) == g

    # Determinism and error propagation, against the independent
    # interpreter.
    for seed in range(100):
        wb = random_workbook(seed + 31000)
        store = evaluate(wb)
        assert store == evaluate(wb)
        want = oracle_evaluate(wb)
        for key in want:
            assert store.values[key] == want[key], (seed, key)

    assert time.perf_counter() - started < 3.0
    print("ACCEPTANCE 10: PASS")


def _sample_rect(rng):
    r1 = rng.randrange(1, 30)
    c1 = rng.randrange(1, 20)
    return GridRange("s", c1, c1 + rng.randrange(0, 6),
                     r1, r1 + rng.randrange(0, 8))
