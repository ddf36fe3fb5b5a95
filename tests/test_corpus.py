"""The three shipped example workbooks: their exported documents are
committed verbatim, and their numbers agree with closed-form or
straight-loop reimplementations of what each model claims to compute."""

import os

import pytest

from namebook.docio import export_doc, rebuild
from namebook.engine import evaluate
from namebook.audit import has_errors, lint
from namebook.workbook import parse_a1

from corpus import (DUMMY_A, DUMMY_B, MASTER_A, MASTER_B, fixture_a,
                    fixture_b, fixture_c)
from oracle import amortization_schedule, escalated_price, merged_lists

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _doc(name):
    with open(os.path.join(FIXDIR, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("build,doc", [
    (fixture_a, "fixtureA.nsdoc"),
    (fixture_b, "fixtureB.nsdoc"),
    (fixture_c, "fixtureC.nsdoc"),
])
def test_exports_match_the_committed_documents(build, doc):
    assert export_doc(build()) == _doc(doc)


@pytest.mark.parametrize("doc", ["fixtureA.nsdoc", "fixtureB.nsdoc",
                                 "fixtureC.nsdoc"])
def test_documents_rebuild_to_the_same_values(doc):
    text = _doc(doc)
    wb = rebuild(text)
    assert export_doc(wb) == text
    assert evaluate(wb) == evaluate(rebuild(export_doc(wb)))


def test_revenue_plan_prices_follow_the_closed_form():
    wb = fixture_a()
    store = evaluate(wb)
    price = store.value("product.price")
    initial = [r[0] for r in store.value("price.initial").cells]
    esc = [r[0] for r in store.value("price.escalationPerPeriod").cells]
    flagged = [r[0] for r in store.value("isEscalated?").cells]
    assert price.shape == (12, 19)
    for i in range(12):
        for t in range(1, 20):
            if flagged[i]:
                want = escalated_price(initial[i], esc[i], t)
            else:
                want = initial[i]
            assert price.get(i, t - 1) == pytest.approx(want, rel=1e-9)


def test_revenue_plan_aggregates():
    wb = fixture_a()
    store = evaluate(wb)
    assert not store.has_errors()
    assert store.value("selectedPeriod") == 1.0
    revenue = store.value("revenue")
    price = store.value("product.price")
    volume = store.value("volume")
    for i in range(12):
        for j in range(19):
            assert revenue.get(i, j) == price.get(i, j) * volume.get(i, j)
    first_col = sum(revenue.get(i, 0) for i in range(12))
    assert store.value("total.periodRevenue") == pytest.approx(first_col,
                                                               rel=1e-12)
    assert store.value("cost.periodTotal") == pytest.approx(first_col * 0.3,
                                                            rel=1e-12)


def _flat(arr):
    return [r[0] for r in arr.cells]


def test_merge_routine_on_its_dummy_data():
    store = evaluate(fixture_b(bound="dummy"))
    assert _flat(store.value("merged.list")) == merged_lists(DUMMY_A, DUMMY_B)


def test_merge_routine_on_the_master_lists():
    store = evaluate(fixture_b())
    assert not store.has_errors()
    assert _flat(store.value("merged.list")) == merged_lists(MASTER_A,
                                                             MASTER_B)


def test_merge_routine_rebinds_to_any_sorted_inputs():
    wb = fixture_b(list_a=(2.0, 5.0, 11.0), list_b=(1.0, 7.0),
                   bound="dummy")
    # Bound to its dummy data the routine ignores the master lists...
    assert _flat(evaluate(wb).value("merged.list")) == merged_lists(DUMMY_A,
                                                                    DUMMY_B)
    # ...and pointing the private names at the master sheet is the call.
    wb.rebind_name("private.list.A", "mergeRoutine",
                   parse_a1("master", "B2:B21"))
    wb.rebind_name("private.list.B", "mergeRoutine",
                   parse_a1("master", "C2:C21"))
    got = _flat(evaluate(wb).value("merged.list"))
    assert got == merged_lists((2.0, 5.0, 11.0), (1.0, 7.0))


def test_loan_schedule_follows_the_iterative_model():
    wb = fixture_c()
    store = evaluate(wb)
    assert not store.has_errors()
    balance = store.value("debt.balance")
    service = store.value("debt.service")
    grace = _flat(store.value("grace.periods"))
    fixed = _flat(store.value("isFixedPayment?"))
    payment = _flat(store.value("payment.amount"))
    principal = _flat(store.value("principal.fixed"))
    for p in range(4):
        want = amortization_schedule(100000.0, 0.005, 12, grace[p],
                                     fixed[p], payment[p], principal[p])
        got = [balance.get(p, t) for t in range(12)]
        assert got == pytest.approx(want, rel=1e-9)
        # Every profile pays the loan off by the final period.
        assert abs(got[-1] + (balance.get(p, 11) - got[-1])) < 1e-6
        assert abs(got[-1]) < 1e-6
        # No payments during a grace period.
        for t in range(1, 12):
            if t + 1 <= grace[p]:
                assert service.get(p, t) == 0.0


def test_fixture_lint_reports():
    a = lint(fixture_a().copy())
    assert not has_errors(a)
    assert [(f.rule, f.locus) for f in a] == [
        ("N3", "initialise?"), ("N3", "model"), ("N3", "model"),
        ("N3", "model"), ("N4", "cost.periodTotal")]
    assert "period.index" in a[1].message
    assert "volume" in a[2].message
    assert "←price" in a[3].message
    assert lint(fixture_a(), outputs=("cost.periodTotal",)) == a[:4]

    b = lint(fixture_b())
    assert not has_errors(b)
    assert sorted(f.locus for f in b if f.rule == "N4") == [
        "list.A", "list.B", "mergeRoutine!dummy.A", "mergeRoutine!dummy.B",
        "merged.list"]
    assert sum(1 for f in b if f.rule == "N3") == 2

    c = lint(fixture_c())
    assert [(f.rule, f.locus) for f in c] == [("N4", "principal.repaid")]
    assert lint(fixture_c(), outputs=("principal.repaid",)) == []
