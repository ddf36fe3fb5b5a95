"""Generated documents and the benchmark's own reading of documents."""

import contextlib
import glob
import io
import os

import pytest

import docs
from namebook.audit import export_dot, focus_graph, lint
from namebook.cli import main
from namebook.docio import export_doc, rebuild
from namebook.engine import evaluate
from workloads import WORKLOADS, apply_edit
from worker import store_ok

GENERATED = ("sweep", "chain", "bands")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


@pytest.mark.parametrize("name", GENERATED)
def test_a_seed_fixes_the_document(name):
    a, b, c = WORKLOADS[name](5, 0.25), WORKLOADS[name](5, 0.25), \
        WORKLOADS[name](6, 0.25)
    assert a[0].text == b[0].text and a[0].states == b[0].states
    assert a[0].text != c[0].text


@pytest.mark.parametrize("name", GENERATED)
def test_generated_documents_are_canonical_and_their_values_exact(name):
    doc = WORKLOADS[name](3, 0.25)[0]
    wb = rebuild(doc.text)
    assert export_doc(wb) == doc.text
    assert store_ok(evaluate(wb), doc.states[0])
    apply_edit(wb, doc.edits[0])
    assert store_ok(evaluate(wb), doc.states[1])
    apply_edit(wb, doc.edits[1])
    assert store_ok(evaluate(wb), doc.states[0])


def test_a_wrong_value_is_caught():
    doc = WORKLOADS["bands"](3, 0.25)[0]
    store = evaluate(rebuild(doc.text))
    doc.states[0]["mod0.total"][0][0] += 1.0
    assert not store_ok(store, doc.states[0])


def test_fixture_states_hold_after_each_edit(monkeypatch):
    monkeypatch.chdir(ROOT)
    for doc in WORKLOADS["fixtures"](4):
        wb = rebuild(doc.text)
        apply_edit(wb, doc.edits[0])
        assert store_ok(evaluate(wb), doc.states[1])
        apply_edit(wb, doc.edits[1])
        assert store_ok(evaluate(wb), doc.states[0])


@pytest.mark.parametrize("path", sorted(glob.glob(
    os.path.join(ROOT, "fixtures", "*.nsdoc"))))
def test_the_audit_expectations_match_the_fixtures(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    model = docs.read_doc(text)
    wb = rebuild(text)
    assert [f.line() for f in lint(wb)] == docs.expected_lint(model)
    for key, nd in model.names.items():
        assert export_dot(focus_graph(wb, nd.display, 2)) == \
            docs.expected_dot(model, key, 2)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["audit", "list", path]) == 0
    assert docs.check_listing(buf.getvalue(), docs.listing_plan(model))
    assert not docs.check_listing("\n".join(
        reversed(buf.getvalue().splitlines())), docs.listing_plan(model))
