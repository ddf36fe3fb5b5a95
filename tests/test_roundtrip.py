"""rebuild -> export_doc -> rebuild gives back the same document: for the
generated books, for the bench books, and for every mutant of them that
rebuild accepts.  A mutant rebuild refuses raises one of the document
errors, never any other exception.

The document has no literal for an error value, so export_doc refuses a
book whose input cells hold one; the lookup books' error cells are
blanked before they are written."""

import os
import random
import sys

import pytest

from namebook.docio import (DocSyntaxError, UndeclaredName, UnknownVersion,
                            export_doc, rebuild)
from namebook.values import CellError
from namebook.workbook import WorkbookError

from gen import lookup_workbook, random_workbook
from test_cli import _EXTENT, _mutate

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

_REFUSALS = (DocSyntaxError, UndeclaredName, UnknownVersion, WorkbookError)


def _round_trip(text):
    """The canonical text of text's workbook, checked to rebuild into a
    workbook whose text it is again."""
    again = export_doc(rebuild(text))
    assert export_doc(rebuild(again)) == again
    return again


def _lookup_book(seed):
    wb = lookup_workbook(seed)
    for sheet in wb.sheets.values():
        for (row, col), value in sheet.cells.items():
            if isinstance(value, CellError):
                sheet.set(row, col, None)
    return wb


@pytest.mark.parametrize("build", [random_workbook, _lookup_book])
def test_generated_books_round_trip(build):
    for seed in range(150):
        text = export_doc(build(seed))
        assert _round_trip(text) == text, seed


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_bench_books_round_trip(workload, monkeypatch):
    monkeypatch.chdir(ROOT)  # the fixtures workload reads fixtures/ from here
    for seed in (403, 431):
        for doc in workloads.WORKLOADS[workload](seed):
            assert _round_trip(doc.text) == doc.text, (seed, doc.name)


def _texts():
    texts = [export_doc(build(seed)) for seed in range(20)
             for build in (random_workbook, _lookup_book)]
    for make in workloads.WORKLOADS.values():
        texts += [doc.text for doc in make(403, 0.25)]
    return texts


@pytest.mark.parametrize("seed", range(3))
def test_mutants_round_trip_or_are_refused(seed, monkeypatch):
    monkeypatch.chdir(ROOT)  # the fixtures workload reads fixtures/ from here
    rng = random.Random(seed)
    texts = _texts()
    outcomes = {"kept": 0, "refused": 0}
    while sum(outcomes.values()) < 600:
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 2)):
            text = _mutate(text, rng)
        # Extents of more than 4300 digits are refused before any sheet
        # is built; keep every other sheet small.
        if not all(len(e) > 4300 or len(e) < 5 and int(e) <= 2000
                   for e in _EXTENT.findall(text)):
            continue
        try:
            _round_trip(text)
        except _REFUSALS:
            outcomes["refused"] += 1
        else:
            outcomes["kept"] += 1
    assert min(outcomes.values()) > 15, outcomes
