"""The worker's output checks: an op passes only on output it wrote."""

import json
import os

import pytest

import run
import worker
from namebook.docio import rebuild
from workloads import WORKLOADS


@pytest.fixture
def book_and_runner(tmp_path):
    doc = WORKLOADS["bands"](3, 0.25)[0]
    (tmp_path / doc.name).write_text(doc.text, encoding="utf-8")
    book = worker.Book(str(tmp_path), vars(doc), rebuild(doc.text))
    return book, worker.Runner(str(tmp_path))


def test_both_eval_actions_pass_on_a_correct_document(book_and_runner):
    book, runner = book_and_runner
    assert runner.op("eval", book) is not None
    assert runner.op("cli_eval", book) is not None
    assert runner.attempted == 2 and runner.failures == []


def test_a_cli_eval_that_exits_0_without_writing_fails(book_and_runner,
                                                        monkeypatch):
    book, runner = book_and_runner
    runner.op("eval", book)           # leaves a correct TSV behind
    assert runner.failures == [] and os.path.exists(runner.out)
    monkeypatch.setattr(worker, "ENTRY", "import sys; sys.exit(0)")
    runner.op("cli_eval", book)
    assert len(runner.failures) == 1
    assert "cli_eval" in runner.failures[0]


def test_an_eval_that_returns_0_without_writing_fails(book_and_runner,
                                                      monkeypatch):
    book, runner = book_and_runner
    runner.op("cli_eval", book)       # leaves a correct TSV behind
    assert runner.failures == [] and os.path.exists(runner.out)
    monkeypatch.setattr(worker.Runner, "_main", lambda self, argv: (0, ""))
    runner.op("eval", book)
    assert len(runner.failures) == 1
    assert runner.failures[0].startswith("eval on ")


def test_a_set_up_only_worker_reports_just_its_set_up(tmp_path):
    doc = WORKLOADS["bands"](3, 0.25)[0]
    (tmp_path / doc.name).write_text(doc.text, encoding="utf-8")
    (tmp_path / "workload.json").write_text(
        json.dumps({"docs": [vars(doc)]}), encoding="utf-8")
    record = run.spawn_worker(str(tmp_path), [doc], 0)
    assert set(record) == {"setup_s"}
    setup, cal = record["setup_s"]
    assert setup > 0 and cal > 0
