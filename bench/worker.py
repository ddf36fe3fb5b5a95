"""One measuring process: set up cold, then time rounds of the five actions.

    python3 bench/worker.py WORKDIR SPAWNED_AT SECONDS DOC...

WORKDIR holds the documents DOC... and `workload.json` that run.py wrote;
SPAWNED_AT is the parent's `time.perf_counter()` just before it started
this process (CLOCK_MONOTONIC, so comparable across processes).  Set-up
ends when the package is imported, every document is rebuilt and
evaluated once; the rest of the run alternates the actions, one of each
per round, so that all five see the same host conditions.  The last
line of standard output is a JSON record of samples (per action, per
document, each paired with its round's median calibration) and failures.
With SECONDS 0 the process only sets up and reports its set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import docs
from workloads import apply_edit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Mirrors the `namebook` console script, which the checkout does not install.
ENTRY = "import sys; from namebook.cli import main; sys.exit(main())"
ACTIONS = ("eval", "recalc", "audit", "fmt", "cli_eval")


def calibrate() -> float:
    """Seconds a fixed piece of pure-Python work takes right now.

    It shares no code with namebook (dicts, a sort, float arithmetic and
    string formatting, the interpreter's staples), so it measures only
    how fast the host runs Python at this moment.  One is taken before
    each action; run.py divides each sample by the median of its round's
    calibrations."""
    t = time.perf_counter()
    rows = [{"k": "r%05d" % i, "v": (i * 7919) % 1000 / 7.0}
            for i in range(2500)]
    rows.sort(key=lambda r: (r["v"], r["k"]))
    acc = 0.0
    for r in rows:
        acc += r["v"] * 1.5 - len(r["k"])
    _ = "%.3f" % acc
    return time.perf_counter() - t


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class Book:
    """One document: its file, its workbook for the edit loop, and what
    every action must produce on it."""

    def __init__(self, workdir, spec, wb):
        self.path = os.path.join(workdir, spec["name"])
        with open(self.path, encoding="utf-8") as fh:
            self.text = fh.read()
        self.wb = wb
        self.states = spec["states"]
        self.edits = spec["edits"]
        self.state = 0
        model = docs.read_doc(self.text)
        focus = next(n.key for n in model.names.values()
                     if n.display == spec["focus"])
        self.focus = spec["focus"]
        self.lint = docs.expected_lint(model)
        self.listing = docs.listing_plan(model)
        self.dot = docs.expected_dot(model, focus, 2)


class Runner:
    def __init__(self, workdir):
        self.out = os.path.join(workdir, "out-%d.tsv" % os.getpid())
        self.scratch = os.path.join(workdir, "fmt-%d.nsdoc" % os.getpid())
        self.failures = []
        self.attempted = 0

    def _main(self, argv):
        from namebook.cli import main
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    def eval(self, book):
        self._clear_out()
        t = time.perf_counter()
        code, _ = self._main(["eval", book.path, "--out", self.out])
        dt = time.perf_counter() - t
        return dt, code == 0 and self._tsv_ok(book)

    def recalc(self, book):
        from namebook.engine import evaluate
        steps = book.edits[book.state]
        t = time.perf_counter()
        apply_edit(book.wb, steps)
        store = evaluate(book.wb)
        dt = time.perf_counter() - t
        book.state ^= 1
        return dt, store_ok(store, book.states[book.state])

    def audit(self, book):
        t = time.perf_counter()
        lint = self._main(["lint", book.path])
        listing = self._main(["audit", "list", book.path])
        graph = self._main(["audit", "graph", book.path, "--focus",
                            book.focus, "--radius", "2"])
        dt = time.perf_counter() - t
        return dt, (lint == (0, "".join(f + "\n" for f in book.lint))
                    and listing[0] == 0
                    and docs.check_listing(listing[1], book.listing)
                    and graph == (0, book.dot))

    def fmt(self, book):
        with open(self.scratch, "w", encoding="utf-8") as fh:
            fh.write(book.text)
        t = time.perf_counter()
        code, _ = self._main(["fmt", self.scratch])
        dt = time.perf_counter() - t
        with open(self.scratch, encoding="utf-8") as fh:
            return dt, code == 0 and fh.read() == book.text

    def cli_eval(self, book):
        self._clear_out()
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY, "eval", book.path, "--out",
             self.out], cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        dt = time.perf_counter() - t
        return dt, proc.returncode == 0 and self._tsv_ok(book)

    def _clear_out(self):
        """Both eval actions write self.out; removing it first means an
        op that skips the write cannot pass on an earlier op's file."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out)

    def _tsv_ok(self, book):
        if not os.path.exists(self.out):
            return False
        with open(self.out, encoding="utf-8") as fh:
            return docs.tsv_mismatches(fh.read(), book.states[0]) == 0

    def op(self, action, book):
        """Run one timed action and return its time, or None when it
        raised.  Wrong output is recorded as a failure but keeps its
        time: a slow wrong answer is still slow."""
        self.attempted += 1
        try:
            dt, ok = getattr(self, action)(book)
        except Exception as exc:   # a failed op is counted, not fatal
            self.failures.append("%s on %s: %r" % (action, book.path, exc))
            return None
        if not ok:
            self.failures.append("%s on %s: wrong output" % (action,
                                                            book.path))
        return dt


def store_ok(store, want) -> bool:
    got = {}
    for key, v in store.items():
        got[store.display[key]] = v.cells if hasattr(v, "cells") else [[v]]
    if set(got) != set(want):
        return False
    for display, grid in want.items():
        rows = got[display]
        if len(rows) != len(grid) or any(
                len(a) != len(b) or not all(map(docs.same_scalar, a, b))
                for a, b in zip(grid, rows)):
            return False
    return True


def main(argv):
    spawned, seconds = float(argv[2]), float(argv[3])
    workdir = argv[1]
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import namebook.cli  # noqa: F401  (the import is part of set-up)
    from namebook.docio import rebuild
    from namebook.engine import evaluate
    wbs = []
    for name in argv[4:]:
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            wbs.append(rebuild(fh.read()))
    for wb in wbs:
        evaluate(wb)
    ready = time.perf_counter()
    setup_cal = statistics.median(calibrate() for _ in range(5))
    if seconds == 0:
        print(json.dumps({"setup_s": (ready - spawned, setup_cal)}))
        return 0

    with open(os.path.join(workdir, "workload.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["docs"]
    books = [Book(workdir, s, wb) for s, wb in zip(specs, wbs)]
    runner = Runner(workdir)
    samples = {a: [[] for _ in books] for a in ACTIONS}
    for action in ACTIONS:            # warm-up round, checked but untimed
        runner.op(action, books[0])
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        i = rounds % len(books)
        cals, dts = [], {}
        for action in ACTIONS:
            cals.append(calibrate())
            dts[action] = runner.op(action, books[i])
        cal = statistics.median(cals)
        for action, dt in dts.items():
            if dt is not None:
                samples[action][i].append((dt, cal))
        rounds += 1
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"setup_s": (ready - spawned, setup_cal),
                      "samples": samples,
                      "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "failures": runner.failures[:5],
                      "peak_rss_mb": rss_kb / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
