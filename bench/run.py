"""The namebook benchmark: one command, four seeded workloads.

    python3 bench/run.py --workload {fixtures,sweep,chain,bands} \\
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it works on the checkout's own
`src/namebook` and writes only under `.bench_work/` (removed at exit)
and, for traced runs, `.bench_out/`.  It prints every metric by name and
unit, then as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end actions a user runs (see worker.py)
in fresh worker processes, one after another, each timing rounds of all
five actions for S/3 seconds, then in SETUP_ONLY more that only set
up, for the median set-up time; times are reported in seconds at a fixed
reference host speed (see REFERENCE_CAL).  --trace 1 is the separate
traced run of layers.py, which reports per-layer metrics, in plain
seconds, instead.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKERS = 3
# Set-up is one sample per fresh process, so besides the measuring
# workers the run starts this many that only set up; setup_s is the
# median over all of them.
SETUP_ONLY = 4
# Tail latency is read at the highest percentile that still leaves ten
# samples beyond it at the per-document sample count a seed run reaches
# on a 2-core host (bench/baseline.json records the counts).  It is fixed
# per workload, so that a change which makes rounds faster or slower, and
# so takes more or fewer samples, does not move the percentile itself.
TAIL_PERCENTILE = {"fixtures": 65, "sweep": 80, "chain": 60, "bands": 65}
# The shared host's speed drifts by up to 1.5x within a minute, for
# every process alike, which would swamp a change in the program.  So
# each sample is scaled by REFERENCE_CAL over the time worker.calibrate()
# took in the same round: times are reported in seconds at the host speed
# at which calibrate() takes REFERENCE_CAL (its median on an idle 2-core
# VM, CPython 3.11.7).  The raw medians are printed beside them.
REFERENCE_CAL = 0.0020


def percentile(xs, p):
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "namebook", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def check_documents(docs):
    """Every generated document must evaluate without an error value and
    come back byte-identical from `export_doc`."""
    from namebook.docio import export_doc, rebuild
    from namebook.engine import evaluate
    for d in docs:
        wb = rebuild(d.text)
        if evaluate(wb).has_errors():
            raise SystemExit("%s evaluates to error values" % d.name)
        if export_doc(wb) != d.text:
            raise SystemExit("%s is not in canonical form" % d.name)


def spawn_worker(workdir, docs, seconds):
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workdir,
         repr(spawned), repr(seconds)] + [d.name for d in docs],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=seconds + 60)
    if proc.returncode != 0:
        raise SystemExit("worker failed:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(workload, docs, workdir, seconds):
    with open(os.path.join(workdir, "workload.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"docs": [vars(d) for d in docs]}, fh)
    runs = [spawn_worker(workdir, docs, seconds / WORKERS)
            for _ in range(WORKERS)]
    setups = [r["setup_s"] for r in runs] + [
        spawn_worker(workdir, docs, 0)["setup_s"] for _ in range(SETUP_ONLY)]

    # With several documents (fixtures) each is summarised on its own and
    # the summaries averaged, so documents of unequal cost cannot move a
    # pooled median between them.
    metrics = {}
    p = TAIL_PERCENTILE[workload]
    for action in runs[0]["samples"]:
        per_doc = [[dt * REFERENCE_CAL / cal for r in runs
                    for dt, cal in r["samples"][action][i]]
                   for i in range(len(docs))]
        if not all(per_doc):
            raise SystemExit("every %s op failed on a document: %s"
                             % (action, runs[0]["failures"]))
        metrics[action + "_s"] = (statistics.fmean(
            statistics.median(xs) for xs in per_doc), "s")
        metrics[action + "_tail_s"] = (statistics.fmean(
            percentile(xs, p) for xs in per_doc), "s")
        raw = statistics.fmean(
            statistics.median(dt for r in runs
                              for dt, _ in r["samples"][action][i])
            for i in range(len(docs)))
        print("# %s: %d samples per document, tail at p%d, raw median %.6g s"
              % (action, min(map(len, per_doc)), p, raw))
    metrics["setup_s"] = (statistics.median(
        dt * REFERENCE_CAL / cal for dt, cal in setups), "s")
    cals = [cal for r in runs for a in r["samples"].values() for doc in a
            for _, cal in doc]
    print("# host speed: calibrate() median %.6g s against %.6g s reference"
          % (statistics.median(cals), REFERENCE_CAL))
    metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"]
                                                for r in runs), "MB")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for f in r["failures"]:
            print("# FAILED " + f)
    print("# failed_ops %.6f ratio" % (failed / attempted))
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("fixtures", "sweep", "chain", "bands"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/namebook/__init__.py", "tests/oracle.py", "fixtures"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print("not a namebook checkout: %s is missing under %s"
                  % (need, ROOT), file=sys.stderr)
            return 2
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                    HERE]
    import namebook
    if not os.path.abspath(namebook.__file__).startswith(ROOT + os.sep):
        print("imported namebook from outside the checkout: "
              + namebook.__file__, file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        docs = WORKLOADS[args.workload](args.seed)
        check_documents(docs)
        for d in docs:
            with open(os.path.join(workdir, d.name), "w",
                      encoding="utf-8") as fh:
                fh.write(d.text)
        if args.trace:
            import layers
            half = WORKLOADS[args.workload](args.seed, 0.5)
            check_documents(half)
            spans = os.path.join(ROOT, ".bench_out", "spans-%s-%d.jsonl"
                                 % (args.workload, args.seed))
            metrics, runner = layers.run(docs, half, workdir, args.seconds,
                                         spans)
            metrics["src.lines"] = (src_lines(), "lines")
            attempted, failed = runner.attempted, len(runner.failures)
            for f in runner.failures[:5]:
                print("# FAILED " + f)
            print("# spans written to " + os.path.relpath(spans, ROOT))
        else:
            metrics, attempted, failed = end_to_end(args.workload, docs,
                                                    workdir, args.seconds)
            print("# src.lines %d lines" % src_lines())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        print("%-28s %14.6g %s" % (name, value, unit))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
