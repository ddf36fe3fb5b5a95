"""Steadiness check: run the benchmark in sets of seeds and compare the
spread of each metric with its bound in BENCHMARK.json.

    python3 bench/steady.py --workload chain [--runs 10]
        [--first-seed 1000] [--out report.json]

It runs two sets of the benchmark command, `--runs` times each, each
time with the next seed, and judges the end-to-end metrics.  For every
metric the report gives, per set, the median and the spread (distance
between the first and third quartiles, as `statistics.quantiles(values,
n=4)` gives them, over the median), and how far the second set's median
moved against the first's, in the metric's worse direction.  A metric
passes when both spreads stay within its bound and the median moves by
no more than the bound; the exit code is 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def _share(delta, base) -> float:
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return _share(q3 - q1, statistics.median(values))


def worsening(first, second, better) -> float:
    """Share by which the second median is worse than the first
    (negative when it is better)."""
    a, b = statistics.median(first), statistics.median(second)
    return _share(b - a if better == "lower" else a - b, a)


def judge(sets, specs):
    """sets: one {metric: [values]} per set.  specs: the metric entries
    of BENCHMARK.json.  Returns ({metric: row}, all passed)."""
    rows, passed = {}, True
    for spec in specs:
        name, bound = spec["name"], spec.get("bound")
        spreads = [spread(s[name]) for s in sets]
        move = worsening(sets[0][name], sets[-1][name], spec["better"])
        ok = None
        if bound is not None:
            ok = move <= bound and max(spreads) <= bound
            passed = passed and ok
        rows[name] = {"medians": [statistics.median(s[name]) for s in sets],
                      "spreads": spreads, "worsening": move,
                      "bound": bound, "ok": ok}
    return rows, passed


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", "0"],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=300)
    if proc.returncode != 0:
        raise SystemExit("seed %d failed:\n%s" % (seed, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("seed %d produced wrong output" % seed)
    return {k: m["value"] for k, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--out", help="write the report here as JSON")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = bench["end_to_end"]
    sets = []
    seed = args.first_seed
    for s in range(SETS):
        values = {spec["name"]: [] for spec in specs}
        for _ in range(args.runs):
            got = run_once(bench["command"], args.workload, seed,
                           bench["run_seconds"])
            for name in values:
                values[name].append(got[name])
            print("set %d seed %d done" % (s + 1, seed), file=sys.stderr)
            seed += 1
        sets.append(values)

    rows, passed = judge(sets, specs)
    print("%-26s %12s %8s %8s %8s  %s" % ("metric", "median", "spread",
                                          "worse", "bound", "verdict"))
    for name, row in rows.items():
        verdict = {None: "-", True: "ok", False: "FAIL"}[row["ok"]]
        print("%-26s %12.6g %8.3f %8.3f %8s  %s"
              % (name, row["medians"][0], max(row["spreads"]),
                 row["worsening"], row["bound"], verdict))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "sets": sets,
                       "rows": rows, "passed": passed}, fh, indent=1)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
