"""BENCHMARK.json keeps to the format the benchmark is run under."""

import json
import os
import re

import layers
import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_keys_names_and_units():
    b = load()
    assert set(b) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert 1 <= b["run_seconds"] <= 60
    assert 2 <= len(b["workloads"]) <= 8
    names = [w["name"] for w in b["workloads"]]
    names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in load()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_workloads_are_the_ones_run_py_knows():
    assert [w["name"] for w in load()["workloads"]] == \
        list(run.TAIL_PERCENTILE)


def test_every_growth_metric_is_declared():
    declared = {m["name"] for m in load()["per_layer"]}
    assert {g + ".growth" for g in layers.GROWTH} <= declared
    assert {layer + ".errors" for layer in layers.LAYERS} <= declared
