"""The steadiness command's arithmetic and verdicts."""

import math

import pytest

from steady import judge, spread, worsening


def spec(name, bound=None, better="lower"):
    out = {"name": name, "unit": "s", "better": better}
    if bound is not None:
        out["bound"] = bound
    return out


def test_spread_is_the_interquartile_distance_over_the_median():
    # quantiles(n=4) of 1..9 are 2.5, 5, 7.5
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == 5 / 5
    assert spread([2.0] * 10) == 0.0


def test_spread_of_a_metric_that_is_always_zero_is_zero():
    assert spread([0, 0, 0, 0]) == 0.0
    assert math.isinf(spread([0, 0, 0, 0, 0, 5]))


def test_worsening_follows_the_better_direction():
    assert worsening([1.0, 1.0], [1.2, 1.2], "lower") == pytest.approx(0.2)
    assert worsening([1.0, 1.0], [0.8, 0.8], "lower") < 0
    assert worsening([10.0], [8.0], "higher") == pytest.approx(0.2)


def test_a_spread_beyond_the_bound_fails():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01, 0.99]
    noisy = [0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9, 1.1, 1.0]
    rows, passed = judge([{"a_s": steady}, {"a_s": steady}],
                         [spec("a_s", 0.1)])
    assert passed and rows["a_s"]["ok"]
    rows, passed = judge([{"a_s": steady}, {"a_s": noisy}],
                         [spec("a_s", 0.1)])
    assert not passed and rows["a_s"]["spreads"][1] > 0.1


def test_setup_is_judged_on_spread_and_drift_like_any_metric():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01, 0.99]
    noisy = [0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9, 1.1, 1.0]
    _, passed = judge([{"setup_s": steady}, {"setup_s": steady}],
                      [spec("setup_s", 0.25)])
    assert passed
    _, passed = judge([{"setup_s": noisy}, {"setup_s": noisy}],
                      [spec("setup_s", 0.25)])
    assert not passed
    _, passed = judge([{"setup_s": steady},
                       {"setup_s": [x * 1.5 for x in steady]}],
                      [spec("setup_s", 0.25)])
    assert not passed


def test_a_metric_without_bound_is_reported_but_never_fails():
    rows, passed = judge([{"x": [1, 5, 9]}, {"x": [100, 200, 300]}],
                         [spec("x")])
    assert passed and rows["x"]["ok"] is None
    assert rows["x"]["medians"] == [5, 200]
