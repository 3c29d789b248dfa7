"""compare.py verdicts on hand-made results."""

import json
import statistics

import pytest

from perfbench import compare

BENCHMARK = {"end_to_end": [
    {"name": "run_wall_s", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
]}


def stats(value, spread=0.0):
    """``value`` with seven samples around a median 10 % above it, their
    quartiles ``spread`` (as a share of the median) apart."""
    samples = [1.1 * value * (1 + spread * k)
               for k in (-1, -0.5, -0.25, 0, 0.25, 0.5, 1)]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"value": value, "median": median, "q1": q1, "q3": q3,
            "n": len(samples)}


def result(wall, rate, calls=3.0, failed=0, spread=0.0, seed=0):
    return {"host": {"seed": seed}, "smoke": False, "workloads": {"w": {
        "end_to_end": {"run_wall_s": stats(wall, spread),
                       "points_per_s": stats(rate, spread)},
        "per_layer": {"ml.calls": {"value": calls, "unit": "count"},
                      "ml.self_s": {"value": wall / 2, "unit": "s"}},
        "ops_attempted": 10, "ops_failed": failed,
    }}}


def verdicts(a, b):
    report = compare.compare(a, b, BENCHMARK)
    return {row["metric"]: row["verdict"] for row in report["rows"]}, report


def test_within_the_bound_is_same():
    got, report = verdicts(result(2.0, 100.0), result(2.1, 95.0))
    assert got == {"run_wall_s": "same", "points_per_s": "same"}
    assert report["exact"] == [] and report["failures"] == []


def test_direction_decides_better_and_worse():
    got, _ = verdicts(result(2.0, 100.0), result(2.5, 125.0))
    assert got == {"run_wall_s": "worse", "points_per_s": "better"}
    got, _ = verdicts(result(2.0, 100.0), result(1.5, 80.0))
    assert got == {"run_wall_s": "better", "points_per_s": "worse"}


def test_quartiles_wider_than_the_bound_are_unresolved():
    wide = stats(3.0, spread=0.12)
    assert (wide["q3"] - wide["q1"]) / wide["median"] == pytest.approx(0.12)
    got, _ = verdicts(result(2.0, 100.0), result(3.0, 50.0, spread=0.12))
    assert got == {"run_wall_s": "unresolved", "points_per_s": "unresolved"}
    # The same values with quartiles inside the bound are told apart.
    got, _ = verdicts(result(2.0, 100.0), result(3.0, 50.0, spread=0.08))
    assert got == {"run_wall_s": "worse", "points_per_s": "worse"}


def test_exact_metrics_compare_for_equality_and_timings_do_not():
    _, report = verdicts(result(2.0, 100.0, calls=3.0),
                         result(2.05, 100.0, calls=4.0))
    assert report["exact"] == [
        {"metric": "ml.calls", "workload": "w", "a": 3.0, "b": 4.0}]
    assert compare.is_exact("sim.time_s") and compare.is_exact("obs.calls")
    assert not compare.is_exact("ml.self_s")


def test_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(compare, "_BENCHMARK", str(tmp_path / "bench.json"))
    (tmp_path / "bench.json").write_text(json.dumps(BENCHMARK))
    for name, payload in (("a", result(2.0, 100.0)),
                          ("same", result(2.05, 99.0)),
                          ("worse", result(2.6, 100.0)),
                          ("recount", result(2.0, 100.0, calls=4.0)),
                          ("reseeded", result(2.0, 100.0, seed=1)),
                          ("failing", result(2.0, 100.0, failed=1))):
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))

    def run(b):
        return compare.main([str(tmp_path / "a.json"), str(tmp_path / b)])

    assert run("same.json") == 0
    assert run("worse.json") == 1
    assert run("recount.json") == 1  # an exact metric moved
    assert run("failing.json") == 1
    assert "failed operations rose on w" in capsys.readouterr().out
    assert run("reseeded.json") == 2
    assert "not comparable" in capsys.readouterr().err
