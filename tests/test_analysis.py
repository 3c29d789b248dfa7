"""Tests for the skew and speedup analysis utilities."""

import numpy as np
import pytest

from repro.analysis.skew import access_frequency_curve, skew_report, task_access_profile
from repro.analysis.speedup import (
    effective_quality_threshold,
    effective_speedup,
    effective_speedup_from_results,
    raw_speedup,
    raw_speedup_from_results,
)
from repro.runner.experiment import EpochRecord, ExperimentResult
from repro.runner.workloads import kge_task, matrix_factorization_task, word_vectors_task


def make_result(system, qualities, epoch_time=1.0, higher_is_better=True,
                initial=0.0):
    records = [
        EpochRecord(epoch=i + 1, sim_time=epoch_time * (i + 1),
                    epoch_duration=epoch_time, quality={"q": value})
        for i, value in enumerate(qualities)
    ]
    return ExperimentResult(
        system=system, task="t", num_nodes=8, workers_per_node=8,
        initial_quality={"q": initial}, records=records,
        quality_metric="q", higher_is_better=higher_is_better,
    )


class TestSkewAnalysis:
    def test_access_frequency_curve_sorted(self):
        curve = access_frequency_curve(np.array([1.0, 5.0, 3.0]))
        assert curve.tolist() == [5.0, 3.0, 1.0]

    def test_task_access_profile_shapes(self):
        task = kge_task("test")
        profile = task_access_profile(task)
        assert profile["direct"].shape == (task.num_keys(),)
        assert profile["sampling"].shape == (task.num_keys(),)
        np.testing.assert_allclose(
            profile["total"], profile["direct"] + profile["sampling"]
        )

    def test_kge_has_both_access_kinds(self):
        report = skew_report(kge_task("test"))
        assert 0 < report["direct_share"] < 1
        assert 0 < report["sampling_share"] < 1
        assert report["direct_share"] + report["sampling_share"] == pytest.approx(1.0)

    def test_mf_has_no_sampling_access(self):
        report = skew_report(matrix_factorization_task("test"))
        assert report["sampling_share"] == 0.0
        assert report["direct_share"] == 1.0

    def test_wv_sampling_share_substantial(self):
        """Table 2: sampling accesses are a large share of WV accesses."""
        report = skew_report(word_vectors_task("test"))
        assert report["sampling_share"] > 0.2

    def test_access_is_skewed(self):
        """A small fraction of keys accounts for a disproportionate share of
        accesses (the Section 2.1 observation)."""
        report = skew_report(kge_task("test"), top_fraction=0.05)
        assert report["top_share"] > 3 * 0.05


class TestRawSpeedup:
    def test_basic_ratio(self):
        assert raw_speedup(10.0, 2.0) == 5.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            raw_speedup(0.0, 1.0)
        with pytest.raises(ValueError):
            raw_speedup(1.0, 0.0)

    def test_from_results(self):
        single = make_result("single-node", [0.5], epoch_time=8.0)
        fast = make_result("nups", [0.5], epoch_time=1.0)
        speedups = raw_speedup_from_results([single, fast])
        assert speedups == {"nups": 8.0}

    def test_missing_single_node_raises(self):
        with pytest.raises(ValueError):
            raw_speedup_from_results([make_result("nups", [0.5])])


class TestEffectiveSpeedup:
    def test_threshold_higher_is_better(self):
        single = make_result("single-node", [0.5, 1.0])
        assert effective_quality_threshold(single) == pytest.approx(0.9)

    def test_threshold_lower_is_better(self):
        single = make_result("single-node", [1.5, 1.0], higher_is_better=False,
                             initial=2.0)
        # 90% of the improvement from 2.0 down to 1.0.
        assert effective_quality_threshold(single) == pytest.approx(2.0 - 0.9)

    def test_effective_speedup_reached(self):
        single = make_result("single-node", [0.5, 0.92, 1.0], epoch_time=10.0)
        variant = make_result("nups", [0.95], epoch_time=5.0)
        assert effective_speedup(single, variant) == pytest.approx(20.0 / 5.0)

    def test_effective_speedup_not_reached_is_none(self):
        single = make_result("single-node", [0.5, 1.0], epoch_time=10.0)
        slow = make_result("classic", [0.1, 0.2], epoch_time=10.0)
        assert effective_speedup(single, slow) is None

    def test_from_results_excludes_single_node(self):
        single = make_result("single-node", [1.0], epoch_time=10.0)
        variant = make_result("nups", [1.0], epoch_time=2.0)
        speedups = effective_speedup_from_results([single, variant])
        assert set(speedups) == {"nups"}
        assert speedups["nups"] == pytest.approx(5.0)
