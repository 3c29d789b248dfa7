"""Regression tests for configuration validation error messages.

Every actionable error message in :class:`ExperimentConfig`,
:class:`ClusterConfig`, and the experiment runner gets one test pinning
both the trigger and the guidance text, so a refactor cannot silently turn
a helpful message back into a bare assertion.
"""

from __future__ import annotations

import pytest

from repro.runner.config import ExperimentConfig
from repro.simulation.cluster import ClusterConfig


class TestExperimentConfigValidation:
    def test_epochs_message(self):
        with pytest.raises(ValueError, match=r"epochs must be >= 1 \(got 0\)"):
            ExperimentConfig(epochs=0)
        with pytest.raises(ValueError, match="at least one epoch"):
            ExperimentConfig(epochs=-3)

    def test_chunk_size_message_explains_the_knob(self):
        with pytest.raises(ValueError,
                           match=r"chunk_size must be >= 1 \(got 0\)"):
            ExperimentConfig(chunk_size=0)
        with pytest.raises(ValueError, match="per scheduling round"):
            ExperimentConfig(chunk_size=-1)

    def test_negative_seed_names_the_remedy(self):
        with pytest.raises(ValueError, match=r"seed must be >= 0 \(got -1\)"):
            ExperimentConfig(seed=-1)
        with pytest.raises(ValueError, match="non-negative integer"):
            ExperimentConfig(seed=-7)
        assert ExperimentConfig(seed=0).seed == 0

    def test_scenario_string_suggests_make_scenario(self):
        with pytest.raises(TypeError, match="make_scenario"):
            ExperimentConfig(scenario="crash-storm")
        # The message lists the known presets so the user can self-serve.
        with pytest.raises(TypeError, match="crash-storm"):
            ExperimentConfig(scenario="storm")

    def test_scenario_wrong_type(self):
        with pytest.raises(TypeError, match="compatible bind"):
            ExperimentConfig(scenario=object())

    def test_valid_config_accepts_defaults(self):
        config = ExperimentConfig()
        assert config.epochs == 3
        assert config.scenario is None and config.storage is None


class TestClusterConfigValidation:
    def test_num_nodes_message_mentions_single_node(self):
        with pytest.raises(ValueError,
                           match=r"num_nodes must be >= 1 \(got 0\)"):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ValueError, match="single-node setting"):
            ClusterConfig(num_nodes=-2)

    def test_workers_per_node_message(self):
        with pytest.raises(ValueError,
                           match=r"workers_per_node must be >= 1 \(got 0\)"):
            ClusterConfig(workers_per_node=0)


class TestRunnerValidation:
    def test_cannot_fail_last_survivor_message(self):
        from repro.simulation.cluster import Cluster

        cluster = Cluster(ClusterConfig(num_nodes=1, workers_per_node=1))
        with pytest.raises(ValueError, match="last surviving node"):
            cluster.fail_node(0)
