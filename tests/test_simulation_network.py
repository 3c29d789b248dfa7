"""Tests for the network cost model."""

import pytest
from hypothesis import given, strategies as st

from repro.simulation.network import KEY_BYTES, NetworkModel


@pytest.fixture
def net() -> NetworkModel:
    return NetworkModel(
        latency=10e-6, bandwidth=1e9, message_handling_cost=1e-6,
        local_access_cost=1e-7, compute_per_step=20e-6,
    )


class TestNetworkModelValidation:
    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            NetworkModel(latency=-1e-6)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0)

    def test_rejects_negative_handling_cost(self):
        with pytest.raises(ValueError):
            NetworkModel(message_handling_cost=-1.0)

    def test_rejects_negative_local_cost(self):
        with pytest.raises(ValueError):
            NetworkModel(local_access_cost=-1.0)

    def test_rejects_negative_compute(self):
        with pytest.raises(ValueError):
            NetworkModel(compute_per_step=-1.0)

    def test_defaults_are_valid(self):
        model = NetworkModel()
        assert model.latency > 0
        assert model.bandwidth > 0


class TestCosts:
    def test_transfer_cost_scales_linearly(self, net):
        assert net.transfer_cost(2000) == pytest.approx(2 * net.transfer_cost(1000))

    def test_transfer_cost_rejects_negative(self, net):
        with pytest.raises(ValueError):
            net.transfer_cost(-1)

    def test_message_cost_includes_latency_and_key(self, net):
        assert net.message_cost(0) == pytest.approx(
            net.latency + KEY_BYTES / net.bandwidth
        )

    def test_remote_access_is_two_messages(self, net):
        value_bytes = 64
        expected = net.message_cost(0) + net.message_cost(value_bytes)
        assert net.remote_access_cost(value_bytes) == pytest.approx(expected)

    def test_relocation_is_three_messages(self, net):
        value_bytes = 64
        expected = 2 * net.message_cost(0) + net.message_cost(value_bytes)
        assert net.relocation_cost(value_bytes) == pytest.approx(expected)

    def test_relocation_occupancy_excludes_latency(self, net):
        """Asynchronous relocation must be far cheaper for the issuing thread
        than the end-to-end relocation duration (this asymmetry is the point
        of localize-ahead)."""
        value_bytes = 64
        assert net.relocation_occupancy(value_bytes) < net.relocation_cost(value_bytes)
        assert net.relocation_occupancy(value_bytes) == pytest.approx(
            3 * net.message_handling_cost
            + net.transfer_cost(value_bytes + 3 * KEY_BYTES)
        )

    def test_server_occupancy_excludes_latency(self, net):
        assert net.server_occupancy(64) < net.remote_access_cost(64)

    @pytest.mark.parametrize("cost", [
        "remote_access_cost", "relocation_cost", "relocation_occupancy",
        "server_occupancy",
    ])
    def test_each_protocol_moves_the_value_once(self, net, cost):
        """A larger value adds exactly one transfer of the extra bytes."""
        cost = getattr(net, cost)
        assert cost(64 + 1000) - cost(64) == pytest.approx(net.transfer_cost(1000))

    def test_local_access_is_cheapest(self, net):
        assert net.local_access_cost < net.relocation_occupancy(64)
        assert net.relocation_occupancy(64) < net.remote_access_cost(64)


class TestAllReduce:
    def test_single_node_is_free(self, net):
        assert net.allreduce_cost(1000, 1) == 0.0

    def test_two_nodes_is_one_round(self, net):
        assert net.allreduce_cost(1000, 2) == pytest.approx(net.message_cost(1000))

    def test_rounds_are_log2(self, net):
        cost_8 = net.allreduce_cost(1000, 8)
        assert cost_8 == pytest.approx(3 * net.message_cost(1000))

    def test_non_power_of_two_rounds_up(self, net):
        assert net.allreduce_cost(1000, 5) == pytest.approx(3 * net.message_cost(1000))

    def test_rejects_zero_nodes(self, net):
        with pytest.raises(ValueError):
            net.allreduce_cost(1000, 0)

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=64))
    def test_allreduce_monotone_in_payload(self, payload, nodes):
        net = NetworkModel()
        assert net.allreduce_cost(payload + 1000, nodes) >= net.allreduce_cost(payload, nodes)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_costs_are_non_negative(self, payload):
        net = NetworkModel()
        assert net.message_cost(payload) >= 0
        assert net.remote_access_cost(payload) >= 0
        assert net.relocation_cost(payload) >= 0
        assert net.relocation_occupancy(payload) >= 0
        assert net.server_occupancy(payload) >= 0
