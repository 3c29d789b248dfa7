"""Tests for the simulated clock."""

import pytest
from hypothesis import given, strategies as st

from repro.simulation.clock import SimulatedClock


class TestSimulatedClock:
    def test_starts_at_zero_by_default(self):
        assert SimulatedClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimulatedClock(1.5).now == 1.5

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock(-0.1)

    def test_advance_moves_forward(self):
        clock = SimulatedClock()
        assert clock.advance(0.5) == 0.5
        assert clock.advance(0.25) == 0.75
        assert clock.now == 0.75

    def test_advance_by_zero_is_allowed(self):
        clock = SimulatedClock(1.0)
        assert clock.advance(0.0) == 1.0

    def test_negative_advance_rejected(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            clock.advance(-1e-9)

    def test_advance_to_future(self):
        clock = SimulatedClock(1.0)
        assert clock.advance_to(2.0) == 2.0
        assert clock.now == 2.0

    def test_advance_to_past_is_a_noop(self):
        clock = SimulatedClock(5.0)
        assert clock.advance_to(1.0) == 5.0
        assert clock.now == 5.0

    @given(st.lists(st.floats(min_value=0, max_value=1e3), max_size=50))
    def test_monotonicity_property(self, advances):
        """The clock never moves backwards regardless of the advance sequence."""
        clock = SimulatedClock()
        previous = clock.now
        for amount in advances:
            clock.advance(amount)
            assert clock.now >= previous
            previous = clock.now

    @given(st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e6))
    def test_advance_to_is_max_property(self, start, target):
        clock = SimulatedClock(start)
        clock.advance_to(target)
        assert clock.now == max(start, target)
