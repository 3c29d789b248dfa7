"""Tests for periodic background-event scheduling."""

import pytest

from repro.simulation.events import PeriodicSchedule


class TestPeriodicSchedule:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            PeriodicSchedule(0.0)
        with pytest.raises(ValueError):
            PeriodicSchedule(-1.0)

    def test_disabled_schedule_never_fires(self):
        schedule = PeriodicSchedule.disabled()
        assert not schedule.enabled
        assert schedule.due_count(1e9) == 0

    def test_not_due_before_first_interval(self):
        schedule = PeriodicSchedule(1.0)
        assert schedule.due_count(0.5) == 0

    def test_due_after_interval(self):
        schedule = PeriodicSchedule(1.0)
        assert schedule.due_count(1.0) == 1

    def test_multiple_periods_due(self):
        schedule = PeriodicSchedule(1.0)
        assert schedule.due_count(3.5) == 3

    def test_fire_advances_next_due(self):
        schedule = PeriodicSchedule(1.0)
        schedule.fire(1.0, duration=0.1)
        assert schedule.fired == 1
        assert schedule.due_count(1.5) == 0
        assert schedule.due_count(2.0) == 1

    def test_fire_rejects_negative_duration(self):
        schedule = PeriodicSchedule(1.0)
        with pytest.raises(ValueError):
            schedule.fire(1.0, duration=-0.1)

    def test_slow_task_reduces_achieved_frequency(self):
        """If one execution takes longer than the interval, the schedule falls
        behind instead of firing a burst of make-up executions."""
        schedule = PeriodicSchedule(1.0)
        now = 0.0
        for _ in range(10):
            now += 1.0
            while schedule.due_count(now) > 0:
                schedule.fire(now, duration=2.5)
        # In 10 seconds with 2.5-second executions at most 4 can run.
        assert schedule.fired <= 4

    def test_fast_task_achieves_target_frequency(self):
        schedule = PeriodicSchedule(1.0)
        now = 0.0
        for _ in range(10):
            now += 1.0
            while schedule.due_count(now) > 0:
                schedule.fire(now, duration=0.01)
        assert schedule.fired == 10

    def test_fire_before_busy_until_starts_late(self):
        """A firing that arrives while the previous one still runs starts
        when that one finishes."""
        schedule = PeriodicSchedule(1.0)
        assert schedule.fire(1.0, duration=2.0) == 3.0
        assert schedule.due_count(2.5) == 0
        assert schedule.due_count(3.0) == 1
        assert schedule.fire(2.5, duration=0.5) == 3.5

    def test_start_offsets_the_first_period(self):
        schedule = PeriodicSchedule(1.0, start=5.0)
        assert schedule.due_count(5.5) == 0
        assert schedule.due_count(6.0) == 1

    def test_busy_time_accumulates(self):
        schedule = PeriodicSchedule(1.0)
        schedule.fire(1.0, 0.5)
        schedule.fire(2.0, 0.25)
        assert schedule.total_busy_time == pytest.approx(0.75)
