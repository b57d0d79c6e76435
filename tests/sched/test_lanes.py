"""GlobalLanePool: deterministic growth, affinity, placement order."""

import pytest

from repro.errors import SchedulerError
from repro.sched import GlobalLanePool


class TestGrowth:
    def test_grows_per_parameter_set(self):
        lanes = GlobalLanePool(2)
        assert len(lanes) == 0
        lanes.ensure("kyber-v1")
        assert len(lanes) == 2
        lanes.ensure("kyber-v1")  # idempotent
        assert len(lanes) == 2
        lanes.ensure("dilithium")
        assert len(lanes) == 4

    def test_bad_size_rejected(self):
        with pytest.raises(SchedulerError):
            GlobalLanePool(0)


class TestPlacement:
    def test_idle_lowest_index_first(self):
        lanes = GlobalLanePool(2)
        lanes.ensure("a")
        lane, start = lanes.place("a", 0.0, 1.0)
        assert (lane, start) == (0, 0.0)
        lane, start = lanes.place("a", 0.0, 1.0)
        assert (lane, start) == (1, 0.0)

    def test_queues_on_soonest_free_lane_when_saturated(self):
        lanes = GlobalLanePool(2)
        lanes.ensure("a")
        lanes.place("a", 0.0, 1.0)   # lane 0 busy until 1.0
        lanes.place("a", 0.0, 2.0)   # lane 1 busy until 2.0
        lane, start = lanes.place("a", 0.5, 1.0)
        assert (lane, start) == (0, 1.0)  # waits for lane 0
        assert lanes.busy_s == pytest.approx(4.0)

    def test_affinity_prefers_warm_lane(self):
        lanes = GlobalLanePool(1)
        lanes.ensure("a")
        lanes.ensure("b")          # lanes 0 (a-pool) and 1 (b-pool)
        lanes.place("b", 0.0, 0.1)  # lane 0 now warm for "b"
        lane, start = lanes.place("b", 1.0, 0.1)
        assert lane == 0           # sticks with the warm lane, not index order

    def test_cross_parameter_borrowing(self):
        # One lane per parameter set; "a" is busy, so an "a" burst
        # borrows the idle "b" lane instead of queueing.
        lanes = GlobalLanePool(1)
        lanes.ensure("a")
        lanes.ensure("b")
        first, start_first = lanes.place("a", 0.0, 5.0)
        second, start_second = lanes.place("a", 0.1, 5.0)
        assert first == 0 and start_first == 0.0
        assert second == 1 and start_second == 0.1  # borrowed, no wait

    def test_idle_count_and_earliest_free(self):
        lanes = GlobalLanePool(2)
        assert lanes.earliest_free_s() == float("inf")
        lanes.ensure("a")
        assert lanes.idle_count(0.0) == 2
        lanes.place("a", 0.0, 1.0)
        assert lanes.idle_count(0.0) == 1
        lanes.place("a", 0.0, 2.0)
        assert lanes.idle_count(0.5) == 0
        assert lanes.earliest_free_s() == 1.0

    def test_report_floors_at_one_lane(self):
        lanes = GlobalLanePool(3)
        report = lanes.report()
        assert report.total_lanes == 1 and report.busy_s == 0.0
