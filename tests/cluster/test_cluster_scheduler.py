"""Cluster scheduler: conformance, chip lifecycle, routing, registry."""

import pytest

from repro.check import check_cluster_trace, check_trace, cluster_busy_by_chip
from repro.cluster import (
    AffinityRouter,
    ChipEvent,
    ClusterScheduler,
    available_routers,
    create_router,
    register_router,
    unregister_router,
)
from repro.errors import SchedulerError
from repro.obs import RecordingTracer
from repro.serve import BatchPolicy, ServingSimulator


@pytest.fixture
def key_request(tiny_request):
    """Requests keyed by a small operand id, for router-level tests."""

    def make(i, key, tenant="t"):
        if key is None:  # operand-less kernel: the degenerate batch key
            return tiny_request(i, tenant=tenant)
        operand = tuple((key * 5 + j * 3 + 1) % 97 for j in range(16))
        return tiny_request(i, op="polymul", operand=operand, tenant=tenant)

    return make


def _simulator(pool, scheduler_options):
    return ServingSimulator(
        pool, BatchPolicy(max_wait_s=1e-3),
        scheduler="cluster:fifo", scheduler_options=scheduler_options,
    )


class TestConformance:
    def test_sixteen_chips_pass_all_sched_and_cluster_rules(
            self, tiny_pool, operand_trace):
        trace = operand_trace(60)
        sim = _simulator(tiny_pool, {"chips": 16, "router": "round-robin"})
        tracer = RecordingTracer()
        report = sim.replay(trace, tracer=tracer)
        assert report.count == len(trace)
        # Whole-stream rules on namespaced ids, then the cluster layer
        # (per-chip SCHED re-runs included).
        assert check_trace(tracer.events) == []
        assert check_cluster_trace(tracer.events, chips=16) == []
        busy = cluster_busy_by_chip(tracer.events, 16)
        assert sum(1 for b in busy if b > 0) >= 8  # round-robin spreads

    def test_affinity_keeps_each_key_on_one_chip(self, tiny_pool,
                                                 operand_trace):
        trace = [r for r in operand_trace(48) if r.operand is not None]
        sim = _simulator(tiny_pool, {"chips": 4})
        tracer = RecordingTracer()
        sim.replay(trace, tracer=tracer)
        assert check_cluster_trace(tracer.events, chips=4) == []
        owner = {}
        for event in tracer.events:
            if event.phase == "enqueue":
                key = next(r.operand for r in trace
                           if r.request_id == event.request_id)
                owner.setdefault(key, set()).add(event.attrs["chip"])
        assert owner  # the trace exercised pinnable keys
        assert all(len(chips) == 1 for chips in owner.values())


class TestChipLifecycle:
    def test_drain_window_routes_around_the_chip(self, tiny_pool,
                                                 operand_trace):
        trace = operand_trace(60)  # arrivals every 0.2 ms -> 12 ms span
        chip_events = ((3e-3, 1, "drain"), (8e-3, 1, "restore"))
        sim = _simulator(tiny_pool, {"chips": 4, "router": "round-robin",
                                     "chip_events": chip_events})
        tracer = RecordingTracer()
        report = sim.replay(trace, tracer=tracer)
        assert report.count == len(trace)  # drained != dropped
        findings = check_cluster_trace(tracer.events, chips=4,
                                       chip_events=chip_events)
        assert findings == []
        # The drained chip really was routed around, and came back.
        enqueues = [(e.t_s, e.attrs["chip"]) for e in tracer.events
                    if e.phase == "enqueue"]
        assert all(chip != 1 for t, chip in enqueues if 3e-3 < t < 8e-3)
        assert any(chip == 1 for t, chip in enqueues if t >= 8e-3)

    def test_fail_replays_queued_work_on_survivors(self, tiny_pool,
                                                   operand_trace):
        trace = operand_trace(60)
        chip_events = ((2.5e-3, 0, "fail"),)
        sim = _simulator(tiny_pool, {"chips": 2, "router": "round-robin",
                                     "chip_events": chip_events})
        tracer = RecordingTracer()
        report = sim.replay(trace, tracer=tracer)
        # Conservation across the failure: every admitted request is
        # still answered (SCHED009 holds via re-enqueue on survivors).
        assert report.count == len(trace)
        assert check_cluster_trace(tracer.events, chips=2,
                                   chip_events=chip_events) == []
        late_chips = {e.attrs["chip"] for e in tracer.events
                      if e.phase == "enqueue" and e.t_s > 2.5e-3}
        assert late_chips == {1}

    def test_all_chips_down_drops_with_reason(self, tiny_pool, tiny_request):
        trace = [tiny_request(i, arrival_s=1e-4 + i * 1e-4)
                 for i in range(5)]
        sim = _simulator(tiny_pool, {
            "chips": 2,
            "chip_events": ((0.0, 0, "drain"), (0.0, 1, "drain")),
        })
        report = sim.replay(trace)
        assert report.count == 0
        assert report.offered == len(trace)
        assert {d.reason for d in report.drops} == {"no_live_chips"}

    def test_chip_event_validation(self, tiny_pool):
        with pytest.raises(SchedulerError, match="unknown chip action"):
            ChipEvent(0.0, 0, "explode")
        with pytest.raises(SchedulerError, match=">= 0"):
            ChipEvent(-1.0, 0, "drain")
        with pytest.raises(SchedulerError, match="cluster has 2"):
            ClusterScheduler(tiny_pool, BatchPolicy(), chips=2,
                             chip_events=((0.0, 5, "drain"),))


class TestSchedulerShape:
    def test_name_collapses_on_a_cluster_of_one(self, tiny_pool):
        assert ClusterScheduler(tiny_pool, BatchPolicy(), chips=1).name \
            == "fifo"
        assert ClusterScheduler(tiny_pool, BatchPolicy(), chips=4,
                                inner="slo").name == "cluster:slo"

    def test_clusters_do_not_nest(self, tiny_pool):
        with pytest.raises(SchedulerError, match="do not nest"):
            ClusterScheduler(tiny_pool, BatchPolicy(), chips=2,
                             inner="cluster:fifo")

    def test_chips_validated(self, tiny_pool):
        with pytest.raises(SchedulerError, match="chips >= 1"):
            ClusterScheduler(tiny_pool, BatchPolicy(), chips=0)

    def test_bool_chips_rejected(self, tiny_pool, operand_trace):
        # True is an int: it must not build a one-chip cluster, neither
        # directly nor through a replay's scheduler options.
        with pytest.raises(SchedulerError, match="chips >= 1"):
            ClusterScheduler(tiny_pool, BatchPolicy(), chips=True)
        with pytest.raises(SchedulerError, match="chips >= 1"):
            _simulator(tiny_pool, {"chips": True}).replay(operand_trace(2))


class TestAffinityRouter:
    LIVE8 = tuple(range(8))

    def test_rendezvous_pins_are_drain_stable(self, key_request):
        router = AffinityRouter(8)
        requests = [key_request(i, i) for i in range(40)]
        before = {r.batch_key: router.chip_for(r, self.LIVE8)
                  for r in requests}
        victim = before[requests[0].batch_key]
        survivors = tuple(c for c in self.LIVE8 if c != victim)
        after = {r.batch_key: router.chip_for(r, survivors)
                 for r in requests}
        for key in after:
            if before[key] != victim:
                assert after[key] == before[key]  # untouched pins stay put
            else:
                assert after[key] != victim

    def test_replication_rotates_hot_tenant_over_top_k(self, key_request):
        router = AffinityRouter(8, replicate={"hot": 3})
        hot = {router.chip_for(key_request(i, 42, tenant="hot"), self.LIVE8)
               for i in range(30)}
        assert len(hot) == 3
        cold = {router.chip_for(key_request(i, 42, tenant="cold"), self.LIVE8)
                for i in range(30)}
        assert len(cold) == 1
        assert cold <= hot  # the primary is the top-ranked chip

    def test_operandless_keys_spread_round_robin(self, key_request):
        router = AffinityRouter(8)
        live = (0, 2, 5)
        chips = [router.chip_for(key_request(i, None), live)
                 for i in range(6)]
        assert chips == [0, 2, 5, 0, 2, 5]

    def test_empty_live_set_rejected(self, key_request):
        with pytest.raises(SchedulerError, match="no live chips"):
            AffinityRouter(4).chip_for(key_request(0, 1), ())

    def test_replicate_counts_validated(self):
        with pytest.raises(SchedulerError, match="ints >= 1"):
            AffinityRouter(4, replicate={"hot": 0})
        # True is an int: like a bool ``chips``, it is not a count of 1.
        for replicate in (True, {"hot": True}):
            with pytest.raises(SchedulerError, match="ints >= 1"):
                AffinityRouter(4, replicate=replicate)


class TestRouterRegistry:
    def test_builtins_registered(self):
        assert {"affinity", "round-robin"} <= set(available_routers())

    def test_register_and_create_custom_router(self, key_request):
        class Pinned:
            def __init__(self, chips):
                self.chips = chips

            def chip_for(self, request, live):
                return live[0]

        register_router("pinned-test", Pinned)
        try:
            router = create_router("pinned-test", 4)
            assert router.chip_for(key_request(0, 1), (2, 3)) == 2
        finally:
            unregister_router("pinned-test")
        assert "pinned-test" not in available_routers()

    def test_bad_options_rejected_loudly(self):
        with pytest.raises(SchedulerError, match="rejected its options"):
            create_router("round-robin", 4, bogus=True)
