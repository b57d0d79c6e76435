"""Scheduler registry: built-ins, registration rules, error paths."""

import pytest

from repro.errors import SchedulerError
from repro.sched import (
    available_schedulers,
    create_scheduler,
    get_scheduler,
    register_scheduler,
    unregister_scheduler,
)
from repro.serve import BatchPolicy


class TestBuiltins:
    def test_builtins_registered(self):
        assert set(available_schedulers()) >= {"fifo", "slo", "adaptive"}

    def test_builtins_resolve(self):
        for name in ("fifo", "slo", "adaptive"):
            assert callable(get_scheduler(name))

    def test_create_builds_instances(self, tiny_pool):
        for name in ("fifo", "slo", "adaptive"):
            scheduler = create_scheduler(
                name, tiny_pool, BatchPolicy(max_wait_s=1e-3)
            )
            assert scheduler.name == name


class TestRegistration:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SchedulerError, match="unknown scheduler"):
            get_scheduler("no-such-policy")

    def test_duplicate_rejected_unless_replace(self):
        register_scheduler("sched-test-dup", lambda pool, policy, **kw: None)
        try:
            with pytest.raises(SchedulerError, match="already registered"):
                register_scheduler("sched-test-dup", lambda pool, policy, **kw: None)
            register_scheduler("sched-test-dup",
                               lambda pool, policy, **kw: "replaced",
                               replace=True)
            assert get_scheduler("sched-test-dup")(None, None) == "replaced"
        finally:
            unregister_scheduler("sched-test-dup")

    def test_bad_names_and_factories_rejected(self):
        with pytest.raises(SchedulerError, match="non-empty string"):
            register_scheduler("", lambda pool, policy: None)
        with pytest.raises(SchedulerError, match="module.path:attribute"):
            register_scheduler("sched-test-lazy", "no-colon-here")
        with pytest.raises(SchedulerError, match="callable"):
            register_scheduler("sched-test-num", 42)

    def test_broken_lazy_spec_reported(self):
        register_scheduler("sched-test-broken", "no.such.module:Thing")
        try:
            with pytest.raises(SchedulerError, match="failed to load"):
                get_scheduler("sched-test-broken")
        finally:
            unregister_scheduler("sched-test-broken")

    def test_custom_scheduler_drives_a_replay(self, tiny_pool, tiny_request):
        """The extension story: register a factory, name it in the sim."""
        from repro.sched.fifo import FifoScheduler
        from repro.serve import BatchPolicy, ServingSimulator

        class NoisyFifo(FifoScheduler):
            name = "noisy-fifo"

        register_scheduler("noisy-fifo",
                           lambda pool, policy, **kw: NoisyFifo(pool, policy, **kw))
        try:
            simulator = ServingSimulator(
                tiny_pool, BatchPolicy(max_wait_s=1e-3), scheduler="noisy-fifo"
            )
            report = simulator.replay([tiny_request(i) for i in range(3)])
            assert report.count == 3
            assert report.scheduler == "noisy-fifo"
        finally:
            unregister_scheduler("noisy-fifo")


class TestOptionValidation:
    def test_fifo_rejects_options(self, tiny_pool):
        with pytest.raises(SchedulerError, match="no options"):
            create_scheduler("fifo", tiny_pool, BatchPolicy(), bogus=1)

    def test_slo_rejects_unknown_options(self, tiny_pool):
        with pytest.raises(SchedulerError, match="unknown options"):
            create_scheduler("slo", tiny_pool, BatchPolicy(), bogus=1)

    def test_adaptive_rejects_unknown_options(self, tiny_pool):
        with pytest.raises(SchedulerError, match="unknown options"):
            create_scheduler("adaptive", tiny_pool, BatchPolicy(), bogus=1)

    def test_slo_validates_config(self, tiny_pool):
        with pytest.raises(SchedulerError, match="queue_limit"):
            create_scheduler("slo", tiny_pool, BatchPolicy(), queue_limit=0)
        with pytest.raises(SchedulerError, match="quantum"):
            create_scheduler("slo", tiny_pool, BatchPolicy(), quantum=0)
        with pytest.raises(SchedulerError, match="weight"):
            create_scheduler("slo", tiny_pool, BatchPolicy(),
                             tenant_weights={"a": -1.0})
        # NaN passes ``weight <= 0``; it used to surface mid-replay as a
        # bare ValueError from the share rounding.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SchedulerError, match="weight must be finite"):
                create_scheduler("slo", tiny_pool, BatchPolicy(),
                                 tenant_weights={"a": bad})
            with pytest.raises(SchedulerError, match="quantum must be finite"):
                create_scheduler("slo", tiny_pool, BatchPolicy(), quantum=bad)

    def test_adaptive_validates_config(self, tiny_pool):
        with pytest.raises(SchedulerError, match="min_wait_s"):
            create_scheduler("adaptive", tiny_pool, BatchPolicy(),
                             min_wait_s=2.0, max_wait_s=1.0)
        with pytest.raises(SchedulerError, match="pressure"):
            create_scheduler("adaptive", tiny_pool, BatchPolicy(), pressure=0)
        with pytest.raises(SchedulerError, match="idle_fill"):
            create_scheduler("adaptive", tiny_pool, BatchPolicy(), idle_fill=0.0)
        with pytest.raises(SchedulerError, match="finite"):
            create_scheduler("adaptive", tiny_pool,
                             BatchPolicy(max_wait_s=float("inf")))