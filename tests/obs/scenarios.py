"""The golden replay scenarios for tracing-parity tests.

Each builder constructs a fresh pool + simulator and replays one
deterministic trace; the parity tests run it untraced and traced and
compare :func:`repro.serve.serialize_report` output against the
checked-in golden in ``tests/obs/goldens/``.  Regenerate after an
intentional serving-stack change with::

    PYTHONPATH=src python tests/obs/scenarios.py --write

and review the golden diff like any other code change.
"""

import pathlib

from repro.cluster import ClusterSimulator
from repro.ntt.params import STANDARD_PARAMS, NTTParams
from repro.obs import BurnRateRule, SLOPolicy, SLOTracer
from repro.serve import (
    BatchPolicy,
    EnginePool,
    PoolConfig,
    ReplayConfig,
    Request,
    ServingSimulator,
    bursty_trace,
    poisson_trace,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

TINY_NAME = "tiny-obs-golden"
TINY_N = 16
TINY_Q = 97


def _tiny_trace():
    trace = []
    for i in range(10):
        trace.append(Request(
            request_id=i,
            op="ntt",
            params_name=TINY_NAME,
            payload=tuple((i * 7 + j) % TINY_Q for j in range(TINY_N)),
            operand=None,
            arrival_s=i * 4e-4,
            tenant="a" if i % 2 else "b",
            kind="tiny",
        ))
    return trace


def tiny_replay(tracer=None):
    """Handcrafted staggered arrivals on a 16-point ring, fifo."""
    STANDARD_PARAMS[TINY_NAME] = NTTParams(n=TINY_N, q=TINY_Q,
                                           name="tiny obs golden ring")
    try:
        pool = EnginePool(PoolConfig(size=2, rows=32, cols=32))
        sim = ServingSimulator(pool, BatchPolicy(max_wait_s=1e-3))
        return sim.replay(_tiny_trace(), tracer=tracer)
    finally:
        STANDARD_PARAMS.pop(TINY_NAME, None)


def kyber_replay(tracer=None):
    """Poisson Kyber traffic, fifo at the default window."""
    trace = poisson_trace("kyber", 2000.0, 0.02, seed=2023)
    sim = ServingSimulator(EnginePool(PoolConfig(size=2)),
                           BatchPolicy(max_wait_s=2e-3))
    return sim.replay(trace, tracer=tracer)


def mixed_slo_replay(tracer=None):
    """Bursty mixed-tenant SLO traffic through the slo scheduler."""
    trace = bursty_trace("mixed-slo", 4000.0, 0.02, seed=7)
    sim = ServingSimulator(
        EnginePool(PoolConfig(size=2)), BatchPolicy(max_wait_s=2e-3),
        scheduler="slo",
        scheduler_options=dict(queue_limit=64,
                               tenant_weights={"handshake": 2.0}),
    )
    return sim.replay(trace, tracer=tracer)


#: The policy the overload scenario is judged under: 90% deadline
#: attainment, one fast page rule (5 ms short / 20 ms long, 2x burn).
OVERLOAD_POLICY = SLOPolicy(
    objective=0.9,
    rules=(BurnRateRule(short_s=0.005, long_s=0.02, threshold=2.0,
                        severity="page"),),
)


def overload_trace():
    """A 12 ms overload burst, then thinned-to-a-fifth recovery traffic."""
    trace = poisson_trace("mixed-slo", 25000.0, 0.03, seed=11)
    return [r for r in trace if r.arrival_s < 0.012 or r.request_id % 5 == 0]


def overload_replay(tracer=None):
    """Overload then recovery on one engine under :data:`OVERLOAD_POLICY`.

    The burn-rate alerts must deterministically fire during the burst
    and resolve during the recovery — the golden pins the full alert
    history (tenants, fire/resolve times, burn rates).  The SLOTracer
    wraps whatever tracer the caller passes, so the untraced and traced
    parity paths both run the identical alert evaluation.
    """
    sim = ServingSimulator(
        EnginePool(PoolConfig(size=1)), BatchPolicy(max_wait_s=2e-3),
        scheduler="slo",
        scheduler_options=dict(queue_limit=16,
                               tenant_weights={"handshake": 2.0}),
    )
    return sim.replay(overload_trace(),
                      tracer=SLOTracer(OVERLOAD_POLICY, inner=tracer))


def two_tenant_trace():
    """The mixed-slo burst without its HE tenant (compiles in seconds)."""
    trace = bursty_trace("mixed-slo", 6000.0, 0.02, seed=7)
    return [r for r in trace if r.tenant != "analytics"]


def adaptive_replay(tracer=None):
    """Bursty two-tenant Kyber/Dilithium traffic through adaptive."""
    sim = ServingSimulator(EnginePool(PoolConfig(size=2)),
                           BatchPolicy(max_wait_s=2e-3),
                           scheduler="adaptive")
    return sim.replay(two_tenant_trace(), tracer=tracer)


#: Chip 1 fails mid-burst: its open batches flush and their members
#: re-enqueue on the survivors.
CLUSTER_CHIPS = 4
CLUSTER_CHIP_EVENTS = ((0.006, 1, "fail"),)


def cluster_adaptive_replay(tracer=None):
    """The adaptive trace on four chips through the cluster front door."""
    front = ClusterSimulator(ReplayConfig(
        scheduler="adaptive", chips=CLUSTER_CHIPS, pool_size=2,
        max_wait_ms=2.0))
    return front.replay(two_tenant_trace(), chip_events=CLUSTER_CHIP_EVENTS,
                        tracer=tracer)


SCENARIO_BUILDERS = {
    "tiny": tiny_replay,
    "kyber": kyber_replay,
    "mixed-slo": mixed_slo_replay,
    "overload": overload_replay,
    "adaptive": adaptive_replay,
    "cluster-adaptive": cluster_adaptive_replay,
}

#: Scenarios whose scheduler draws lanes from a shared global pool
#: (the conformance checker relaxes per-lane exclusivity for these).
SHARED_LANE_SCENARIOS = frozenset({"mixed-slo", "overload", "adaptive",
                                   "cluster-adaptive"})


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name.replace('-', '_')}_report.json"


def main() -> None:
    import argparse
    import sys

    from repro.check import checked_replay, format_diagnostics, has_errors
    from repro.serve import serialize_report

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the golden files (refused when the "
                             "fresh trace fails the scheduler-conformance "
                             "checks — goldens cannot re-pin a broken "
                             "invariant)")
    args = parser.parse_args()
    GOLDEN_DIR.mkdir(exist_ok=True)
    failed = False
    for name, build in SCENARIO_BUILDERS.items():
        # Replay under the conformance checker either way: a golden that
        # violates the serving contract must neither be written nor
        # silently reported as matching.
        report, findings = checked_replay(
            build, shared_lanes=name in SHARED_LANE_SCENARIOS)
        if has_errors(findings):
            print(f"{name}: REFUSED — the fresh trace violates the "
                  f"serving contract:")
            print(format_diagnostics(findings))
            failed = True
            continue
        serialized = serialize_report(report)
        path = golden_path(name)
        if args.write:
            path.write_text(serialized + "\n")
            print(f"wrote {path}")
        else:
            status = "matches" if path.read_text().rstrip("\n") == serialized \
                else "DIFFERS"
            print(f"{name}: {status} ({path})")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
