"""Cluster scaling benchmark: one front door, 1 / 4 / 16 chips.

Weak-scaling sweep over the ``cluster:fifo`` scheduler with the
affinity router: the offered load, the distinct key-material population
and the chip count all scale together, so each chip sees the same
per-chip workload shape at roughly two-thirds of one chip's capacity.
At that operating point linear scaling means throughput tracks the
offered rate at every size; what breaks it is placement — a router
that concentrates key material pushes its hottest shard past capacity,
queues grow for the whole replay, and the 16-chip ratio collapses
(routing everything to one chip scores ~0.06x).  The sweep therefore
measures how evenly the router spreads real mixed-tenant traffic, not
the simulator's peak speed.

The trace is a deterministic mixed-tenant blend on a tiny 16-point
ring (compiles in milliseconds; the simulated numbers are exact and
host-independent): 60% ``polymul`` calls over a pool of pinnable
operand keys — 1/6 of them from a ``hot`` tenant replicated across six
chips — and 40% operand-less ``ntt`` signing traffic that spreads
round-robin.  Payload tuples are shared so building ~10^6 requests
stays cheap.

Acceptance bars, asserted in the pytest entry and in full script runs:

- >= 0.8x linear throughput at 4 AND 16 chips (weak-scaling
  efficiency against the single-chip baseline at the same per-chip
  load);
- cross-shard busy-time imbalance (max/mean) <= 1.5 at 16 chips;
- zero drops at every scale (routing never loses a request).

Run as a script for the full ~10^6-request sweep (about a minute), or
``--quick`` for the CI-sized ~3x10^4-request sweep with the same
assertions; the pytest entry runs quick-sized so the tier-1 suite stays
fast.  Both write ``BENCH_cluster.json`` (deterministic simulated
metrics only — safe for the bench compare gate); the script run also
prints its own wall time and peak RSS.
"""

import argparse
import resource
import time
from dataclasses import dataclass
from typing import Dict, List

from _bench_json import write_bench_json
from repro.cluster import cluster_imbalance
from repro.ntt.params import STANDARD_PARAMS, NTTParams
from repro.serve import BatchPolicy, EnginePool, PoolConfig, ServingSimulator
from repro.serve.request import Request

RING_NAME = "bench-cluster-ring"
RING_N = 16
RING_Q = 97

CHIP_SWEEP = (1, 4, 16)
BASE_COUNT = 40_000       # requests at 1 chip; ~10^6 across the sweep
QUICK_BASE_COUNT = 1_500  # CI/pytest size; ~3x10^4 across the sweep
BASE_RATE = 2e6           # calls/s per chip: ~2/3 of one chip's capacity
KEYS_PER_CHIP = 96        # distinct pinnable operand keys per chip
REPLICATE = {"": 3, "hot": 6}
MAX_WAIT_S = 2e-4

MIN_EFFICIENCY = 0.8
MAX_IMBALANCE = 1.5


def build_trace(chips: int, count: int) -> List[Request]:
    """The deterministic mixed-tenant trace for a ``chips``-wide cluster.

    Payload tuples are shared across requests (the simulator never
    mutates them), so a million-request trace allocates a few dozen
    tuples, not a few million.  One ``checked_operands`` dict is the
    trace's intern table: it checks each shared tuple once for the
    whole trace, not once per request, packs each shared payload once,
    and builds one ``BatchKey`` per kernel.
    """
    rate = BASE_RATE * chips
    keys = KEYS_PER_CHIP * chips
    payloads = [tuple((k * 7 + j) % RING_Q for j in range(RING_N))
                for k in range(8)]
    operands = [tuple((k * 5 + 3 * j + 1) % RING_Q for j in range(RING_N))
                for k in range(keys)]
    checked: Dict[tuple, tuple] = {}
    trace = []
    for i in range(count):
        if i % 5 >= 3:  # 40%: operand-less signing traffic, spreads evenly
            trace.append(Request(
                request_id=i, op="ntt", params_name=RING_NAME,
                payload=payloads[i % 8], operand=None, arrival_s=i / rate,
                tenant="signing", kind="ntt", checked_operands=checked))
        else:  # 60%: pinnable key-material traffic, 1/6 of it hot
            trace.append(Request(
                request_id=i, op="polymul", params_name=RING_NAME,
                payload=payloads[i % 8], operand=operands[(i * 7) % keys],
                arrival_s=i / rate,
                tenant="hot" if i % 10 == 0 else "handshake", kind="mul",
                checked_operands=checked))
    return trace


@dataclass(frozen=True)
class ChipResult:
    """What the sweep prints and asserts for one chip count.

    Only these numbers outlive a chip count's replay, so the report, its
    responses and the trace are freed before the next, larger one runs.
    """

    count: int
    offered: int
    drops: int
    throughput_rps: float
    utilization: float
    imbalance: float
    host_s: float


def run_scaling(base_count: int) -> Dict[int, ChipResult]:
    """Replay the sweep; returns chips -> its :class:`ChipResult`."""
    STANDARD_PARAMS[RING_NAME] = NTTParams(n=RING_N, q=RING_Q,
                                           name="bench cluster ring")
    try:
        # One shared pool across the sweep: chips share the pricing and
        # program cache (lane occupancy lives in the per-chip
        # schedulers), exactly as in production serving.
        pool = EnginePool(PoolConfig(size=2, rows=32, cols=32))
        results = {}
        for chips in CHIP_SWEEP:
            simulator = ServingSimulator(
                pool, BatchPolicy(max_wait_s=MAX_WAIT_S),
                scheduler="cluster:fifo",
                scheduler_options={
                    "chips": chips,
                    "router": "affinity",
                    "router_options": {"replicate": dict(REPLICATE)},
                },
            )
            trace = build_trace(chips, base_count * chips)
            start = time.perf_counter()
            report = simulator.replay(trace)
            host_s = time.perf_counter() - start
            del trace
            results[chips] = ChipResult(
                count=report.count, offered=report.offered,
                drops=len(report.drops),
                throughput_rps=report.throughput_rps,
                utilization=report.utilization,
                imbalance=cluster_imbalance(report, chips), host_s=host_s)
            del report
        return results
    finally:
        STANDARD_PARAMS.pop(RING_NAME, None)


def efficiencies(results: Dict[int, ChipResult]) -> Dict[int, float]:
    """Weak-scaling efficiency per chip count (1.0 = perfectly linear)."""
    base = results[1].throughput_rps
    return {chips: result.throughput_rps / (chips * base)
            for chips, result in results.items()}


def format_table(results: Dict[int, ChipResult], base_count: int) -> str:
    header = (
        f"{'Chips':>5} {'Requests':>9} {'Thr(req/s)':>12} {'Effic':>6} "
        f"{'Util':>6} {'Imbal':>6} {'Drops':>5} {'Host(s)':>8}"
    )
    lines = [
        f"weak scaling, cluster:fifo + affinity router "
        f"(replicate {REPLICATE}), {base_count:,} req/chip, "
        f"rate {BASE_RATE:g}/s/chip",
        "",
        header,
        "-" * len(header),
    ]
    eff = efficiencies(results)
    for chips, result in results.items():
        lines.append(
            f"{chips:>5} {result.count:>9,} {result.throughput_rps:>12,.0f} "
            f"{eff[chips]:>6.2f} {result.utilization:>6.1%} "
            f"{result.imbalance:>6.2f} {result.drops:>5} "
            f"{result.host_s:>8.2f}"
        )
    return "\n".join(lines)


def bench_metrics(results: Dict[int, ChipResult]) -> Dict[str, float]:
    """Flat BENCH_cluster.json metrics — simulated numbers only, so the
    artifact is deterministic and safe for the regression gate."""
    eff = efficiencies(results)
    metrics = {}
    for chips, result in results.items():
        metrics[f"throughput_rps_{chips}chip"] = result.throughput_rps
        metrics[f"imbalance_{chips}chip"] = result.imbalance
    metrics["efficiency_4chip"] = eff[4]
    metrics["efficiency_16chip"] = eff[16]
    return metrics


def assert_scaling_holds(results: Dict[int, ChipResult]) -> None:
    """The acceptance bars the PR claims."""
    eff = efficiencies(results)
    for chips, result in results.items():
        assert not result.drops, (
            f"{chips} chips: routing dropped {result.drops} requests"
        )
        assert result.count == result.offered
    for chips in (4, 16):
        assert eff[chips] >= MIN_EFFICIENCY, (
            f"{chips} chips reach only {eff[chips]:.2f}x linear "
            f"(bar: {MIN_EFFICIENCY})"
        )
    imbalance_16 = results[16].imbalance
    assert imbalance_16 <= MAX_IMBALANCE, (
        f"16-chip busy-time imbalance {imbalance_16:.2f} exceeds "
        f"{MAX_IMBALANCE}"
    )


def test_cluster_scaling(artifact_writer):
    # Quick-sized so the tier-1 suite stays fast; the assertions are
    # identical to the full run's.
    results = run_scaling(QUICK_BASE_COUNT)
    artifact_writer("cluster_scaling", format_table(results,
                                                    QUICK_BASE_COUNT))
    write_bench_json(
        "cluster",
        f"weak scaling 1/4/16 chips, {QUICK_BASE_COUNT} req/chip",
        bench_metrics(results),
    )
    assert_scaling_holds(results)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: ~3e4 requests instead of ~1e6 "
                             "(same assertions)")
    args = parser.parse_args()
    start = time.perf_counter()
    base = QUICK_BASE_COUNT if args.quick else BASE_COUNT
    results = run_scaling(base)
    print(format_table(results, base))
    path = write_bench_json(
        "cluster", f"weak scaling 1/4/16 chips, {base} req/chip",
        bench_metrics(results))
    print(f"\nwrote {path}")
    assert_scaling_holds(results)
    eff = efficiencies(results)
    print(f"\n16 chips deliver {eff[16]:.2f}x linear throughput "
          f"(bar {MIN_EFFICIENCY}); imbalance {results[16].imbalance:.2f} "
          f"(bar {MAX_IMBALANCE})")
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"sweep wall time {time.perf_counter() - start:.1f} s, "
          f"peak RSS {peak_mb:,.0f} MB")


if __name__ == "__main__":
    main()
