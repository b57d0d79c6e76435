"""Synthetic traffic: arrival processes and crypto scenario mixes.

Arrival processes:

- :func:`poisson_trace` — exponential inter-arrivals at a fixed rate,
  the classic open-loop serving assumption.
- :func:`bursty_trace` — an on/off modulated Poisson process: within
  each period a "burst" window arrives at ``burst x`` the base rate and
  the remainder is thinned so the *mean* rate matches the requested
  one.  Tails under bursts are what a batching policy is for.

Scenario mixes (weights sum to 1):

- ``ntt``        — bare Table I forward NTTs (the paper's kernel).
- ``kyber``      — Kyber polynomial products (round-1 ring).
- ``dilithium``  — Dilithium forward NTTs (24-bit containers).
- ``he``         — BFV-lite plaintext products (1024-point, both
  ciphertext components per logical client call).
- ``he-mul``     — BFV-lite ciphertext-ciphertext products: every call
  is one relinearized ct x ct multiply lowered into its constituent
  negacyclic products (four tensor components plus two products per
  base-T relinearization digit — the
  :func:`~repro.serve.request.he_multiply_requests` trail).  The
  operand ciphertext and the relinearization key are long-lived pool
  operands, so all ``4 + 2*digits`` products coalesce across calls.
- ``mixed``      — 45% Kyber, 35% Dilithium, 20% HE: a PQC-dominated
  front door with an HE aggregation tenant.
- ``mixed-slo``  — the same mix with tenants and latency SLOs attached:
  ``handshake`` (Kyber, 4 ms), ``signing`` (Dilithium, 8 ms) and
  ``analytics`` (HE, 25 ms).  The trace the SLO-aware schedulers in
  :mod:`repro.sched` are judged on.
- ``mixed-deep`` — the PQC front door with the HE tenant split between
  plaintext products and full ciphertext products (the deep workload):
  40% Kyber, 30% Dilithium, 15% HE-plain, 15% HE-mul.

Scenarios live behind a :class:`~repro.registry.FactoryRegistry` (the
same seam as backends and schedulers): :func:`register_scenario` /
:func:`get_scenario` / :func:`available_scenarios`.  Other
packages register their own — ``cluster-mixed`` (the multi-chip
routing mix) comes from :mod:`repro.cluster.workload`.

``polymul`` operands draw from a small per-scenario pool of fixed
polynomials (public keys / plaintext operands are long-lived in real
deployments), which is what lets the batcher coalesce products and the
engines reuse compiled pointwise programs.  All of one call's
component requests share operands: a plain component draws **one**
pool operand per call (an HE plaintext product multiplies both
ciphertext components by the same polynomial), and a component with an
``operand_schedule`` touches the scheduled pool entries in order (the
ct x ct trail walks the operand ciphertext and the relinearization
key).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.crypto.he import default_relin_base, relin_digit_count
from repro.errors import ParameterError
from repro.ntt.params import get_params
from repro.registry import FactoryRegistry
from repro.serve.request import Request, pack_words, record_drawn, unpack_words


@dataclass(frozen=True)
class MixComponent:
    """One traffic class inside a scenario.

    ``requests_per_call`` requests materialize per logical client call;
    a plain ``polymul`` component shares one drawn pool operand across
    all of them.  ``operand_schedule`` instead fixes, per call, which
    pool operand each component request multiplies (one request per
    schedule entry) — the shape of a lowered ct x ct multiply, where a
    call touches the operand ciphertext halves and every
    relinearization-key component.
    """

    kind: str          # report label: "kyber", "dilithium", "he", "ntt"
    op: str            # kernel op the class reduces to
    params_name: str
    weight: float
    operand_pool: int = 0   # fixed polymul operands to rotate through
    requests_per_call: int = 1  # e.g. 2 for HE (two ciphertext components)
    tenant: str = ""        # billing/fairness label; defaults to ``kind``
    slo_ms: Optional[float] = None  # per-request latency budget (deadline)
    operand_schedule: Optional[Tuple[int, ...]] = None  # pool index per request

    def __post_init__(self) -> None:
        if self.operand_schedule is None:
            return
        if self.op != "polymul":
            raise ParameterError(
                f"component {self.kind!r}: operand_schedule requires polymul"
            )
        if not self.operand_schedule:
            raise ParameterError(
                f"component {self.kind!r}: operand_schedule cannot be empty"
            )
        if min(self.operand_schedule) < 0 or \
                max(self.operand_schedule) >= max(1, self.operand_pool):
            raise ParameterError(
                f"component {self.kind!r}: operand_schedule indexes outside "
                f"pool of {self.operand_pool}"
            )
        # The schedule *is* the call shape; keep the count consistent.
        object.__setattr__(self, "requests_per_call", len(self.operand_schedule))


@dataclass(frozen=True)
class Scenario:
    """A named traffic mix."""

    name: str
    components: Tuple[MixComponent, ...]

    def __post_init__(self) -> None:
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(
                f"scenario {self.name!r} weights sum to {total}, expected 1"
            )


def _he_mul_component(weight: float, *, params_name: str = "he-16bit",
                      tenant: str = "", slo_ms: Optional[float] = None) -> MixComponent:
    """The ct x ct traffic class: one lowered multiply per call.

    Pool layout mirrors :func:`~repro.serve.request.he_multiply_requests`:
    entries 0/1 are the operand ciphertext's ``u2``/``v2`` halves and the
    remaining ``2 * digits`` entries the relinearization-key components
    ``a_0..a_{d-1}, b_0..b_{d-1}`` — all long-lived key material.  Each
    call runs the four tensor products then one product per key half
    per digit, so every product coalesces with its sibling calls.
    """
    q = get_params(params_name).q
    digits = relin_digit_count(q, default_relin_base(q))
    schedule = (1, 1, 0, 0)  # v1*v2, u1*v2, v1*u2, u1*u2
    for i in range(digits):
        schedule += (2 + i, 2 + digits + i)
    return MixComponent("he-mul", "polymul", params_name, weight,
                        operand_pool=2 + 2 * digits,
                        operand_schedule=schedule,
                        tenant=tenant, slo_ms=slo_ms)


_BUILTIN_SCENARIOS: Dict[str, Scenario] = {
    "ntt": Scenario("ntt", (
        MixComponent("ntt", "ntt", "table1-14bit", 1.0),
    )),
    "kyber": Scenario("kyber", (
        MixComponent("kyber", "polymul", "kyber-v1", 1.0, operand_pool=2),
    )),
    "dilithium": Scenario("dilithium", (
        MixComponent("dilithium", "ntt", "dilithium", 1.0),
    )),
    "he": Scenario("he", (
        MixComponent("he", "polymul", "he-16bit", 1.0, operand_pool=1,
                     requests_per_call=2),
    )),
    "he-mul": Scenario("he-mul", (
        _he_mul_component(1.0),
    )),
    "mixed": Scenario("mixed", (
        MixComponent("kyber", "polymul", "kyber-v1", 0.45, operand_pool=2),
        MixComponent("dilithium", "ntt", "dilithium", 0.35),
        MixComponent("he", "polymul", "he-16bit", 0.20, operand_pool=1,
                     requests_per_call=2),
    )),
    "mixed-slo": Scenario("mixed-slo", (
        MixComponent("kyber", "polymul", "kyber-v1", 0.45, operand_pool=2,
                     tenant="handshake", slo_ms=4.0),
        MixComponent("dilithium", "ntt", "dilithium", 0.35,
                     tenant="signing", slo_ms=8.0),
        MixComponent("he", "polymul", "he-16bit", 0.20, operand_pool=1,
                     requests_per_call=2, tenant="analytics", slo_ms=25.0),
    )),
    "mixed-deep": Scenario("mixed-deep", (
        MixComponent("kyber", "polymul", "kyber-v1", 0.40, operand_pool=2),
        MixComponent("dilithium", "ntt", "dilithium", 0.30),
        MixComponent("he", "polymul", "he-16bit", 0.15, operand_pool=1,
                     requests_per_call=2),
        _he_mul_component(0.15),
    )),
}


# -- scenario registry -------------------------------------------------------
#
# The same plugin seam as backends/schedulers: factories registered
# under names, so new subsystems (e.g. repro.cluster) register their
# scenarios instead of editing a hardcoded table, and the CLI derives
# its --scenario choices from available_scenarios().

_REGISTRY = FactoryRegistry("scenario", ParameterError)


def register_scenario(name: str, factory: Union[str, Callable], *,
                      replace: bool = False) -> None:
    """Register a scenario factory under ``name``.

    ``factory`` is a zero-argument callable returning a
    :class:`Scenario` (or a lazy ``"module.path:attribute"`` spec for
    one) — a factory rather than the scenario itself so registration
    stays import-cheap.
    """
    _REGISTRY.register(name, factory, replace=replace)


def unregister_scenario(name: str) -> None:
    """Remove a scenario (no-op when absent); used by tests and plugins."""
    _REGISTRY.unregister(name)


def get_scenario(name: str) -> Scenario:
    """Build the scenario registered under ``name``."""
    scenario = _REGISTRY.get(name)()
    if not isinstance(scenario, Scenario):
        raise ParameterError(
            f"scenario factory {name!r} returned {type(scenario).__name__}, "
            f"expected Scenario"
        )
    return scenario


def require_scenario(name: str) -> None:
    """Raise :func:`get_scenario`'s error unless ``name`` is registered;
    builds nothing."""
    _REGISTRY.require(name)


def available_scenarios() -> Tuple[str, ...]:
    """Registered scenario names, sorted (the CLI's ``--scenario`` choices)."""
    return _REGISTRY.available()


for _name, _scenario in _BUILTIN_SCENARIOS.items():
    _REGISTRY.register(_name, lambda scenario=_scenario: scenario)

# Cluster traffic registers lazily from its own package, the way the
# cluster:<inner> schedulers do — the serve layer stays cluster-free.
_REGISTRY.register("cluster-mixed", "repro.cluster.workload:cluster_mixed")


def _random_poly(n: int, q: int, rng: random.Random) -> bytes:
    """``tuple(rng.randrange(q) for _ in range(n))``, drawn faster and
    packed (:func:`~repro.serve.request.pack_words`).

    ``randrange(q)`` draws ``getrandbits(q.bit_length())`` until a value
    falls below ``q``.  Running that same rejection loop as one
    iterator chain draws the same values and leaves ``rng`` in the same
    state, without a Python-level call per coefficient, and the chain
    feeds the packer directly: the payload is never an int tuple.
    """
    draws = iter(partial(rng.getrandbits, q.bit_length()), -1)
    return pack_words(islice(filter(q.__gt__, draws), n), n, q)


def _operand_pools(scenario: Scenario, rng: random.Random) -> Dict[str, List[Tuple[int, ...]]]:
    pools: Dict[str, List[Tuple[int, ...]]] = {}
    for c in scenario.components:
        if c.op == "polymul":
            params = get_params(c.params_name)
            n, q = params.n, params.q
            pools[c.kind] = [
                unpack_words(_random_poly(n, q, rng), n, q)
                for _ in range(max(1, c.operand_pool))
            ]
    return pools


def _materialize(scenario: Scenario, arrivals: List[float],
                 rng: random.Random) -> List[Request]:
    """Turn arrival instants into concrete requests for a scenario."""
    pools = _operand_pools(scenario, rng)
    components = list(scenario.components)
    weights = [c.weight for c in components]
    requests: List[Request] = []
    # The trace's intern table: each pool operand is checked once, each
    # batch key built once, and drawn payloads, packed and canonical by
    # construction, are recorded as such.
    table: dict = {}
    next_id = 0
    for arrival in arrivals:
        c = rng.choices(components, weights=weights)[0]
        params = get_params(c.params_name)
        operand_pool = pools.get(c.kind)
        # One pool draw per *call*, not per component request: all of a
        # call's requests multiply by the same long-lived polynomial
        # (both ciphertext components of an HE plaintext product share
        # its operand — drawing per request would hand them different
        # operands once the pool holds more than one, silently breaking
        # their shared batch key).  Scheduled components instead walk
        # their fixed per-call pool indices.
        shared: Optional[Tuple[int, ...]] = None
        if c.op == "polymul" and c.operand_schedule is None:
            shared = operand_pool[rng.randrange(len(operand_pool))]
        for index in range(c.requests_per_call):
            operand: Optional[Tuple[int, ...]] = None
            if c.op == "polymul":
                operand = (shared if c.operand_schedule is None
                           else operand_pool[c.operand_schedule[index]])
            payload = record_drawn(table, _random_poly(params.n, params.q, rng),
                                   params.n, params.q)
            requests.append(
                Request(
                    request_id=next_id,
                    op=c.op,
                    params_name=c.params_name,
                    payload=payload,
                    operand=operand,
                    arrival_s=arrival,
                    kind=c.kind,
                    tenant=c.tenant or c.kind,
                    deadline_s=(
                        None if c.slo_ms is None
                        else arrival + c.slo_ms * 1e-3
                    ),
                    checked_operands=table,
                )
            )
            next_id += 1
    return requests


def check_rate_duration(rate: float, duration_s: float) -> None:
    """Both must be finite and positive numbers: an infinite rate or
    duration never ends the arrival loop, ``nan`` ends it before it
    starts, and a ``bool`` is not a number."""
    if isinstance(rate, bool) or not (math.isfinite(rate) and rate > 0):
        raise ParameterError(f"rate must be finite and positive, got {rate}")
    if isinstance(duration_s, bool) or not (
            math.isfinite(duration_s) and duration_s > 0):
        raise ParameterError(
            f"duration must be finite and positive, got {duration_s}")


def poisson_trace(scenario_name: str, rate: float, duration_s: float, *,
                  seed: int = 2023) -> List[Request]:
    """Poisson arrivals at ``rate`` calls/s for ``duration_s`` seconds."""
    check_rate_duration(rate, duration_s)
    scenario = get_scenario(scenario_name)
    rng = random.Random(seed)
    arrivals: List[float] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        arrivals.append(t)
        t += rng.expovariate(rate)
    return _materialize(scenario, arrivals, rng)


def bursty_trace(scenario_name: str, rate: float, duration_s: float, *,
                 burst: float = 2.5, duty: float = 0.3, period_s: float = 0.05,
                 seed: int = 2023) -> List[Request]:
    """On/off modulated Poisson arrivals with mean rate ``rate``.

    The first ``duty`` fraction of every ``period_s`` window runs at
    ``burst * rate``; the remainder is thinned so the overall mean stays
    at ``rate`` (requires ``burst <= 1/duty``).
    """
    check_rate_duration(rate, duration_s)
    if not 0 < duty < 1:
        raise ParameterError(f"duty must be in (0, 1), got {duty}")
    if not 1 <= burst <= 1 / duty:
        raise ParameterError(
            f"burst must be in [1, 1/duty={1 / duty:.2f}], got {burst}"
        )
    scenario = get_scenario(scenario_name)
    rng = random.Random(seed)
    off_rate = rate * (1 - burst * duty) / (1 - duty)
    peak = burst * rate
    arrivals: List[float] = []
    # Thinning: draw at the peak rate, accept with lambda(t)/peak.
    t = rng.expovariate(peak)
    while t < duration_s:
        in_burst = (t % period_s) < duty * period_s
        lam = peak if in_burst else off_rate
        if rng.random() < lam / peak:
            arrivals.append(t)
        t += rng.expovariate(peak)
    return _materialize(scenario, arrivals, rng)
