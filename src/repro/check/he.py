"""HE depth pre-checker: bound noise growth before admission.

An over-deep BFV-lite circuit fails only at decrypt — after the serving
stack has burned the cycles.  This module turns
:func:`repro.crypto.he.depth_profile`'s per-level noise model into a
static admission question: *can ring R absorb a depth-D multiply chain
inside the* ``(delta-1)//2`` *decrypt guarantee?*  The profile is a
seeded, deterministic chain, so the answer is a pure function of
``(ring, plaintext modulus, seed)`` and is cached per process.

Two consumers:

- :func:`check_depth` / :func:`check_scenario` feed ``repro.cli check
  he`` — findings against explicit depths or against a workload
  scenario's implied depth (a ct x ct component needs depth >= 1).
- :class:`HEDepthGate` is the serving-stack hook: an admission gate for
  :class:`~repro.serve.simulator.ServingSimulator` that drops requests
  whose ring cannot absorb their kind's multiplicative depth, with the
  same drop accounting as a scheduler rejection.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.check.diagnostics import Diagnostic, error, info, warning
from repro.errors import ReproError

#: The paper's HE security levels (kept in depth order, mirroring
#: ``repro.cli hedepth``).
HE_PARAM_SETS = ("he-16bit", "he-21bit", "he-29bit")

#: Fraction of the noise budget the deepest requested level may consume
#: before the pre-checker warns (HE002).
DEFAULT_MARGIN = 0.9

#: Multiplicative depth each request kind implies.  ``he-mul`` is one
#: relinearized ciphertext product; everything else is depth-free.
KIND_DEPTHS: Dict[str, int] = {"he-mul": 1}

_PROFILE_CACHE: Dict[Tuple[str, int, int, int], List] = {}


def profile_depth(params_name: str, *, plaintext_modulus: int = 2,
                  seed: int = 2023, max_levels: int = 4) -> List:
    """Cached :func:`~repro.crypto.he.depth_profile` records for a ring.

    The chain is seeded, so the records — and therefore every check
    built on them — are deterministic per ``(ring, t, seed)``.
    """
    from repro.crypto.he import HEContext, depth_profile
    from repro.ntt.params import get_params

    key = (params_name, plaintext_modulus, seed, max_levels)
    if key not in _PROFILE_CACHE:
        context = HEContext(get_params(params_name),
                            plaintext_modulus=plaintext_modulus,
                            rng=random.Random(seed))
        _PROFILE_CACHE[key] = depth_profile(context, max_levels=max_levels)
    return _PROFILE_CACHE[key]


def supported_depth(params_name: str, *, plaintext_modulus: int = 2,
                    seed: int = 2023, max_levels: int = 4) -> int:
    """Multiplicative levels the ring absorbs within the decrypt budget."""
    records = profile_depth(params_name, plaintext_modulus=plaintext_modulus,
                            seed=seed, max_levels=max_levels)
    return sum(1 for r in records if r.within_budget)


def check_depth(params_name: str, depth: int, *,
                plaintext_modulus: int = 2, seed: int = 2023,
                margin: float = DEFAULT_MARGIN) -> List[Diagnostic]:
    """Findings for a depth-``depth`` multiply chain on one ring.

    - HE003 (error): the ring is unknown or cannot host an HE context.
    - HE001 (error): the chain exceeds the ring's supported depth —
      decryption is not guaranteed, reject before admission.
    - HE002 (warning): the chain fits, but its deepest level consumes
      more than ``margin`` of the ``(delta-1)//2`` budget.
    - An info record states the headroom for clean rings.
    """
    where = f"{params_name}@depth{depth}"
    if depth < 1:
        return []
    try:
        records = profile_depth(params_name, plaintext_modulus=plaintext_modulus,
                                seed=seed, max_levels=max(depth, 1))
    except ReproError as exc:
        return [error(
            "HE003", where,
            f"cannot profile {params_name!r}: {exc}",
            hint=f"known HE parameter sets: {', '.join(HE_PARAM_SETS)}",
        )]
    depth_ok = sum(1 for r in records if r.within_budget)
    if depth > depth_ok:
        deepest = records[-1]
        return [error(
            "HE001", where,
            f"a depth-{depth} chain exceeds the {depth_ok} level(s) the "
            f"ring guarantees (level {deepest.level} noise {deepest.noise:,} "
            f"vs budget {deepest.budget:,})",
            hint="route the circuit to a deeper ring (he-29bit supports "
                 "2 levels at t=2) or cut the chain",
        )]
    at_depth = records[depth - 1]
    if at_depth.budget and at_depth.noise > margin * at_depth.budget:
        return [warning(
            "HE002", where,
            f"level {depth} consumes {at_depth.noise / at_depth.budget:.0%} "
            f"of the noise budget (margin {margin:.0%})",
            hint="one more level or a larger plaintext modulus will "
                 "break decryption",
        )]
    return [info(
        "HE001", where,
        f"depth {depth} fits: level {depth} noise {at_depth.noise:,} of "
        f"budget {at_depth.budget:,} "
        f"({at_depth.noise / at_depth.budget:.0%} used)"
        if at_depth.budget else f"depth {depth} fits",
    )]


def check_scenario(scenario: str, *, plaintext_modulus: int = 2,
                   seed: int = 2023,
                   margin: float = DEFAULT_MARGIN) -> List[Diagnostic]:
    """Findings for the multiplicative depth a workload scenario implies.

    Each mix component whose kind carries depth (see :data:`KIND_DEPTHS`)
    must fit its ring; depth-free components are skipped.
    """
    from repro.serve.workload import available_scenarios, get_scenario

    if scenario not in available_scenarios():
        return [error(
            "HE003", scenario,
            f"unknown scenario {scenario!r}",
            hint=f"available: {', '.join(available_scenarios())}",
        )]
    diagnostics: List[Diagnostic] = []
    seen: set = set()
    for component in get_scenario(scenario).components:
        depth = KIND_DEPTHS.get(component.kind, 0)
        key = (component.params_name, depth)
        if depth < 1 or key in seen:
            continue
        seen.add(key)
        diagnostics.extend(check_depth(
            component.params_name, depth,
            plaintext_modulus=plaintext_modulus, seed=seed, margin=margin,
        ))
    return diagnostics


class HEDepthGate:
    """Admission gate: drop requests their ring cannot decrypt-guarantee.

    Plug into :class:`~repro.serve.simulator.ServingSimulator` via
    ``admission_gate=``; the simulator consults the gate before the
    scheduler, and a non-``None`` return becomes a drop with that
    reason, indistinguishable in accounting from a scheduler rejection.

    ``required`` maps request kinds to the multiplicative depth they
    imply (default: :data:`KIND_DEPTHS`); kinds absent from the map
    pass untouched, and the (expensive, cached) noise profile is only
    computed the first time a depth-carrying kind shows up.
    """

    #: Drop reason string recorded for rejected requests.
    REASON = "he_depth_exceeded"

    def __init__(self, *, required: Optional[Dict[str, int]] = None,
                 plaintext_modulus: int = 2, seed: int = 2023):
        self.required = dict(KIND_DEPTHS if required is None else required)
        self.plaintext_modulus = plaintext_modulus
        self.seed = seed
        self._verdicts: Dict[Tuple[str, int], bool] = {}

    def _fits(self, params_name: str, depth: int) -> bool:
        key = (params_name, depth)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = supported_depth(
                    params_name, plaintext_modulus=self.plaintext_modulus,
                    seed=self.seed, max_levels=max(depth, 1),
                ) >= depth
            except ReproError:
                # A ring we cannot even profile cannot guarantee depth.
                self._verdicts[key] = False
        return self._verdicts[key]

    def __call__(self, request) -> Optional[str]:
        """The simulator's gate hook: drop reason or ``None`` to admit."""
        depth = self.required.get(request.kind, 0)
        if depth < 1 or self._fits(request.params_name, depth):
            return None
        return self.REASON
