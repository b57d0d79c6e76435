"""The correctness gate a run must pass before its numbers count.

A run fails unless three checks hold:

1. *Conservation*: every offered request id appears exactly once across
   the report's responses and drops.  Simulated drops are behaviour,
   not failures; they show up as ``sim.drop_frac``.
2. *Results*: a deterministic sample of ``Response.result`` equals the
   transforms and products computed here from their definitions
   (:class:`Reference`), sharing no code, twiddle table or compiled
   kernel with the program under test.
3. *Digest*: the SHA-256 of ``serialize_report`` equals the digest
   pinned in ``digests.json`` for the default seed.  At every seed the
   run also replays on two fresh serving stacks in the same process (an
   untraced run: its first and its last set-up; a traced run: its
   untraced and its traced pass), and every replay must serialize
   byte-identically to the first.

``error_frac`` is failed / attempted: a wrong sampled result or a lost
or repeated request id is one failure, and a digest mismatch fails
every request of the run.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

DEFAULT_SEED = 2023
PINNED_DIGESTS = Path(__file__).with_name("digests.json")
RESULT_SAMPLE = 32


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def conservation_failures(requests, report) -> int:
    """Offered ids not seen exactly once, plus ids nobody offered."""
    offered = {request.request_id for request in requests}
    seen = Counter(response.request.request_id
                   for response in report.responses)
    seen.update(drop.request_id for drop in report.drops)
    return (sum(1 for rid in offered if seen[rid] != 1)
            + sum(1 for rid in seen if rid not in offered))


class Reference:
    """Negacyclic NTT, inverse NTT and product mod ``x^n + 1`` by definition.

    The forward transform evaluates the payload at the odd powers of
    ``psi`` in bit-reversed order, ``out[i] = sum_j a[j] *
    psi^((2*brv(i) + 1) * j)``, the inverse undoes it, and ``polymul`` is
    the schoolbook product with wrap-around negation.  Each is one
    ``n x n`` matrix-vector product mod ``q``.
    """

    def __init__(self, params):
        import numpy as np

        n, q = params.n, params.q
        if q.bit_length() > 31:
            raise ValueError(f"q={q}: products of residues overflow int64")
        self.n, self.q = n, q
        bits = n.bit_length() - 1
        brv = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]
        powers = np.array([pow(params.psi, k, q) for k in range(2 * n)],
                          dtype=np.int64)
        exponents = np.outer(2 * np.array(brv) + 1, np.arange(n)) % (2 * n)
        self.forward = powers[exponents]
        self.inverse = powers[(-exponents.T) % (2 * n)] * pow(n, -1, q) % q
        self.lag = np.subtract.outer(np.arange(n), np.arange(n))

    def _apply(self, matrix, vector) -> List[int]:
        import numpy as np

        column = np.array([c % self.q for c in vector], dtype=np.int64)
        return [int(c) for c in
                (matrix * column[None, :] % self.q).sum(axis=1) % self.q]

    def result(self, request) -> List[int]:
        import numpy as np

        if request.op == "ntt":
            return self._apply(self.forward, request.payload)
        if request.op == "intt":
            return self._apply(self.inverse, request.payload)
        operand = np.array([c % self.q for c in request.operand],
                           dtype=np.int64)[self.lag % self.n]
        wrapped = np.where(self.lag < 0, (self.q - operand) % self.q, operand)
        return self._apply(wrapped, request.payload)


def sample_responses(report, seed: int) -> list:
    """A deterministic sample of the report's responses."""
    responses = sorted(report.responses, key=lambda r: r.request.request_id)
    return random.Random(seed).sample(
        responses, min(RESULT_SAMPLE, len(responses)))


def result_failures(responses) -> int:
    """Responses whose result differs from :class:`Reference`."""
    from repro.ntt.params import get_params

    references: Dict[str, Reference] = {}
    wrong = 0
    for response in responses:
        request = response.request
        reference = references.get(request.params_name)
        if reference is None:
            reference = references[request.params_name] = Reference(
                get_params(request.params_name))
        if reference.result(request) != list(response.result):
            wrong += 1
    return wrong


def pinned_digest(workload: str, *, seed: int, quick: bool,
                  pinned: Optional[str] = None) -> Optional[str]:
    """The digest pinned for this run's report, or None off the default seed.

    ``pinned`` overrides the checked-in pin (the tests perturb it).
    """
    if pinned is not None or seed != DEFAULT_SEED:
        return pinned
    pins = json.loads(PINNED_DIGESTS.read_text())
    return pins.get(workload, {}).get("quick" if quick else "full")
