"""Typed requests and responses for the serving runtime.

A :class:`Request` is one client operation on one polynomial: a bare
kernel (``ntt`` / ``intt``) or a full negacyclic product (``polymul``)
against a fixed second operand.  Crypto-level traffic reduces to these
three through the adapter constructors:

- :func:`kyber_polymul_request` — a Kyber-style polynomial product on
  the round-1 ring (q = 7681, the engine-compatible Table I setting;
  round-3's incomplete NTT lives in :mod:`repro.crypto.kyber` and has
  no full negacyclic transform for the engine to run).
- :func:`dilithium_ntt_request` — a forward NTT on the Dilithium ring.
- :func:`he_multiply_plain_requests` — BFV-lite plaintext
  multiplication: one product per ciphertext component, i.e. two
  ``polymul`` requests sharing the plaintext operand.
- :func:`he_multiply_requests` — BFV-lite ciphertext-ciphertext
  multiplication: one logical ct x ct call lowered into its constituent
  negacyclic products (the four tensor components plus one product per
  relinearization-key half per base-T digit).  The fixed operands — the
  long-lived operand ciphertext's components and the relinearization
  key — are key material, so the products coalesce across calls.

Requests carry their arrival time and parameter-set name; the batcher
uses ``(params_name, op, operand)`` as the compatibility key because a
pointwise program bakes the second operand into its constants.
"""

from __future__ import annotations

import struct
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union

from repro.backends.base import KERNEL_OPS
from repro.errors import ParameterError
from repro.ntt.params import NTTParams, get_params

if TYPE_CHECKING:
    from repro.crypto.he import HECiphertext, HEContext, RelinKey

__all__ = ["KERNEL_OPS", "BatchKey", "Request", "Response", "ResultSlot",
           "gold_result", "kyber_polymul_request", "dilithium_ntt_request",
           "he_multiply_plain_requests", "he_multiply_requests"]


# -- packed payloads -----------------------------------------------------------
#
# A payload is one ``bytes`` object of native unsigned words, the
# smallest of 1, 2, 4 or 8 bytes that holds ``q - 1``: one SRAM word per
# coefficient, where a tuple spends 36 bytes on each.  Moduli past 64
# bits pack each coefficient as little-endian bytes of one fixed width.

#: Native unsigned word codes, shared by ``struct``, ``array`` and
#: ``memoryview.cast``, by size in bytes.
_WORD_CODES = {struct.calcsize(code): code for code in "QLIHB"}


@lru_cache(maxsize=None)
def _layout(n: int, q: int) -> Tuple[Optional[str], Optional[struct.Struct], int]:
    """``(code, words, width)`` of an ``n``-coefficient payload mod ``q``.

    ``words`` packs and unpacks all ``n`` native words of ``width``
    bytes and ``code`` is their format character; both are None when
    ``q - 1`` needs more than 8 bytes and ``width`` is the byte width
    of the little-endian encoding.
    """
    width = max(1, ((q - 1).bit_length() + 7) // 8)
    for size in (1, 2, 4, 8):
        if width <= size and size in _WORD_CODES:
            code = _WORD_CODES[size]
            return code, struct.Struct(f"{n}{code}"), size
    return None, None, width


def pack_words(coeffs: Iterable[int], n: int, q: int) -> bytes:
    """``n`` coefficients, each in ``[0, q)``, as packed words.

    ``coeffs`` may be any iterable, an iterator included; it is read once.
    """
    _, words, width = _layout(n, q)
    if words is not None:
        return words.pack(*coeffs)
    return b"".join(int(c).to_bytes(width, "little") for c in coeffs)


def unpack_words(packed: bytes, n: int, q: int) -> Tuple[int, ...]:
    """The coefficients :func:`pack_words` packed, as a tuple of ints."""
    _, words, width = _layout(n, q)
    if words is not None:
        return words.unpack(packed)
    return tuple(int.from_bytes(packed[i:i + width], "little")
                 for i in range(0, len(packed), width))


def word_rows(packed: Sequence[bytes], n: int, q: int) -> List[Sequence[int]]:
    """Read-only int rows over packed payloads, for ``Backend.execute``.

    A row is a ``memoryview`` cast to the payloads' word, which reads
    the bytes in place; moduli past 64 bits decode to tuples.
    """
    code, words, _ = _layout(n, q)
    if words is None:
        return [unpack_words(p, n, q) for p in packed]
    return [memoryview(p).cast(code) for p in packed]


# -- canonical coefficients ----------------------------------------------------
#
# ``table`` is a trace's intern table (``Request``'s ``checked_operands``),
# a caller-owned dict with two kinds of entry, each holding the object
# whose id it is keyed on, so the id is not reused while the table lives:
#
# - ``(id(coeffs), n, q) -> (coeffs, packed)``: a tuple the caller passed,
#   found canonical for the ring, and its packed words; or a payload the
#   caller drew packed and canonical, ``(packed, packed)``;
# - ``(params_name, op, id(operand)) -> BatchKey``: one key per kernel.


def record_drawn(table: dict, packed: bytes, n: int, q: int) -> bytes:
    """Record ``packed``, words the caller drew canonical for the ring,
    in a trace's intern table; returns them.

    A :class:`Request` built with the table then takes them as its
    payload as they are, with no scan.
    """
    table[id(packed), n, q] = (packed, packed)
    return packed


def _canonical(coeffs: Sequence[int], params: NTTParams,
               label: str) -> Tuple[int, ...]:
    if len(coeffs) != params.n:
        raise ParameterError(
            f"{label} needs {params.n} coefficients, got {len(coeffs)}"
        )
    # A tuple of plain ints already in [0, q) is kept as given, so
    # requests sharing an operand share one tuple (and compare by
    # identity); anything else is reduced into a new tuple.
    if (type(coeffs) is tuple and set(map(type, coeffs)) == {int}
            and min(coeffs) >= 0 and max(coeffs) < params.q):
        return coeffs
    return tuple(c % params.q for c in coeffs)


def _interned(coeffs: Sequence[int], params: NTTParams, label: str,
              table: Optional[dict]) -> Tuple[Tuple[int, ...], bytes]:
    """``coeffs``' canonical tuple and its packed words.

    A tuple already canonical is checked and packed once per ``table``.
    """
    if table is not None:
        slot = (id(coeffs), params.n, params.q)
        entry = table.get(slot)
        if entry is not None and entry[0] is coeffs:
            return entry
    canonical = _canonical(coeffs, params, label)
    entry = (canonical, pack_words(canonical, params.n, params.q))
    if table is not None and canonical is coeffs:
        table[slot] = entry
    return entry


class BatchKey(tuple):
    """A ``(params_name, op, operand)`` batch key that hashes once.

    It equals, hashes and reprs exactly like the plain tuple (dicts
    keyed on either find the other), but the hash over the operand's
    coefficients is computed once at construction instead of on every
    scheduler, batcher and pool lookup.  ``str`` hashes differ between
    processes, so pickling drops the cached hash and the loaded copy
    hashes again.
    """

    def __new__(cls, params_name: str, op: str,
                operand: Optional[Tuple[int, ...]]) -> "BatchKey":
        key = super().__new__(cls, (params_name, op, operand))
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (BatchKey, tuple(self))


@dataclass(frozen=True, slots=True)
class Request:
    """One client operation on one polynomial.

    Attributes:
        request_id: caller-assigned identifier (unique within a trace).
        op: ``"ntt"``, ``"intt"`` or ``"polymul"``.
        params_name: standard parameter-set name (see
            :func:`repro.ntt.params.get_params`).
        payload: the request's polynomial, canonical coefficients.  It
            is stored packed, one machine word per coefficient (see
            :func:`pack_words`), and each read decodes a new tuple of
            ints, equal to the canonical form of what was given.
        operand: the fixed second polynomial for ``polymul`` (coefficient
            domain); ``None`` for the bare kernels.  A canonical int
            tuple is kept as given.
        arrival_s: arrival time in seconds from trace start.
        kind: traffic label for reporting (e.g. ``"kyber"``); defaults
            to the op name.
        tenant: the client the request bills to; schedulers with
            per-tenant fairness (``repro.sched``) queue and account by
            this label.  Defaults to ``kind``.
        deadline_s: absolute completion deadline (trace clock), or
            ``None`` for best-effort.  SLO-aware schedulers drop
            requests that cannot meet it and reports measure attainment
            against it; the fifo scheduler ignores it.
        batch_key: ``(params_name, op, operand)`` as a :class:`BatchKey`,
            built once; requests with equal keys may share one engine
            invocation.  Not an init argument, and left out of equality
            and ``repr``.
        checked_operands: init-only, not a field: a trace's intern table,
            a caller-owned dict (pass ``{}``) shared by the requests of
            one trace.  A coefficient tuple the requests share (an
            operand, or a payload) is checked canonical once, a shared
            payload is packed once and its packed words are shared, and
            requests with one ``(params_name, op, operand)`` share one
            :class:`BatchKey` object.  :mod:`repro.serve.workload` passes
            one per trace and records each payload it draws packed as
            canonical, so a drawn payload is never scanned.  Without a
            table, each request checks and packs its own copy and builds
            its own key.

    ``dataclasses.replace`` on a request must pass ``payload``, which is
    an init-only argument; :meth:`with_deadline` changes only the
    deadline without that round trip.
    """

    request_id: int
    op: str
    params_name: str
    payload: InitVar[Sequence[int]]
    operand: Optional[Tuple[int, ...]] = None
    arrival_s: float = 0.0
    kind: str = ""
    tenant: str = ""
    deadline_s: Optional[float] = None
    checked_operands: InitVar[Optional[dict]] = None
    _packed: bytes = field(init=False, repr=False)
    batch_key: BatchKey = field(init=False, compare=False, repr=False)

    def __post_init__(self, payload, checked_operands) -> None:
        if self.op not in KERNEL_OPS:
            raise ParameterError(
                f"unknown op {self.op!r}; expected one of {KERNEL_OPS}"
            )
        params = get_params(self.params_name)
        table = checked_operands
        object.__setattr__(self, "_packed",
                           _interned(payload, params, "payload", table)[1])
        operand = self.operand
        if self.op == "polymul":
            if operand is None:
                raise ParameterError("polymul requests need a second operand")
            operand = _interned(operand, params, "operand", table)[0]
            object.__setattr__(self, "operand", operand)
        elif operand is not None:
            raise ParameterError(f"{self.op} requests take no second operand")
        if not self.kind:
            object.__setattr__(self, "kind", self.op)
        if not self.tenant:
            object.__setattr__(self, "tenant", self.kind)
        if table is None:
            key = BatchKey(self.params_name, self.op, operand)
        else:
            slot = (self.params_name, self.op, id(operand))
            key = table.get(slot)
            if key is None:
                key = table[slot] = BatchKey(self.params_name, self.op, operand)
        object.__setattr__(self, "batch_key", key)

    @property
    def params(self) -> NTTParams:
        return get_params(self.params_name)

    def with_deadline(self, deadline_s: Optional[float]) -> "Request":
        """This request with ``deadline_s``, sharing its packed payload
        words and its batch key: nothing is decoded, checked or packed
        again (the deadline takes part in no check)."""
        copy = object.__new__(Request)
        for name in Request.__slots__:
            object.__setattr__(copy, name, getattr(self, name))
        object.__setattr__(copy, "deadline_s", deadline_s)
        return copy

    def __repr__(self) -> str:
        return (f"Request(request_id={self.request_id!r}, op={self.op!r}, "
                f"params_name={self.params_name!r}, "
                f"payload={self.payload!r}, operand={self.operand!r}, "
                f"arrival_s={self.arrival_s!r}, kind={self.kind!r}, "
                f"tenant={self.tenant!r}, deadline_s={self.deadline_s!r})")

    def __reduce__(self):
        # The payload travels as ints and the key is built again on
        # load: a cached str hash must not cross processes.
        return (Request, (self.request_id, self.op, self.params_name,
                          self.payload, self.operand, self.arrival_s,
                          self.kind, self.tenant, self.deadline_s))


def _read_payload(request: Request) -> Tuple[int, ...]:
    params = get_params(request.params_name)
    return unpack_words(request._packed, params.n, params.q)


# Set after the dataclass is built, as ``Response.result`` is: a
# ``payload`` property in the class body would become the default of
# the ``payload`` init argument.
Request.payload = property(
    _read_payload, doc="The payload coefficients, decoded on each read.")


class ResultSlot:
    """A response's result not read yet: item ``index`` of ``results``.

    ``results`` is a batch's result sequence, which may compute on
    first read (:meth:`~repro.serve.pool.EnginePool.execute_batches`).
    """

    __slots__ = ("results", "index")

    def __init__(self, results: Sequence[Tuple[int, ...]], index: int):
        self.results = results
        self.index = index


@dataclass(frozen=True, slots=True)
class Response:
    """The served result of one request, with its timing breakdown.

    ``result`` is given as the coefficient tuple or as a
    :class:`ResultSlot`, which a replay gives: reading ``result`` then
    computes it (and the rest of its kernel group), so a caller that
    reads no result runs no result math.  Either way a read gives the
    tuple.  Equality and ``repr`` leave the result out.
    """

    request: Request
    result: InitVar[Union[Tuple[int, ...], ResultSlot]]
    start_s: float
    finish_s: float
    energy_nj: float
    engine_index: int
    batch_size: int
    batch_padding: int
    _result: Union[Tuple[int, ...], ResultSlot] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self, result) -> None:
        object.__setattr__(self, "_result", result)

    @property
    def queue_s(self) -> float:
        """Time spent waiting for coalescing plus a free engine."""
        return self.start_s - self.request.arrival_s

    @property
    def service_s(self) -> float:
        """Kernel time of the batch this request rode in."""
        return self.finish_s - self.start_s

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion latency."""
        return self.finish_s - self.request.arrival_s


def _read_result(response: Response) -> Tuple[int, ...]:
    result = response._result
    if type(result) is ResultSlot:
        return result.results[result.index]
    return result


# Set after the dataclass is built: a ``result`` property in the class
# body would become the default of the ``result`` init argument.
Response.result = property(_read_result, doc="The result coefficients.")


def gold_result(request: Request) -> List[int]:
    """The reference (gold-model) result for a request.

    This is what the engine must produce; the simulator's model mode
    serves it directly, and the tests hold the SRAM path to it.
    """
    from repro.ntt.transform import intt_negacyclic, ntt_negacyclic, polymul_negacyclic

    params = request.params
    payload = list(request.payload)
    if request.op == "ntt":
        return ntt_negacyclic(payload, params)
    if request.op == "intt":
        return intt_negacyclic(payload, params)
    return polymul_negacyclic(payload, list(request.operand), params)


# -- crypto-level adapters --------------------------------------------------

def kyber_polymul_request(a: Sequence[int], b: Sequence[int], *,
                          request_id: int, arrival_s: float = 0.0) -> Request:
    """A Kyber polynomial product (round-1 ring, q = 7681)."""
    return Request(
        request_id=request_id,
        op="polymul",
        params_name="kyber-v1",
        payload=tuple(a),
        operand=tuple(b),
        arrival_s=arrival_s,
        kind="kyber",
    )


def dilithium_ntt_request(poly: Sequence[int], *, request_id: int,
                          arrival_s: float = 0.0) -> Request:
    """A forward NTT on the CRYSTALS-Dilithium ring (q = 8380417)."""
    return Request(
        request_id=request_id,
        op="ntt",
        params_name="dilithium",
        payload=tuple(poly),
        arrival_s=arrival_s,
        kind="dilithium",
    )


def he_multiply_plain_requests(u: Sequence[int], v: Sequence[int],
                               plaintext: Sequence[int], *, request_id: int,
                               arrival_s: float = 0.0,
                               params_name: str = "he-16bit") -> List[Request]:
    """BFV-lite ciphertext-times-plaintext: one product per component.

    Both components multiply by the *same* plaintext polynomial, so the
    two requests share a batch key and coalesce into one invocation
    whenever they arrive together.  They take ids ``request_id`` and
    ``request_id + 1``.
    """
    operand = tuple(plaintext)
    return [
        Request(
            request_id=request_id + index,
            op="polymul",
            params_name=params_name,
            payload=tuple(component),
            operand=operand,
            arrival_s=arrival_s,
            kind="he",
        )
        for index, component in enumerate((u, v))
    ]


def he_multiply_requests(context: HEContext, ct1: HECiphertext,
                         ct2: HECiphertext, relin_key: RelinKey, *,
                         request_id: int, arrival_s: float = 0.0,
                         params_name: str = "he-16bit") -> List[Request]:
    """BFV-lite ciphertext-times-ciphertext: the full product trail.

    Lowers one logical :meth:`~repro.crypto.he.HEContext.multiply` call
    into its constituent negacyclic products, in evaluation order:

    1. ``v1 * v2`` — the tensor's d0 component,
    2. ``u1 * v2`` and ``v1 * u2`` — the two halves of d1,
    3. ``u1 * u2`` — the degree-2 component d2,
    4. for every base-T digit ``i`` of the rescaled d2: ``digit_i * a_i``
       and ``digit_i * b_i`` against the relinearization key, i.e.
       ``4 + 2 * relin_key.digits`` ``polymul`` requests taking ids
       ``request_id ...``.

    ``ct1`` is the fresh (per-call) ciphertext and rides in the
    payloads; ``ct2`` is the long-lived operand ciphertext (e.g. a
    provider's encrypted weight vector) and, like the relinearization
    key, lands in the ``operand`` slot — so every product in the trail
    has a key-material operand and coalesces across calls, exactly as
    the plaintext-product trail does.  The digit payloads are derived
    host-side with the gold model (the trace simulator carries no
    cross-request dataflow); the t/q rescale and base-T decomposition
    are O(n) host work in the real pipeline too.
    """
    params = get_params(params_name)
    if (params.n, params.q) != (context.params.n, context.params.q):
        raise ParameterError(
            f"parameter set {params_name!r} (n={params.n}, q={params.q}) does "
            f"not match the HE context ring (n={context.params.n}, "
            f"q={context.params.q})"
        )
    context.check_relin_key(relin_key)
    u2 = tuple(ct2.u.coeffs)
    v2 = tuple(ct2.v.coeffs)
    d2 = context.degree_two_component(ct1, ct2)
    pairs = [
        (tuple(ct1.v.coeffs), v2),   # d0 = v1 * v2
        (tuple(ct1.u.coeffs), v2),   # d1 += u1 * v2
        (tuple(ct1.v.coeffs), u2),   # d1 += v1 * u2
        (tuple(ct1.u.coeffs), u2),   # d2 = u1 * u2
    ]
    for digit, (a_i, b_i) in zip(context.decompose(d2, relin_key.base),
                                 relin_key.components):
        payload = tuple(digit.coeffs)
        pairs.append((payload, tuple(a_i.coeffs)))
        pairs.append((payload, tuple(b_i.coeffs)))
    return [
        Request(
            request_id=request_id + index,
            op="polymul",
            params_name=params_name,
            payload=payload,
            operand=operand,
            arrival_s=arrival_s,
            kind="he-mul",
        )
        for index, (payload, operand) in enumerate(pairs)
    ]
