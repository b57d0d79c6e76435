"""Trace-file summaries: where a request's latency actually went.

``repro.cli trace <file>`` lands here.  The loader accepts either
export format (the JSONL event log or the Chrome-trace JSON — both
carry the full stage timestamps) and normalizes each request into a
:class:`RequestTimeline`.  The summary then decomposes every served
request's end-to-end latency into the named lifecycle stages

- ``admission`` — arrive to enqueue (admission-control work),
- ``batching`` — enqueue to dispatch (waiting for co-batched company),
- ``lane-wait`` — dispatch to lane start (every lane was busy),
- ``service``  — lane start to finish (the kernel itself),

which partition the interval exactly, so the per-stage shares of any
request sum to 100% of its end-to-end latency (the ``coverage``
column; asserted >= 99% in the CI smoke).  The table samples the
p50/p95/p99 requests by end-to-end latency — the concrete requests a
tail investigation starts from — and the critical-path section
aggregates over *all* served requests: the mean share of each stage
and how often it dominates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.obs.registry import percentile

#: Stage names, in lifecycle order.  Each is a (label, start, end)
#: over RequestTimeline attributes.
STAGES = (
    ("admission", "arrive_s", "enqueue_s"),
    ("batching", "enqueue_s", "dispatched_s"),
    ("lane-wait", "dispatched_s", "start_s"),
    ("service", "start_s", "finish_s"),
)


@dataclass(frozen=True)
class RequestTimeline:
    """One request's lifecycle instants, reconstructed from a trace file."""

    request_id: int
    kind: str
    tenant: str
    arrive_s: float
    enqueue_s: Optional[float] = None
    dispatched_s: Optional[float] = None
    start_s: Optional[float] = None
    finish_s: Optional[float] = None
    drop_reason: Optional[str] = None
    lane: Optional[int] = None
    batch_id: Optional[int] = None

    @property
    def served(self) -> bool:
        return self.drop_reason is None and self.finish_s is not None

    @property
    def e2e_s(self) -> float:
        if not self.served:
            raise ParameterError(
                f"request {self.request_id} was not served to completion"
            )
        return self.finish_s - self.arrive_s

    def stage_s(self, label: str) -> float:
        """Seconds spent in one named stage (0 for missing instants)."""
        for name, start_attr, end_attr in STAGES:
            if name == label:
                start = getattr(self, start_attr)
                end = getattr(self, end_attr)
                if start is None or end is None:
                    return 0.0
                return max(end - start, 0.0)
        raise ParameterError(f"unknown stage {label!r}")

    def breakdown(self) -> List[Tuple[str, float]]:
        return [(name, self.stage_s(name)) for name, _, _ in STAGES]

    @property
    def coverage(self) -> float:
        """Fraction of e2e latency the named stages account for."""
        e2e = self.e2e_s
        if e2e <= 0:
            return 1.0
        return sum(s for _, s in self.breakdown()) / e2e


# -- loading -----------------------------------------------------------------


def load_timelines(path) -> List[RequestTimeline]:
    """Read a trace file (JSONL or Chrome-trace JSON) into timelines.

    Both formats open with ``{``, so the sniff is semantic: a file that
    parses as one JSON document with a ``traceEvents`` key is a Chrome
    trace; anything else is treated as one JSON event per line.
    """
    with open(path) as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "traceEvents" in doc:
        return _from_chrome(doc)
    if doc is not None:
        raise ParameterError(
            f"{path}: JSON parses but has no 'traceEvents' key — "
            "not a trace file this tool understands"
        )
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    return _from_events(records)


def _from_events(records: Sequence[dict]) -> List[RequestTimeline]:
    """Timelines from the JSONL event stream (dicts of TraceEvent)."""
    fields: Dict[int, dict] = {}
    for rec in records:
        rid = rec.get("request_id")
        if rid is None:
            continue
        slot = fields.setdefault(rid, {"request_id": rid})
        phase = rec["phase"]
        t = rec["t_s"]
        attrs = rec.get("attrs") or {}
        if phase == "arrive":
            slot["arrive_s"] = t
            slot["kind"] = rec.get("kind", "")
            slot["tenant"] = rec.get("tenant", "")
        elif phase == "enqueue":
            slot["enqueue_s"] = t
            slot.setdefault("batch_id", rec.get("batch_id"))
        elif phase == "drop":
            slot["drop_reason"] = attrs.get("reason", "dropped")
        elif phase == "respond":
            slot["finish_s"] = t
            slot["dispatched_s"] = attrs.get("dispatched_s")
            slot["start_s"] = attrs.get("start_s")
            slot["lane"] = rec.get("lane")
            slot["batch_id"] = rec.get("batch_id")
    return _build(fields)


def _from_chrome(doc: dict) -> List[RequestTimeline]:
    """Timelines from the Chrome-trace export (async request spans)."""
    fields: Dict[int, dict] = {}
    for ev in doc.get("traceEvents", ()):
        if ev.get("cat") != "request" or "id" not in ev:
            continue
        rid = ev["id"]
        slot = fields.setdefault(rid, {"request_id": rid})
        t = ev["ts"] / 1e6
        args = ev.get("args") or {}
        ph = ev.get("ph")
        if ph == "b":
            slot["arrive_s"] = t
            slot["kind"] = args.get("kind", "")
            slot["tenant"] = args.get("tenant", "")
        elif ph == "n" and ev.get("name") == "enqueue":
            slot["enqueue_s"] = t
        elif ph == "e":
            if args.get("phase") == "drop":
                slot["drop_reason"] = args.get("reason", "dropped")
            else:
                slot["finish_s"] = t
                slot["dispatched_s"] = args.get("dispatched_s")
                slot["start_s"] = args.get("start_s")
                slot["lane"] = args.get("lane")
                slot["batch_id"] = args.get("batch_id")
    return _build(fields)


def _build(fields: Dict[int, dict]) -> List[RequestTimeline]:
    timelines = []
    for rid in sorted(fields):
        slot = fields[rid]
        if "arrive_s" not in slot:
            continue  # partial capture (e.g. a truncated file)
        slot.setdefault("kind", "")
        slot.setdefault("tenant", "")
        timelines.append(RequestTimeline(**slot))
    return timelines


# -- summarizing -------------------------------------------------------------


def _fmt_stage(seconds: float, e2e_s: float) -> str:
    share = seconds / e2e_s if e2e_s > 0 else 0.0
    return f"{seconds * 1e3:8.3f} ({share:4.0%})"


def summarize_trace(timelines: Sequence[RequestTimeline],
                    quantiles: Sequence[float] = (50, 95, 99)) -> str:
    """The ``repro.cli trace`` report for one loaded trace file."""
    served = [t for t in timelines if t.served]
    dropped = [t for t in timelines if t.drop_reason is not None]
    lines = [
        f"requests: {len(timelines)} total, {len(served)} served, "
        f"{len(dropped)} dropped"
    ]
    if dropped:
        reasons: Dict[str, int] = {}
        for t in dropped:
            reasons[t.drop_reason] = reasons.get(t.drop_reason, 0) + 1
        lines.append("drops: " + ", ".join(
            f"{reason}={count}" for reason, count in sorted(reasons.items())
        ))
    if not served:
        lines.append("no served requests to break down")
        return "\n".join(lines)

    span = max(t.finish_s for t in served) - min(t.arrive_s for t in served)
    lines.append(f"span: {span * 1e3:.3f} ms  "
                 f"({len(served) / max(span, 1e-12):,.0f} req/s served)")
    lines.append("")

    # The sampled-request table: the concrete p50/p95/p99 requests.
    latencies = [t.e2e_s for t in served]
    by_latency = sorted(served, key=lambda t: (t.e2e_s, t.request_id))
    header = (
        f"{'sample':<7} {'request':>8} {'kind':<10} {'e2e(ms)':>8}  "
        + "  ".join(f"{name + '(ms)':>15}" for name, _, _ in STAGES)
        + f"  {'coverage':>8}"
    )
    lines.append("per-stage latency breakdown (nearest-rank samples):")
    lines.append(header)
    lines.append("-" * len(header))
    for q in quantiles:
        target = percentile(latencies, q)
        sample = next(t for t in by_latency if t.e2e_s == target)
        e2e = sample.e2e_s
        stage_cells = "  ".join(
            f"{_fmt_stage(s, e2e):>15}" for _, s in sample.breakdown()
        )
        lines.append(
            f"p{q:<6g} {('#' + str(sample.request_id)):>8} "
            f"{sample.kind:<10} {e2e * 1e3:>8.3f}  {stage_cells}  "
            f"{sample.coverage:>8.1%}"
        )
    lines.append("")

    # Critical-path attribution over every served request.
    lines.append(f"critical path ({len(served)} served requests):")
    shares: Dict[str, float] = {name: 0.0 for name, _, _ in STAGES}
    dominant: Dict[str, int] = {name: 0 for name, _, _ in STAGES}
    for t in served:
        e2e = t.e2e_s
        breakdown = t.breakdown()
        if e2e > 0:
            for name, s in breakdown:
                shares[name] += s / e2e
        top = max(breakdown, key=lambda item: item[1])[0]
        dominant[top] += 1
    for name, _, _ in STAGES:
        lines.append(
            f"  {name:<10} mean share {shares[name] / len(served):6.1%}   "
            f"dominates {dominant[name] / len(served):6.1%} of requests"
        )
    return "\n".join(lines)
