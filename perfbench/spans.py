"""An in-memory host-clock span recorder that wraps entry points from outside.

:class:`HostSpans` replaces a function or method with a wrapper that
records one span per call: an id, the id of the enclosing span, the
layer, a name, and start/end on :func:`time.perf_counter`.  A layer's
*self time* is the time its spans spent outside their child spans; it
accumulates per (layer, name) as calls return, together with call
counts.  Nothing inside the program is instrumented: the benchmark
patches public entry points before a traced pass and restores them
after it.

High-frequency entry points (``fine=True``) always feed the self-time
and call tables, but only the first ``KEEP_FINE_SPANS`` of their spans are
kept for the Chrome-trace export, so memory stays bounded on replays
that make millions of scheduler calls.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

KEEP_FINE_SPANS = 50_000


class HostSpans:
    """Spans, per-(layer, name) self time and call counts, plus counters."""

    def __init__(self):
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Event counters the layer hooks add to.
        self.counts: Counter = Counter()
        #: Kept spans: (id, parent id or 0, layer, name, start, end).
        self.spans: List[tuple] = []
        self.dropped = 0
        self._keep_fine = KEEP_FINE_SPANS
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, name: str, *,
             fine: bool = False) -> Callable:
        """``fn`` with one span recorded around every call."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        key = (layer, name)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder._next_id += 1
            frame = [recorder._next_id, layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][2] += elapsed
                self_s[key] += elapsed - frame[2]
                calls[key] += 1
                if not fine or recorder._keep_fine > 0:
                    if fine:
                        recorder._keep_fine -= 1
                    spans.append((frame[0], stack[-1][0] if stack else 0,
                                  layer, name, start, end))
                else:
                    recorder.dropped += 1

        return wrapper

    def call(self, layer: str, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` as one span (the benchmark's own root spans)."""
        return self.wrap(fn, layer, name)()

    def parent_layer(self) -> Optional[str]:
        """Layer of the span enclosing the innermost open one, if any.

        Hooks call this from inside their own span to tell a call from
        another layer apart from one nested in the same layer.
        """
        return self._stack[-2][1] if len(self._stack) >= 2 else None

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, attr: str, layer: str, *, fine: bool = False,
              hook: Optional[Callable[[Callable], Callable]] = None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a span.

        ``hook`` optionally wraps the original first, to count events
        inside the span.  The attribute must be defined on ``owner``
        itself, so a renamed entry point fails loudly.
        """
        original = vars(owner)[attr]
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        target = original if hook is None else hook(original)
        setattr(owner, attr, self.wrap(target, layer, name, fine=fine))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds summed per layer."""
        totals: Dict[str, float] = defaultdict(float)
        for (layer, _), seconds in self.self_s.items():
            totals[layer] += seconds
        return dict(totals)

    def layer_calls(self) -> Dict[str, int]:
        """Calls summed per layer."""
        totals: Dict[str, int] = defaultdict(int)
        for (layer, _), count in self.calls.items():
            totals[layer] += count
        return dict(totals)

    def calls_named(self, layer: str, suffix: str) -> int:
        """Calls in ``layer`` whose span name ends with ``suffix``."""
        return sum(count for (span_layer, name), count in self.calls.items()
                   if span_layer == layer and name.endswith(suffix))

    def self_named(self, layer: str, suffix: str) -> float:
        """Self seconds in ``layer`` of span names ending with ``suffix``."""
        return sum(seconds for (span_layer, name), seconds
                   in self.self_s.items()
                   if span_layer == layer and name.endswith(suffix))

    # -- export ------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """The kept spans as Chrome-trace JSON (opens in Perfetto).

        Spans become complete (``"X"``) slices on one thread, so the
        viewer nests them by time into a flame chart; ``args`` carries
        each span's id and its parent's id.
        """
        origin = min((span[4] for span in self.spans), default=0.0)
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "repro host (perf_counter clock)"},
        }]
        for span_id, parent, layer, name, start, end in sorted(
                self.spans, key=lambda span: (span[4], -span[5])):
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent},
            })
        return {"displayTimeUnit": "ms", "traceEvents": events,
                "otherData": {"spans_kept": len(self.spans),
                              "spans_dropped": self.dropped}}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")
