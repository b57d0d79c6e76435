"""repro.sched — the SLO-aware global scheduler behind the serving loop.

PR 1's simulator served every request it was handed, on fixed
per-parameter round-robin lanes, with a fixed batching window.  This
package pulls all three decisions — **admission**, **placement**,
**dispatch timing** — behind one :class:`~repro.sched.base.Scheduler`
protocol so overload behavior, multi-tenant contention, and the
latency/energy trade become policy, not plumbing:

- :mod:`repro.sched.base` — the protocol (:meth:`admit` / :meth:`place`
  / :meth:`poll` and friends), :class:`BatchingScheduler`, the queue
  plumbing every built-in inherits, and :class:`GlobalLanePool`, which
  turns lanes into a shared resource any parameter set can borrow.
- :mod:`repro.sched.fifo` — PR 1's behavior, extracted: admit all,
  fixed window, per-parameter round-robin lanes.  The regression
  baseline.
- :mod:`repro.sched.slo` — queue limits, per-request deadlines and
  weighted per-tenant fairness (deficit round-robin), with explicit
  deterministic drops.
- :mod:`repro.sched.adaptive` — load-aware batching: the coalescing
  window widens under queue pressure and batches dispatch early when a
  compatible lane idles.
- :mod:`repro.sched.registry` — string-keyed factories
  (:func:`register_scheduler` / :func:`get_scheduler`), the seam the
  simulator and CLI resolve ``scheduler=`` through.

Pick one with ``ServingSimulator(..., scheduler="slo")`` or
``repro.cli serve --scheduler adaptive``; write your own by
subclassing :class:`BatchingScheduler` (or implementing the protocol)
and registering a factory (see the README's "write your own
scheduler" walkthrough).
"""

from repro.sched.base import (
    BatchingScheduler,
    GlobalLanePool,
    LaneReport,
    Placement,
    Scheduler,
)
from repro.sched.registry import (
    available_schedulers,
    create_scheduler,
    get_scheduler,
    register_scheduler,
    unregister_scheduler,
)

__all__ = [
    "BatchingScheduler",
    "GlobalLanePool",
    "LaneReport",
    "Placement",
    "Scheduler",
    "available_schedulers",
    "create_scheduler",
    "get_scheduler",
    "register_scheduler",
    "unregister_scheduler",
]
