"""The one finding model every analyzer reports through.

A checker is any callable producing :class:`Diagnostic` records; the
three built-in analyzers (:mod:`repro.check.program`,
:mod:`repro.check.he`, :mod:`repro.check.sched`), the registry rule
(:mod:`repro.check.registry`) and user-registered rules all speak this
type, which is what lets ``repro.cli check`` render, serialize and
exit-code them uniformly.

Rule identity lives in :data:`RULE_CATALOG`: a stable id (``PROG005``)
maps to a one-line summary, and every emitted diagnostic must carry a
cataloged id — enforced at construction so a typo in a rule id fails
the checker, not the reader grepping for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.errors import CheckError
from repro.utils import jsonout


class Severity(enum.Enum):
    """How bad a finding is; only ``ERROR`` fails a check run."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


#: Stable rule id -> one-line summary.  The README's rule-catalog table
#: and ``repro.cli check --catalog`` are both generated from this dict,
#: so the documentation cannot drift from the implementation.
RULE_CATALOG: Dict[str, str] = {
    # -- program verifier (check/program.py) --------------------------
    "PROG001": "row index outside the subarray geometry",
    "PROG002": "Check bit index outside the tile width",
    "PROG003": "SetFlags mask addresses tiles the subarray lacks",
    "PROG004": "row read before any write (not a declared input)",
    "PROG005": "CarryStep with no prior instruction parking the SA latch",
    "PROG006": "gated operand / CopyGated with no live predicate flags",
    "PROG007": "CheckCarry reads a carry-out no CarryStep produced",
    "PROG008": "width-1 carry chain whose operands can overflow the word",
    "PROG009": "carry chain shorter than the word width settles nothing",
    "PROG010": "instruction class missing from the technology cost tables",
    "PROG011": "section range exceeds the program length",
    "PROG012": "section left open at end of program",
    # -- HE depth pre-checker (check/he.py) ---------------------------
    "HE001": "multiply chain deeper than the ring's noise budget allows",
    "HE002": "deepest level lands within the safety margin of the budget",
    "HE003": "parameter set unknown or unusable for HE",
    # -- scheduler conformance (check/sched.py) -----------------------
    "SCHED001": "request arrived but was never responded or dropped",
    "SCHED002": "request disposed more than once (respond/drop races)",
    "SCHED003": "lifecycle event for a request that never arrived",
    "SCHED004": "two batches overlap in time on one lane",
    "SCHED005": "lane_start/lane_finish do not pair up for a batch",
    "SCHED006": "batch dispatched before (or without) its batch_open",
    "SCHED007": "request event timestamped after its respond",
    "SCHED008": "per-request stage timestamps out of causal order",
    "SCHED009": "conservation broken: admitted != responded at end",
    # -- registry drift (check/registry.py) ---------------------------
    "REG001": "registered backend/scheduler name fails to resolve",
    "REG002": "registered name missing from the serve --help text",
    # -- cluster routing conformance (check/cluster.py) ---------------
    "CLUSTER001": "batch events disagree on the owning chip",
    "CLUSTER002": "request enqueued on a drained or failed chip",
    "CLUSTER003": "cross-shard busy-time imbalance above the bound",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: rule id, severity, location, message, fix hint."""

    rule: str
    severity: Severity
    location: str
    message: str
    hint: str = ""

    def __post_init__(self) -> None:
        if self.rule not in RULE_CATALOG:
            raise CheckError(
                f"unknown rule id {self.rule!r}; add it to "
                f"repro.check.diagnostics.RULE_CATALOG first"
            )

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def to_dict(self) -> Dict[str, str]:
        """JSON-ready representation (``repro.cli check --json``)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }


def error(rule: str, location: str, message: str, hint: str = "") -> Diagnostic:
    """Shorthand constructor for an error-severity finding."""
    return Diagnostic(rule, Severity.ERROR, location, message, hint)


def warning(rule: str, location: str, message: str, hint: str = "") -> Diagnostic:
    """Shorthand constructor for a warning-severity finding."""
    return Diagnostic(rule, Severity.WARNING, location, message, hint)


def info(rule: str, location: str, message: str, hint: str = "") -> Diagnostic:
    """Shorthand constructor for an info-severity finding."""
    return Diagnostic(rule, Severity.INFO, location, message, hint)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """True when any finding is error-severity (the exit-code rule)."""
    return any(d.is_error for d in diagnostics)


def format_diagnostics(diagnostics: List[Diagnostic]) -> str:
    """Human-readable listing, errors first, with a one-line summary.

    An empty finding list renders as the explicit all-clear line so a
    quiet check run is distinguishable from one that did not run.
    """
    if not diagnostics:
        return "no findings"
    order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
    lines = []
    for d in sorted(diagnostics, key=lambda d: (order[d.severity], d.rule)):
        lines.append(f"{d.severity.value:<7} {d.rule} {d.location}: {d.message}")
        if d.hint:
            lines.append(f"        hint: {d.hint}")
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = sum(1 for d in diagnostics if d.severity is Severity.WARNING)
    lines.append(
        f"{len(diagnostics)} finding(s): {errors} error(s), "
        f"{warnings} warning(s)"
    )
    return "\n".join(lines)


def diagnostics_json(diagnostics: List[Diagnostic]) -> str:
    """The findings as a JSON document (stable key order)."""
    return jsonout.dumps(
        {
            "findings": [d.to_dict() for d in diagnostics],
            "errors": sum(1 for d in diagnostics if d.is_error),
        },
        indent=2,
        sort_keys=True,
    )


def format_rule_catalog() -> str:
    """The rule catalog as a fixed-width table (``check --catalog``)."""
    lines = [f"{'rule':<9} summary", "-" * 60]
    for rule in sorted(RULE_CATALOG):
        lines.append(f"{rule:<9} {RULE_CATALOG[rule]}")
    return "\n".join(lines)
