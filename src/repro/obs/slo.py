"""SLO burn-rate monitoring over the streaming window layer.

An SLO is a target on deadline attainment (e.g. "99% of deadline
requests finish on time"); the *error budget* is the tolerated miss
fraction (1 - objective).  The *burn rate* of a window is how fast the
tenant is spending that budget: ``miss_rate / budget`` — burn 1.0
exhausts the budget exactly at the sustainable rate, burn 10 spends it
ten times too fast.  Following the SRE multi-window pattern, a
:class:`BurnRateRule` fires only when **both** a short window (is it
happening *now*?) and a long window (is it *sustained*?) burn at or
above the rule's threshold, and resolves as soon as the short window
recovers — so one hiccup can't page and a real overload can't hide.

:class:`SLOTracer` sits in the tracer chain: it feeds every event to
an internal :class:`~repro.obs.stream.WindowedAggregator` (and onward
to ``inner``), evaluates each rule per tenant as window frames
complete, and emits typed ``alert`` :class:`TraceEvent` records into
the downstream stream — so alerts land in the JSONL/Chrome exports at
their simulated firing time, and the finished :class:`Alert` records
surface in the serve report (``repro.cli serve --slo-policy``).
Evaluation is pure arithmetic over deterministic window frames, so the
alert sequence is replay-deterministic and golden-pinnable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.obs.stream import WindowedAggregator, WindowFrame, WindowSpec
from repro.obs.tracer import NULL_TRACER, TraceEvent, Tracer

#: Alert severities, most urgent first (page = wake a human,
#: ticket = look during business hours).
SEVERITIES = ("page", "ticket")


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate condition.

    Fires when both the ``short_s`` and ``long_s`` windows burn the
    error budget at >= ``threshold`` times the sustainable rate;
    resolves when the short window drops back below.  ``long_s`` must
    be an integer multiple of ``short_s`` (windows are evaluated on the
    short window's stride).
    """

    short_s: float
    long_s: float
    threshold: float
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.short_s <= 0:
            raise ParameterError(
                f"short window must be > 0, got {self.short_s}"
            )
        if self.long_s < self.short_s:
            raise ParameterError(
                f"long window ({self.long_s:g}s) must be >= short window "
                f"({self.short_s:g}s)"
            )
        ratio = self.long_s / self.short_s
        if abs(ratio - round(ratio)) > 1e-9:
            raise ParameterError(
                f"long window {self.long_s:g}s must be an integer multiple "
                f"of short window {self.short_s:g}s"
            )
        if self.threshold <= 0:
            raise ParameterError(
                f"burn-rate threshold must be > 0, got {self.threshold}"
            )
        if self.severity not in SEVERITIES:
            raise ParameterError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def name(self) -> str:
        """Stable identifier, e.g. ``10ms/50ms x10``."""
        return (f"{self.short_s * 1e3:g}ms/{self.long_s * 1e3:g}ms "
                f"x{self.threshold:g}")


#: Default rules, scaled to replay time (simulated milliseconds, not
#: production hours): a fast-burn page and a slow-burn ticket.
DEFAULT_RULES = (
    BurnRateRule(short_s=0.01, long_s=0.05, threshold=10.0, severity="page"),
    BurnRateRule(short_s=0.05, long_s=0.2, threshold=2.0, severity="ticket"),
)


@dataclass(frozen=True)
class SLOPolicy:
    """A declarative SLO: objective, error budget, burn-rate rules.

    ``objective`` is the target deadline-attainment fraction;
    ``budget`` (1 - objective) is derived.  ``tenants`` restricts
    evaluation to named tenants (empty = every tenant seen).
    """

    objective: float = 0.95
    rules: Tuple[BurnRateRule, ...] = DEFAULT_RULES
    tenants: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.objective < 1.0:
            raise ParameterError(
                f"objective must be in [0, 1), got {self.objective}"
            )
        if not self.rules:
            raise ParameterError("policy needs at least one BurnRateRule")
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "tenants", tuple(self.tenants))

    @property
    def budget(self) -> float:
        """Tolerated miss fraction (the error budget)."""
        return 1.0 - self.objective

    def watches(self, tenant: str) -> bool:
        return not self.tenants or tenant in self.tenants

    @classmethod
    def from_mapping(cls, data: Mapping[str, object]) -> "SLOPolicy":
        """Build a policy from a plain dict (the ``--slo-policy`` JSON).

        Schema::

            {"objective": 0.95,
             "tenants": ["handshake"],          # optional, default all
             "rules": [{"short_s": 0.01, "long_s": 0.05,
                        "threshold": 10, "severity": "page"}, ...]}

        ``rules`` is optional and defaults to :data:`DEFAULT_RULES`.
        """
        if not isinstance(data, Mapping):
            raise ParameterError(
                f"SLO policy must be a JSON object, got {type(data).__name__}"
            )
        known = {"objective", "tenants", "rules"}
        extra = set(data) - known
        if extra:
            raise ParameterError(
                f"unknown SLO policy keys {sorted(extra)}; known: {sorted(known)}"
            )
        rules: Tuple[BurnRateRule, ...] = DEFAULT_RULES
        if "rules" in data:
            raw_rules = data["rules"]
            if not isinstance(raw_rules, Sequence) or isinstance(raw_rules, str):
                raise ParameterError("policy 'rules' must be a list of objects")
            built = []
            for raw in raw_rules:
                if not isinstance(raw, Mapping):
                    raise ParameterError(
                        f"each rule must be an object, got {type(raw).__name__}"
                    )
                rule_extra = set(raw) - {"short_s", "long_s", "threshold",
                                         "severity"}
                if rule_extra:
                    raise ParameterError(
                        f"unknown rule keys {sorted(rule_extra)}"
                    )
                built.append(BurnRateRule(
                    short_s=float(raw["short_s"]),
                    long_s=float(raw["long_s"]),
                    threshold=float(raw["threshold"]),
                    severity=str(raw.get("severity", "page")),
                ))
            rules = tuple(built)
        return cls(
            objective=float(data.get("objective", 0.95)),
            rules=rules,
            tenants=tuple(str(t) for t in data.get("tenants", ())),
        )

    @classmethod
    def from_file(cls, path) -> "SLOPolicy":
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ParameterError(
                f"cannot read SLO policy {str(path)!r}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(
                f"invalid SLO policy JSON in {str(path)!r}: {exc}"
            ) from exc
        return cls.from_mapping(data)


@dataclass(frozen=True)
class Alert:
    """One fired burn-rate alert (resolved or still active).

    ``burn_short`` / ``burn_long`` are the burn rates at firing time;
    ``resolved_s`` is ``None`` while the alert is still active at end
    of stream.
    """

    tenant: str
    rule: str
    severity: str
    fired_s: float
    burn_short: float
    burn_long: float
    objective: float
    resolved_s: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.resolved_s is None

    def active_at(self, t_s: float) -> bool:
        if t_s < self.fired_s:
            return False
        return self.resolved_s is None or t_s < self.resolved_s


class _ActiveAlert:
    __slots__ = ("tenant", "rule", "fired_s", "burn_short", "burn_long",
                 "resolved_s")

    def __init__(self, tenant: str, rule: BurnRateRule, fired_s: float,
                 burn_short: float, burn_long: float):
        self.tenant = tenant
        self.rule = rule
        self.fired_s = fired_s
        self.burn_short = burn_short
        self.burn_long = burn_long
        self.resolved_s: Optional[float] = None


class SLOTracer:
    """A tracer that evaluates an :class:`SLOPolicy` on the live stream.

    Wraps a :class:`~repro.obs.stream.WindowedAggregator` sized from
    the policy's rules; forwards every event downstream to ``inner``
    (so it composes with recording/sampling tracers), and emits
    ``alert`` events into the same downstream stream at each fire and
    resolve.  After :meth:`finish`, :attr:`alerts` holds the complete
    :class:`Alert` history in firing order — what the serve report's
    SLO section and the overload golden pin.
    """

    enabled = True

    def __init__(self, policy: SLOPolicy = SLOPolicy(), *,
                 inner: Optional[Tracer] = None):
        self.policy = policy
        self.inner = NULL_TRACER if inner is None else inner
        # One short and one long window per rule, deduped by geometry;
        # shorts listed first so a rule's short frame always lands
        # before the long frame that pairs with it at the same end.
        specs: Dict[Tuple[float, float], WindowSpec] = {}
        for rule in policy.rules:
            key = (rule.short_s, rule.short_s)
            if key not in specs:
                specs[key] = WindowSpec(
                    rule.short_s, rule.short_s,
                    label=f"slo-short-{rule.short_s * 1e3:g}ms",
                )
        for rule in policy.rules:
            key = (rule.long_s, rule.short_s)
            if key not in specs:
                specs[key] = WindowSpec(
                    rule.long_s, rule.short_s,
                    label=f"slo-long-{rule.long_s * 1e3:g}ms-{rule.short_s * 1e3:g}ms",
                )
        self._spec_of: Dict[Tuple[float, float], str] = {
            key: spec.label for key, spec in specs.items()
        }
        self._agg = WindowedAggregator(
            tuple(specs.values()), on_frame=self._on_frame
        )
        self._max_long = max(rule.long_s for rule in policy.rules)
        #: Completed short frames pending their long partner, keyed by
        #: (label, end_s); pruned once older than the longest window.
        self._short_cache: Dict[Tuple[str, float], WindowFrame] = {}
        self._active: Dict[Tuple[str, str], _ActiveAlert] = {}
        self._history: List[_ActiveAlert] = []
        self._finished = False

    # -- tracer interface --------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        if self.inner.enabled:
            self.inner.emit(event)
        self._agg.emit(event)

    def finish(self) -> None:
        """Flush trailing windows, evaluate them, propagate downstream
        (idempotent)."""
        if self._finished:
            return
        self._finished = True
        self._agg.finish()
        inner_finish = getattr(self.inner, "finish", None)
        if inner_finish is not None:
            inner_finish()

    @property
    def aggregator(self) -> WindowedAggregator:
        """The underlying window stream (for watch views)."""
        return self._agg

    @property
    def alerts(self) -> Tuple[Alert, ...]:
        """Every fired alert in firing order (active ones unresolved)."""
        return tuple(
            Alert(
                tenant=a.tenant,
                rule=a.rule.name,
                severity=a.rule.severity,
                fired_s=a.fired_s,
                burn_short=a.burn_short,
                burn_long=a.burn_long,
                objective=self.policy.objective,
                resolved_s=a.resolved_s,
            )
            for a in self._history
        )

    def active_alerts(self, t_s: float) -> int:
        """How many alerts were active at simulated time ``t_s``."""
        return sum(
            1 for a in self._history
            if a.fired_s <= t_s and (a.resolved_s is None or t_s < a.resolved_s)
        )

    # -- rule evaluation ---------------------------------------------------

    def _burn(self, frame: Optional[WindowFrame], tenant: str) -> float:
        if frame is None:
            return 0.0
        cell = frame.tenants.get(tenant)
        if cell is None:
            return 0.0
        return cell.miss_rate / self.policy.budget

    def _on_frame(self, frame: WindowFrame) -> None:
        matched_long = False
        for rule in self.policy.rules:
            short_label = self._spec_of[(rule.short_s, rule.short_s)]
            long_label = self._spec_of[(rule.long_s, rule.short_s)]
            if frame.label == short_label:
                self._short_cache[(short_label, frame.end_s)] = frame
            if frame.label == long_label:
                matched_long = True
                short = self._short_cache.get((short_label, frame.end_s))
                self._evaluate(rule, short, frame)
        if matched_long:
            horizon = frame.end_s - self._max_long
            for key in [k for k in self._short_cache if k[1] < horizon]:
                del self._short_cache[key]

    def _evaluate(self, rule: BurnRateRule, short: Optional[WindowFrame],
                  long: WindowFrame) -> None:
        now = long.end_s
        tenants = set(long.tenants)
        if short is not None:
            tenants.update(short.tenants)
        tenants.update(
            t for (rule_name, t) in self._active if rule_name == rule.name
        )
        for tenant in sorted(tenants):
            if not self.policy.watches(tenant):
                continue
            burn_short = self._burn(short, tenant)
            burn_long = self._burn(long, tenant)
            key = (rule.name, tenant)
            active = self._active.get(key)
            if active is None:
                if burn_short >= rule.threshold and burn_long >= rule.threshold:
                    alert = _ActiveAlert(tenant, rule, now, burn_short,
                                         burn_long)
                    self._active[key] = alert
                    self._history.append(alert)
                    self._emit_alert("fire", alert, now, burn_short, burn_long)
            elif burn_short < rule.threshold:
                active.resolved_s = now
                del self._active[key]
                self._emit_alert("resolve", active, now, burn_short, burn_long)

    def _emit_alert(self, state: str, alert: _ActiveAlert, t_s: float,
                    burn_short: float, burn_long: float) -> None:
        if not self.inner.enabled:
            return
        self.inner.emit(TraceEvent(
            "alert", t_s, None, None, None, "", alert.tenant,
            {
                "state": state,
                "rule": alert.rule.name,
                "severity": alert.rule.severity,
                "burn_short": burn_short,
                "burn_long": burn_long,
                "objective": self.policy.objective,
                "fired_s": alert.fired_s,
            },
        ))


def format_alerts(alerts: Sequence[Alert]) -> str:
    """The alert history as a fixed-width report section."""
    header = (
        f"{'Severity':<8} {'Tenant':<12} {'Rule':<18} {'Fired(ms)':>9} "
        f"{'Resolved(ms)':>12} {'Burn(s/l)':>12}"
    )
    lines = [header, "-" * len(header)]
    for a in alerts:
        resolved = f"{a.resolved_s * 1e3:.2f}" if a.resolved_s is not None \
            else "active"
        lines.append(
            f"{a.severity:<8} {a.tenant:<12} {a.rule:<18} "
            f"{a.fired_s * 1e3:>9.2f} {resolved:>12} "
            f"{a.burn_short:>5.1f}/{a.burn_long:<5.1f}"
        )
    return "\n".join(lines)
