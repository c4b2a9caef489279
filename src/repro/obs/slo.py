"""Declarative SLOs compiled into multi-window burn-rate alert rules.

An *objective* names a service-level indicator over the run:

* ``availability`` — verified-signature ratio: failed requests over
  finished requests (paper §III: a request only counts as served once
  the client verifies the aggregate SEM+user signature).
* ``latency`` — fraction of requests slower than ``threshold_s`` (the
  p99-style objective: target 0.99 means at most 1% may exceed it).
* ``drop_rate`` — simulated-network drops over messages sent.
* ``op_budget`` — model-equivalent Exp (or Pair) consumed per issued
  request against ``budget_per_request`` (Table I discipline as an SLO).
* ``quarantine`` — invalid share batches (Eq. 14 rejections) per issued
  request: byzantine SEMs burn this budget, clean fleets never do.

Each objective compiles into fast/slow **burn-rate window pairs** scaled
to the scenario's virtual clock (Google SRE-workbook shape): an alert
requires the error-budget burn rate to exceed the pair's factor over
*both* the long window (sustained) and the short window (still
happening), which is what keeps a brief blip from paging while a real
incident pages in minutes.  The alert state machine is
pending → firing → resolved, deduplicated per (objective, severity),
with every transition appended to a JSONL-exportable timeline in
virtual-time order — deterministic, so a double run is bit-identical.

The SLI counters are bound into the registry **only when SLOs are
enabled** (:func:`bind_sli_sources`), so golden exposition files of
plain runs are untouched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .registry import MetricsRegistry
from .timeseries import TimeSeriesStore

__all__ = [
    "SLO_SIGNALS",
    "ALERT_SEVERITIES",
    "LATENCY_BUCKETS",
    "BurnRateWindow",
    "SLOObjective",
    "BurnRateRule",
    "AlertEngine",
    "LatencyTap",
    "bind_sli_sources",
    "check_expected",
    "check_slo_report",
    "default_windows",
    "error_budget_report",
]

#: Signal kinds an objective may declare.
SLO_SIGNALS = ("availability", "latency", "drop_rate", "op_budget", "quarantine")

#: Alert severities, fast pair first (page = act now, ticket = act soon).
ALERT_SEVERITIES = ("page", "ticket")

#: Buckets for the SLO request-latency histogram: finer than the default
#: exposition buckets around sub-second simulated round trips.
LATENCY_BUCKETS = (
    0.005, 0.01, 0.02, 0.035, 0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.45,
    0.6, 0.8, 1.0, 1.5, 2.5, 5.0,
)

#: Registry names of the bound SLIs (see :func:`bind_sli_sources`).
SLI_REQUESTS = "sli_requests_total"
SLI_FINISHED = "sli_finished_total"
SLI_BAD = "sli_bad_total"
SLI_MESSAGES = "sli_messages_total"
SLI_DROPPED = "sli_dropped_total"
SLI_EXP = "sli_exp_total"
SLI_PAIR = "sli_pair_total"
SLI_INVALID = "sli_invalid_batches_total"
SLI_LATENCY = "sli_request_latency_seconds"


@dataclass(frozen=True)
class BurnRateWindow:
    """One (long, short) window pair with its burn-rate factor."""

    long_s: float
    short_s: float
    burn_rate: float
    severity: str = "page"


@dataclass(frozen=True)
class SLOObjective:
    """One declarative objective; ``windows`` default per run duration."""

    name: str
    signal: str
    target: float = 0.99
    threshold_s: float | None = None  # latency only
    op: str = "exp"  # op_budget only: "exp" | "pair"
    budget_per_request: float | None = None  # op_budget only
    windows: tuple[BurnRateWindow, ...] = ()

    def budget(self) -> float:
        """The error budget: the tolerable bad fraction (1 - target)."""
        return max(1.0 - self.target, 1e-9)


def default_windows(duration_s: float) -> tuple[BurnRateWindow, ...]:
    """Fast + slow burn-rate pairs scaled to the run's virtual clock.

    The classic SRE-workbook pairs assume a 30-day budget window; a
    scenario's budget window is its duration, so the pairs scale with it:
    a fast pair (5% long / 1% short of the run, burn 14.4) pages on an
    incident consuming the whole budget in ~7% of the run, and a slow
    pair (25% / 5%, burn 3.0) tickets on sustained slow burn.
    """
    d = max(duration_s, 1e-9)
    return (
        BurnRateWindow(long_s=d * 0.05, short_s=d * 0.01,
                       burn_rate=14.4, severity="page"),
        BurnRateWindow(long_s=d * 0.25, short_s=d * 0.05,
                       burn_rate=3.0, severity="ticket"),
    )


class BurnRateRule:
    """One objective × one window pair, evaluated against the store."""

    def __init__(self, objective: SLOObjective, window: BurnRateWindow):
        self.objective = objective
        self.window = window
        self.key = f"{objective.name}:{window.severity}"

    def _bad_ratio(self, store: TimeSeriesStore, window_s: float,
                   now: float) -> float:
        o = self.objective
        if o.signal == "availability":
            bad = store.increase(SLI_BAD, window_s, now)
            total = store.increase(SLI_FINISHED, window_s, now)
        elif o.signal == "drop_rate":
            bad = store.increase(SLI_DROPPED, window_s, now)
            total = store.increase(SLI_MESSAGES, window_s, now)
        elif o.signal == "quarantine":
            bad = store.increase(SLI_INVALID, window_s, now)
            total = store.increase(SLI_REQUESTS, window_s, now)
        elif o.signal == "latency":
            return store.window_fraction_over(
                SLI_LATENCY, o.threshold_s, window_s, now
            )
        elif o.signal == "op_budget":
            key = SLI_EXP if o.op == "exp" else SLI_PAIR
            spent = store.increase(key, window_s, now)
            requests = store.increase(SLI_REQUESTS, window_s, now)
            if requests <= 0:
                # Cost-per-request is undefined without requests (audit
                # background spend between arrivals is budgeted per audit
                # elsewhere); an idle window burns nothing.
                return 0.0
            per_request = spent / requests
            # Normalise to a bad-ratio: burn 1.0 == exactly on budget.
            return (per_request / o.budget_per_request) * self.objective.budget()
        else:  # pragma: no cover - schema validates signals
            raise ValueError(f"unknown SLO signal {o.signal!r}")
        if total <= 0:
            return 0.0
        return bad / total

    def burn_rates(self, store: TimeSeriesStore,
                   now: float) -> tuple[float, float]:
        budget = self.objective.budget()
        return (
            self._bad_ratio(store, self.window.long_s, now) / budget,
            self._bad_ratio(store, self.window.short_s, now) / budget,
        )

    def breached(self, burn_long: float, burn_short: float) -> bool:
        return (burn_long >= self.window.burn_rate
                and burn_short >= self.window.burn_rate)


def compile_rules(objectives, duration_s: float) -> list[BurnRateRule]:
    """Objectives → rules, defaulting window pairs to the run duration.

    Deterministic order: objective name, then severity (page before
    ticket), then window declaration order.
    """
    rules = []
    for objective in sorted(objectives, key=lambda o: o.name):
        windows = objective.windows or default_windows(duration_s)
        for window in windows:
            rules.append(BurnRateRule(objective, window))
    return rules


class AlertEngine:
    """Evaluates burn-rate rules each sample; keeps the alert timeline.

    State machine per (objective, severity): inactive → pending on a
    breach, pending → firing once held for ``for_intervals`` consecutive
    evaluations (default 1: the multi-window condition already encodes
    persistence), firing → resolved when the breach clears.  Transitions
    are deduplicated — a rule that stays breached emits nothing new.
    """

    def __init__(self, rules, store: TimeSeriesStore,
                 for_intervals: int = 1):
        self.rules = rules
        self.store = store
        self.for_intervals = max(1, for_intervals)
        self._state: dict[str, str] = {r.key: "inactive" for r in rules}
        self._held: dict[str, int] = {r.key: 0 for r in rules}
        self.timeline: list[dict] = []
        self.last_burn: dict[str, tuple[float, float]] = {}

    def _emit(self, now, rule, state, burn_long, burn_short) -> None:
        self.timeline.append({
            "t": round(now, 9),
            "alert": rule.key,
            "objective": rule.objective.name,
            "severity": rule.window.severity,
            "state": state,
            "burn_long": round(burn_long, 9),
            "burn_short": round(burn_short, 9),
            "long_s": round(rule.window.long_s, 9),
            "short_s": round(rule.window.short_s, 9),
            "burn_threshold": rule.window.burn_rate,
        })

    def evaluate(self, now: float) -> None:
        for rule in self.rules:
            burn_long, burn_short = rule.burn_rates(self.store, now)
            self.last_burn[rule.key] = (burn_long, burn_short)
            breached = rule.breached(burn_long, burn_short)
            state = self._state[rule.key]
            if breached:
                self._held[rule.key] += 1
                if state == "inactive":
                    state = "pending"
                    self._emit(now, rule, state, burn_long, burn_short)
                if state == "pending" and self._held[rule.key] >= self.for_intervals:
                    state = "firing"
                    self._emit(now, rule, state, burn_long, burn_short)
            else:
                self._held[rule.key] = 0
                if state == "firing":
                    state = "resolved"
                    self._emit(now, rule, state, burn_long, burn_short)
                    state = "inactive"
                elif state == "pending":
                    state = "inactive"  # lapsed before firing: no event
            self._state[rule.key] = state

    # -- results -------------------------------------------------------------
    def fired(self) -> list[str]:
        """Deduplicated ``objective:severity`` keys that reached firing."""
        seen = []
        for event in self.timeline:
            if event["state"] == "firing" and event["alert"] not in seen:
                seen.append(event["alert"])
        return sorted(seen)

    def panel(self) -> dict:
        """Live view for the dashboard: firing alerts + worst burn rates."""
        firing = sorted(
            key for key, state in self._state.items() if state == "firing"
        )
        burn = {}
        for rule in self.rules:
            long_b, short_b = self.last_burn.get(rule.key, (0.0, 0.0))
            prev = burn.get(rule.objective.name, 0.0)
            burn[rule.objective.name] = max(prev, long_b, short_b)
        return {"firing": firing, "burn": burn}

    def write_timeline(self, path) -> None:
        """Export the alert timeline as JSONL, one transition per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.timeline:
                fh.write(json.dumps(event, sort_keys=True) + "\n")


def error_budget_report(objectives, store: TimeSeriesStore,
                        duration_s: float, now: float) -> list[dict]:
    """Whole-run error-budget accounting, one row per objective.

    ``budget_remaining`` may go negative — a blown budget is a fact, not
    a clamp.  Rows are sorted by objective name for digest stability.
    """
    rows = []
    for o in sorted(objectives, key=lambda obj: obj.name):
        rule = BurnRateRule(o, BurnRateWindow(duration_s, duration_s, 1.0))
        ratio = rule._bad_ratio(store, duration_s, now)
        budget = o.budget()
        spent = ratio / budget
        rows.append({
            "objective": o.name,
            "signal": o.signal,
            "target": o.target,
            "bad_ratio": round(ratio, 9),
            "budget": round(budget, 9),
            "budget_spent": round(spent, 9),
            "budget_remaining": round(1.0 - spent, 9),
        })
    return rows


#: Legal alert-timeline transitions per (objective, severity) key.  A
#: lapsed pending emits nothing, so pending → pending is legal; firing is
#: deduplicated, so only resolved follows it; a key's first event is
#: always pending.
_LEGAL_TRANSITIONS = {
    None: {"pending"},
    "pending": {"pending", "firing"},
    "firing": {"resolved"},
    "resolved": {"pending"},
}


def check_slo_report(slo: dict, tolerance: float = 1e-6) -> list[str]:
    """Offline re-evaluation of a recorded run's SLO block; [] when clean.

    ``slo`` is the ``"slo"`` object of a ``repro-scenario-verdict-v1``
    report.  Four independent checks, each producing human-readable
    problem strings: (1) every alert key's timeline follows the legal
    state machine with non-decreasing timestamps and burn rates
    consistent with each transition, (2) the recorded ``fired`` list is
    exactly the deduplicated firing keys recomputed from the timeline,
    (3) every error-budget row's arithmetic re-derives from its own
    ``bad_ratio`` and ``target``, and (4) the fired set matches
    ``expected_alerts`` exactly, both ways (the chaos-drill contract).
    """
    problems: list[str] = []
    timeline = slo.get("alerts") or []

    # (1) state-machine legality + monotone time + burn consistency.
    prev_state: dict[str, str | None] = {}
    prev_t = None
    for i, event in enumerate(timeline):
        key, state = event.get("alert"), event.get("state")
        t = event.get("t", 0.0)
        if prev_t is not None and t < prev_t:
            problems.append(
                f"timeline[{i}]: t={t} goes backwards (previous {prev_t})"
            )
        prev_t = t
        legal = _LEGAL_TRANSITIONS.get(prev_state.get(key), {"pending"})
        if state not in legal:
            problems.append(
                f"timeline[{i}]: alert {key!r} transitions "
                f"{prev_state.get(key) or 'start'} -> {state} "
                f"(legal: {', '.join(sorted(legal))})"
            )
        prev_state[key] = state
        threshold = event.get("burn_threshold", 0.0)
        burns = (event.get("burn_long", 0.0), event.get("burn_short", 0.0))
        if state in ("pending", "firing") and not all(
            b >= threshold - tolerance for b in burns
        ):
            problems.append(
                f"timeline[{i}]: alert {key!r} {state} with burn rates "
                f"{burns} below threshold {threshold}"
            )
        if state == "resolved" and all(
            b >= threshold + tolerance for b in burns
        ):
            problems.append(
                f"timeline[{i}]: alert {key!r} resolved while both burn "
                f"rates {burns} still exceed threshold {threshold}"
            )

    # (2) the fired list is exactly the firing keys of the timeline.
    recomputed = []
    for event in timeline:
        if event.get("state") == "firing" and event["alert"] not in recomputed:
            recomputed.append(event["alert"])
    recomputed = sorted(recomputed)
    recorded = list(slo.get("fired") or [])
    if recomputed != recorded:
        problems.append(
            f"fired list {recorded} does not match the timeline's firing "
            f"transitions {recomputed}"
        )

    # (3) error-budget arithmetic re-derives from bad_ratio and target.
    for row in slo.get("error_budgets") or []:
        budget = max(1.0 - row["target"], 1e-9)
        spent = row["bad_ratio"] / budget
        for field_name, expected in (
            ("budget", budget),
            ("budget_spent", spent),
            ("budget_remaining", 1.0 - spent),
        ):
            if abs(row.get(field_name, 0.0) - expected) > tolerance:
                problems.append(
                    f"budget row {row['objective']!r}: {field_name}="
                    f"{row.get(field_name)} but re-derivation gives "
                    f"{expected:.9f}"
                )

    # (4) expected-alerts exactness, both directions.
    unexpected, missing = check_expected(recorded,
                                         slo.get("expected_alerts") or [])
    problems.extend(f"alert {key!r} fired but was not expected"
                    for key in unexpected)
    problems.extend(f"expected alert {want!r} never fired" for want in missing)
    return problems


def check_expected(fired, expected) -> tuple[list[str], list[str]]:
    """(unexpected, missing) of the fired alert keys against expectations.

    An expectation ``"obj"`` covers any severity of that objective;
    ``"obj:severity"`` is exact.  Exactness cuts both ways: every fired
    alert must be expected and every expectation must fire.
    """
    expected = set(expected)
    unexpected = [
        f for f in fired
        if f not in expected and f.split(":")[0] not in expected
    ]
    missing = [
        e for e in sorted(expected)
        if not any(f == e or f.split(":")[0] == e for f in fired)
    ]
    return unexpected, missing


class LatencyTap:
    """Pull-absorbs completion latencies into the SLO latency histogram.

    Cohort driver nodes append each completion's latency to a plain
    list; the tap tracks a consumed index per source and, on every
    sampler tick and registry collect, observes only the new entries.
    Sampler ticks run in virtual time, so absorption is deterministic.
    """

    def __init__(self, registry: MetricsRegistry,
                 buckets: tuple[float, ...] = LATENCY_BUCKETS):
        self.histogram = registry.histogram(
            SLI_LATENCY, "request completion latency (SLO indicator)",
            buckets=buckets,
        )
        self._sources: list[list[float]] = []
        self._consumed: list[int] = []
        registry.register_collector(self.absorb)

    def add_source(self, latencies: list) -> None:
        self._sources.append(latencies)
        self._consumed.append(0)

    def absorb(self) -> None:
        for i, source in enumerate(self._sources):
            for value in source[self._consumed[i]:]:
                self.histogram.observe(value)
            self._consumed[i] = len(source)


def bind_sli_sources(registry: MetricsRegistry, sources: dict) -> dict:
    """Mirror SLI accumulators into registry counters via a collector.

    ``sources`` maps SLI metric names to zero-arg callables returning the
    current cumulative value; it is returned for the time-series store,
    which samples the sources directly.  Registered only when SLOs are
    enabled so plain runs keep their golden exposition byte-identical.
    """
    counters = {
        name: registry.counter(name, f"SLO indicator ({name})")
        for name in sorted(sources)
    }

    def collect():
        for name in counters:
            counters[name].set(float(sources[name]()))

    registry.register_collector(collect)
    return sources
