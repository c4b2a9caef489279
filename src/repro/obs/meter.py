"""Per-group/per-cohort metering with epoch records on the ledger.

The hosted-service billing story needs *accountable* usage numbers: who
consumed how many model-equivalent Exp and Pair operations, how many
requests and signatures, how many bytes on the wire.  The
:class:`Meter` attributes every simulator event's operation-counter
delta to the node that processed it (message events to the recipient,
timer events to the callback's owning node), maps nodes to billing
scopes (``group:<G>`` for the service + its SEMs, ``cohort:<C>`` for
client populations, ``verifier:<V>``, ``cloud:<C>``), and rolls the
per-scope tallies into **epoch-numbered metering records** appended to
the hash-chained ledger (PR 7).

Each record carries both the epoch *delta* and the running *total* per
scope; :class:`MeterChecker`, which :func:`repro.obs.ledger.verify_ledger`
runs over those records, re-adds the deltas and rejects a chain whose
totals do not match — so a third party can verify the usage accounting
offline with nothing but the ledger file.  A final ``metering_close``
record pins every scope's grand total.

The meter is pure bookkeeping: integer reads of the operation counter,
no group operations, no RNG (the SLO bench gates 0 ΔExp / 0 ΔPair).
"""

from __future__ import annotations

from repro.obs.exporters import counter_model_exp

__all__ = ["Meter", "MeterChecker", "METER_FIELDS"]

#: The usage dimensions every metering record carries.
METER_FIELDS = ("requests", "signatures", "exp", "pair", "bytes")

#: Ledger record kinds written by :class:`Meter`.
KIND_METERING = "metering"
KIND_METERING_CLOSE = "metering_close"


class Meter:
    """Attributes operation-counter deltas to billing scopes per event.

    Wire-up: :meth:`install` hooks the simulator (``sim.meter = self``);
    the event loop calls :meth:`begin`/:meth:`commit` around every event.
    Usage sources (requests/signatures/bytes) are cumulative per-scope
    callables registered with :meth:`add_source`; epoch rolls difference
    them; the owner rolls epochs with :meth:`roll`, typically on the
    simulator's periodic timer (:meth:`repro.net.simulator.Simulator.every`).
    """

    def __init__(self, counter, scope_of: dict[str, str], ledger=None):
        self.counter = counter
        #: node name -> billing scope; unknown nodes bill to "other".
        self.scope_of = dict(scope_of)
        self.ledger = ledger
        #: scope -> accumulated [exp, pair] since meter start.
        self.ops: dict[str, list[int]] = {}
        #: scope -> callable() -> {"requests": .., "signatures": .., "bytes": ..}
        self.sources: dict[str, object] = {}
        self.records: list[dict] = []
        self.epoch = 0
        self._pending_owner: str | None = None
        self._pending_exp = 0
        self._pending_pair = 0
        self._last_total: dict[str, dict[str, int]] = {}
        self._epoch_start = 0.0
        self._closed = False
        self.close_record: dict = {}

    # -- per-event attribution (hot path: integer reads only) ---------------
    def begin(self, owner: str | None) -> None:
        self._pending_owner = owner
        self._pending_exp = counter_model_exp(self.counter)
        self._pending_pair = self.counter.pairings

    def commit(self) -> None:
        d_exp = counter_model_exp(self.counter) - self._pending_exp
        d_pair = self.counter.pairings - self._pending_pair
        if not d_exp and not d_pair:
            return
        scope = self.scope_of.get(self._pending_owner or "", "other")
        cell = self.ops.get(scope)
        if cell is None:
            cell = self.ops[scope] = [0, 0]
        cell[0] += d_exp
        cell[1] += d_pair

    # -- scope wiring --------------------------------------------------------
    def add_source(self, scope: str, source) -> None:
        """Register a cumulative usage source for one billing scope.

        ``source()`` returns ``{"requests": int, "signatures": int,
        "bytes": int}`` totals since run start.
        """
        self.sources[scope] = source

    def install(self, sim) -> None:
        sim.meter = self
        self._epoch_start = sim.now

    # -- epoch accounting ----------------------------------------------------
    def _current_totals(self) -> dict[str, dict[str, int]]:
        scopes = sorted(set(self.ops) | set(self.sources))
        totals: dict[str, dict[str, int]] = {}
        for scope in scopes:
            usage = self.sources[scope]() if scope in self.sources else {}
            exp, pair = self.ops.get(scope, (0, 0))
            totals[scope] = {
                "requests": int(usage.get("requests", 0)),
                "signatures": int(usage.get("signatures", 0)),
                "exp": int(exp),
                "pair": int(pair),
                "bytes": int(usage.get("bytes", 0)),
            }
        return totals

    def roll(self, now: float) -> list[dict]:
        """Close the current epoch: one record per scope with activity."""
        totals = self._current_totals()
        out = []
        for scope in sorted(totals):
            total = totals[scope]
            prev = self._last_total.get(scope, {})
            delta = {k: total[k] - prev.get(k, 0) for k in METER_FIELDS}
            if not any(delta.values()):
                continue  # idle scope: no record this epoch
            self.epoch += 1
            record = {
                "epoch": self.epoch,
                "scope": scope,
                "window": {
                    "start": round(self._epoch_start, 9),
                    "end": round(now, 9),
                },
                "delta": delta,
                "total": dict(total),
            }
            self.records.append(record)
            if self.ledger is not None:
                self.ledger.append(KIND_METERING, record)
            out.append(record)
            self._last_total[scope] = dict(total)
        self._epoch_start = now
        return out

    def close(self, now: float) -> dict:
        """Final epoch roll plus the closing grand-total record."""
        if self._closed:
            return self.records[-1] if self.records else {}
        self._closed = True
        self.roll(now)
        body = {
            "epoch": self.epoch,
            "t": round(now, 9),
            "totals": {
                scope: dict(total)
                for scope, total in sorted(self._current_totals().items())
                if any(total.values())
            },
        }
        if self.ledger is not None:
            self.ledger.append(KIND_METERING_CLOSE, body)
        self.close_record = body
        return body


class MeterChecker:
    """Re-adds metering deltas offline; totals must match the records.

    A forged delta (or total) in any ``metering`` entry desynchronises
    the running sum from the recorded cumulative total; a consistently
    forged suffix is still caught by the ``metering_close`` grand totals
    (and, failing that, by the pinned head).  Epoch numbers must be
    strictly increasing — a replayed or dropped epoch breaks billing.
    """

    kinds = (KIND_METERING, KIND_METERING_CLOSE)

    def __init__(self):
        self.totals: dict[str, dict[str, float]] = {}
        self.last_epoch = 0

    def check(self, kind: str, body: dict) -> list[str]:
        problems = []
        if kind == KIND_METERING_CLOSE:
            claimed = body.get("totals") or {}
            for scope in sorted(set(claimed) | set(self.totals)):
                if claimed.get(scope) != self.totals.get(scope):
                    problems.append(
                        f"closing totals for scope {scope} "
                        f"({claimed.get(scope)}) do not match the metering "
                        f"records ({self.totals.get(scope)})")
            return problems
        epoch = body.get("epoch")
        scope = body.get("scope")
        delta = body.get("delta") or {}
        total = body.get("total") or {}
        if not isinstance(epoch, int) or epoch <= self.last_epoch:
            problems.append(
                f"epoch {epoch!r} not strictly increasing "
                f"(last was {self.last_epoch})")
        else:
            self.last_epoch = epoch
        running = self.totals.setdefault(str(scope), {})
        for key in sorted(set(delta) | set(total)):
            running[key] = running.get(key, 0) + delta.get(key, 0)
            if running[key] != total.get(key):
                problems.append(
                    f"scope {scope}: cumulative {key}={total.get(key)} does "
                    f"not match the recorded deltas (expected {running[key]})"
                    " — forged metering record")
        return problems

    def finish(self, report) -> None:
        report.meterings_checked = report.counts.get(KIND_METERING, 0)
