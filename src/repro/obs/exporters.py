"""Exporters: JSONL traces, Prometheus text exposition, per-phase cost table.

Three ways out of the observability layer:

* :func:`trace_to_jsonl` — one JSON object per finished span (machine
  readable, replayable; schema kept stable by a golden-file test);
* :func:`prometheus_text` — the text exposition format, so a registry
  snapshot drops straight into standard scrape tooling;
* :func:`cost_table` — a human-readable per-phase table that lines the
  measured Exp/Pair tallies up against the closed forms of
  :mod:`repro.analysis.cost_model` (Table I for signing, Section VI-A2 for
  verification) and flags any deviation.

The cost table counts *model-equivalent* exponentiations:

    Exp = exp_g1 + exp_g1_fixed_base + exp_g1_msm + exp_g1_skipped

because the paper's formulas count one Exp per element regardless of
whether the implementation served it from a fixed-base window table,
folded it into a multi-scalar multiplication, or skipped it for a zero
exponent — each is recorded separately by the counter so the
reconciliation is exact, not approximate.
"""

from __future__ import annotations

import json

from repro.obs.registry import MetricsRegistry, _format_value
from repro.obs.tracer import Span

#: Canonical span names for the phases the analytic model predicts.
PHASE_SIGN = "sign"
PHASE_PROOF_GEN = "proofgen"
PHASE_PROOF_VERIFY = "proofverify"


# ---------------------------------------------------------------------------
# JSONL traces
# ---------------------------------------------------------------------------

def span_to_dict(span: Span) -> dict:
    """The stable JSONL schema of one span."""
    return {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "attrs": dict(sorted(span.attributes.items())),
    }


def trace_to_jsonl(tracer) -> str:
    """All finished spans, one JSON object per line, in finish order."""
    return "".join(
        json.dumps(span_to_dict(span), sort_keys=True) + "\n" for span in tracer.spans
    )


#: Record-type tag and schema version of the trace run-header line.
TRACE_HEADER_REC = "trace-header"
TRACE_HEADER_SCHEMA = 1


def trace_header(**fields) -> dict:
    """A run-header record (seed, scenario, digest, …) for a trace file.

    Written ahead of a run's spans so :mod:`repro.obs.causal` can refuse
    to stitch spans of two different runs appended to one file.
    """
    return {"rec": TRACE_HEADER_REC, "schema": TRACE_HEADER_SCHEMA,
            **dict(sorted(fields.items()))}


def write_trace_jsonl(tracer, path, append: bool = True,
                      header: dict | None = None) -> None:
    """Dump the trace to ``path``; append by default so one trace file can
    accumulate a whole init → upload → audit run across CLI invocations.
    When ``header`` is given (see :func:`trace_header`) it is written as
    its own line ahead of the spans."""
    with open(path, "a" if append else "w") as fh:
        if header is not None:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write(trace_to_jsonl(tracer))


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text format (collector-refreshed)."""
    registry.collect()  # refresh mirrored values
    lines: list[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample in family.samples():
            lines.append(f"{sample.key()} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n" if lines else ""


def write_metrics_text(registry: MetricsRegistry, path) -> None:
    with open(path, "w") as fh:
        fh.write(prometheus_text(registry))


# ---------------------------------------------------------------------------
# Per-phase cost table vs the analytic model
# ---------------------------------------------------------------------------

#: The operation-counter fields that sum to model-equivalent Exp.
MODEL_EXP_FIELDS = ("exp_g1", "exp_g1_fixed_base", "exp_g1_msm", "exp_g1_skipped")


def model_equivalent_exp(ops: dict) -> int:
    """Exponentiations in the paper's counting convention (see module doc)."""
    return sum(ops.get(name, 0) for name in MODEL_EXP_FIELDS)


def counter_model_exp(counter) -> int:
    """:func:`model_equivalent_exp` read off a live operation counter,
    without building a snapshot dict (the per-event metering path)."""
    return sum(getattr(counter, name) for name in MODEL_EXP_FIELDS)


def _predict(span: Span, k: int, t: int | None, optimized: bool):
    """(exp, pair) the cost model predicts for one span, or None."""
    from repro.analysis.cost_model import (
        proof_generation_counts,
        table1_exp_pair_counts,
        verification_counts,
    )

    attrs = span.attributes
    if span.name == PHASE_SIGN and "n_blocks" in attrs:
        costs = table1_exp_pair_counts(attrs["n_blocks"], k, t=t, optimized=optimized)
        return costs.exp_g1, costs.pair
    if span.name == PHASE_PROOF_GEN and "challenged" in attrs:
        costs = proof_generation_counts(attrs["challenged"])
        return costs.exp_g1, costs.pair
    if span.name == PHASE_PROOF_VERIFY and "challenged" in attrs:
        costs = verification_counts(attrs["challenged"], k)
        return costs.exp_g1, costs.pair
    return None


def phase_cost_rows(tracer, k: int, t: int | None = None, optimized: bool = True) -> list[dict]:
    """One row per modeled phase: measured vs predicted Exp/Pair.

    Predictions are summed span by span (the closed forms carry constant
    per-run terms, so summing inputs first would be wrong for multi-file
    runs).  Phases the model has no formula for are reported measured-only.
    """
    rows: dict[str, dict] = {}
    for span in tracer.spans:
        prediction = _predict(span, k, t, optimized)
        if prediction is None and span.name not in (
            PHASE_SIGN, PHASE_PROOF_GEN, PHASE_PROOF_VERIFY
        ):
            continue
        row = rows.setdefault(
            span.name,
            {
                "phase": span.name,
                "spans": 0,
                "duration": 0.0,
                "exp": 0,
                "pair": 0,
                "predicted_exp": None,
                "predicted_pair": None,
            },
        )
        ops = span.op_counts()
        row["spans"] += 1
        row["duration"] += span.duration
        row["exp"] += model_equivalent_exp(ops)
        row["pair"] += ops.get("pairings", 0)
        if prediction is not None:
            row["predicted_exp"] = (row["predicted_exp"] or 0) + prediction[0]
            row["predicted_pair"] = (row["predicted_pair"] or 0) + prediction[1]
    ordered = [PHASE_SIGN, PHASE_PROOF_GEN, PHASE_PROOF_VERIFY]
    return [rows[name] for name in ordered if name in rows] + [
        row for name, row in sorted(rows.items()) if name not in ordered
    ]


def cost_table(tracer, k: int, t: int | None = None, optimized: bool = True) -> str:
    """Render :func:`phase_cost_rows` as an aligned table with deviations."""
    rows = phase_cost_rows(tracer, k, t=t, optimized=optimized)
    header = (
        f"{'phase':<12} {'spans':>5} {'Exp':>8} {'Exp*':>8} "
        f"{'Pair':>6} {'Pair*':>6} {'time(s)':>10}  status"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        p_exp, p_pair = row["predicted_exp"], row["predicted_pair"]
        if p_exp is None:
            status = "(no model)"
            predicted_exp = predicted_pair = "-"
        else:
            predicted_exp, predicted_pair = str(p_exp), str(p_pair)
            d_exp, d_pair = row["exp"] - p_exp, row["pair"] - p_pair
            status = "ok" if d_exp == 0 and d_pair == 0 else (
                f"DEVIATES (Δexp={d_exp:+d}, Δpair={d_pair:+d})"
            )
        lines.append(
            f"{row['phase']:<12} {row['spans']:>5} {row['exp']:>8} "
            f"{predicted_exp:>8} {row['pair']:>6} {predicted_pair:>6} "
            f"{row['duration']:>10.4f}  {status}"
        )
    lines.append("Exp*/Pair* = analytic prediction (Table I / Section VI-A2); "
                 "Exp counts fixed-base and zero-skipped exponentiations")
    return "\n".join(lines)
