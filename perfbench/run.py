"""Run one benchmark workload at paper scale and print its metrics.

    python3 perfbench/run.py --workload upload --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed amount of work untraced, then the same amount
with every layer's entry points wrapped in spans, and reports per-layer
self time, work counts, the residual, and the tracing overhead.

Human-readable lines go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A full run
record (environment, configuration, op-count fingerprint, latency
summaries, checks, layer table) is written to ``.perfbench/`` at the root
of the checkout, next to the traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "main_p50_s": "s",
    "side_p50_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def latency_summary(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond
    it (none below 20 samples), and the sample count."""
    summary = {"n": len(samples), "p50": statistics.median(samples) if samples else None,
               "tail": None}
    for q in (99.9, 99.0, 90.0):
        if len(samples) * (1 - q / 100) >= 10:
            summary["tail"] = {"q": q, "value": percentile(samples, q)}
            break
    return summary


def _fmt_latency(name: str, summary: dict) -> str:
    tail = summary["tail"]
    tail_text = f"p{tail['q']:g} {tail['value']:.4f} s" if tail else "no tail (< 20 samples)"
    p50 = summary["p50"]
    p50_text = f"{p50:.4f} s" if p50 is not None else "n/a"
    return f"  {name:<24} {p50_text:>12}   ({tail_text}, n={summary['n']})"


def environment(seed: int, param_set: str, workload) -> dict:
    from repro.obs.bench import environment_fingerprint

    return {
        **environment_fingerprint(),
        "nproc": len(os.sched_getaffinity(0)),
        "param_set": param_set,
        "seed": seed,
        "workers": 1,
        "config": workload.config(),
    }


def layer_metrics(tracer, workload, traced, ops: dict, overhead: float) -> dict:
    """Every per-layer metric of a traced run: name -> (value, unit)."""
    from layer_trace import LAYERS, TRACE_POINTS
    from workloads import op_fingerprint

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
    for point in TRACE_POINTS:
        if point.work and point.layer not in ("service.flush", "service.failover"):
            metrics[f"{point.layer}.{point.work}"] = (tracer.work[point.layer], "count")
    flushes = tracer.calls["service.flush"]
    metrics["service.flush.batch_blocks"] = (
        tracer.work["service.flush"] / flushes if flushes else 0.0, "count")
    metrics["service.queue_wait_s"] = (sum(traced.samples.get("queue_wait", ())), "s")
    # Shares combined (t per message of every failover round) over shares
    # the SEMs computed.
    computed = tracer.work["core.sem_sign"]
    combined = getattr(workload, "t", 0) * tracer.work["service.failover"]
    metrics["service.failover.shares_used_ratio"] = (
        combined / computed if combined and computed else 0.0, "ratio")
    metrics["erasure.slices_rebuilt"] = (traced.counts.get("slices_rebuilt", 0), "count")
    metrics["erasure.timeouts"] = (traced.counts.get("timeouts", 0), "count")
    ledger_path = workload.ledger_path
    metrics["obs.ledger.bytes"] = (
        os.path.getsize(ledger_path) if ledger_path and os.path.exists(ledger_path) else 0,
        "bytes")
    exp, pair, hashes = op_fingerprint(ops)
    metrics["ops.exp"] = (exp, "count")
    metrics["ops.pair"] = (pair, "count")
    metrics["ops.hash_to_g1"] = (hashes, "count")
    metrics["traced_wall_s"] = (tracer.wall_s, "s")
    metrics["residual_s"] = (tracer.residual_s, "s")
    metrics["trace_overhead_ratio"] = (overhead, "ratio")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool,
            param_set: str | None = None) -> dict:
    """Run one workload; returns the run record (see the module docstring)."""
    from layer_trace import LayerTracer
    from workloads import PARAM_SET, WORKLOADS, Budget, Recorder, speed_probe

    param_set = param_set or PARAM_SET
    cls = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tracer = LayerTracer() if trace else None
    try:
        if tracer is not None:
            tracer.install()           # before set-up: see layer_trace's docstring
        setup_times = []
        setup_probes = []
        for repeat in range(cls.setup_repeats):
            setup_probes += [speed_probe() for _ in range(3)]
            repeat_dir = workdir / f"setup-{repeat}"
            repeat_dir.mkdir()
            start = time.perf_counter()
            workload = cls(seed, param_set, str(repeat_dir))
            setup_times.append(time.perf_counter() - start)
            setup_probes += [speed_probe() for _ in range(3)]
        recorders = []
        if tracer is None:
            rec = Recorder(workload.counter)
            workload.loop(Budget(seconds=seconds), rec)
            rec.probe()
            workload.wrap_up(rec)
            recorders.append(rec)
        else:
            untraced = Recorder(workload.counter, probing=False)
            workload.loop(Budget(ops=cls.trace_ops), untraced)
            traced = Recorder(workload.counter, probing=False)
            before = workload.counter.snapshot()
            tracer.start()
            workload.loop(Budget(ops=cls.trace_ops), traced)
            workload.wrap_up(traced)
            tracer.stop()
            ops = workload.counter.diff(before)
            tracer.uninstall()
            recorders += [untraced, traced]
        final = Recorder(workload.counter)
        workload.verify_outputs(final)
        recorders.append(final)
        record = _assemble(name, seed, seconds, param_set, workload, setup_times,
                           setup_probes, recorders)
        if tracer is not None:
            main_kind = cls.metrics["main"][0]
            overhead = (statistics.median(traced.samples[main_kind])
                        / statistics.median(untraced.samples[main_kind]))
            metrics = layer_metrics(tracer, workload, traced, ops, overhead)
            record["layers"] = tracer.table()
            record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            spans_path = OUT / f"{name}-seed{seed}-spans.jsonl"
            tracer.write_spans(spans_path, {"workload": name,
                                            "environment": record["environment"]})
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        return record
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _assemble(name, seed, seconds, param_set, workload, setup_times, setup_probes,
              recorders) -> dict:
    from workloads import PROBE_REFERENCE_S

    samples: dict[str, list[float]] = {}
    fingerprint: dict[str, set] = {}
    rates: dict[str, list[float]] = {}
    checks = []
    probes = list(setup_probes)
    attempted = failed = 0
    for rec in recorders:
        probes.extend(rec.probes)
        for kind, values in rec.samples.items():
            samples.setdefault(kind, []).extend(values)
        for kind, prints in rec.ops.items():
            fingerprint.setdefault(kind, set()).update(prints)
        for kind, (units, secs) in rec.rates.items():
            total = rates.setdefault(kind, [0.0, 0.0])
            total[0] += units
            total[1] += secs
        checks.extend(rec.checks)
        attempted += rec.attempted
        failed += rec.failed
    main_kind = workload.metrics["main"][0]
    side_kind = workload.metrics["side"][0]
    rate_units, rate_secs = rates.get(workload.metrics["rate"][0], (0.0, 0.0))
    raw = {
        "setup_s": statistics.median(setup_times),
        "main_p50_s": statistics.median(samples[main_kind]),
        "side_p50_s": statistics.median(samples[side_kind]),
        "throughput_per_s": rate_units / rate_secs if rate_secs else 0.0,
    }
    # Scale times to reference speed: a slower moment of the machine slows
    # the probe and the workload alike.
    speed = PROBE_REFERENCE_S / statistics.median(probes)
    metrics = {k: (v / speed if k == "throughput_per_s" else v * speed)
               for k, v in raw.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "workload": name,
        "seconds": seconds,
        "environment": environment(seed, param_set, workload),
        "correct": failed == 0 and all(ok for _, ok in checks),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "setup_times_s": setup_times,
        "speed_probe": {"median_s": statistics.median(probes), "n": len(probes),
                        "reference_s": PROBE_REFERENCE_S, "factor": speed},
        "uncorrected": raw,
        "latency": {kind: latency_summary(values) for kind, values in sorted(samples.items())},
        "names": {slot: issue_name for slot, (_, issue_name) in workload.metrics.items()},
        "fingerprint": {
            kind: [dict(zip(("exp", "pair", "hash_to_g1"), p)) for p in sorted(prints)]
            for kind, prints in sorted(fingerprint.items())
        },
        "checks": [{"check": check, "ok": ok} for check, ok in checks],
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def report_lines(record: dict, trace: bool) -> list[str]:
    """The human-readable summary printed before the JSON line."""
    env = record["environment"]
    lines = [
        f"perfbench {record['workload']}: seed={env['seed']} param_set={env['param_set']} "
        f"workers={env['workers']} python={env['python']} nproc={env['nproc']}",
        f"  config: {json.dumps(env['config'], sort_keys=True)}",
        f"  setup_s {statistics.median(record['setup_times_s']):.4f} s "
        f"(median of {len(record['setup_times_s'])})",
    ]
    names = record["names"]
    latency = record["latency"]
    for kind, summary in latency.items():
        lines.append(_fmt_latency(f"{kind}_s", summary))
    if not trace:
        metrics = record["metrics"]
        lines.append(f"  {names['main']} = main_p50_s {metrics['main_p50_s']['value']:.4f} s; "
                     f"{names['side']} = side_p50_s {metrics['side_p50_s']['value']:.4f} s; "
                     f"{names['rate']} = throughput_per_s "
                     f"{metrics['throughput_per_s']['value']:.3f}")
        lines.append(f"  peak_rss_mb {metrics['peak_rss_mb']['value']:.1f}")
    lines.append(f"  failed_ratio {record['failed_ratio']:.4f} "
                 f"({record['failed']} of {record['attempted']} attempted)")
    for kind, prints in record["fingerprint"].items():
        text = "; ".join(f"exp={p['exp']} pair={p['pair']} hash_to_g1={p['hash_to_g1']}"
                         for p in prints)
        lines.append(f"  ops/{kind}: {text}")
    for check in record["checks"]:
        lines.append(f"  check {'PASS' if check['ok'] else 'FAIL'}: {check['check']}")
    if trace:
        metrics = record["metrics"]
        wall = metrics["traced_wall_s"]["value"]
        lines.append(f"  layer table (traced wall {wall:.4f} s)")
        lines.append(f"    {'layer':<22}{'self_s':>10}{'share':>8}{'calls':>9}{'work':>10}")
        for row in record["layers"]:
            lines.append(f"    {row['layer']:<22}{row['self_s']:>10.4f}"
                         f"{row['share']:>8.1%}{row['calls']:>9}{row['work']:>10}")
        lines.append(f"    {'residual_s':<22}{metrics['residual_s']['value']:>10.4f}"
                     f"{metrics['residual_s']['value'] / wall if wall else 0:>8.1%}")
        lines.append(f"    {'trace_overhead_ratio':<22}"
                     f"{metrics['trace_overhead_ratio']['value']:>10.4f}")
        if record["layers"]:
            top = record["layers"][0]
            lines.append(f"  largest layer: {top['layer']} ({top['share']:.1%} of traced wall)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("upload", "audit", "churn", "repair"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for line in report_lines(record, bool(args.trace)):
        print(line)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
