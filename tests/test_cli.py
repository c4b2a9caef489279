"""Tests for the repro-pdp command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def deployment(tmp_path):
    state = tmp_path / "st"
    assert main(["--state-dir", str(state), "init", "--param-set", "toy-64",
                 "-k", "4", "--seed", "7"]) == 0
    assert main(["--state-dir", str(state), "enroll", "alice"]) == 0
    doc = tmp_path / "doc.txt"
    doc.write_bytes(b"cli-managed shared document " * 4)
    return state, doc


def _run(state, *argv) -> int:
    return main(["--state-dir", str(state), *argv])


class TestLifecycle:
    def test_upload_and_audit(self, deployment):
        state, doc = deployment
        assert _run(state, "upload", "alice", str(doc), "--file-id", "d/1") == 0
        assert _run(state, "audit", "d/1") == 0
        assert _run(state, "audit", "d/1", "--sample", "2") == 0

    def test_tamper_fails_audit(self, deployment):
        state, doc = deployment
        _run(state, "upload", "alice", str(doc), "--file-id", "d/1")
        assert _run(state, "tamper", "d/1", "--block", "0") == 0
        assert _run(state, "audit", "d/1") == 1

    def test_no_batch_upload(self, deployment):
        state, doc = deployment
        assert _run(state, "upload", "alice", str(doc), "--file-id", "d/2",
                    "--no-batch") == 0
        assert _run(state, "audit", "d/2") == 0

    def test_info(self, deployment, capsys):
        state, doc = deployment
        _run(state, "upload", "alice", str(doc), "--file-id", "d/1")
        assert _run(state, "info") == 0
        out = capsys.readouterr().out
        assert "alice" in out and "d/1" in out

    def test_revoke_blocks_new_uploads(self, deployment):
        state, doc = deployment
        _run(state, "upload", "alice", str(doc), "--file-id", "d/1")
        assert _run(state, "revoke", "alice") == 0
        assert _run(state, "upload", "alice", str(doc), "--file-id", "d/2") == 2
        # ... but existing files still audit.
        assert _run(state, "audit", "d/1") == 0

    def test_state_survives_process_boundaries(self, deployment):
        """Every command reloads state from disk — nothing is in-memory."""
        state, doc = deployment
        _run(state, "upload", "alice", str(doc), "--file-id", "d/1")
        persisted = json.loads((state / "state.json").read_text())
        assert persisted["files"]["d/1"]["blocks"] > 0
        assert (state / "cloud" / "d__1.spdp").exists()


class TestObservabilityFlags:
    def test_trace_accumulates_across_upload_and_audit(self, deployment, tmp_path):
        state, doc = deployment
        trace = tmp_path / "trace.jsonl"
        assert _run(state, "upload", "alice", str(doc), "--file-id", "d/1",
                    "--trace-out", str(trace)) == 0
        assert _run(state, "audit", "d/1", "--trace-out", str(trace)) == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {r["name"] for r in records}
        assert {"upload", "sign", "audit", "proofgen", "proofverify"} <= names
        sign = next(r for r in records if r["name"] == "sign")
        assert sign["attrs"].get("exp_g1", 0) > 0
        assert sign["attrs"]["pairings"] == 2

    def test_metrics_out_writes_prometheus_text(self, deployment, tmp_path):
        state, doc = deployment
        metrics = tmp_path / "metrics.txt"
        _run(state, "upload", "alice", str(doc), "--file-id", "d/1")
        assert _run(state, "audit", "d/1", "--metrics-out", str(metrics)) == 0
        text = metrics.read_text()
        assert "# TYPE pdp_operations gauge" in text
        assert 'pdp_operations{op="pairings"} 2' in text

    def test_audit_prints_exact_cost_table(self, deployment, tmp_path, capsys):
        state, doc = deployment
        _run(state, "upload", "alice", str(doc), "--file-id", "d/1")
        assert _run(state, "audit", "d/1",
                    "--metrics-out", str(tmp_path / "m.txt")) == 0
        out = capsys.readouterr().out
        assert "proofgen" in out and "proofverify" in out
        assert "DEVIATES" not in out

    def test_info_reports_last_run(self, deployment, capsys):
        state, doc = deployment
        _run(state, "upload", "alice", str(doc), "--file-id", "d/1")
        _run(state, "audit", "d/1")
        capsys.readouterr()
        assert _run(state, "info") == 0
        out = capsys.readouterr().out
        assert "last run: audit" in out
        assert "proofverify" in out and "pairings=2" in out

    def test_serve_sim_obs_outputs(self, tmp_path):
        trace = tmp_path / "sim.jsonl"
        metrics = tmp_path / "sim.txt"
        assert main(["serve-sim", "--clients", "1", "--requests", "1",
                     "--trace-out", str(trace), "--metrics-out", str(metrics)]) == 0
        records = [json.loads(l) for l in trace.read_text().splitlines()]
        assert records[0]["rec"] == "trace-header"  # run fencing (causal.py)
        names = {r["name"] for r in records if "name" in r}
        assert "batch.prepare" in names and "batch.finish" in names
        assert "sim_delivered" in metrics.read_text()


class TestServeSim:
    def test_single_sem(self, capsys):
        assert main(["serve-sim", "--clients", "2", "--requests", "1"]) == 0
        out = capsys.readouterr().out
        assert "completed 2, failed 0, lost 0" in out
        assert "1 SEM(s) (t=1, 0 crashed)" in out

    def test_threshold_with_crash(self, capsys):
        assert main(["serve-sim", "--threshold", "2", "--crash", "1",
                     "--clients", "2", "--requests", "1", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "3 SEM(s) (t=2, 1 crashed)" in out
        assert "failed 0" in out

    def test_journal_reused_across_runs(self, tmp_path, capsys):
        """Request ids restart with every run: a rerun of the same flags is
        answered from the journal, a rerun for other data is refused."""
        journal = str(tmp_path / "sign.journal")

        def serve(seed):
            code = main(["serve-sim", "--clients", "2", "--requests", "2",
                         "--seed", str(seed), "--journal", journal])
            return code, capsys.readouterr().out

        code, out = serve(1)
        assert code == 0 and "batches: 1" in out
        code, out = serve(1)
        assert code == 0 and "completed 4, failed 0" in out
        assert "batches: 0" in out  # nothing re-signed
        code, out = serve(2)
        assert code == 1 and "completed 0, failed 4" in out
        assert "batches: 0" in out
        assert "journal: 4 accepted, 4 completed" in out

    def test_crash_beyond_tolerance_refused(self):
        assert main(["serve-sim", "--threshold", "2", "--crash", "2"]) == 2

    def test_unknown_param_set(self):
        assert main(["serve-sim", "--param-set", "bogus"]) == 2


class TestErrors:
    def test_audit_before_init(self, tmp_path):
        assert main(["--state-dir", str(tmp_path / "nope"), "audit", "x"]) == 2

    def test_double_init_requires_force(self, deployment):
        state, _ = deployment
        assert _run(state, "init") == 2
        assert _run(state, "init", "--force", "--param-set", "toy-64") == 0

    def test_unknown_param_set(self, tmp_path):
        assert main(["--state-dir", str(tmp_path / "s"), "init",
                     "--param-set", "bogus"]) == 2

    def test_double_enroll(self, deployment):
        state, _ = deployment
        assert _run(state, "enroll", "alice") == 2

    def test_upload_unknown_member(self, deployment):
        state, doc = deployment
        assert _run(state, "upload", "mallory", str(doc), "--file-id", "x") == 2

    def test_audit_unknown_file(self, deployment):
        state, _ = deployment
        assert _run(state, "audit", "ghost") == 2

    def test_tamper_out_of_range(self, deployment):
        state, doc = deployment
        _run(state, "upload", "alice", str(doc), "--file-id", "d/1")
        assert _run(state, "tamper", "d/1", "--block", "999") == 2

    def test_revoke_unknown(self, deployment):
        state, _ = deployment
        assert _run(state, "revoke", "nobody") == 2


class TestWatchAndProfile:
    def test_serve_sim_watch_renders_frames(self, capsys):
        assert main(["serve-sim", "--clients", "2", "--requests", "2",
                     "--watch", "--watch-interval", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "-- serve-sim t=" in out
        assert "queue depth" in out and "failover" in out
        assert "p95" in out  # bucket quantiles from real completions
        assert "completed 4, failed 0" in out  # final summary still prints

    def test_upload_profile_prints_attribution_tree(self, deployment, capsys):
        state, doc = deployment
        assert _run(state, "upload", "alice", str(doc), "--file-id", "d/1",
                    "--profile") == 0
        out = capsys.readouterr().out
        assert "self-time attribution" in out
        assert "sign" in out and "exp_g1" in out

    def test_audit_profile_covers_proof_phases(self, deployment, capsys):
        state, doc = deployment
        _run(state, "upload", "alice", str(doc), "--file-id", "d/1")
        assert _run(state, "audit", "d/1", "--profile") == 0
        out = capsys.readouterr().out
        assert "proofgen" in out and "proofverify" in out
        assert "'other'" in out


class TestBench:
    """The continuous-performance commands over the fast audit suite."""

    def _bench(self, tmp_path, *argv):
        return main(["bench", *argv, "--suite", "audit", "--repeats", "1",
                     "--trajectory-dir", str(tmp_path),
                     "--results-dir", str(tmp_path / "results")])

    def test_run_writes_trajectory_and_per_run_copy(self, tmp_path, capsys):
        assert self._bench(tmp_path, "run") == 0
        doc = json.loads((tmp_path / "BENCH_audit.json").read_text())
        assert doc["suite"] == "audit"
        assert len(doc["runs"]) == 1
        assert doc["baseline"] is not None  # first run pins itself
        assert list((tmp_path / "results").glob("bench_audit_*.json"))
        out = capsys.readouterr().out
        assert "proofgen" in out and "proofverify" in out

    def test_compare_without_baseline_exits_2(self, tmp_path):
        assert self._bench(tmp_path, "compare") == 2

    def test_compare_report_only_never_fails(self, tmp_path):
        assert self._bench(tmp_path, "compare", "--report-only") == 0

    def test_baseline_then_compare_is_clean(self, tmp_path, capsys):
        assert self._bench(tmp_path, "baseline") == 0
        assert self._bench(tmp_path, "compare") == 0
        assert "verdict ok" in capsys.readouterr().out

    def test_injected_exp_regression_exits_1_naming_phase(self, tmp_path, capsys):
        """Acceptance: +1 Exp in ProofGen vs baseline fails the gate."""
        assert self._bench(tmp_path, "baseline") == 0
        path = tmp_path / "BENCH_audit.json"
        doc = json.loads(path.read_text())
        for run in [doc["baseline"], *doc["runs"]]:
            phase = next(p for p in run["phases"] if p["name"] == "proofgen")
            phase["exp"] -= 1
            phase["ops"]["exp_g1_msm"] -= 1
        path.write_text(json.dumps(doc))
        assert self._bench(tmp_path, "compare") == 1
        out = capsys.readouterr().out
        assert "verdict regression" in out
        assert "FAIL: proofgen: op-count regression (ΔExp=+1" in out

    def test_compare_json_out(self, tmp_path):
        assert self._bench(tmp_path, "baseline") == 0
        report_path = tmp_path / "report.json"
        assert self._bench(tmp_path, "compare", "--json-out",
                           str(report_path)) == 0
        payload = json.loads(report_path.read_text())
        assert payload["audit"]["verdict"] == "ok"

    def test_explicit_baseline_file(self, tmp_path):
        assert self._bench(tmp_path, "run") == 0
        run_file = next((tmp_path / "results").glob("bench_audit_*.json"))
        assert main(["bench", "compare", "--suite", "audit", "--repeats", "1",
                     "--trajectory-dir", str(tmp_path / "elsewhere"),
                     "--results-dir", str(tmp_path / "results"),
                     "--baseline", str(run_file)]) == 0

    def test_unknown_suite_is_a_usage_error(self, tmp_path):
        assert main(["bench", "run", "--suite", "bogus",
                     "--trajectory-dir", str(tmp_path),
                     "--results-dir", str(tmp_path / "results")]) == 2


class TestLedgerCommands:
    def _serve(self, ledger_path, *extra) -> int:
        return main(["serve-sim", "--clients", "1", "--requests", "2",
                     "--ledger", str(ledger_path), *extra])

    def test_serve_sim_ledger_verifies_offline(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        assert self._serve(path) == 0
        out = capsys.readouterr().out
        assert "ledger:" in out and "critical path" in out
        assert main(["ledger", "verify", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_head_pins_the_chain_out_of_band(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        assert self._serve(path) == 0
        capsys.readouterr()
        assert main(["ledger", "head", str(path)]) == 0
        head = capsys.readouterr().out.strip()
        assert len(head) == 64 and int(head, 16) >= 0
        assert main(["ledger", "verify", str(path),
                     "--expect-head", head]) == 0
        capsys.readouterr()
        assert main(["ledger", "verify", str(path),
                     "--expect-head", "0" * 64]) == 1
        assert "truncated or wholly replaced" in capsys.readouterr().out

    def test_verify_detects_a_corrupted_copy(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        assert self._serve(path) == 0
        data = bytearray(path.read_bytes())
        data[len(data) // 3] ^= 0x04
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["ledger", "verify", str(corrupt)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_show_filters_by_kind_and_tail(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        assert self._serve(path) == 0
        capsys.readouterr()
        assert main(["ledger", "show", str(path), "--kind", "sign_request",
                     "--tail", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and "sign_request" in lines[0]

    def test_head_of_missing_ledger_is_a_usage_error(self, tmp_path):
        assert main(["ledger", "head", str(tmp_path / "absent.jsonl")]) == 2

    def test_trace_out_carries_the_run_header(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert self._serve(tmp_path / "ledger.jsonl",
                           "--trace-out", str(trace)) == 0
        first = json.loads(trace.read_text().splitlines()[0])
        assert first["rec"] == "trace-header"
        assert {"scenario", "seed", "digest"} <= set(first)

    def test_deployment_ledger_records_upload_and_audit(
        self, deployment, capsys
    ):
        state, doc = deployment
        _run(state, "upload", "alice", str(doc), "--file-id", "d/1")
        _run(state, "audit", "d/1")
        ledger_path = state / "obs" / "ledger.jsonl"
        assert ledger_path.exists()
        capsys.readouterr()
        assert main(["ledger", "verify", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert "audits rechecked offline: 1 (0 mismatch(es))" in out
        assert _run(state, "info") == 0
        assert "ledger:" in capsys.readouterr().out

    def test_failed_audit_verdict_is_on_the_chain(self, deployment, capsys):
        state, doc = deployment
        _run(state, "upload", "alice", str(doc), "--file-id", "d/1")
        _run(state, "tamper", "d/1", "--block", "0")
        assert _run(state, "audit", "d/1") == 1
        ledger_path = state / "obs" / "ledger.jsonl"
        capsys.readouterr()
        assert main(["ledger", "show", str(ledger_path),
                     "--kind", "audit"]) == 0
        assert '"ok": false' in capsys.readouterr().out
        # The recorded FAIL re-evaluates to FAIL offline: chain verifies.
        assert main(["ledger", "verify", str(ledger_path)]) == 0
