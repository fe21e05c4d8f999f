"""Edge-case coverage for the performance regression gate.

The gate has to fail *loudly* on every way a baseline can rot: a missing
results directory, a truncated/malformed JSON file, an envelope of the wrong
shape, a registered benchmark whose baseline was deleted, and a metric that
vanished from an otherwise present payload.  Each case must come back as a
violation string naming the culprit — never a traceback, never a silent pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from perf_gate import (  # noqa: E402
    METRIC_FLOORS,
    check_floors,
    gate_committed_results,
    load_committed_results,
)

#: A micro_fastpath payload that clears every registered floor (the numpy
#: kernel guard is off, so its conditional floor does not apply).
PASSING_DATA = {
    "dijkstra": {"speedup": 5.0},
    "xor_pir": {"speedup": 6.0},
    "batch_CI": {"speedup": 3.0},
    "batch_PI": {"speedup": 3.5},
    "sharded_pir": {"speedup": 2.0},
    "xor_kernel": {"kernel": "python", "speedup": 1.0},
    "pi_build": {"pi_over_ci": 1.3},
    "cold_client": {"speedup": 2.5},
}

#: A serving payload that clears the serving floors (numpy kernel, so the
#: conditional service-rate floor applies and is met).
PASSING_SERVING = {
    "kernel": "numpy",
    "completed_over_arrivals": 1.0,
    "service_rate_over_offered": 0.99,
    "bit_identical": 1.0,
}


#: Round-batching counts at their ceilings (one batch per round and file).
PASSING_ROUND_BATCHING = {
    "kernel": "numpy",
    "answer_requests_per_plan_bound": 1.0,
    "kernel_calls_per_round_file": 1.0,
}

#: An idle server's ANSWER round trip in units of a HELLO, one flush each.
PASSING_IDLE_FLUSH = {"answer_over_hello_rtt": 2.2, "flushes_per_request": 1.0}


def _write_envelope(directory: Path, name: str, data) -> Path:
    path = directory / f"{name}.json"
    path.write_text(
        json.dumps({"benchmark": name, "data": data}), encoding="utf-8"
    )
    return path


class TestLoadCommittedResults:
    def test_empty_directory_yields_nothing(self, tmp_path):
        results, problems = load_committed_results(tmp_path)
        assert results == {}
        assert problems == []

    def test_malformed_json_becomes_a_problem_not_a_crash(self, tmp_path):
        (tmp_path / "micro_fastpath.json").write_text("{truncated", encoding="utf-8")
        _write_envelope(tmp_path, "other", {"x": 1})
        results, problems = load_committed_results(tmp_path)
        assert list(results) == ["other"]  # the good file still loads
        assert len(problems) == 1
        assert "micro_fastpath.json" in problems[0]
        assert "unreadable baseline" in problems[0]

    def test_non_object_envelope_becomes_a_problem(self, tmp_path):
        (tmp_path / "weird.json").write_text("[1, 2, 3]", encoding="utf-8")
        results, problems = load_committed_results(tmp_path)
        assert results == {}
        assert len(problems) == 1
        assert "weird.json" in problems[0]
        assert "expected a JSON object" in problems[0]

    def test_benchmark_name_falls_back_to_file_stem(self, tmp_path):
        (tmp_path / "unnamed.json").write_text(
            json.dumps({"data": {"x": 1}}), encoding="utf-8"
        )
        results, _ = load_committed_results(tmp_path)
        assert results == {"unnamed": {"x": 1}}

    def test_list_data_payload_is_tolerated(self, tmp_path):
        # table-style benchmarks (table1_datasets, fig5_lm_tuning) commit
        # list payloads; they carry no floors and must load without fuss
        _write_envelope(tmp_path, "table1_datasets", [{"row": 1}])
        results, problems = load_committed_results(tmp_path)
        assert problems == []
        assert results["table1_datasets"] == [{"row": 1}]


class TestCheckFloors:
    def test_passing_payload_has_no_violations(self):
        assert check_floors({"micro_fastpath": PASSING_DATA}) == []

    def test_metric_below_floor_is_named(self):
        data = dict(PASSING_DATA, dijkstra={"speedup": 0.5})
        violations = check_floors({"micro_fastpath": data})
        assert len(violations) == 1
        assert "dijkstra.speedup" in violations[0]
        assert "0.50" in violations[0]
        assert "floor of 3" in violations[0]

    def test_missing_metric_is_a_violation(self):
        data = {k: v for k, v in PASSING_DATA.items() if k != "xor_pir"}
        violations = check_floors({"micro_fastpath": data})
        assert len(violations) == 1
        assert "xor_pir.speedup" in violations[0]
        assert "missing" in violations[0]

    def test_a_serving_run_that_falls_behind_fails(self):
        # arrivals over the window stay at the offered rate however slow the
        # servers are; the drain rate and the completion count do not
        slow = dict(PASSING_SERVING, retrievals_per_s=1500.0, service_rate_over_offered=0.6)
        assert "service_rate_over_offered" in check_floors({"serving": slow})[0]
        lossy = dict(PASSING_SERVING, completed_over_arrivals=0.999)
        assert "completed_over_arrivals" in check_floors({"serving": lossy})[0]

    def test_absent_benchmark_passes_by_default(self):
        assert check_floors({}) == []

    def test_absent_benchmark_fails_when_registration_is_required(self):
        violations = check_floors({}, require_registered=True)
        assert len(violations) == len(METRIC_FLOORS)
        named = "\n".join(violations)
        for benchmark in METRIC_FLOORS:
            assert benchmark in named
        assert "missing from the result set" in violations[0]

    def test_when_guard_skips_floor_unless_triggered(self):
        # kernel != numpy: the 10x packed-kernel floor must not apply
        data = dict(PASSING_DATA, xor_kernel={"kernel": "python", "speedup": 1.0})
        assert check_floors({"micro_fastpath": data}) == []

        # kernel == numpy with a regressed speedup: the floor bites
        data = dict(PASSING_DATA, xor_kernel={"kernel": "numpy", "speedup": 2.0})
        violations = check_floors({"micro_fastpath": data})
        assert len(violations) == 1
        assert "xor_kernel.speedup" in violations[0]

    def test_only_prefix_restricts_the_check(self):
        # everything except xor_kernel is absent, but the prefix filter
        # means only xor_kernel floors are evaluated at all
        data = {"xor_kernel": {"kernel": "numpy", "speedup": 50.0}}
        assert check_floors({"micro_fastpath": data}, only="xor_kernel.") == []

        data = {"xor_kernel": {"kernel": "numpy", "speedup": 2.0}}
        violations = check_floors({"micro_fastpath": data}, only="xor_kernel.")
        assert len(violations) == 1
        assert "xor_kernel.speedup" in violations[0]

    def test_count_above_its_ceiling_is_named(self):
        assert check_floors({"round_batching": PASSING_ROUND_BATCHING}) == []
        # a per-page fetch loop: 65 requests against a bound of 4, 130
        # kernel calls over 3 (round, file) batches
        data = dict(
            PASSING_ROUND_BATCHING,
            answer_requests_per_plan_bound=16.25,
            kernel_calls_per_round_file=43.33,
        )
        violations = check_floors({"round_batching": data})
        assert len(violations) == 2
        assert "answer_requests_per_plan_bound = 16.25 is above its ceiling of 1" in violations[0]
        assert "kernel_calls_per_round_file" in violations[1]

    def test_a_quadratic_pi_build_is_named(self):
        # re-encoding every growing fragment per element read ~7.3
        data = dict(PASSING_DATA, pi_build={"pi_over_ci": 7.3})
        violations = check_floors({"micro_fastpath": data})
        assert violations == [
            "micro_fastpath: pi_build.pi_over_ci = 7.30 is above its ceiling of 4"
        ]

    def test_a_flush_that_waits_or_is_shared_is_named(self):
        assert check_floors({"idle_flush": PASSING_IDLE_FLUSH}) == []
        # a flush parked behind a 2 ms timer; two requests sharing a flush
        data = {"answer_over_hello_rtt": 43.0, "flushes_per_request": 0.5}
        violations = check_floors({"idle_flush": data})
        assert len(violations) == 2
        assert "answer_over_hello_rtt = 43.00 is above its ceiling of 6" in violations[0]
        assert "flushes_per_request = 0.50 is below its floor of 1" in violations[1]

    def test_unregistered_benchmark_is_ignored(self):
        results = {"micro_fastpath": PASSING_DATA, "mystery": {"speedup": 0.0}}
        assert check_floors(results) == []


class TestGateCommittedResults:
    def test_missing_directory_is_reported(self, tmp_path):
        gone = tmp_path / "does-not-exist"
        violations = gate_committed_results(gone)
        assert len(violations) == 1
        assert "no committed benchmark baselines" in violations[0]

    def test_deleted_registered_baseline_fails_the_gate(self, tmp_path):
        # only an unfloored benchmark is committed: micro_fastpath's absence
        # must not silently disable its floors
        _write_envelope(tmp_path, "table1_datasets", [{"row": 1}])
        violations = gate_committed_results(tmp_path)
        assert any("micro_fastpath" in v and "missing" in v for v in violations)

    def test_malformed_baseline_fails_the_gate(self, tmp_path):
        _write_envelope(tmp_path, "micro_fastpath", PASSING_DATA)
        _write_envelope(tmp_path, "serving", PASSING_SERVING)
        _write_envelope(tmp_path, "round_batching", PASSING_ROUND_BATCHING)
        _write_envelope(tmp_path, "idle_flush", PASSING_IDLE_FLUSH)
        (tmp_path / "broken.json").write_text("not json", encoding="utf-8")
        violations = gate_committed_results(tmp_path)
        assert len(violations) == 1
        assert "broken.json" in violations[0]

    def test_healthy_baselines_pass(self, tmp_path):
        _write_envelope(tmp_path, "micro_fastpath", PASSING_DATA)
        _write_envelope(tmp_path, "serving", PASSING_SERVING)
        _write_envelope(tmp_path, "round_batching", PASSING_ROUND_BATCHING)
        _write_envelope(tmp_path, "idle_flush", PASSING_IDLE_FLUSH)
        assert gate_committed_results(tmp_path) == []

    def test_committed_repository_baselines_pass_at_head(self):
        assert gate_committed_results() == []

    def test_registry_floors_are_sane(self):
        for benchmark, floors in METRIC_FLOORS.items():
            assert floors, benchmark
            for metric in floors:
                assert metric.floor > 0
                assert metric.path
