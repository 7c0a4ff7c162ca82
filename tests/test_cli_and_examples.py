"""Tests for the experiment CLI and the runnable example scripts."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main
from repro.service.runner import run

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestCLI:
    def test_experiment_registry_complete(self):
        assert {
            "datasets",
            "measures",
            "convergence",
            "efficiency",
            "accuracy",
            "param-n",
            "scalability",
            "case-ppi",
            "case-er",
        } == set(EXPERIMENTS)

    def test_main_runs_datasets(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "ppi1" in output and "dblp" in output

    def test_main_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_quick_flag_accepted(self, capsys):
        assert main(["datasets", "--quick"]) == 0
        assert "paper |V|" in capsys.readouterr().out


class TestRunnerErrorPaths:
    """Malformed or over-limit requests yield structured errors in stream
    order — with the request ``id`` echoed — and never stop the runner."""

    def _run(self, requests, extra_args=()):
        lines = [
            r if isinstance(r, str) else json.dumps(r) for r in requests
        ]
        stdout = io.StringIO()
        code = run(
            ["--graph", "example", "--seed", "7", "--num-walks", "64",
             *extra_args],
            stdin=io.StringIO("\n".join(lines) + "\n"),
            stdout=stdout,
            stderr=io.StringIO(),
        )
        assert code == 0
        return [json.loads(line) for line in stdout.getvalue().splitlines()]

    def test_malformed_json_yields_error_and_stream_continues(self):
        responses = self._run(
            [
                "{not json",
                {"op": "pair", "u": "v1", "v": "v2", "id": "ok-1"},
            ]
        )
        assert len(responses) == 2
        assert "error" in responses[0]
        assert responses[1]["id"] == "ok-1"
        assert "score" in responses[1]

    def test_unknown_op_yields_error_with_request_id(self):
        responses = self._run(
            [
                {"op": "frobnicate", "id": "bad-op"},
                {"op": "pair", "u": "v1", "v": "v2", "id": "ok-2"},
            ]
        )
        assert responses[0]["id"] == "bad-op"
        assert "unknown op" in responses[0]["error"]
        assert responses[1]["id"] == "ok-2" and "score" in responses[1]

    def test_num_walks_above_cap_yields_error(self):
        responses = self._run(
            [
                {"op": "pair", "u": "v1", "v": "v2", "num_walks": 4096,
                 "id": "capped"},
                {"op": "pair", "u": "v1", "v": "v2", "id": "ok-3"},
            ],
            extra_args=("--max-num-walks", "128"),
        )
        assert responses[0]["id"] == "capped"
        assert "max_num_walks" in responses[0]["error"]
        assert responses[1]["id"] == "ok-3" and "score" in responses[1]

    def test_over_quota_request_sheds_with_code_and_retry_hint(self):
        responses = self._run(
            [
                {"op": "pair", "u": "v1", "v": "v2", "id": "q1"},
                {"op": "pair", "u": "v1", "v": "v3", "id": "q2"},
                {"op": "pair", "u": "v2", "v": "v3", "id": "q3"},
            ],
            extra_args=("--max-qps", "1"),
        )
        assert "score" in responses[0]
        shed = [r for r in responses if r.get("code") == "overloaded"]
        assert len(shed) == 2
        for response in shed:
            assert response["retry_after_ms"] >= 0
            assert "overloaded" in response["error"]

    def test_accuracy_answers_carry_interval_fields(self):
        responses = self._run(
            [{"op": "pair", "u": "v1", "v": "v2", "accuracy": 0.1,
              "id": "ci"}]
        )
        (response,) = responses
        assert response["ci_low"] <= response["score"] <= response["ci_high"]
        assert response["walks_used"] >= 2

    def test_accuracy_rejects_exact_method(self):
        responses = self._run(
            [{"op": "pair", "u": "v1", "v": "v2", "method": "baseline",
              "accuracy": 0.1, "id": "bad"}]
        )
        assert responses[0]["id"] == "bad"
        assert "accuracy" in responses[0]["error"]

    def test_plain_responses_carry_no_qos_fields(self):
        """New response fields appear only when their feature triggers."""
        responses = self._run(
            [{"op": "pair", "u": "v1", "v": "v2"}],
            extra_args=("--max-qps", "100", "--degrade-queue-depth", "64"),
        )
        (response,) = responses
        for forbidden in ("code", "retry_after_ms", "degraded", "ci_low",
                          "walks_used"):
            assert forbidden not in response

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--read-workers", "0"),
            ("--num-walks", "0"),
            ("--degrade-fraction", "2"),
            ("--shard-size", "0"),
            ("--store-budget-mb", "-1"),
            ("--topk-index-budget-mb", "-1"),
        ],
    )
    def test_invalid_service_flag_exits_2_with_one_line(self, tmp_path, flag, value):
        """A bad service flag is a usage error: exit code 2 and one
        ``error:`` line on stderr, never a traceback or a response."""
        stdout, stderr = io.StringIO(), io.StringIO()
        code = run(
            ["--graph", "example", flag, value,
             "--trace-out", str(tmp_path / "trace.jsonl")],
            stdin=io.StringIO('{"op": "pair", "u": "v1", "v": "v2"}\n'),
            stdout=stdout,
            stderr=stderr,
        )
        assert code == 2
        assert stdout.getvalue() == ""
        (line,) = stderr.getvalue().splitlines()
        assert line.startswith("error: ") and "Traceback" not in line
        assert value in line and "1048576" not in line


class TestExamples:
    def test_examples_exist(self):
        expected = {
            "quickstart.py",
            "ppi_similar_proteins.py",
            "entity_resolution.py",
            "measure_comparison.py",
            "scalability_sweep.py",
            "run_all_experiments.py",
            "service_workload.py",
        }
        assert expected <= {path.name for path in EXAMPLES_DIR.glob("*.py")}

    def test_quickstart_runs(self):
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "SimRank similarity" in completed.stdout
        assert "baseline" in completed.stdout

    def test_service_workload_runs(self):
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "service_workload.py")],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "120 queries from 4 threads" in completed.stdout
        assert "store hit rate" in completed.stdout

    def test_examples_are_importable_modules(self):
        """Every example must at least compile (syntax / import sanity)."""
        import py_compile

        for path in EXAMPLES_DIR.glob("*.py"):
            py_compile.compile(str(path), doraise=True)
