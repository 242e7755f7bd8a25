"""Smoke tests: the fast examples must run end to end.

Only the examples that finish in seconds are executed here (quickstart and
the runtime demo); the longer scenario scripts are exercised indirectly —
every API they touch is covered by the unit and experiment tests.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(script: str, timeout: int = 240) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_examples_directory_complete(self):
        present = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "capacity_planning.py",
            "trace_replay.py",
            "custom_models.py",
            "serving_runtime_demo.py",
            "multi_slo_serving.py",
        } <= present

    def test_quickstart_runs(self):
        result = _run("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "RAMSIS" in result.stdout
        assert "Jellyfish+" in result.stdout
        assert "expected accuracy" in result.stdout

    def test_serving_runtime_demo_runs(self):
        result = _run("serving_runtime_demo.py")
        assert result.returncode == 0, result.stderr
        assert "runtime (paced" in result.stdout
        assert "simulator (deterministic p95)" in result.stdout

    def test_custom_models_runs(self):
        result = _run("custom_models.py")
        assert result.returncode == 0, result.stderr
        assert "asr_tiny" in result.stdout
        assert "poisson" in result.stdout
