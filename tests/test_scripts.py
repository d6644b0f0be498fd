"""Smoke tests: the shipped scripts run to completion from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worked_examples_pass_every_non_gauge_suite():
    out = _run_script("worked_examples.py")
    suite_lines = [line.strip() for line in out.splitlines() if "-tagged" in line]
    assert suite_lines
    for line in suite_lines:
        label, _, verdict = line.partition(": ")
        if not label.endswith(" gauge"):
            assert verdict.startswith("pass"), line
    # point-mass (angle 1/3) tags break gauge invariance, Haar tags keep it
    assert any(line.startswith("point-tagged") for line in suite_lines)


def test_survey_battery_runs():
    assert _run_script("survey_battery.py").startswith("battery seed=")
