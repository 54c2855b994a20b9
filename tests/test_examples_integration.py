"""Integration: every example script runs to completion and says what
it promises.  Examples are the public face of the library; a refactor
that breaks them must fail CI."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 300) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    output = run_example("quickstart.py")
    assert "pTest quickstart" in output
    assert "generated patterns" in output
    assert "no anomalies" in output or "bug report" in output


def test_fig1_walkthrough():
    output = run_example("fig1_walkthrough.py")
    assert "resume order: 'good'" in output
    assert "terminated: True" in output
    assert "unreachable states" in output
    assert "starvation" in output


def test_distribution_tuning():
    output = run_example("distribution_tuning.py")
    assert "paper (Fig. 5)" in output
    assert "uniform" in output
    assert "1000 traces" in output


def test_adaptive_sweep():
    output = run_example("adaptive_sweep.py")
    assert "adaptive philosophers sweep" in output
    assert "round 3" in output
    # The zoom pins away the ordered control and narrows hold_steps.
    assert "ordered=True" in output  # swept in round 1...
    assert "phil[hold_steps=15]" in output  # ...zoomed to 1 cell by round 3
    # A bare policy is one stage, labelled by its POLICIES key.
    stages = re.findall(r"^round (\d) \(pool_id=\d+, stage=(\w+)\)", output, re.M)
    assert stages == [("1", "grid_zoom"), ("2", "grid_zoom"), ("3", "grid_zoom")]
    assert "pool stable across rounds: True" in output


def test_pipeline_sweep():
    output = run_example("pipeline_sweep.py")
    assert "schedule sweep: grid_zoom:2,replay(max_sources=1):2" in output
    # Stage 1 zooms the grid, stage 2 re-drives recorded deadlocks;
    # every round names its stage, the final one included.
    stages = re.findall(r"^round (\d) \(pool_id=\d+, stage=(\w+)\)", output, re.M)
    assert stages == [
        ("1", "grid_zoom"), ("2", "grid_zoom"), ("3", "replay"), ("4", "replay")
    ]
    assert "replay[phil[" in output
    assert "pool stable across the composed schedule: True" in output


def test_batch_sampling():
    # deadlock_hunt.py ends by recording the deadlocked run's wait-graph
    # deltas and sweeping them as one batch (BugDetector.sweep_batch),
    # then re-confirming the reported cycle with audit_deadlocks.
    output = run_example("deadlock_hunt.py")
    assert "wait-graph delta(s) recorded" in output
    assert "cycle tids=" in output
    assert "re-confirmed from recorded deltas (consistent=True)" in output


@pytest.mark.slow
def test_stress_pcore():
    output = run_example("stress_pcore.py", "1")
    assert "crash" in output
    assert "no crash: the garbage collector reclaimed every task" in output


@pytest.mark.slow
def test_deadlock_hunt():
    output = run_example("deadlock_hunt.py")
    assert "cyclic" in output
    assert "CLEAN" in output
    assert "CP0" in output  # state records printed


@pytest.mark.slow
def test_baseline_comparison():
    output = run_example("baseline_comparison.py")
    assert "pTest (adaptive, cyclic)" in output
    assert "ConTest-style random" in output
    assert "CHESS-lite systematic" in output


def test_fault_tolerant_campaign():
    output = run_example("fault_tolerant_campaign.py")
    assert "deadlock hunt under chaos" in output
    assert "quarantine: 1 of 6 cells (timeout=1); 5 completed" in output
    assert "phil seed=3: timeout" in output
    assert "deadlock detection(s)" in output
    assert "bit-identical" in output


def test_serve_client():
    output = run_example("serve_client.py")
    assert "server: listening on" in output
    assert "client 2:" in output  # all three clients reported
    assert "one pool spawn per worker count: True" in output
    assert "all clients bit-identical: True" in output
    assert "server drained and stopped" in output
