"""The call seams that the benchmark's tracer (``perfbench/spans.py``) wraps.

The benchmark's traced self-check counts calls of named functions
(``conditional_measure`` builds, noise windows, map applies, rectangles, KS
statistics, and Hopf probes, whose ``probe`` group the ``hopf_lhs`` and
``hopf_rhs`` spans feed) and fails if a count differs from the one derived
from the workload's sizes.  A refactor that routes a call around one
of those names zeroes its count; this test runs ``perfbench/child.py`` with
the tracer on small sizes, so such a route change fails here rather than
only in a traced benchmark run.  It reads ``perfbench/`` and changes nothing
there; when the benchmark's counts change, this test changes with them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def traced_calls(tmp_path, argv):
    """Outer call counts per traced group for one cold CLI process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    timing, spans = tmp_path / "timing.json", tmp_path / "spans.json"
    args = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(timing),
            "--spans", str(spans), "--", *argv, "--out", str(tmp_path / "report.json")]
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
    # exit code 1 is a failed verdict, which the counts do not depend on: at 100
    # replicas the stationarity KS check rejects on seed 5 (D = 0.240 > 0.230)
    assert proc.returncode in (0, 1), proc.stderr
    groups = json.loads(timing.read_text())["figures"]["groups"]
    return {group: fig["calls"] for group, fig in groups.items()}


@pytest.mark.parametrize(
    "argv, expected",
    [
        # 100 replicas x 1 shift x 2 sides; 12 steps and 6 rectangles per
        # build; one KS per rectangle plus one projection
        (
            ["diagnose", "stationarity", "--n", "100", "--shifts", "1", "--seed", "5"],
            {"build": 200, "window": 200, "apply": 2400, "cylinder": 1200, "ks": 7},
        ),
        # window 16: 45 grid probes plus 32 random ones on one ensemble, one
        # hopf_lhs span each (the map reproduces every last column, so no
        # probe integrates hopf_rhs)
        (
            ["hopf-check", "fractional", "--particles", "1000", "--seed", "5"],
            {"build": 1, "probe": 77},
        ),
        # one noise window and one scalar apply per step
        (
            ["simulate", "fractional", "1000", "--seed", "5"],
            {"window": 1, "apply": 1000},
        ),
        # per pair: one past and two future windows, two builds, one check
        (
            ["diagnose", "consistency", "--pairs", "10", "--seed", "5"],
            {"build": 20, "window": 30, "check": 10},
        ),
        # one shift comparison over 100 replicas x 2 sides x 2 rectangles; one
        # KS per rectangle plus one projection, and four demo indices
        (
            ["diagnose", "conditional-law", "--n", "100", "--particles", "100", "--seed", "5"],
            {"dist_eq": 1, "cylinder": 400, "ks": 7},
        ),
    ],
    ids=["stationarity", "hopf-check", "simulate", "consistency", "conditional-law"],
)
def test_pinned_counts(tmp_path, argv, expected):
    calls = traced_calls(tmp_path, argv)
    assert {group: calls.get(group, 0) for group in expected} == expected
