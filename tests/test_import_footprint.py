"""Which processes load scipy, and what a run reports: each case runs in a fresh
interpreter, through ``tools/import_footprint.py``'s runner. Only a process
that solves a QP loads scipy.linalg and scipy.optimize, when it builds its QPs;
a closed loop loads nothing after its first step."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "import_footprint.py"
SOLVER_PACKAGES = {"scipy.linalg", "scipy.optimize"}


@pytest.fixture(scope="module")
def footprint():
    spec = importlib.util.spec_from_file_location("import_footprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["a1", "a2", "unicycle_square"])
def test_tighten_loads_no_scipy_solver_package(tmp_path, footprint, name):
    run = footprint.run_command(ROOT, ["tighten", str(ROOT / "scenarios" / f"{name}.json"),
                                       str(tmp_path / "schedule.json")], tmp_path)
    assert run["exit"] == 0
    assert SOLVER_PACKAGES.isdisjoint(run["scipy"]), run["scipy"]


def test_each_run_reports_its_wall_time_next_to_its_peak_rss(tmp_path, footprint):
    run = footprint.run_command(ROOT, ["steady", str(ROOT / "scenarios" / "a1.json"), "1.5"],
                                tmp_path)
    assert run["exit"] == 0
    assert run["wall_s"] > 0 and run["peak_rss_mb"] > 0


@pytest.mark.parametrize("name, code", [("a2", 0), ("unicycle_square", 5)])
def test_a_closed_loop_loads_no_module_after_its_first_step(tmp_path, footprint, name, code):
    # The unicycle halts at step 29 (exit 5) after NNLS misses, which call
    # scipy.optimize.nnls through qp's name for it.
    run = footprint.run_command(ROOT, ["simulate", str(ROOT / "scenarios" / f"{name}.json"),
                                       "--seed", "0", "--deterministic", "--out",
                                       str(tmp_path)], tmp_path)
    assert run["exit"] == code and run["loops"] == 1
    assert run["loaded_in_loop"] == []
    assert SOLVER_PACKAGES <= set(run["scipy"])


def test_building_a_tracking_problem_loads_both_scipy_solver_packages(tmp_path):
    # The stack's fit, gain and tightening load neither; its problem, built on
    # first read, loads both.
    script = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "src")!r})
from koopmpc import cli
stack = cli.build_stack({str(ROOT / "scenarios" / "a2.json")!r})
before = sorted(m for m in sys.modules if m in {sorted(SOLVER_PACKAGES)!r})
stack.problem
after = sorted(m for m in sys.modules if m in {sorted(SOLVER_PACKAGES)!r})
print(json.dumps([before, after]))
"""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    before, after = json.loads(done.stdout)
    assert before == [] and after == sorted(SOLVER_PACKAGES)
