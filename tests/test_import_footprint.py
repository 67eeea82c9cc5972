"""Which processes load scipy, and what a run reports: each case runs in a fresh
interpreter, through ``tools/import_footprint.py``'s runner. Only a process
that solves a QP loads scipy, and then scipy.linalg alone, when it builds its
QPs; a closed loop loads nothing after its first step."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "import_footprint.py"
# The subpackages scipy.optimize pulls in; no koopmpc command loads any of them.
OTHER_PACKAGES = {"scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.special", "scipy.fft"}


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
    assert run["scipy"] == [], run["scipy"]


def test_each_run_reports_its_wall_time_next_to_its_peak_rss(tmp_path, footprint):
    run = footprint.run_command(ROOT, ["steady", str(ROOT / "scenarios" / "a1.json"), "1.5"],
                                tmp_path)
    assert run["exit"] == 0
    assert run["wall_s"] > 0 and run["peak_rss_mb"] > 0


@pytest.mark.parametrize("name, code", [("a2", 0), ("unicycle_square", 5)])
def test_a_closed_loop_loads_scipy_linalg_alone_and_nothing_after_its_first_step(
        tmp_path, footprint, name, code):
    # The unicycle halts at step 29 (exit 5) after NNLS misses; NNLS and the
    # factors use scipy.linalg's LAPACK routines, loaded when the problem is
    # built, before step 0.
    run = footprint.run_command(ROOT, ["simulate", str(ROOT / "scenarios" / f"{name}.json"),
                                       "--seed", "0", "--deterministic", "--out",
                                       str(tmp_path)], tmp_path)
    assert run["exit"] == code and run["loops"] == 1
    assert run["loaded_in_loop"] == []
    assert "scipy.linalg" in run["scipy"] and OTHER_PACKAGES.isdisjoint(run["scipy"]), run["scipy"]
