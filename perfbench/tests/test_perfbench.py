"""Tests of the benchmark itself: percentile choice, failure counting, hooks, smoke runs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SCENARIOS = ROOT / "scenarios"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hooks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from koopmpc import cli, controller, gains, model, qp, sets, sim  # noqa: E402

MODULES = {"model": model, "sets": sets, "gains": gains, "qp": qp,
           "controller": controller, "sim": sim, "cli": cli}


# --- tail percentile -----------------------------------------------------------------

def test_tail_percentile_leaves_ten_samples_beyond():
    assert workloads.tail_percentile(1500) == 99
    assert workloads.tail_percentile(30) == 66
    assert workloads.tail_percentile(100) == 90
    for n in range(1, 3001):
        p = workloads.tail_percentile(n)
        assert 50 <= p < 100
        if p > 50:
            assert n * (100 - p) / 100 >= 10
            assert n * (100 - (p + 1)) / 100 < 10  # and it is the highest such
    assert workloads.tail_percentile(19) == 50  # no percentile above the median qualifies


def test_tail_percentiles_follow_from_minimum_sample_counts():
    for name, n in workloads.MIN_SAMPLES.items():
        assert workloads.TAIL_PERCENTILE[name] == workloads.tail_percentile(n)


# --- output checks and failure counting ----------------------------------------------

def _log(n, feasible=None, margin=0.0, u=None, x=None):
    feasible = np.ones(n) if feasible is None else np.asarray(feasible, float)
    u = np.full((n, 2), 0.5) if u is None else np.asarray(u, float)
    x = np.full((n, 3), 1.5) if x is None else np.asarray(x, float)
    log = {"k": np.arange(n, dtype=float), "feasible": feasible,
           "margin_min": np.r_[np.nan, np.full(n - 1, margin)]}
    log.update({f"u_{i}": u[:, i] for i in range(u.shape[1])})
    log.update({f"x_{i}": x[:, i] for i in range(x.shape[1])})
    return log


def _a2_metrics(**over):
    doc = {"halted_at": None, "max_constraint_violation": 0.0, "final_error": 0.1,
           "steps_to_waypoints": []}
    doc.update(over)
    return doc


UNICYCLE = json.loads((SCENARIOS / "unicycle_square.json").read_text())


def _halting_course():
    n = workloads.UNICYCLE_HALT_STEP + 1
    u = np.full((n, 2), 0.5)
    u[-1] = np.nan  # the halting row logs NaN input
    feasible = np.r_[np.ones(n - 1), 0.0]
    return _log(n, feasible=feasible, u=u), _a2_metrics(halted_at=n - 1, final_error=None)


def test_expected_unicycle_halt_is_not_a_failure():
    log, metrics = _halting_course()
    problems = workloads.check_unicycle(5, metrics, log, UNICYCLE, T=2400)
    assert problems == []
    results = [workloads.OpResult("course", problems)]
    assert workloads.count_failures(results) == (1, 0)


@pytest.mark.parametrize("change", ["other_step", "waypoint", "input_outside_U",
                                    "state_outside_X", "exit_code", "no_halt"])
def test_unexpected_unicycle_outcomes_fail(change):
    log, metrics = _halting_course()
    rc = 5
    if change == "other_step":
        metrics["halted_at"] = 28
    elif change == "waypoint":
        metrics["steps_to_waypoints"] = [12]
    elif change == "input_outside_U":
        log["u_1"][3] = 2.5
    elif change == "state_outside_X":
        log["x_0"][-1] = -0.1
    elif change == "exit_code":
        rc = 0
    elif change == "no_halt":
        metrics["halted_at"] = None
    problems = workloads.check_unicycle(rc, metrics, log, UNICYCLE, T=2400)
    assert problems
    assert workloads.count_failures([workloads.OpResult("x", problems)]) == (1, 1)


def test_a2_invariants_and_failure_count():
    T = 300
    ok = workloads.check_a2(0, _a2_metrics(), _log(T), T)
    assert ok == []
    bad = [
        workloads.check_a2(0, _a2_metrics(), _log(T, feasible=np.r_[np.ones(T - 1), 0]), T),
        workloads.check_a2(0, _a2_metrics(max_constraint_violation=1e-3), _log(T), T),
        workloads.check_a2(0, _a2_metrics(), _log(T, margin=-1e-6), T),
        workloads.check_a2(0, _a2_metrics(final_error=None), _log(T), T),
        workloads.check_a2(5, _a2_metrics(halted_at=7), _log(8), T),
    ]
    assert all(bad)
    results = [workloads.OpResult("ok", ok)] + [workloads.OpResult(f"b{i}", p) for i, p in enumerate(bad)]
    assert workloads.count_failures(results) == (6, 5)


def test_schedule_check_flags_growth_and_reference_drift():
    doc = {"horizon": 1,
           "state_sets": [{"normals": [[1.0]], "offsets": [2.0]}, {"normals": [[1.0]], "offsets": [1.0]}],
           "input_sets": [{"normals": [[1.0]], "offsets": [1.0]}, {"normals": [[1.0]], "offsets": [1.0]}]}
    ref = workloads.schedule_offsets(doc)
    assert workloads.check_schedule(doc, ref) == []
    drift = json.loads(json.dumps(ref))
    drift["state"][1][0] += 1e-3
    assert workloads.check_schedule(doc, drift)
    doc["state_sets"][1]["offsets"] = [3.0]
    assert any("grow" in p for p in workloads.check_schedule(doc, workloads.schedule_offsets(doc)))


# --- hooks ----------------------------------------------------------------------------

def _snapshot():
    snap = {name: dict(vars(m)) for name, m in MODULES.items()}
    snap["advance"] = sim._RefCursor.advance
    return snap


def _assert_restored(snap):
    assert sim._RefCursor.advance is snap["advance"]
    for name, m in MODULES.items():
        current = vars(m)
        for attr, value in snap[name].items():
            assert current[attr] is value, f"{name}.{attr} not restored"


def test_tracer_patches_every_caller_binding_and_restores():
    snap = _snapshot()
    with hooks.StepClock(MODULES, time.thread_time), hooks.Tracer(MODULES, time.thread_time) as tracer:
        assert tracer.absent == []
        for module, attr in [(cli, "dlqr"), (cli, "run_closed_loop"), (sim, "solve_step"),
                             (sim, "shifted_candidate"), (controller, "build_qp"),
                             (controller, "lift"), (qp, "solve"), (qp, "linprog"),
                             (controller, "_poly_margin")]:
            assert getattr(module, attr) is not snap[module.__name__.split(".")[1]][attr]
        assert controller.qps.solve is qp.solve  # looked up on the module at call time
    _assert_restored(snap)


def test_hooks_restore_after_an_exception():
    snap = _snapshot()
    with pytest.raises(KeyError):
        with hooks.StepClock(MODULES, time.thread_time), hooks.Tracer(MODULES, time.thread_time):
            raise KeyError("boom")
    _assert_restored(snap)


def _fake_layers(**defs):
    """Fake koopmpc layer modules holding the given functions."""
    mods = {}
    for layer in hooks.LAYERS:
        mod = types.ModuleType(f"fake.{layer}")
        for fname, fn in defs.get(layer, {}).items():
            fn.__module__ = mod.__name__
            setattr(mod, fname, fn)
        mods[layer] = mod
    return mods


def test_absent_targets_are_reported_and_spans_nest():
    def solve(problem, x0=None):
        return types.SimpleNamespace(iterations=3, status="Optimal")

    def step(x):
        return mods["qp"].solve(x, x0=1)

    mods = _fake_layers(qp={"solve": solve}, controller={"solve_step": step})
    mods["sim"].solve_step = step  # a second binding, as sim imports it
    with hooks.Tracer(mods, time.thread_time) as tracer:
        mods["sim"].solve_step(0)
    assert mods["sim"].solve_step is step and mods["qp"].solve is solve
    assert "controller.shifted_candidate" in tracer.absent
    assert "qp.highs" in tracer.absent  # the fake qp has no linprog binding
    assert "qp.solve" not in tracer.absent
    names = [s[0] for s in tracer.spans]
    assert names == ["controller.solve_step", "qp.solve"]
    assert tracer.spans[1][3] == 0  # qp.solve's parent is solve_step
    assert tracer.spans[1][5] == {"iterations": 3, "status": "Optimal", "warm": True}
    metrics, _ = hooks.summarize(tracer.spans, passes=1, warm_iterations=0, op_root="")
    assert metrics["qp.solve.calls"] == 1 and metrics["qp.solve.iters_total"] == 3
    assert metrics["controller.shifted_candidate.calls"] == 0
    assert metrics["qp.warm_start.accept_ratio"] == 1.0


def test_self_time_subtracts_direct_children():
    spans = [
        ["sim.run_closed_loop", 0.0, 10.0, None, "r", None],
        ["controller.solve_step", 1.0, 7.0, 0, "r", None],
        ["qp.solve", 2.0, 6.0, 1, "r", {"iterations": 2, "status": "Optimal", "warm": True}],
        ["qp.highs", 3.0, 4.0, 2, "r", None],
        ["sim.step_plant", 8.0, 9.0, 0, "r", None],
        ["sim.step_plant", 20.0, 21.0, None, "r", None],  # outside the loop
    ]
    metrics, op_self = hooks.summarize(spans, passes=1, warm_iterations=1, op_root="sim.run_closed_loop")
    assert metrics["qp.solve.self_ms"] == pytest.approx(3000.0)
    assert metrics["controller.solve_step.self_ms"] == pytest.approx(2000.0)
    assert metrics["sim.run_closed_loop.self_ms"] == pytest.approx(3000.0)
    assert metrics["sim.step_plant.calls"] == 1  # inside the loop only
    assert metrics["qp.warm_start.accept_ratio"] == 0.0  # the warm solve needed HiGHS
    assert op_self == pytest.approx(10.0)  # self times under the root add up to it


def test_step_clock_reports_a_missing_target(monkeypatch):
    monkeypatch.delattr(sim._RefCursor, "advance")
    with pytest.raises(hooks.MissingTarget):
        with hooks.StepClock(MODULES, time.thread_time):
            pass


# --- time base ----------------------------------------------------------------------------

def test_speed_factor_uses_the_samples_of_the_phase():
    ref = speed.Speed()
    ref.times, ref.costs = [0.0, 1.0, 2.0, 3.0], [1e-3, 2e-3, 2e-3, 4e-3]
    assert ref.factor(0.5, 2.5) == pytest.approx(speed.REFERENCE_S / 2e-3)
    assert ref.factor(10.0, 11.0) == pytest.approx(speed.REFERENCE_S / 2.25e-3)  # none inside


def test_speed_sampling_is_left_out_of_the_clock_and_stopped_on_exit():
    import signal

    handler = signal.getsignal(signal.SIGPROF)
    with speed.Speed() as ref:
        spent0, t0, c0 = ref.spent, time.thread_time(), ref.clock()
        while time.thread_time() - t0 < 0.5:
            sum(range(1000))
        d_clock, d_thread = ref.clock() - c0, time.thread_time() - t0
        assert len(ref.costs) >= 3  # the initial sample plus timer samples
        assert d_thread - d_clock == pytest.approx(ref.spent - spent0, abs=1e-3)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is handler


# --- smoke runs -------------------------------------------------------------------------

def _smoke(workload, speed_ref, traced=False):
    with speed_ref, hooks.StepClock(MODULES, speed_ref.clock) as clock:
        results = workload.warm_up()
        if traced:
            with hooks.Tracer(MODULES, speed_ref.clock) as tracer:
                results += workload.run_pass(clock, "smoke/", tracer)
            return results, tracer
        return results + workload.run_pass(clock, "smoke/"), None


def test_smoke_a2_traced(tmp_path):
    ref = speed.Speed()
    w = workloads.A2Disturbed(cli, ref.clock, SCENARIOS, tmp_path, seed=1, T=20)
    results, tracer = _smoke(w, ref, traced=True)
    n = workloads.DISTURBANCE_SEEDS_PER_PASS
    assert workloads.count_failures(results) == (n, 0)
    assert all(len(r.units) == 20 and r.setup[1] > r.setup[0] for r in results)
    metrics, _ = hooks.summarize(tracer.spans, 1, n * 19, w.op_root)
    assert set(metrics) | {"trace.overhead_frac", "trace.self_sum_gap_frac"} == \
        {name for name, _, _ in hooks.PER_LAYER}
    assert metrics["controller.shifted_candidate.per_step"] == 2.0
    assert metrics["controller.solve_step.calls"] == n * 20


def test_smoke_unicycle_prefix(tmp_path):
    ref = speed.Speed()
    w = workloads.UnicycleCourse(cli, ref.clock, SCENARIOS, tmp_path, seed=0, T=3)
    results, _ = _smoke(w, ref)
    assert workloads.count_failures(results) == (1, 0)
    assert len(results[0].units) == 3
    with hooks.StepClock(MODULES, ref.clock) as clock:
        t0, t1 = w.probe_setup(clock)
    assert t1 > t0


def test_smoke_offline_build(tmp_path):
    ref = speed.Speed()
    w = workloads.OfflineBuild(cli, ref.clock, SCENARIOS, tmp_path, seed=4)
    results, _ = _smoke(w, ref)
    assert [r.name for r in results] == ["warmup-build", "smoke/build0"]
    assert workloads.count_failures(results) == (2, 0)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(hooks.PER_LAYER)


def test_command_prints_result_last_and_fails_without_sources(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "offline_build",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _, _ in run.END_TO_END}

    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_build",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
