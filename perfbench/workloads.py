"""The three benchmark workloads: inputs made from the seed, one pass of work, output checks.

A *pass* is the fixed unit of work a workload repeats; an *operation* is the
unit whose outputs are checked and counted in ``attempted``/``failed``:

* ``a2_disturbed``: a pass is ``koopmpc simulate`` on ``scenarios/a2.json``
  once for each of ten disturbance seeds derived from the workload seed
  (10 operations, 10 x 300 closed-loop iterations).
* ``unicycle_course``: a pass is one ``simulate`` of
  ``scenarios/unicycle_square.json`` from its ``x0`` through the documented
  halt (1 operation, 30 iterations, the last one certified infeasible).
* ``offline_build``: a pass is one build, ``koopmpc tighten`` on all three
  shipped scenarios (1 operation).
"""

from __future__ import annotations

import csv
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hooks import Patches, SetupDone, bindings

# With five seeds a pass, which seeds a run drew moved its p99 by 11% between
# runs; with ten, by under 3%.
DISTURBANCE_SEEDS_PER_PASS = 10
# The known-red unicycle course halts here, certified primal infeasible, with
# no waypoint reached (README "Known red"). A run that stops elsewhere fails.
UNICYCLE_HALT_STEP = 29
MARGIN_TOL = 1e-9          # same tolerance as the acceptance suite
MODEL_RECOVERY_TOL = 1e-8  # a1: max-abs error of the fitted lifted matrices
SCHEDULE_REL_TOL = 1e-6    # offsets vs. the recorded reference, relative to max(1, |ref|)
OFFLINE_SCENARIOS = ("a1", "a2", "unicycle_square")
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_schedules.json"


@dataclass
class OpResult:
    """One checked operation: the problems its outputs showed, and its timed intervals.

    Intervals are ``(start, end)`` readings of the workload's clock; times
    are their lengths multiplied by ``factor``, the speed factor of the pass
    the operation ran in (see :mod:`speed`).
    """

    name: str
    problems: list[str] = field(default_factory=list)
    setup: tuple[float, float] | None = None
    units: list[tuple[float, float]] = field(default_factory=list)  # iterations or the build
    loop: tuple[float, float] | None = None  # the interval counted for throughput
    factor: float = 1.0

    def seconds(self, intervals) -> list[float]:
        return [(end - start) * self.factor for start, end in intervals]

    @property
    def ok(self) -> bool:
        return not self.problems


def count_failures(results) -> tuple[int, int]:
    """(attempted, failed) over operation results; an expected outcome is not a failure."""
    results = list(results)
    return len(results), sum(1 for r in results if not r.ok)


def tail_percentile(n_samples: int, beyond: int = 10) -> int:
    """Highest whole percentile with at least ``beyond`` of ``n_samples`` above it.

    Never below the median: with fewer than ``2 * beyond`` samples no
    percentile above the median has ten samples beyond it, and 50 is returned.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    pct = math.floor(100.0 * (n_samples - beyond) / n_samples)
    return max(50, pct)


def derived_seeds(seed: int, count: int) -> list[int]:
    """``count`` reproducible 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _read_log(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: cols[:, i] for i, name in enumerate(header)}


def _columns(log: dict, tag: str) -> np.ndarray:
    names = sorted((n for n in log if n.startswith(tag + "_")), key=lambda n: int(n.split("_")[1]))
    return np.column_stack([log[n] for n in names])


def _in_box(points: np.ndarray, lo, hi) -> bool:
    return bool(np.all(points >= np.asarray(lo) - MARGIN_TOL) and np.all(points <= np.asarray(hi) + MARGIN_TOL))


# --- output checks -----------------------------------------------------------------------

def check_a2(rc: int, metrics: dict, log: dict, T: int) -> list[str]:
    """The acceptance invariants of one disturbed a2 run."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if metrics["halted_at"] is not None:
        problems.append(f"halted at step {metrics['halted_at']}")
    if log["k"].size != T:
        problems.append(f"{log['k'].size} logged steps, expected {T}")
    infeasible = int(np.sum(log["feasible"] != 1))
    if infeasible:
        problems.append(f"{infeasible} infeasible steps")
    if metrics["max_constraint_violation"] != 0.0:
        problems.append(f"constraint violation {metrics['max_constraint_violation']}")
    margins = log["margin_min"][np.isfinite(log["margin_min"])]  # k = 0 logs NaN
    if margins.size and margins.min() < -MARGIN_TOL:
        problems.append(f"shifted-candidate margin {margins.min():.3e}")
    if metrics["final_error"] is None or not math.isfinite(metrics["final_error"]):
        problems.append("final_error is not finite")
    return problems


def check_unicycle(rc: int, metrics: dict, log: dict, scenario: dict, T: int) -> list[str]:
    """Inputs inside U, and the documented halt (when the run is long enough to reach it)."""
    problems = []
    con = scenario["constraints"]
    u = _columns(log, "u")
    executed = u[np.isfinite(u).all(axis=1)]  # the halting row logs NaN input
    if not _in_box(executed, con["input"]["lo"], con["input"]["hi"]):
        problems.append("an executed input lies outside U")
    expected_halt = UNICYCLE_HALT_STEP if T > UNICYCLE_HALT_STEP else None
    if metrics["halted_at"] != expected_halt:
        problems.append(f"halted_at {metrics['halted_at']}, expected {expected_halt}")
    if metrics["steps_to_waypoints"]:
        problems.append(f"reached waypoints at {metrics['steps_to_waypoints']}, expected none")
    n_rows = T if expected_halt is None else expected_halt + 1
    if log["k"].size != n_rows:
        problems.append(f"{log['k'].size} logged steps, expected {n_rows}")
        return problems
    feasible = log["feasible"]
    if expected_halt is None:
        if rc != 0 or not np.all(feasible == 1):
            problems.append(f"exit code {rc} or an infeasible step on a run that must not halt")
        return problems
    if rc != 5 or feasible[-1] != 0 or not np.all(feasible[:-1] == 1):
        problems.append(f"exit code {rc}; the halt must be the only infeasible step and exit 5")
    # The halting state still lies in X = X~(0) (V = 0 here), so the initial-state
    # precondition held and the Infeasible came from the QP's phase-1 certificate.
    if not _in_box(_columns(log, "x")[-1:], con["state"]["lo"], con["state"]["hi"]):
        problems.append("halting state lies outside X: the halt is not the QP's certificate")
    return problems


def schedule_offsets(doc: dict) -> dict:
    """The part of a tightened schedule the reference records: offsets per set."""
    return {
        "horizon": doc["horizon"],
        "state": [s["offsets"] for s in doc["state_sets"]],
        "input": [s["offsets"] for s in doc["input_sets"]],
    }


def check_schedule(doc: dict, reference: dict) -> list[str]:
    """Rowwise monotone tightening with fixed normals, and agreement with the reference."""
    problems = []
    for kind in ("state", "input"):
        sets = doc[f"{kind}_sets"]
        offsets = np.array([s["offsets"] for s in sets])
        if any(s["normals"] != sets[0]["normals"] for s in sets):
            problems.append(f"{kind} normals change along the horizon")
        growth = float(np.max(np.diff(offsets, axis=0), initial=-np.inf))
        if growth > 1e-12:
            problems.append(f"{kind} offsets grow by {growth:.3e} along the horizon")
        ref = np.array(reference[kind])
        if ref.shape != offsets.shape:
            problems.append(f"{kind} offsets shape {offsets.shape}, reference {ref.shape}")
            continue
        err = float(np.max(np.abs(offsets - ref) / np.maximum(1.0, np.abs(ref))))
        if err > SCHEDULE_REL_TOL:
            problems.append(f"{kind} offsets differ from the reference by {err:.3e} (relative)")
    return problems


# --- workloads ---------------------------------------------------------------------------

class Workload:
    """Generated inputs plus the pass a run repeats.

    ``cli`` is the ``koopmpc.cli`` module; operations call through its
    attributes at call time so that hooks installed on it are seen. ``clock``
    is the run's time base, the one the step clock also reads.
    """

    name = ""
    setup_probes = 0  # extra set-up measurements per untraced run
    min_passes = 1    # passes a run makes however short --seconds is
    op_root = ""      # span name whose calls make up the timed ops

    def __init__(self, cli, clock, scenarios_dir: Path, run_dir: Path, seed: int):
        self.cli = cli
        self.clock = clock
        self.scenarios_dir = scenarios_dir
        self.run_dir = run_dir
        self.seed = seed

    def scenario(self, name: str) -> dict:
        return json.loads((self.scenarios_dir / f"{name}.json").read_text())

    def warm_up(self) -> list[OpResult]:
        """Pay first-call costs (imports inside scipy, BLAS buffers) before any timing.

        Returns the checked operations the warm-up made, if any.
        """
        out = self.run_dir / "warmup"
        out.mkdir(exist_ok=True)
        self.cli.cmd_tighten(str(self.scenarios_dir / "a1.json"), str(out / "a1_schedule.json"))
        return []

    def run_pass(self, clock, tag: str, tracer=None) -> list[OpResult]:
        raise NotImplementedError

    def probe_setup(self, clock) -> tuple[float, float]:
        raise NotImplementedError


class _ClosedLoop(Workload):
    scenario_name = ""
    op_root = "sim.run_closed_loop"

    def __init__(self, cli, clock, scenarios_dir, run_dir, seed, T: int | None = None):
        super().__init__(cli, clock, scenarios_dir, run_dir, seed)
        self.doc = self.scenario(self.scenario_name)
        if T is not None:
            self.doc["T"] = int(T)
        self.T = int(self.doc["T"])
        self.path = _write_json(run_dir / f"{self.scenario_name}.json", self.doc)
        self.out = run_dir / "out"

    def sim_seeds(self) -> list[int]:
        raise NotImplementedError

    def check(self, rc: int, metrics: dict, log: dict) -> list[str]:
        raise NotImplementedError

    def simulate(self, clock, sim_seed: int, tracer=None, tag: str = "") -> OpResult:
        result = OpResult(name=f"{tag}seed{sim_seed}")
        if tracer is not None:
            tracer.run = result.name
        clock.reset()
        t0 = self.clock()
        try:
            rc = self.cli.cmd_simulate(str(self.path), seed=sim_seed, out=str(self.out))
        except Exception as exc:  # any raise is a failed operation, reported, not fatal
            traceback.print_exc()
            result.problems.append(f"raised {type(exc).__name__}: {exc}")
            return result
        t1 = self.clock()
        if not clock.starts or len(clock.loop_ends) != 1:
            result.problems.append("step clock saw no closed loop")
            return result
        marks = clock.starts + clock.loop_ends
        result.setup = (t0, clock.starts[0])
        result.units = list(zip(marks[:-1], marks[1:]))
        result.loop = (clock.starts[0], t1)
        metrics = json.loads((self.out / f"metrics_seed{sim_seed}.json").read_text())
        log = _read_log(self.out / f"log_seed{sim_seed}.csv")
        result.problems.extend(self.check(rc, metrics, log))
        return result

    def run_pass(self, clock, tag: str, tracer=None) -> list[OpResult]:
        return [self.simulate(clock, s, tracer, tag) for s in self.sim_seeds()]

    def probe_setup(self, clock) -> tuple[float, float]:
        clock.reset()
        clock.abort_at_first_step = True
        t0 = self.clock()
        try:
            self.cli.cmd_simulate(str(self.path), seed=self.sim_seeds()[0], out=str(self.out))
        except SetupDone:
            return t0, clock.starts[0]
        finally:
            clock.abort_at_first_step = False
        raise RuntimeError("set-up probe reached no control step")


class A2Disturbed(_ClosedLoop):
    name = "a2_disturbed"
    scenario_name = "a2"

    def sim_seeds(self) -> list[int]:
        return derived_seeds(self.seed, DISTURBANCE_SEEDS_PER_PASS)

    def check(self, rc, metrics, log):
        return check_a2(rc, metrics, log, self.T)


class UnicycleCourse(_ClosedLoop):
    name = "unicycle_course"
    scenario_name = "unicycle_square"
    setup_probes = 4  # one set-up per 46 s course is too few for a median

    def sim_seeds(self) -> list[int]:
        # The unicycle takes no injected disturbance, so the disturbance seed
        # passed to the program is never drawn from: every seed is the same run.
        return [self.seed]

    def check(self, rc, metrics, log):
        return check_unicycle(rc, metrics, log, self.doc, self.T)


class OfflineBuild(Workload):
    name = "offline_build"
    op_root = "cli.cmd_tighten"
    # The median of the ~7 builds that fit in 12 s moved by 8% between runs.
    min_passes = 12

    def __init__(self, cli, clock, scenarios_dir, run_dir, seed):
        super().__init__(cli, clock, scenarios_dir, run_dir, seed)
        self.reference = json.loads(REFERENCE_FILE.read_text())
        docs = {name: self.scenario(name) for name in OFFLINE_SCENARIOS}
        # a1 and a2 are fitted exactly whatever the samples, so their training
        # data seed comes from the workload seed. The unicycle fit depends on
        # its samples and the reference schedule on the fit: its seed stays.
        for name, data_seed in zip(("a1", "a2"), derived_seeds(seed, 2)):
            docs[name]["data"]["generate"]["seed"] = data_seed
        self.docs = docs
        self.paths = {name: _write_json(run_dir / f"{name}.json", doc) for name, doc in docs.items()}
        self.out = run_dir / "out"
        self.out.mkdir(exist_ok=True)
        self.builds = 0

    def _build(self) -> tuple[list[str], tuple[float, float]]:
        problems = []
        t0 = self.clock()
        for name, path in self.paths.items():
            rc = self.cli.cmd_tighten(str(path), str(self.out / f"{name}_schedule.json"))
            if rc != 0:
                problems.append(f"{name}: exit code {rc}")
        interval = (t0, self.clock())
        for name in self.paths:
            doc = json.loads((self.out / f"{name}_schedule.json").read_text())
            problems.extend(f"{name}: {p}" for p in check_schedule(doc, self.reference[name]))
        return problems, interval

    def warm_up(self) -> list[OpResult]:
        """The first build, untimed, also checks that a1's fit recovers the analytic model."""
        fitted = []
        fit_edmd = self.cli.fit_edmd
        patches = Patches()

        def capture(*args, **kwargs):
            model = fit_edmd(*args, **kwargs)
            fitted.append(model)
            return model

        for module, attr in bindings([self.cli], fit_edmd):
            patches.set(module, attr, capture)
        try:
            problems, _ = self._build()
        finally:
            patches.restore()
        params = self.docs["a1"]["plant"]["params"]
        plant = self.cli.numerical_example_plant(lam=params["lambda"], mu=params["mu"])
        if not fitted:
            problems.append("a1: no fitted model observed")
        else:
            err = max(np.abs(fitted[0].A - plant.A_lift).max(), np.abs(fitted[0].B - plant.B_lift).max())
            if not err <= MODEL_RECOVERY_TOL:
                problems.append(f"a1: fitted lifted matrices off by {err:.3e}")
        return [OpResult(name="warmup-build", problems=problems)]

    def run_pass(self, clock, tag: str, tracer=None) -> list[OpResult]:
        result = OpResult(name=f"{tag}build{self.builds}")
        self.builds += 1
        if tracer is not None:
            tracer.run = result.name
        try:
            problems, interval = self._build()
        except Exception as exc:  # any raise is a failed operation, reported, not fatal
            traceback.print_exc()
            result.problems.append(f"raised {type(exc).__name__}: {exc}")
            return [result]
        result.problems = problems
        result.setup = interval  # building the controller is all this workload does
        result.units = [interval]
        result.loop = interval
        return [result]


WORKLOADS = {w.name: w for w in (A2Disturbed, UnicycleCourse, OfflineBuild)}

# Latency samples in the shortest run of each workload: one pass of 10 x 300
# iterations, one 30-iteration course, and twelve builds. The tail percentile
# is fixed from these so that runs which repeat more passes still report the
# same percentile.
MIN_SAMPLES = {"a2_disturbed": 3000, "unicycle_course": 30, "offline_build": 12}
TAIL_PERCENTILE = {name: tail_percentile(n) for name, n in MIN_SAMPLES.items()}
