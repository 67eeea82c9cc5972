"""Hooks the benchmark installs on koopmpc from outside (a step clock and a span
tracer) and the per-layer metrics computed from the spans.

Nothing here edits the package. Every hook replaces a module-level binding
(or, for the step clock, one method) with a wrapper and puts the original back
on exit. Python resolves a global name at call time, so a function is only
timed at all its call sites if *every* binding a caller uses is replaced:
``cli.dlqr`` as well as ``gains.dlqr``, ``sim.solve_step`` as well as
``controller.solve_step``. ``bindings`` finds them by identity, which also
catches renamed imports such as ``controller._poly_margin``.
"""

from __future__ import annotations

import functools
import inspect
from types import ModuleType

# The modules whose public functions the tracer wraps; a span is named
# "<layer>.<function>" after the module that defines the function.
LAYERS = ("model", "sets", "gains", "qp", "controller", "sim", "cli")

# Span names the per-layer metrics read. A name missing after installation is
# reported as absent (a refactor removed or renamed it); its metrics read 0.
REQUIRED_SPANS = (
    "qp.solve", "qp.highs",
    "controller.solve_step", "controller.build_qp", "controller.shifted_candidate",
    "controller.solve_steady_offline", "controller.diagnostics",
    "model.lift", "model.fit_edmd",
    "sets.tighten_constraints", "sets.is_empty",
    "gains.dlqr",
    "sim.generate_training_data", "sim.step_plant", "sim.run_closed_loop",
    "sim.save_log_csv", "cli.cmd_simulate", "cli.cmd_tighten",
)

# Where each closed-loop iteration starts: the reference advance is the first
# thing the loop body of ``sim.run_closed_loop`` does.
STEP_CLOCK = ("sim", "_RefCursor", "advance")


class MissingTarget(RuntimeError):
    """A hook target the end-to-end measurement cannot do without is gone."""


class SetupDone(Exception):
    """Raised by the step clock at the first iteration to end a set-up probe."""


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def bindings(modules, obj) -> list[tuple[ModuleType, str]]:
    """Every (module, name) whose module-level value is ``obj``."""
    return [(m, name) for m in modules for name, value in vars(m).items() if value is obj]


def public_functions(module: ModuleType) -> dict[str, object]:
    """Functions defined in ``module`` whose names carry no leading underscore."""
    return {
        name: value for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__
        and not name.startswith("_")
    }


class StepClock:
    """Timestamps of every closed-loop iteration start and every loop end.

    Installed on ``sim._RefCursor.advance`` and on all bindings of
    ``sim.run_closed_loop``. ``abort_at_first_step`` turns a simulate call
    into a set-up probe: the clock records the first iteration start and
    raises :class:`SetupDone` before the iteration runs.
    """

    def __init__(self, modules: dict[str, ModuleType], clock):
        self._modules = modules
        self._clock = clock
        self._patches = Patches()
        self.starts: list[float] = []
        self.loop_ends: list[float] = []
        self.abort_at_first_step = False

    def reset(self) -> None:
        self.starts.clear()
        self.loop_ends.clear()

    def __enter__(self) -> "StepClock":
        mod_name, cls_name, meth_name = STEP_CLOCK
        cls = getattr(self._modules[mod_name], cls_name, None)
        advance = getattr(cls, meth_name, None)
        run_loop = getattr(self._modules["sim"], "run_closed_loop", None)
        if advance is None or run_loop is None:
            raise MissingTarget(
                f"step clock needs {mod_name}.{cls_name}.{meth_name} and "
                f"sim.run_closed_loop; update STEP_CLOCK in perfbench/hooks.py"
            )
        starts, loop_ends, state, now = self.starts, self.loop_ends, self, self._clock

        @functools.wraps(advance)
        def timed_advance(*args, **kwargs):
            starts.append(now())
            if state.abort_at_first_step:
                raise SetupDone
            return advance(*args, **kwargs)

        @functools.wraps(run_loop)
        def timed_loop(*args, **kwargs):
            try:
                return run_loop(*args, **kwargs)
            finally:
                loop_ends.append(now())

        self._patches.set(cls, meth_name, timed_advance)
        for module, name in bindings(self._modules.values(), run_loop):
            self._patches.set(module, name, timed_loop)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


def _observe_qp_solve(fn):
    """Extra span data for ``qp.solve``: iterations, status and warm start."""
    signature = inspect.signature(fn)

    def observe(args, kwargs, result) -> dict:
        bound = signature.bind_partial(*args, **kwargs).arguments
        return {
            "iterations": int(getattr(result, "iterations", 0)),
            "status": str(getattr(result, "status", "")),
            "warm": bound.get("x0") is not None,
        }

    return observe


OBSERVERS = {"qp.solve": _observe_qp_solve}


class Tracer:
    """Span recorder over the public functions of the koopmpc layers.

    A span is ``[name, start, end, parent, run, extra]``; its index in
    ``spans`` is its id and ``parent`` is the id of the enclosing span (or
    None). Spans stay in memory until the caller writes them out.
    """

    def __init__(self, modules: dict[str, ModuleType], clock):
        self._modules = modules
        self._clock = clock
        self._patches = Patches()
        self._stack: list[int] = []
        self.spans: list[list] = []
        self.run = ""
        self.installed: set[str] = set()
        self.absent: list[str] = []

    def wrap(self, name: str, fn, observe=None):
        spans, stack, tracer, clock = self.spans, self._stack, self, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, tracer.run, None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = list(self._modules.values())
        for layer in LAYERS:
            module = self._modules[layer]
            for fname, fn in public_functions(module).items():
                name = f"{layer}.{fname}"
                make_observer = OBSERVERS.get(name)
                wrapper = self.wrap(name, fn, make_observer(fn) if make_observer else None)
                for owner, attr in bindings(modules, fn):
                    self._patches.set(owner, attr, wrapper)
                self.installed.add(name)
        # HiGHS calls made from the QP layer (LP dispatch and phase 1) only;
        # sets and model hold their own linprog bindings for other uses.
        linprog = getattr(self._modules["qp"], "linprog", None)
        if linprog is not None:
            self._patches.set(self._modules["qp"], "linprog", self.wrap("qp.highs", linprog))
            self.installed.add("qp.highs")
        self.absent = [n for n in REQUIRED_SPANS if n not in self.installed]
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


# --- per-layer metrics from spans ----------------------------------------------------------

# (name, unit, better) of every per-layer metric a traced run reports. Counts and
# times are per pass (the workload's fixed unit of work); ``per_step`` is per
# closed-loop iteration that had a previous solution to shift (all but the
# first of each loop).
PER_LAYER = (
    ("qp.solve.calls", "count", "lower"),
    ("qp.solve.ms", "ms", "lower"),
    ("qp.solve.self_ms", "ms", "lower"),
    ("qp.solve.iters_mean", "count", "lower"),
    ("qp.solve.iters_total", "count", "lower"),
    ("qp.solve.infeasible", "count", "lower"),
    ("qp.solve.max_iter", "count", "lower"),
    ("qp.highs.calls", "count", "lower"),
    ("qp.highs.ms", "ms", "lower"),
    ("qp.warm_start.accept_ratio", "frac", "higher"),
    ("controller.solve_step.calls", "count", "lower"),
    ("controller.solve_step.ms", "ms", "lower"),
    ("controller.solve_step.self_ms", "ms", "lower"),
    ("controller.build_qp.calls", "count", "lower"),
    ("controller.build_qp.ms", "ms", "lower"),
    ("controller.shifted_candidate.calls", "count", "lower"),
    ("controller.shifted_candidate.ms", "ms", "lower"),
    ("controller.shifted_candidate.per_step", "count", "lower"),
    ("controller.solve_steady_offline.calls", "count", "lower"),
    ("controller.solve_steady_offline.ms", "ms", "lower"),
    ("controller.diagnostics.ms", "ms", "lower"),
    ("model.lift.calls", "count", "lower"),
    ("model.lift.per_step", "count", "lower"),
    ("model.lift.ms", "ms", "lower"),
    ("model.fit_edmd.ms", "ms", "lower"),
    ("sets.tighten_constraints.ms", "ms", "lower"),
    ("sets.is_empty.calls", "count", "lower"),
    ("sets.is_empty.ms", "ms", "lower"),
    ("gains.dlqr.ms", "ms", "lower"),
    ("sim.generate_training_data.ms", "ms", "lower"),
    ("sim.step_plant.calls", "count", "lower"),
    ("sim.step_plant.ms", "ms", "lower"),
    ("sim.run_closed_loop.self_ms", "ms", "lower"),
    ("cli.save_log_csv.ms", "ms", "lower"),
    ("cli.cmd_simulate.self_ms", "ms", "lower"),
    ("cli.cmd_tighten.self_ms", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.self_sum_gap_frac", "frac", "lower"),
)


class _Totals:
    __slots__ = ("calls", "seconds", "self_seconds", "loop_calls", "loop_seconds")

    def __init__(self):
        self.calls = self.loop_calls = 0
        self.seconds = self.self_seconds = self.loop_seconds = 0.0


def summarize(spans, passes: int, warm_iterations: int, op_root: str) -> tuple[dict, float]:
    """Per-layer metrics (without the ``trace.*`` ones) from a traced run's spans.

    Self time is a span's duration minus the durations of its direct children.
    "In the loop" means below a ``sim.run_closed_loop`` span. Also returns the
    summed self time (seconds) of every span under an ``op_root`` span,
    roots included, which equals the roots' total duration.
    """
    n = len(spans)
    child = [0.0] * n
    in_loop = [False] * n
    in_op = [False] * n
    phase1_of = set()  # qp.solve spans that called HiGHS (LP dispatch or phase 1)
    for i, (name, start, end, parent, _run, _extra) in enumerate(spans):
        in_op[i] = name == op_root
        if parent is None:
            continue
        child[parent] += end - start
        in_loop[i] = in_loop[parent] or spans[parent][0] == "sim.run_closed_loop"
        in_op[i] = in_op[i] or in_op[parent]
        if name == "qp.highs" and spans[parent][0] == "qp.solve":
            phase1_of.add(parent)

    totals: dict[str, _Totals] = {}
    iters = iterating = infeasible = max_iter = warm = warm_accepted = 0
    op_self = 0.0
    for i, (name, start, end, _parent, _run, extra) in enumerate(spans):
        t = totals.setdefault(name, _Totals())
        duration, self_time = end - start, end - start - child[i]
        t.calls += 1
        t.seconds += duration
        t.self_seconds += self_time
        if in_loop[i]:
            t.loop_calls += 1
            t.loop_seconds += duration
        if in_op[i]:
            op_self += self_time
        if name == "qp.solve" and extra is not None:
            iters += extra["iterations"]
            iterating += extra["iterations"] > 0
            infeasible += extra["status"] == "PrimalInfeasible"
            max_iter += extra["status"] == "MaxIterations"
            if extra["warm"]:
                warm += 1
                warm_accepted += i not in phase1_of

    empty = _Totals()

    def get(name):
        return totals.get(name, empty)

    def calls(name):
        return get(name).calls / passes

    def ms(name):
        return get(name).seconds * 1e3 / passes

    def self_ms(name):
        return get(name).self_seconds * 1e3 / passes

    def per_step(name):
        return get(name).loop_calls / warm_iterations if warm_iterations else 0.0

    metrics = {
        "qp.solve.calls": calls("qp.solve"),
        "qp.solve.ms": ms("qp.solve"),
        "qp.solve.self_ms": self_ms("qp.solve"),
        "qp.solve.iters_mean": iters / iterating if iterating else 0.0,
        "qp.solve.iters_total": iters / passes,
        "qp.solve.infeasible": infeasible / passes,
        "qp.solve.max_iter": max_iter / passes,
        "qp.highs.calls": calls("qp.highs"),
        "qp.highs.ms": ms("qp.highs"),
        "qp.warm_start.accept_ratio": warm_accepted / warm if warm else 0.0,
        "controller.solve_step.calls": calls("controller.solve_step"),
        "controller.solve_step.ms": ms("controller.solve_step"),
        "controller.solve_step.self_ms": self_ms("controller.solve_step"),
        "controller.build_qp.calls": calls("controller.build_qp"),
        "controller.build_qp.ms": ms("controller.build_qp"),
        "controller.shifted_candidate.calls": calls("controller.shifted_candidate"),
        "controller.shifted_candidate.ms": ms("controller.shifted_candidate"),
        "controller.shifted_candidate.per_step": per_step("controller.shifted_candidate"),
        "controller.solve_steady_offline.calls": calls("controller.solve_steady_offline"),
        "controller.solve_steady_offline.ms": ms("controller.solve_steady_offline"),
        "controller.diagnostics.ms": ms("controller.diagnostics"),
        "model.lift.calls": calls("model.lift"),
        "model.lift.per_step": per_step("model.lift"),
        "model.lift.ms": ms("model.lift"),
        "model.fit_edmd.ms": ms("model.fit_edmd"),
        "sets.tighten_constraints.ms": ms("sets.tighten_constraints"),
        "sets.is_empty.calls": calls("sets.is_empty"),
        "sets.is_empty.ms": ms("sets.is_empty"),
        "gains.dlqr.ms": ms("gains.dlqr"),
        "sim.generate_training_data.ms": ms("sim.generate_training_data"),
        "sim.step_plant.calls": get("sim.step_plant").loop_calls / passes,
        "sim.step_plant.ms": get("sim.step_plant").loop_seconds * 1e3 / passes,
        "sim.run_closed_loop.self_ms": self_ms("sim.run_closed_loop"),
        # Defined in sim but called only by cli.cmd_simulate, after the loop.
        "cli.save_log_csv.ms": ms("sim.save_log_csv"),
        "cli.cmd_simulate.self_ms": self_ms("cli.cmd_simulate"),
        "cli.cmd_tighten.self_ms": self_ms("cli.cmd_tighten"),
    }
    return metrics, op_self
