"""koopmpc benchmark: closed-loop step latency and offline build time, traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload a2_disturbed --seed 0 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
measures the same workload untraced for half the time and traced for the
other half and reports the per-layer metrics. Every run checks the program's
outputs. Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 when every output check passed, 1 when one failed and 2 when the
package sources are missing. Run outputs go to ``.perfbench_run/<workload>/``.
"""

import os

# BLAS thread pools are sized when numpy loads, so this must precede every import
# that could load numpy: the benchmark is one process with one compute thread.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hooks  # noqa: E402
import speed as speed_mod  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"

# (name, unit, better) of every end-to-end metric, reported on every workload.
# An "op" is one closed-loop iteration, or one build of all three scenarios.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("ok_frac", "frac", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "processes": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(ROOT),
        "src_sha256": _source_digest(SRC),
    }


def run_passes(workload, clock, speed, seconds: float, min_passes: int, tag: str,
               tracer=None):
    """Repeat whole passes until ``seconds`` of wall time and ``min_passes`` are done.

    Each operation is given the speed factor of the pass it ran in.
    """
    results, passes = [], 0
    t0 = time.perf_counter()
    while True:
        start = speed.clock()
        batch = workload.run_pass(clock, f"{tag}pass{passes}/", tracer)
        factor = speed.factor(start, speed.clock())
        for result in batch:
            result.factor = factor
        results += batch
        passes += 1
        if passes >= min_passes and time.perf_counter() - t0 >= seconds:
            return results, passes


def _ops(results):
    return [r for r in results if r.units]


def _op_ms(results):
    return np.array([t for r in results for t in r.seconds(r.units)]) * 1e3


def end_to_end(results, probe_setups, tail_pct: float) -> dict:
    """The end-to-end metrics from the untraced operations, in reference-speed time.

    ``probe_setups`` are the reference-speed set-up times of the probes.
    """
    timed = _ops(results)
    op_ms = _op_ms(timed)
    setup_s = np.array(list(probe_setups) + [r.seconds([r.setup])[0] for r in timed])
    loop_s = sum(r.seconds([r.loop])[0] for r in timed)
    attempted, failed = workloads.count_failures(results)
    return {
        "setup_s": float(np.median(setup_s)) if setup_s.size else 0.0,
        "op_ms_p50": float(np.median(op_ms)) if op_ms.size else 0.0,
        "op_ms_tail": float(np.percentile(op_ms, tail_pct)) if op_ms.size else 0.0,
        "ops_per_s": op_ms.size / loop_s if loop_s else 0.0,
        "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(op_root, untraced, traced, passes, tracer, factor):
    """Per-layer metrics of the traced phase plus the trace's own overhead figures.

    ``factor`` rescales span times to reference speed: the traced phase's.
    ``trace.overhead_frac`` compares the op p50 of the traced phase with that of
    the untraced phase of the same run; ``trace.self_sum_gap_frac`` compares the
    summed self time of all spans under the op roots, per op, with the untraced
    mean op time.
    """
    iterations = sum(len(r.units) for r in traced)
    # Iterations with a previous solution: all but the first of each loop (an
    # offline build is one sample per op, so it has none).
    warm_iterations = iterations - len(_ops(traced))
    metrics, op_self_s = hooks.summarize(tracer.spans, passes, warm_iterations, op_root)
    units = {name: unit for name, unit, _ in hooks.PER_LAYER}
    for name in metrics:
        if units[name] == "ms":
            metrics[name] *= factor
    untraced_ms, traced_ms = _op_ms(untraced), _op_ms(traced)
    nan = float("nan")
    untraced_p50 = float(np.median(untraced_ms)) if untraced_ms.size else nan
    traced_p50 = float(np.median(traced_ms)) if traced_ms.size else nan
    untraced_mean = float(np.mean(untraced_ms)) if untraced_ms.size else nan
    self_per_op_ms = op_self_s * factor * 1e3 / iterations if iterations else nan
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    metrics["trace.self_sum_gap_frac"] = self_per_op_ms / untraced_mean - 1.0
    extra = {
        "absent": tracer.absent,
        "untraced_op_ms_p50": untraced_p50,
        "traced_op_ms_p50": traced_p50,
        "self_sum_per_op_ms": self_per_op_ms,
        "untraced_op_ms_mean": untraced_mean,
        "spans": len(tracer.spans),
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "koopmpc" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        print(f"error: no koopmpc sources under {SRC} or no {SCENARIOS}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from koopmpc import cli, controller, gains, model, qp, sets, sim

    modules = {"model": model, "sets": sets, "gains": gains, "qp": qp,
               "controller": controller, "sim": sim, "cli": cli}
    env = environment()
    run_dir = ROOT / ".perfbench_run" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    speed = speed_mod.Speed()
    workload = workloads.WORKLOADS[args.workload](cli, speed.clock, SCENARIOS, run_dir, args.seed)
    tail_pct = workloads.TAIL_PERCENTILE[args.workload]

    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "tail_percentile": tail_pct, "env": env}
    with open(run_dir / "program_stdout.txt", "w") as program_out, \
            contextlib.redirect_stdout(program_out), speed, \
            hooks.StepClock(modules, speed.clock) as clock:
        results = workload.warm_up()
        if args.trace == 0:
            probes = [workload.probe_setup(clock) for _ in range(workload.setup_probes)]
            probe_setups = [(b - a) * speed.factor(a, b) for a, b in probes]
            timed, passes = run_passes(workload, clock, speed, args.seconds,
                                       workload.min_passes, "")
            results += timed
            metrics = end_to_end(results, probe_setups, tail_pct)
        else:
            half = (args.seconds / 2, max(1, workload.min_passes // 2))
            untraced, _ = run_passes(workload, clock, speed, *half, "untraced/")
            t1 = speed.clock()
            with hooks.Tracer(modules, speed.clock) as tracer:
                traced, passes = run_passes(workload, clock, speed, *half, "traced/", tracer)
            results += untraced + traced
            metrics, extra = traced_metrics(workload.op_root, untraced, traced, passes, tracer,
                                            speed.factor(t1, speed.clock()))
            detail.update(extra)
            with open(run_dir / "spans.jsonl", "w") as fh:
                for sid, span in enumerate(tracer.spans):
                    fh.write(json.dumps([sid, *span]) + "\n")

    attempted, failed = workloads.count_failures(results)
    samples = sum(len(r.units) for r in results)
    raw_ms = np.array([b - a for r in results for a, b in r.units]) * 1e3
    factors = [r.factor for r in _ops(results)] or [1.0]
    units = {n: u for n, u, _ in (END_TO_END if args.trace == 0 else hooks.PER_LAYER)}
    detail.update({
        "passes": passes, "op_samples": samples, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "speed": {"reference_kernel_ms": speed_mod.REFERENCE_S * 1e3,
                  "samples": len(speed.costs),
                  "kernel_ms_quartiles": list(np.percentile(speed.costs, [25, 50, 75]) * 1e3),
                  "pass_factors": sorted({r.factor for r in _ops(results)}),
                  "unscaled_cpu_op_ms_p50": float(np.median(raw_ms)) if raw_ms.size else None},
        "problems": {r.name: r.problems for r in results if not r.ok},
    })
    (run_dir / "result.json").write_text(json.dumps(detail, indent=2) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {passes} passes, "
          f"{samples} op samples, op_ms_tail is p{tail_pct:g}; times are CPU time at "
          f"reference speed (CPU time x {min(factors):.3f} to {max(factors):.3f})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if args.trace:
        print(f"  absent hook targets: {detail['absent'] or 'none'}")
    for name, problems in detail["problems"].items():
        print(f"  FAILED {name}: {'; '.join(problems)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # A metric with no samples (every operation failed) reads 0, keeping the line JSON.
        "metrics": {n: {"value": v if math.isfinite(v) else 0.0, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
