"""Peak memory and scipy subpackages of each shipped command, each in a fresh interpreter.

    python3 tools/import_footprint.py --root <checkout>

runs ``koopmpc tighten``, ``simulate`` and ``steady`` on each shipped scenario
of ``<checkout>``, and ``koopmpc fit`` on a small trajectory CSV of the
numerical example that the script writes, each in a new Python process that
imports ``koopmpc`` from ``<checkout>/src`` with BLAS pinned to one thread.
For each command it prints the exit code, the process's peak RSS
(``ru_maxrss``), the scipy subpackages it loaded, and, for a ``simulate``, the
modules its closed loops loaded between their first step and their return.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = {"a1": "1.5", "a2": "1.5", "unicycle_square": "2.0,3.0"}  # with a steady target

# Runs ``cli.main(argv)`` for argv[2] in the process, with its stdout
# discarded, and prints one JSON line. ``_RefCursor.advance`` is the first call
# of each closed-loop step: the modules present at step 0 are compared with
# those present when ``run_closed_loop`` returns.
_CHILD = """
import contextlib, io, json, resource, sys
sys.path.insert(0, sys.argv[1] + "/src")
from koopmpc import cli, sim

at_step_0, loaded_in_loop, loops = [], set(), [0]
advance, run_closed_loop = sim._RefCursor.advance, cli.run_closed_loop

def first_step(cursor, k, position):
    if k == 0:
        at_step_0.append(set(sys.modules))
    return advance(cursor, k, position)

def run(*args, **kwargs):
    steps = len(at_step_0)
    log = run_closed_loop(*args, **kwargs)
    loops[0] += 1
    if len(at_step_0) > steps:
        loaded_in_loop.update(set(sys.modules) - at_step_0[-1])
    return log

sim._RefCursor.advance, cli.run_closed_loop = first_step, run
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[2]))
print(json.dumps({
    "exit": code,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "scipy": sorted(m for m in sys.modules if m.count(".") == 1 and m.startswith("scipy.")
                    and not m.startswith("scipy._")),
    "loops": loops[0],
    "loaded_in_loop": sorted(loaded_in_loop),
}))
"""


def run_command(root: Path, argv: list[str], cwd: Path) -> dict:
    """``koopmpc <argv>`` of the checkout ``root`` in a fresh interpreter run in
    ``cwd``: its exit code, peak RSS in MB, the public scipy subpackages in
    ``sys.modules`` at its end, its count of closed loops and the modules they
    loaded between step 0 and their return."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _CHILD, str(Path(root).resolve()),
                           json.dumps(argv)], cwd=cwd, env=env, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"koopmpc {' '.join(argv)} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def write_fit_inputs(directory: Path) -> tuple[Path, Path]:
    """A trajectory CSV of the numerical example (20 trajectories of 5 steps,
    uniform inputs in [-3, 3] from a seeded generator) and its lifting file."""
    rng, lam, mu = random.Random(0), -0.1, 2.0
    rows = ["traj_id,t,x_0,x_1,u_0"]
    for i in range(20):
        x1, x2 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        for t in range(6):
            u = rng.uniform(-3.0, 3.0) if t < 5 else None
            rows.append(f"{i},{t},{x1!r},{x2!r},{'' if u is None else repr(u)}")
            if u is not None:
                x1, x2 = lam * x1, mu * x2 + (lam * lam - mu) * x1 * x1 + u
    data, lifting = directory / "fit_data.csv", directory / "fit_lifting.json"
    data.write_text("\n".join(rows) + "\n")
    lifting.write_text(json.dumps({"n_x": 2, "kind": "explicit",
                                   "params": {"pre": "identity", "exponents": [[2, 0]]}}))
    return data, lifting


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, required=True, help="the checkout to run")
    root = parser.parse_args(argv).root.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, lifting = write_fit_inputs(tmp)
        runs = {"fit": ["fit", str(data), str(lifting), str(tmp / "model.json")]}
        for name, y_t in SCENARIOS.items():
            scenario = str(root / "scenarios" / f"{name}.json")
            runs[f"tighten {name}"] = ["tighten", scenario, str(tmp / f"{name}_schedule.json")]
            runs[f"simulate {name}"] = ["simulate", scenario, "--seed", "0", "--deterministic",
                                        "--out", str(tmp / name)]
            runs[f"steady {name}"] = ["steady", scenario, y_t]
        for label, command in runs.items():
            r = run_command(root, command, tmp)
            line = (f"{label}: exit {r['exit']}, peak RSS {r['peak_rss_mb']:.1f} MB, "
                    f"scipy subpackages: {', '.join(r['scipy']) or 'none'}")
            if r["loops"]:
                line += (f"; modules loaded in {r['loops']} closed loop(s) after step 0: "
                         f"{', '.join(r['loaded_in_loop']) or 'none'}")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
