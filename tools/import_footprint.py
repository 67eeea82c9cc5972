"""Wall time, peak memory and scipy subpackages of each shipped command, each in a
fresh interpreter.

    python3 tools/import_footprint.py --root <checkout>

runs ``koopmpc tighten``, ``simulate`` and ``steady`` on each shipped scenario
of ``<checkout>``, each in a new Python process that imports ``koopmpc`` from
``<checkout>/src`` with BLAS pinned to one thread. For each command it prints
the exit code, the process's wall time from its start to its exit, its peak
RSS (``ru_maxrss``), the scipy subpackages it loaded, and, for a
``simulate``, the modules its closed loops loaded between their first step
and their return. On the shipped scenarios ``tighten`` loads no scipy
subpackage, ``simulate`` and ``steady`` load ``scipy.linalg`` alone (with
``scipy.version``), and no closed loop loads a module after its first step.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
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
    ``cwd``: its exit code, its wall time in seconds (``wall_s``, from the
    process's start to its exit, interpreter start-up included), peak RSS in
    MB, the public scipy subpackages in ``sys.modules`` at its end, its count
    of closed loops and the modules they loaded between step 0 and their
    return."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _CHILD, str(Path(root).resolve()),
                           json.dumps(argv)], cwd=cwd, env=env, capture_output=True, text=True,
                          check=False)
    wall_s = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"koopmpc {' '.join(argv)} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1]) | {"wall_s": wall_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, required=True, help="the checkout to run")
    root = parser.parse_args(argv).root.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = {}
        for name, y_t in SCENARIOS.items():
            scenario = str(root / "scenarios" / f"{name}.json")
            runs[f"tighten {name}"] = ["tighten", scenario, str(tmp / f"{name}_schedule.json")]
            runs[f"simulate {name}"] = ["simulate", scenario, "--seed", "0", "--deterministic",
                                        "--out", str(tmp / name)]
            runs[f"steady {name}"] = ["steady", scenario, y_t]
        for label, command in runs.items():
            r = run_command(root, command, tmp)
            line = (f"{label}: exit {r['exit']}, wall {r['wall_s']:.3f} s, "
                    f"peak RSS {r['peak_rss_mb']:.1f} MB, "
                    f"scipy subpackages: {', '.join(r['scipy']) or 'none'}")
            if r["loops"]:
                line += (f"; modules loaded in {r['loops']} closed loop(s) after step 0: "
                         f"{', '.join(r['loaded_in_loop']) or 'none'}")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
