"""Write every output the shipped commands make for one checkout, for a byte diff.

    python3 tools/shipped_outputs.py --root <checkout> <out_dir>

imports ``koopmpc`` from ``<checkout>/src`` in this process, with BLAS pinned to
one thread, and writes into ``<out_dir>``:

* ``tighten/<scenario>.json``: the ``koopmpc tighten`` schedule of each shipped scenario;
* ``simulate/<scenario>/``: ``koopmpc simulate --deterministic`` logs and metrics,
  a1 seeds 0..4, a2 seeds 0..9 and the unicycle seeds 0..2 (it halts at step 29);
* ``steady/<scenario>.txt``: the stdout of ``koopmpc steady`` (a1 1.5, a2 1.5,
  unicycle 2.0,3.0);
* ``exit_codes.txt``: each command's exit code.

Two checkouts give the same outputs when ``diff -r`` of their directories is empty.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

SCENARIOS = {"a1": ("0..4", "1.5"), "a2": ("0..9", "1.5"), "unicycle_square": ("0..2", "2.0,3.0")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, required=True, help="the checkout to run")
    parser.add_argument("out_dir", type=Path)
    args = parser.parse_args(argv)
    root, out = args.root.resolve(), args.out_dir
    sys.path.insert(0, str(root / "src"))
    from koopmpc import cli

    if not Path(cli.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"koopmpc was imported from {cli.__file__}, not from {root}")
    for sub in ("tighten", "simulate", "steady"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    codes = []
    for name, (seeds, y_t) in SCENARIOS.items():
        scenario = str(root / "scenarios" / f"{name}.json")
        runs = {"tighten": ["tighten", scenario, str(out / "tighten" / f"{name}.json")],
                "simulate": ["simulate", scenario, "--seeds", seeds, "--deterministic",
                             "--out", str(out / "simulate" / name)],
                "steady": ["steady", scenario, y_t]}
        for command, argv_ in runs.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv_)
            if command == "steady":
                (out / "steady" / f"{name}.txt").write_text(stdout.getvalue())
            codes.append(f"{command} {name}: {code}\n")
    (out / "exit_codes.txt").write_text("".join(codes))
    print(f"wrote the outputs of {root} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
