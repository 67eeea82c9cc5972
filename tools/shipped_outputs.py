"""Write every output the shipped commands make for one checkout, for a byte diff.

    python3 tools/shipped_outputs.py --root <checkout> <out_dir> [--compare <dir>]

imports ``koopmpc`` from ``<checkout>/src`` in this process, with BLAS pinned to
one thread, and writes into ``<out_dir>``:

* ``tighten/<scenario>.json``: the ``koopmpc tighten`` schedule of each shipped scenario;
* ``simulate/<scenario>/``: ``koopmpc simulate --deterministic`` logs and metrics,
  a1 seeds 0..4, a2 seeds 0..9 and the unicycle seeds 0..2 (it halts at step 29);
* ``steady/<scenario>.txt``: the stdout of ``koopmpc steady``, the lifted model's
  steady target and the plant's residual at it (a1 1.5, a2 1.5, unicycle 2.0,3.0);
* ``exit_codes.txt``: each command's exit code.

Two checkouts give the same outputs when ``diff -r`` of their directories is empty.
With ``--compare <dir>`` the script then compares ``<out_dir>`` with ``<dir>``
(the outputs of another checkout): it exits 1 naming the first file that
differs, with its first differing line for a text file, and 0 when none does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import os
import sys
from pathlib import Path

SCENARIOS = {"a1": ("0..4", "1.5"), "a2": ("0..9", "1.5"), "unicycle_square": ("0..2", "2.0,3.0")}


def first_difference(new: Path, old: Path) -> str | None:
    """The first file, in sorted path order, that differs between the
    directory trees ``new`` and ``old``, or that only one of them has, with its
    first differing line when both are text; None when the trees are equal."""
    files = sorted({p.relative_to(d) for d in (new, old) for p in d.rglob("*") if p.is_file()})
    for name in files:
        a, b = new / name, old / name
        if not (a.is_file() and b.is_file()):
            return f"{name}: only in {a.parent if a.is_file() else b.parent}"
        got, want = a.read_bytes(), b.read_bytes()
        if got == want:
            continue
        try:
            lines = itertools.zip_longest(got.decode().splitlines(keepends=True),
                                          want.decode().splitlines(keepends=True))
        except UnicodeDecodeError:
            return f"{name}: binary files differ"
        number, line, was = next((i, x, y) for i, (x, y) in enumerate(lines, 1) if x != y)
        return f"{name}:{number}: {line!r} in {new}, {was!r} in {old}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, required=True, help="the checkout to run")
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--compare", type=Path, metavar="DIR",
                        help="then compare out_dir with DIR; exit 1 at the first difference")
    args = parser.parse_args(argv)
    if args.compare is not None and not args.compare.is_dir():
        parser.error(f"--compare: {args.compare} is not a directory")
    root, out = args.root.resolve(), args.out_dir
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported, with koopmpc
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
    if args.compare is not None:
        if (difference := first_difference(out, args.compare)) is not None:
            print(f"differs from {args.compare}: {difference}", file=sys.stderr)
            return 1
        print(f"same as {args.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
