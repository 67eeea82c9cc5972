"""Seeded scenario mutation: every malformed scenario ends in a documented exit code.

Each case takes a shipped scenario, made small (T <= 3, and N, n_traj and
traj_len capped at 50), sets one of its leaves to one of 26 fixed values or
deletes it, and runs ``tighten`` or ``simulate`` through ``cli.main``
in-process. Every outcome must be an exit code in {0, 2, 3, 4, 5, 6}: no
exception may escape ``main``.
"""

import json
import random
from pathlib import Path

import pytest

from koopmpc.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
CASES_PER_SCENARIO = 100
EXIT_CODES = {0, 2, 3, 4, 5, 6}
DELETE = object()
# 10**400 as T, N, n_traj or traj_len is refused by the size check of
# build_stack; no other value is a count that passes and runs long.
VALUES = [
    None, True, False, 0, -1, 1, 2, 2.5, -0.5, 50, 10**400, 1e-12, 1e308, -1e308,
    float("inf"), float("-inf"), float("nan"), -10**400, "1", "nan", "",
    {}, [], [[]], [0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]],
]
SIZE_KEYS = {"N", "n_traj", "traj_len"}


def small(doc):
    """``doc`` with T at most 3 and every size key at most 50."""
    doc["T"] = min(doc["T"], 3)

    def cap(node):
        for key, value in node.items():
            if isinstance(value, dict):
                cap(value)
            elif key in SIZE_KEYS:
                node[key] = min(value, 50)

    cap(doc)
    return doc


def leaves(node, path=()):
    """The path of every scalar in ``node``, through objects and lists."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, value in items for leaf in leaves(value, path + (key,))]


def mutated(doc, path, value):
    """A copy of ``doc`` with the leaf at ``path`` set to ``value``, or removed."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    node = doc
    for part in parents:
        node = node[part]
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    return doc


# A mutated plant parameter or box may overflow the training rollouts; the
# data check then rejects them, so numpy's overflow warnings are expected.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["a1", "a2", "unicycle_square"])
def test_every_mutated_scenario_exits_with_a_documented_code(tmp_path, capsys, name):
    base = small(json.loads((SCENARIOS / f"{name}.json").read_text()))
    paths = leaves(base)
    draw = random.Random(f"scenario-mutation:{name}")
    escaped = []
    for i in range(CASES_PER_SCENARIO):
        path = draw.choice(paths)
        value = draw.choice(VALUES + [DELETE])
        command = draw.choice(["tighten", "simulate"])
        scenario = tmp_path / f"case{i}.json"
        scenario.write_text(json.dumps(mutated(base, path, value)))
        argv = ([command, str(scenario), str(tmp_path / f"schedule{i}.json")]
                if command == "tighten" else
                [command, str(scenario), "--out", str(tmp_path / f"run{i}"), "--deterministic"])
        shown = "<deleted>" if value is DELETE else repr(value)
        case = f"{command} {'.'.join(map(str, path))} = {shown}"
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape is the failure being looked for
            escaped.append(f"{case}: {type(exc).__name__}: {exc}")
            continue
        finally:
            capsys.readouterr()
        if code not in EXIT_CODES:
            escaped.append(f"{case}: exit {code!r}")
    assert escaped == []
