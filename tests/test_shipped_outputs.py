"""``tools/shipped_outputs.py --compare``: the first difference between two
output trees, on small synthetic trees (a full run of the tool is not needed)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "shipped_outputs.py"


@pytest.fixture(scope="module")
def first_difference():
    spec = importlib.util.spec_from_file_location("shipped_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.first_difference


def write_tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


TREE = {"exit_codes.txt": b"tighten a1: 0\nsimulate a1: 0\n",
        "simulate/a1/log_seed0.csv": b"k,x0,u0\n0,0.5,-1.25\n1,0.25,-0.75\n",
        "steady/a1.txt": b"y_s = 1.5\n"}


def test_equal_trees_have_no_difference(tmp_path, first_difference):
    new, old = write_tree(tmp_path / "new", TREE), write_tree(tmp_path / "old", TREE)
    assert first_difference(new, old) is None


def test_one_changed_byte_names_the_file_and_its_line(tmp_path, first_difference):
    changed = dict(TREE)
    changed["simulate/a1/log_seed0.csv"] = TREE["simulate/a1/log_seed0.csv"].replace(b"0.25", b"0.26")
    new, old = write_tree(tmp_path / "new", changed), write_tree(tmp_path / "old", TREE)
    assert first_difference(new, old) == (
        f"simulate/a1/log_seed0.csv:3: '1,0.26,-0.75\\n' in {new}, '1,0.25,-0.75\\n' in {old}")


@pytest.mark.parametrize("files, named", [
    ({"steady/a1.txt": b"y_s = 1.5\n", "steady/a2.txt": b"y_s = 1.5\n"}, "steady/a2.txt: only in"),
    ({"exit_codes.txt": b"tighten a1: 0\n"}, "exit_codes.txt:2: None in"),
    ({"exit_codes.txt": b"\xff" + TREE["exit_codes.txt"]}, "exit_codes.txt: binary files differ"),
], ids=["extra-file", "shorter-file", "binary"])
def test_other_differences_are_named(tmp_path, first_difference, files, named):
    new = write_tree(tmp_path / "new", {**TREE, **files})
    old = write_tree(tmp_path / "old", TREE)
    assert first_difference(new, old).startswith(named)
