import json
import re
from pathlib import Path

import pytest

from koopmpc import cli

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run_in_order(monkeypatch):
    """The README's ```python blocks run as written, in order, in one
    namespace, from the repository root (where its scenario paths resolve)."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    monkeypatch.chdir(ROOT)
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def readme_scenario_schema() -> dict:
    """The README's "Scenario schema" block, with its ``//`` comments stripped
    and each ``{...}`` read as ``{}``."""
    block = re.search(r"^## Scenario schema.*?^```jsonc\n(.*?)^```$",
                      (ROOT / "README.md").read_text(), re.DOTALL | re.MULTILINE).group(1)
    return json.loads(re.sub(r"//.*$", "", block, flags=re.MULTILINE).replace("{...}", "{}"))


class Validated(Exception):
    """Raised in place of generating training data: the scenario passed every check before it."""


def test_readme_scenario_schema_matches_the_validator(tmp_path, monkeypatch):
    """The schema's top-level, ``controller`` and ``controller.lqr`` keys are
    the ones a scenario may give, its lifting passes as written, and its
    disturbance keys are the ones ``build_stack`` takes."""
    schema = readme_scenario_schema()
    assert set(schema) == cli._SCENARIO_KEYS
    assert set(schema["controller"]) == cli._CONTROLLER_KEYS
    assert set(schema["controller"]["lqr"]) == cli._LQR_KEYS
    cli._lifting(schema["lifting"], 2)
    # Each of the schema's disturbance keys, holding a2's declared sets, in a2.
    sc = json.loads((ROOT / "scenarios" / "a2.json").read_text())
    sc["disturbance"] = {key: sc["disturbance"]["declared"] for key in schema["disturbance"]}
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(sc))

    def generate(*args, **kwargs):
        raise Validated

    monkeypatch.setattr(cli, "generate_training_data", generate)
    with pytest.raises(Validated):
        cli.build_stack(path)
