"""The README's examples run as written: its Python block executes, and its
JSON blocks load as a network file and a scenario file."""
import json
import re
from pathlib import Path

from neva import load_network, load_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language) -> list:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_the_python_example_runs():
    (code,) = _blocks("python")
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["least"].kind == "least" and namespace["least"].converged
    assert namespace["least"].solution.tolist() == namespace["report"].solution.tolist()


def test_the_json_examples_load(tmp_path):
    network, scenario = _blocks("json")
    path = tmp_path / "network.json"
    path.write_text(network, encoding="utf-8")
    assert load_network(path).bank_ids == tuple(
        bank["id"] for bank in json.loads(network)["banks"])
    path = tmp_path / "scenario.json"
    path.write_text(scenario, encoding="utf-8")
    assert load_scenario(path).kind == json.loads(scenario)["scenario"]["kind"]
