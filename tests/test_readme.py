"""The README's Python examples run as written, its sim-CSV column block
is the header the log writes, and its margin keys are the ones
`feasibility` writes."""

import dataclasses
import json
import re
from pathlib import Path

from riskcbf import ExpectedRisk, load_config, simulate
from riskcbf.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(monkeypatch):
    # every ```python block, in order, in one namespace, from the repo
    # root; line numbers in a traceback are the README's
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL))
    assert blocks
    monkeypatch.chdir(README.parent)
    namespace = {}
    for block in blocks:
        padding = "\n" * text.count("\n", 0, block.start(1))
        exec(compile(padding + block.group(1), str(README), "exec"), namespace)


def test_readme_sim_csv_columns_match_the_log(tmp_path):
    # the column block names obstacle 0's columns and elides the rest
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^Simulation logs \(CSV\).*?^```\n(.*?)^```", text, re.MULTILINE | re.DOTALL).group(1)
    documented = [c for c in re.split(r"[,\s]+", block.strip()) if c != "..."]
    scenario = load_config(README.parent / "configs" / "single_obstacle.cfg").scenario()
    assert len(scenario.obstacles) == 1
    (log,) = simulate(dataclasses.replace(scenario, t_max=0.1), [ExpectedRisk()])
    log.to_csv(tmp_path / "log.csv")
    header = (tmp_path / "log.csv").read_text(encoding="utf-8").splitlines()[0].split(",")
    assert documented == header


def test_readme_margin_keys_match_feasibility(tmp_path):
    # the keys of the margins.<label> bullet, outside its parentheses
    text = README.read_text(encoding="utf-8")
    bullet = re.search(r"^\s*- `margins\.<label>`:(.*?);$", text, re.MULTILINE | re.DOTALL).group(1)
    documented = re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", bullet))
    config = README.parent / "configs" / "single_obstacle.cfg"
    assert main(["feasibility", "--config", str(config), "--spec", "er", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "feasibility.json").read_text(encoding="utf-8"))
    assert all(documented == list(state["margins"]["er"]) for state in report["states"])
