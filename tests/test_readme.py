"""The README's Python examples run as written, and its sim-CSV column
block is the header the log writes."""

import dataclasses
import re
from pathlib import Path

from riskcbf import ExpectedRisk, load_config, run

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
    scenario = load_config(README.parent / "configs" / "single_obstacle.cfg").scenario(ExpectedRisk())
    assert len(scenario.obstacles) == 1
    run(dataclasses.replace(scenario, t_max=0.1)).to_csv(tmp_path / "log.csv")
    header = (tmp_path / "log.csv").read_text(encoding="utf-8").splitlines()[0].split(",")
    assert documented == header
