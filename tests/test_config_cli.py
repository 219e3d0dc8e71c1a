import ast
import dataclasses
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskcbf.barrier
import riskcbf.cli
import riskcbf.config
import riskcbf.field
from riskcbf.barrier import barrier_constraint, feasibility_margin
from riskcbf.cli import main
from riskcbf.config import ConfigError, load_config
from riskcbf.risk import CPT, CVaR, ExpectedRisk, spec_label
from riskcbf.sim import nominal_control, obstacle_motion
from test_field import read_grid_csv, unit_evaluations
from test_golden import DIGESTS, cpu_note, golden_or_skip

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


# --- config parsing ------------------------------------------------------------


def test_shipped_configs_load():
    for name in ("single_obstacle.cfg", "multi_obstacle.cfg", "field_default.cfg"):
        cfg = load_config(CONFIGS / name)
        assert cfg.field_params().k1 == 200.0
        assert cfg.specs()


def test_spec_list_parsing():
    cfg = load_config(CONFIGS / "single_obstacle.cfg")
    specs = cfg.specs()
    assert CPT(0.74, 1.0, 0.88, 1.5) in specs
    assert CVaR(0.4) in specs
    assert ExpectedRisk() in specs


def write_cfg(tmp_path, text):
    path = tmp_path / "test.cfg"
    path.write_text(text)
    return path


def line_of(text, part):
    """1-based number of the line of text that holds part."""
    return text[: text.index(part)].count("\n") + 1


MINIMAL_FIELD = """
[field]
k1 = 200.0
k2 = 0.01
r_bar = 0.5

[risk]
specs = er

[grid]
xmin = 0.0
xmax = 15.0
ymin = 0.0
ymax = 15.0
nx = 20
ny = 20
source = 10.0, 10.0
"""


def test_unknown_key_reports_line(tmp_path, capsys):
    path = write_cfg(tmp_path, "[field]\nk1 = 200.0\nk2 = 0.01\nr_bar = 0.5\nbogus = 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert ":5:" in str(err.value)
    assert "bogus" in str(err.value)
    # an older config that still sets the CVaR convention fails loudly
    path = write_cfg(tmp_path, MINIMAL_FIELD.replace("specs = er\n", "specs = er\ncvar_convention = paper\n"))
    code = main(["field", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    message = capsys.readouterr().err
    assert "unknown key 'cvar_convention'" in message
    assert ":9:" in message


def test_unknown_section_reports_line(tmp_path):
    path = write_cfg(tmp_path, "[field]\nk1 = 1.0\nk2 = 1.0\nr_bar = 0.0\n\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert ":6:" in str(err.value)


def test_duplicate_key_rejected(tmp_path):
    path = write_cfg(tmp_path, "[field]\nk1 = 1.0\nk1 = 2.0\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert ":3:" in str(err.value)


def test_invalid_value_reports_line_and_key(tmp_path):
    path = write_cfg(tmp_path, MINIMAL_FIELD.replace("k2 = 0.01", "k2 = -0.5"))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "field.k2" in str(err.value)


def test_bad_spec_string_reports_line(tmp_path):
    path = write_cfg(tmp_path, MINIMAL_FIELD.replace("specs = er", "specs = cvar(2.0)"))
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_section_flagged(tmp_path):
    path = write_cfg(tmp_path, MINIMAL_FIELD)
    cfg = load_config(path)
    with pytest.raises(ConfigError) as err:
        cfg.scenario()
    assert "[agent]" in str(err.value)


def test_key_outside_section_rejected(tmp_path):
    path = write_cfg(tmp_path, "k1 = 1.0\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert ":1:" in str(err.value)


# --- CLI -----------------------------------------------------------------------


def test_cli_field_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["field", "--config", str(CONFIGS / "field_default.cfg"), "--spec", "er"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("c_mu.csv", "c_sigma.csv", "risk_er.csv", "safe_er.csv", "levelset_er.json"):
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # the ER risk grid is exactly the mean-cost grid
    assert (out1 / "risk_er.csv").read_bytes() == (out1 / "c_mu.csv").read_bytes()


def test_cli_field_level_sets_are_circles_in_the_cell_center_window(tmp_path):
    assert main(["field", "--config", str(CONFIGS / "field_default.cfg"), "--out", str(tmp_path)]) == 0
    cfg = load_config(CONFIGS / "field_default.cfg")
    (xmin, xmax, ymin, ymax), (nx, ny), source = cfg.grid_geometry()
    dx, dy = (xmax - xmin) / nx, (ymax - ymin) / ny
    files = sorted(tmp_path.glob("levelset_*.json"))
    assert len(files) == len(cfg.specs())
    n_polylines = 0
    for path in files:
        for poly in json.loads(path.read_text()):
            pts = np.array(poly)
            r = np.linalg.norm(pts - np.asarray(source), axis=1)
            assert r.max() - r.min() <= 1e-12 * r.max(), path.name
            assert (pts >= (xmin + 0.5 * dx, ymin + 0.5 * dy)).all(), path.name
            assert (pts <= (xmin + (nx - 0.5) * dx, ymin + (ny - 0.5) * dy)).all(), path.name
            n_polylines += 1
    assert n_polylines > len(files) // 2


def test_cli_field_json_format(tmp_path):
    out = tmp_path / "json_out"
    code = main(
        [
            "field",
            "--config",
            str(CONFIGS / "field_default.cfg"),
            "--spec",
            "er",
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads((out / "risk_er.json").read_text())
    assert payload["resolution"] == [150, 150]
    assert (out / "risk_er.json").read_bytes() == (out / "c_mu.json").read_bytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("existed", [False, True])
def test_cli_field_that_fails_removes_only_an_out_it_created(tmp_path, monkeypatch, capsys, existed):
    # every share fails at its first level set, after it wrote some grids
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def failing_level_set(*a):
        raise RuntimeError("level set failed")

    monkeypatch.setattr(riskcbf.cli, "level_set", failing_level_set)
    out = tmp_path / "field"
    if existed:
        out.mkdir()
        (out / "kept.txt").write_text("kept\n")
    assert main(["field", "--config", str(CONFIGS / "field_default.cfg"), "--out", str(out)]) == 3
    assert "level set failed" in capsys.readouterr().err
    assert_no_child_left()
    if existed:
        # left as it is: what was there and what the run wrote before it failed
        assert (out / "kept.txt").read_text() == "kept\n"
        assert (out / "c_mu.csv").is_file() and (out / "risk_er.csv").is_file()
    else:
        assert not out.exists()


def test_cli_field_joins_its_writers(tmp_path, monkeypatch, capsys):
    args = ["field", "--config", str(CONFIGS / "field_default.cfg")]
    assert main([*args, "--out", str(tmp_path / "ok")]) == 0
    assert_no_child_left()
    assert len(list((tmp_path / "ok").glob("risk_*.csv"))) == 14

    # an error in the parent while writers run still joins every one
    level_set = riskcbf.cli.level_set
    calls = []

    def failing_level_set(*a):
        calls.append(a)
        if len(calls) == 3:
            raise RuntimeError("level set failed")
        return level_set(*a)

    monkeypatch.setattr(riskcbf.cli, "level_set", failing_level_set)
    assert main([*args, "--out", str(tmp_path / "failed")]) == 3
    assert "level set failed" in capsys.readouterr().err
    assert_no_child_left()


@pytest.mark.parametrize("stem", ["risk_er", "c_sigma", "risk_cvar_q0p1"])
def test_cli_field_reports_a_grid_it_cannot_write(tmp_path, capsys, stem):
    # every share writes its own grids, risk_er's included; with two or
    # more usable CPUs, c_sigma and some specs are written by forked children
    out = tmp_path / "o"
    (out / f"{stem}.csv").mkdir(parents=True)
    assert main(["field", "--config", str(CONFIGS / "field_default.cfg"), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and stem in err
    assert_no_child_left()


def test_cli_field_writes_no_infinity_into_json(tmp_path, capsys, monkeypatch):
    # at k1 = 1e308 the CPT grids overflow to inf: rasterize refuses such a
    # grid and names its spec, so field, in every format, and audit exit 3
    # before writing that spec's files or audit.json. The error is the one
    # line on stderr: no NumPy overflow warning comes before it (under this
    # suite's filterwarnings = error, one would replace the message).
    text = (CONFIGS / "field_default.cfg").read_text()
    edits = [("nx = 150", "nx = 10"), ("ny = 150", "ny = 10")]
    edits.append((text[text.index("specs = "): text.index("\n", text.index("specs = "))],
                  "specs = er, cpt(0.74, 1.0, 1.0, 3.5)"))
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    assert text.count("k1 = 200.0") == 1
    finite = tmp_path / "finite.cfg"
    finite.write_text(text)
    cfg = write_cfg(tmp_path, text.replace("k1 = 200.0", "k1 = 1e308"))
    for fmt in ("both", "csv", "json"):
        out = tmp_path / fmt
        out.mkdir()  # kept after the failure, so a file written before it would show
        assert main(["field", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 3
        assert capsys.readouterr().err == "error: the risk grid of cpt_a0p74_b1_g1_l3p5 holds a non-finite value\n"
        assert not list(out.glob("*_cpt_a0p74_b1_g1_l3p5.*"))
    (tmp_path / "audit").mkdir()
    assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "audit")]) == 3
    assert capsys.readouterr().err == "error: the risk grid of cpt_a0p74_b1_g1_l2 holds a non-finite value\n"
    assert not (tmp_path / "audit" / "audit.json").exists()
    assert_no_child_left()

    # an inf that does reach the writers: the CSV grid is written, the
    # JSON writer refuses it, and the error names the file, not its stem
    rasterize = riskcbf.cli.rasterize

    def rasterize_with_inf(spec, *args):
        grid = rasterize(spec, *args)
        if not isinstance(spec, CPT):
            return grid
        values = grid.values.copy()
        values[0, 0] = math.inf
        return dataclasses.replace(grid, values=values)

    monkeypatch.setattr(riskcbf.cli, "rasterize", rasterize_with_inf)
    out = tmp_path / "unchecked"
    out.mkdir()  # kept after the failure, so the CSV written before it can be read
    assert main(["field", "--config", str(finite), "--out", str(out), "--format", "both"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: writing risk_cpt_a0p74_b1_g1_l3p5.json: ") and "not JSON compliant" in err
    assert not (out / "risk_cpt_a0p74_b1_g1_l3p5.json").exists()
    _, values = read_grid_csv(out / "risk_cpt_a0p74_b1_g1_l3p5.csv")
    assert np.isposinf(values).sum() == 1 and np.isfinite(values).sum() == values.size - 1
    assert_no_child_left()


def test_console_script_is_the_cli_main():
    # the README runs the installed `riskcbf` command, while the tests import
    # the package from src/, so only this check reads [project.scripts]
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(REPO / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"riskcbf": "riskcbf.cli:main"}
    module, attr = scripts["riskcbf"].split(":")
    assert getattr(importlib.import_module(module), attr) is riskcbf.cli.main


def test_cli_field_children_flush_no_parent_output(tmp_path):
    # stdout to a pipe is block-buffered: a child that flushed the
    # parent's buffer on exit would repeat lines printed before its fork
    package_root = str(Path(riskcbf.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-m", "riskcbf", "field", "--config", str(CONFIGS / "field_default.cfg"),
         "--out", str(tmp_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
        env={**env, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    labels = [spec_label(spec) for spec in load_config(CONFIGS / "field_default.cfg").specs()]
    assert proc.stdout.splitlines() == [f"field: wrote grids for {label}" for label in labels]


def assert_golden_field_outputs(out):
    """Assert that out holds the golden files of field_default's field
    run; skip where the digests are for another host."""
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    header, digests = golden_or_skip(DIGESTS)
    prefix = "field_default/field/"
    golden = {name[len(prefix):]: digest for name, digest in digests.items() if name.startswith(prefix)}
    assert written == golden, cpu_note(header)


@pytest.mark.parametrize("cpus", [None, 1, 3])
def test_cli_field_forks_one_writer_per_extra_cpu(tmp_path, monkeypatch, cpus):
    # None: the usable CPUs of this host; 3 is more than this host may have
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    usable = len(os.sched_getaffinity(0))
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    out = tmp_path / "field"
    argv = ["field", "--config", str(CONFIGS / "field_default.cfg"), "--out", str(out), "--format", "both"]
    assert main(argv) == 0
    assert_no_child_left()
    # 16 tasks: c_mu, c_sigma and the 14 specs
    assert len(forks) == min(usable, 16) - 1
    # ER's values have c_mu's bits, so its files have c_mu's bytes, also
    # when a child writes them: at 3 CPUs, ER (task 2) is the second child's
    for suffix in ("csv", "json"):
        assert (out / f"risk_er.{suffix}").read_bytes() == (out / f"c_mu.{suffix}").read_bytes()
    assert_golden_field_outputs(out)


def test_cli_field_without_sched_getaffinity_writes_in_one_process(tmp_path, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity: field then forks nothing
    monkeypatch.delattr(os, "sched_getaffinity")

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    out = tmp_path / "field"
    argv = ["field", "--config", str(CONFIGS / "field_default.cfg"), "--out", str(out), "--format", "both"]
    assert main(argv) == 0
    assert_golden_field_outputs(out)


def test_cli_simulate_single_spec(tmp_path):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--config",
            str(CONFIGS / "single_obstacle.cfg"),
            "--spec",
            "cvar_q0p4",
            "--out",
            str(out),
            "--format",
            "both",
        ]
    )
    assert code == 0
    assert (out / "sim_cvar_q0p4.csv").exists()
    payload = json.loads((out / "sim_cvar_q0p4.json").read_text())
    assert payload["summary"]["reached_goal"] is True
    assert payload["summary"]["min_h"] >= 0.0


def test_cli_simulate_unsafe_start_names_the_specs_and_writes_nothing(tmp_path, capsys):
    # every lane is checked at the first step, before any log is written
    text = (CONFIGS / "multi_obstacle.cfg").read_text()
    assert text.count("start = -15.0, -15.0") == 1
    cfg = write_cfg(tmp_path, text.replace("start = -15.0, -15.0", "start = -16.0, 0.5"))
    out = tmp_path / "sim"
    out.mkdir()
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error: scenario starts perceived unsafe for cpt_a0p74_b1_g0p88_l2p25 (h_min = -46.0407)" in err
    assert ", er (h_min = " in err
    assert list(out.iterdir()) == []


def test_cli_simulate_gamma_zero_lane_beside_a_far_obstacle(tmp_path, capsys):
    # the obstacle rests about r = 270 from the agent, where c_mu is
    # subnormal: the gamma = 0 lane's constraint row is (h, 0, -eta * h),
    # not nan, and the run neither warns nor fails
    text = (CONFIGS / "single_obstacle.cfg").read_text()
    specs = next(line for line in text.splitlines() if line.startswith("specs = "))
    for old, new in (("start = 13.0, 13.0\ngoal = 2.0, 3.0", "start = 275.0, 2.0\ngoal = 275.0, 2.0"),
                     (specs, "specs = cpt(0.74, 1.0, 0.0, 2.0), er")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = (out / "summary.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in summary[1:]] == [["cpt_a0p74_b1_g0_l2", "1"], ["er", "1"]]


def _summary_row(summary):
    """A sim JSON summary as its summary.csv row would print it."""
    return [
        summary["label"],
        "1" if summary["reached_goal"] else "0",
        "" if summary["goal_time"] is None else f"{summary['goal_time']:.17g}",
        f"{math.inf if summary['min_h'] is None else summary['min_h']:.17g}",
        f"{summary['total_deviation']:.17g}",
        f"{summary['max_delta']:.17g}",
        str(summary["feasibility_violations"]),
        str(summary["steps"]),
    ]


def test_cli_simulate_summary_table(tmp_path):
    out = tmp_path / "sweep"
    code = main(
        [
            "simulate",
            "--config",
            str(CONFIGS / "single_obstacle.cfg"),
            "--spec",
            "cvar",
            "--out",
            str(out),
            "--format",
            "both",
        ]
    )
    assert code == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 7  # header + six cvar specs
    rows = [line.split(",") for line in lines[1:]]
    assert sorted(p.name for p in out.glob("sim_*.json")) == sorted(
        f"sim_{row[0]}.json" for row in rows
    )
    for row in rows:
        summary = json.loads((out / f"sim_{row[0]}.json").read_text())["summary"]
        assert row == _summary_row(summary)


@pytest.fixture
def rasterize_calls(monkeypatch):
    """The key of every grid that rasterize evaluates (unit_evaluations)."""
    return unit_evaluations(monkeypatch)


def test_cli_field_rasterizes_specs_that_differ_only_in_lambda_once(tmp_path, monkeypatch, rasterize_calls):
    # one usable CPU: every call is made, and counted, in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["field", "--config", str(CONFIGS / "field_default.cfg"), "--out", str(tmp_path)]) == 0
    # ER and 6 CVaR, plus 3 CPT (alpha, beta, gamma) groups at lambda = 1:
    # the five consecutive cpt(0.74, 1.0, 0.95, lambda) specs share one
    assert len(rasterize_calls) == 10
    assert set(rasterize_calls) == {
        ExpectedRisk(),
        *(CVaR(q) for q in (0.001, 0.1, 0.4, 0.8, 0.95, 0.999)),
        *(CPT(0.74, 1.0, g, 1.0) for g in (0.95, 0.45, 0.88)),
    }
    assert len(list(tmp_path.glob("risk_*.csv"))) == 14


def test_cli_audit(tmp_path, rasterize_calls):
    out = tmp_path / "audit"
    code = main(
        ["audit", "--config", str(CONFIGS / "field_default.cfg"), "--out", str(out)]
    )
    assert code == 0
    # one grid per distinct ER/CVaR spec (ER and 7 CVaR) and per distinct
    # CPT (alpha, beta, gamma): the 6 gammas of the gamma-major 6 x 5
    # family and the 2 extremes
    assert len(rasterize_calls) == 16
    assert len(set(rasterize_calls)) == 16
    assert sum(isinstance(spec, CPT) for spec in rasterize_calls) == 8
    report = json.loads((out / "audit.json").read_text())
    assert report["inclusiveness"]["cpt_vs_cvar"]["verdict"] == "strictly more inclusive"
    assert report["inclusiveness"]["cpt_vs_er"]["verdict"] == "strictly more inclusive"
    assert report["inclusiveness"]["cvar_vs_er"]["verdict"] in (
        "more inclusive",
        "strictly more inclusive",
    )
    assert report["versatility"]["cpt"]["achieved"]
    assert all(report["versatility"]["cpt"]["achieved"])


def test_cli_audit_verdicts_do_not_move_with_m(tmp_path):
    # m moves CVaR's gain by up to 3 % (test_risk's continuous oracle), and
    # with it the witness counts: cvar_vs_er has 1356 risky witnesses at
    # m = 10, 1388 at m = 20 and 1404 at m = 40 and 160, cpt_vs_cvar 21063,
    # 21031, 21015 and 21015. No verdict or versatility interval moves.
    text = (CONFIGS / "field_default.cfg").read_text()
    assert text.count("\nm = 10\n") == 1
    reports = []
    for m in (10, 40):
        cfg = write_cfg(tmp_path, text.replace("\nm = 10\n", f"\nm = {m}\n"))
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / f"m{m}")]) == 0
        reports.append(json.loads((tmp_path / f"m{m}" / "audit.json").read_text()))
    at_10, at_40 = reports
    assert at_40["inclusiveness"]["cvar_vs_er"]["risky_witnesses"] == 1404
    for pair, entry in at_10["inclusiveness"].items():
        assert entry["verdict"] == at_40["inclusiveness"][pair]["verdict"], pair
    for family, entry in at_10["versatility"].items():
        assert entry["interval"] == at_40["versatility"][family]["interval"], family


def grid_moment_calls(monkeypatch, shape) -> list:
    """A list that gets one entry per field._moments call on a grid of
    shape from now on, with the cached grid moments cleared."""
    riskcbf.field._grid_moments.cache_clear()
    riskcbf.field._unit_risk.cache_clear()
    moments, calls = riskcbf.field._moments, []

    def counting_moments(params, r2):
        if np.shape(r2) == shape:
            calls.append(params)
        return moments(params, r2)

    monkeypatch.setattr(riskcbf.field, "_moments", counting_moments)
    return calls


@pytest.mark.parametrize("levels", ["30, 60, 90", ""])
def test_cli_audit_samples_the_mean_cost_grid_once(tmp_path, monkeypatch, levels):
    # the cost range, all 40 rasterize calls (16 evaluate a grid) and the
    # levels read one sample
    text = (CONFIGS / "field_default.cfg").read_text()
    old = "levels = 30, 60, 90, 120, 150, 180, 199"
    assert text.count(old) == 1
    cfg = write_cfg(tmp_path, text.replace(old, f"levels = {levels}" if levels else ""))
    calls = grid_moment_calls(monkeypatch, (150, 150))
    assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_cli_field_samples_the_cost_moments_once(tmp_path, monkeypatch):
    # one usable CPU: the two cost grids and all 14 rasterize calls run here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = grid_moment_calls(monkeypatch, (150, 150))
    assert main(["field", "--config", str(CONFIGS / "field_default.cfg"), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_cli_feasibility(tmp_path):
    out = tmp_path / "feas"
    code = main(
        [
            "feasibility",
            "--config",
            str(CONFIGS / "single_obstacle.cfg"),
            "--out",
            str(out),
            "--seed",
            "7",
        ]
    )
    assert code == 0
    report = json.loads((out / "feasibility.json").read_text())
    assert report["states"]
    state = report["states"][0]
    assert "er" in state["margins"]
    assert state["margins"]["er"]["eta"] is not None
    assert "probe_counts" in state
    # the insensitive CPT members admit at least as many samples as ER
    counts = state["probe_counts"]
    assert counts["cpt_a0p74_b1_g0p785_l2p25"] >= counts["er"]


def test_cli_feasibility_evaluates_all_specs_in_one_call(tmp_path, monkeypatch):
    # one barrier row per spec and state feeds both its margins and its
    # probe, and all specs take all states in one evaluation
    calls = {"nominal": 0, "states": 0, "margins": 0}
    in_run = []
    evaluate, simulate, margin = riskcbf.barrier.evaluate, riskcbf.cli.simulate, riskcbf.cli.feasibility_margin

    def counting_evaluate(*args, **kwargs):
        calls["nominal" if in_run else "states"] += 1
        return evaluate(*args, **kwargs)

    def counting_margin(*args):
        calls["margins"] += 1
        return margin(*args)

    def flagged_run(scenario, specs):
        in_run.append(True)
        try:
            return simulate(scenario, specs)
        finally:
            in_run.pop()

    for module in (riskcbf.barrier, riskcbf.field):
        monkeypatch.setattr(module, "evaluate", counting_evaluate)
    monkeypatch.setattr(riskcbf.cli, "simulate", flagged_run)
    monkeypatch.setattr(riskcbf.cli, "feasibility_margin", counting_margin)
    out = tmp_path / "feas"
    args = ["feasibility", "--config", str(CONFIGS / "multi_obstacle.cfg"), "--out", str(out)]
    assert main(args) == 0
    report = json.loads((out / "feasibility.json").read_text())
    assert len(report["states"]) == 20 and len(report["summary"]) == 9
    assert calls["states"] == 1 and calls["margins"] == 1
    # the nominal path is an obstacle-free run, which evaluates no risk
    assert calls["nominal"] == 0


def test_cli_feasibility_matches_one_state_rows(tmp_path):
    # every state's margins and probe counts are those of a one-state
    # barrier row on that state's point and obstacle, bit for bit; the
    # specs run as lanes, among them gamma = 0.5, where a one-lane power
    # takes NumPy's sqrt path (100 states: at 20, no state's row shows
    # whether the gamma = 0.5 lane took sqrt or pow)
    text = (CONFIGS / "single_obstacle.cfg").read_text()
    assert text.count("cvar(0.999), er\n") == 1 and text.count("n_states = 20") == 1
    text = text.replace("cvar(0.999), er\n", "cvar(0.999), er, cpt(0.74, 1.0, 0.5, 3.0)\n")
    config = write_cfg(tmp_path, text.replace("n_states = 20", "n_states = 100"))
    out = tmp_path / "feas"
    assert main(["feasibility", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "feasibility.json").read_text())
    cfg = load_config(config)
    specs = cfg.specs()
    assert CPT(0.74, 1.0, 0.5, 3.0) in specs and len(report["summary"]) == len(specs) == 16
    scenario = cfg.scenario()
    (obstacle,) = scenario.obstacles
    u_samples = np.random.default_rng(report["seed"]).uniform(
        -report["u_max"], report["u_max"], (report["n_samples"], 2)
    )
    assert len(report["states"]) == cfg.feasibility_settings()["n_states"]
    for state in report["states"]:
        point = np.array(state["point"])
        y, f_y = obstacle_motion(obstacle.start, obstacle.goal, obstacle.speed, state["t"])
        assert state["obstacle"] == y.tolist()
        u_nom = nominal_control(point, scenario.goal, scenario.nominal_gain)
        probes = {}
        for spec in specs:
            h, a, b = barrier_constraint(spec, scenario.field, scenario.barrier, point, y, f_y)
            lhs, eta, feasible, angle_defined = feasibility_margin(h, a, f_y - u_nom, scenario.barrier.eta1_gain)
            finite = math.isfinite(eta)
            assert state["margins"][spec_label(spec)] == {
                "lhs": float(lhs),
                "rhs": -float(eta) if finite else None,
                "eta": float(eta) if finite else None,
                "h": float(h),
                "feasible": bool(feasible),
                "angle_defined": bool(angle_defined),
            }
            probes[spec_label(spec)] = u_samples @ a >= b
            assert state["probe_counts"][spec_label(spec)] == int(np.sum(probes[spec_label(spec)]))
        assert state["er_feasible_not_in"] == {
            label: int(np.sum(probes["er"] & ~probe)) for label, probe in probes.items()
        }


def test_cli_feasibility_without_obstacles_reports_no_fraction(tmp_path, capsys):
    # no state has an obstacle to check, so no fraction of them is feasible
    text = (CONFIGS / "single_obstacle.cfg").read_text()
    start = text.index("[obstacle.1]")
    cfg = write_cfg(tmp_path, text[:start] + text[text.index("\n[", start) + 1 :])
    assert load_config(cfg).scenario().obstacles == ()
    out = tmp_path / "feas"
    assert main(["feasibility", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "feasibility.json").read_text())
    assert report["states"] == []
    assert len(report["summary"]) == len(load_config(cfg).specs())
    for row in report["summary"].values():
        assert row == {"feasible_fraction": None, "mean_eta": None, "min_eta": None}
    assert "nominal-feasible fraction n/a" in capsys.readouterr().out


def test_cli_simulate_builds_the_scenario_once(tmp_path, monkeypatch):
    # one scenario for all 15 specs, which run on it side by side
    calls = {"field_params": 0, "barrier_config": 0, "obstacles": 0}
    for name in calls:
        method = getattr(riskcbf.config.Config, name)

        def counting(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(riskcbf.config.Config, name, counting)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(CONFIGS / "single_obstacle.cfg"), "--out", str(out)]) == 0
    assert len(list(out.glob("sim_*.csv"))) == 15
    assert calls == {"field_params": 1, "barrier_config": 1, "obstacles": 1}


def test_cli_feasibility_nominal_run_with_large_barrier_gain(tmp_path):
    # a large gain on h must not overflow eta1(h) in the filter or the margins
    text = (CONFIGS / "single_obstacle.cfg").read_text()
    assert text.count("eta1_gain = 1.0") == 1
    cfg = write_cfg(tmp_path, text.replace("eta1_gain = 1.0", "eta1_gain = 1e9"))
    for command in ("simulate", "feasibility"):
        assert main([command, "--config", str(cfg), "--spec", "er", "--out", str(tmp_path / command)]) == 0


def test_cli_config_error_exit_code(tmp_path):
    bad = write_cfg(tmp_path, "[field]\nk1 = -5\nk2 = 0.01\nr_bar = 0.5\n")
    code = main(["field", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2


FIELD_SPECS = next(line for line in (CONFIGS / "field_default.cfg").read_text().splitlines() if line.startswith("specs"))
INVALID_REASONS = {
    "k1 = abc": "field.k1: must be a number, got 'abc'",
    "nx = 1.5": "grid.nx: must be an integer, got '1.5'",
    "source = 10.0, 10.0, 1.0": "grid.source: must be two comma-separated numbers, got '10.0, 10.0, 1.0'",
    "include_extremes = maybe": "audit.include_extremes: must be true or false, got 'maybe'",
    "ymax = -1.0": "grid.ymax: must exceed grid.ymin = 0.0, got -1.0",
    "specs = ,": "risk.specs: must list at least one spec",
    "k1 =": "empty value for field.k1",
    "k1 200.0": "expected key = value, got 'k1 200.0'",
}


@pytest.mark.parametrize(
    "name, command, old, new",
    [
        ("field_default.cfg", "field", "k1 = 200.0", "k1 = nan"),
        ("field_default.cfg", "field", "rho = auto", "rho = nan"),
        ("field_default.cfg", "field", "source = 10.0, 10.0", "source = nan, 10.0"),
        ("single_obstacle.cfg", "simulate", "dt = 0.02", "dt = nan"),
        ("field_default.cfg", "audit", "levels = 30,", "levels = inf,"),
        ("field_default.cfg", "audit", "cvar_q = 0.0,", "cvar_q = 1.5,"),
        ("field_default.cfg", "audit", "cpt_gammas = 0.785,", "cpt_gammas = 1.5,"),
        ("field_default.cfg", "audit", "cpt_lambdas = 1.5,", "cpt_lambdas = 0.5,"),
        ("field_default.cfg", "field", "specs = er,", "specs = er, cpt(nan, 1.0, 0.88, 2.0),"),
        ("field_default.cfg", "field", "specs = er,", "specs = er, cpt(0.74, 1.0, 0.88, inf),"),
        # checks of two keys report the line of one of them
        ("field_default.cfg", "field", "xmax = 15.0", "xmax = -1.0"),
        ("single_obstacle.cfg", "simulate", "t_max = 60.0", "t_max = 0.01"),
        ("single_obstacle.cfg", "simulate", "dt = 0.02\nt_max = 60.0", "dt = 100.0\n"),
        ("single_obstacle.cfg", "simulate", "goal = 10.0, 10.0", "goal = 5.0, 2.0"),
        ("single_obstacle.cfg", "simulate", "gain = 0.6, 0.6", "gain = -0.6, -0.6"),
        ("field_default.cfg", "field", "r_bar = 0.5", "r_bar = 1e5"),
        # the reader's own checks, each with its message in INVALID_REASONS
        ("field_default.cfg", "field", "k1 = 200.0", "k1 = abc"),
        ("field_default.cfg", "field", "nx = 150", "nx = 1.5"),
        ("field_default.cfg", "field", "source = 10.0, 10.0", "source = 10.0, 10.0, 1.0"),
        ("field_default.cfg", "audit", "include_extremes = true", "include_extremes = maybe"),
        ("field_default.cfg", "field", "ymax = 15.0", "ymax = -1.0"),
        ("field_default.cfg", "field", FIELD_SPECS, "specs = ,"),
        ("field_default.cfg", "field", "k1 = 200.0", "k1 ="),
        ("field_default.cfg", "field", "k1 = 200.0", "k1 200.0"),
    ],
)
def test_cli_invalid_number_reports_line(tmp_path, capsys, name, command, old, new):
    text = (CONFIGS / name).read_text()
    assert text.count(old) == 1
    text = text.replace(old, new)
    cfg = write_cfg(tmp_path, text)
    selector = [] if command == "audit" else ["--spec", "er"]  # audit runs no configured spec
    code = main([command, "--config", str(cfg), *selector, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert f":{line_of(text, new)}:" in err
    assert INVALID_REASONS.get(new, "") in err


def test_cli_duplicate_section_reports_its_line(tmp_path, capsys):
    text = (CONFIGS / "field_default.cfg").read_text() + "\n[field]\nk1 = 100.0\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["field", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    line = text[: text.rindex("[field]")].count("\n") + 1
    assert capsys.readouterr().err == f"config error: {cfg}:{line}: duplicate section [field]\n"


def test_cli_missing_key_names_no_line(tmp_path, capsys):
    text = (CONFIGS / "field_default.cfg").read_text()
    assert text.count("k2 = 0.01\n") == 1
    cfg = write_cfg(tmp_path, text.replace("k2 = 0.01\n", ""))
    assert main(["field", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: missing key 'k2' in section [field]\n"


@pytest.mark.parametrize("command", ["field", "audit", "simulate", "feasibility"])
def test_cli_k2_is_at_most_one_half(tmp_path, capsys, command):
    # k2 = 0.5 is the largest decay at which no lattice outcome is negative;
    # the next double is a config error on the k2 line, before any output
    name = "field_default.cfg" if command in ("field", "audit") else "multi_obstacle.cfg"
    text = (CONFIGS / name).read_text()
    assert text.count("k2 = 0.01") == 1
    for k2, code in ((0.5, 0), (math.nextafter(0.5, 1.0), 2)):
        cfg = write_cfg(tmp_path, text.replace("k2 = 0.01", f"k2 = {k2!r}"))
        out = tmp_path / f"o{code}"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.splitlines() == [f"config error: {cfg}:{line_of(text, 'k2 = ')}: field.k2: "
                                        f"k2 must be in (0, 0.5], got {k2!r}"]
            assert not out.exists()


EXTREMES_OFF = ("include_extremes = true", "include_extremes = false")


@pytest.mark.parametrize(
    "edits, key",
    [
        ([("cvar_q = 0.0, 0.001, 0.1, 0.4, 0.8, 0.95, 0.999", "cvar_q = ,")], "cvar_q"),
        ([("cpt_gammas = 0.785, 0.79, 0.8, 0.85, 0.9, 1.0", "cpt_gammas = ,"), EXTREMES_OFF], "cpt_gammas"),
        ([("cpt_lambdas = 1.5, 2.0, 2.5, 3.0, 3.5", "cpt_lambdas = ,"), EXTREMES_OFF], "cpt_lambdas"),
        # the extremes keep the CPT family non-empty, so the list is valid
        ([("cpt_gammas = 0.785, 0.79, 0.8, 0.85, 0.9, 1.0", "cpt_gammas = ,")], None),
    ],
)
def test_cli_empty_audit_list_reports_line(tmp_path, capsys, edits, key):
    text = (CONFIGS / "field_default.cfg").read_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    cfg = write_cfg(tmp_path, text)
    code = main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")])
    if key is None:
        assert code == 0
        report = json.loads((tmp_path / "o" / "audit.json").read_text())
        assert len(report["inclusiveness"]["cpt_vs_cvar"]["family1"]) == 2
    else:
        assert code == 2
        assert f":{line_of(text, f'{key} = ,')}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["field", "simulate", "feasibility"])
@pytest.mark.parametrize(
    "specs, label",
    [
        ("er, cvar(0.1), cvar(0.1000001)", "cvar_q0p1"),
        ("er, er", "er"),
        ("cpt(0.74, 1.0, 0.88, 2.0), cpt(0.74, 1, 0.88, 2.0000001)", "cpt_a0p74_b1_g0p88_l2"),
    ],
)
def test_cli_duplicate_spec_label_reports_line(tmp_path, capsys, command, specs, label):
    # the label names each spec's output files, so a repeat would overwrite them
    text = (CONFIGS / "single_obstacle.cfg").read_text()
    old = text[text.index("specs = ") :].split("\n", 1)[0]
    text = text.replace(old, f"specs = {specs}")
    out = tmp_path / "o"
    code = main([command, "--config", str(write_cfg(tmp_path, text)), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f":{line_of(text, 'specs = ')}:" in err
    assert repr(label) in err
    assert not out.exists()


def test_cli_grid_two_key_error_reports_line(tmp_path, capsys):
    # the grid builder checks xmin < xmax after main has named --out
    text = (CONFIGS / "field_default.cfg").read_text().replace("xmax = 15.0", "xmax = -1.0")
    out = tmp_path / "o"
    code = main(["field", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)])
    assert code == 2
    assert f":{line_of(text, 'xmax = -1.0')}:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_config_exit_code(tmp_path, capsys):
    # a missing file, and one that is not UTF-8 text
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe[field]\n")
    for path in (tmp_path / "nope.cfg", binary):
        code = main(["field", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: cannot read config: ")


@pytest.mark.parametrize(
    "command, option",
    [
        ("audit", ["--seed", "1"]),
        ("audit", ["--spec", "er"]),
        ("audit", ["--format", "json"]),
        ("field", ["--seed", "1"]),
        ("simulate", ["--seed", "1"]),
        ("feasibility", ["--format", "json"]),
    ],
)
def test_cli_rejects_options_its_command_does_not_read(tmp_path, capsys, command, option):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(CONFIGS / "single_obstacle.cfg"), "--out", str(out), *option])
    assert exc.value.code == 2
    # reported by the subcommand, whose usage lists the options it takes
    err = capsys.readouterr().err
    assert err.startswith(f"usage: riskcbf {command} [-h] --config CONFIG")
    assert f"riskcbf {command}: error: unrecognized arguments: {' '.join(option)}" in err
    assert not out.exists()


def test_cli_unmatched_spec_selector(tmp_path):
    code = main(
        [
            "simulate",
            "--config",
            str(CONFIGS / "single_obstacle.cfg"),
            "--spec",
            "zzz",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2
    assert not (tmp_path / "o").exists()


def test_cli_runtime_error_exit_code(tmp_path):
    # agent starting inside the risky set is a runtime failure, not a
    # config syntax error
    text = (CONFIGS / "single_obstacle.cfg").read_text()
    text = text.replace("start = 5.0, 2.0", "start = 12.9, 12.9")
    bad = write_cfg(tmp_path, text)
    code = main(["simulate", "--config", str(bad), "--spec", "er", "--out", str(tmp_path / "o")])
    assert code == 3


def test_cli_spec_index_selector(tmp_path):
    out = tmp_path / "one"
    code = main(
        [
            "field",
            "--config",
            str(CONFIGS / "field_default.cfg"),
            "--spec",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "risk_er.csv").exists()


@pytest.mark.parametrize("index", ["0", "16"])
def test_cli_spec_index_out_of_range(tmp_path, capsys, index):
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(CONFIGS / "single_obstacle.cfg"), "--spec", index, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: <cli>: --spec index {index} out of range 1..15\n"
    assert not out.exists()


def test_cli_simulate_single_integrator(tmp_path):
    # a single integrator has no heading, and its controlled point is itself
    text = (CONFIGS / "single_obstacle.cfg").read_text()
    assert text.count("model = unicycle") == 1
    cfg = write_cfg(tmp_path, text.replace("model = unicycle", "model = single_integrator"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    logs = sorted(out.glob("sim_*.csv"))
    assert len(logs) == 15
    for log in logs:
        rows = [line.split(",") for line in log.read_text().splitlines()]
        assert rows[0][:6] == ["t", "x", "y", "heading", "px", "py"]
        assert len(rows) > 2
        for row in rows[1:]:
            assert row[3] == "nan" and row[4:6] == row[1:3]


def test_cli_builds_its_parser_once():
    assert riskcbf.cli.build_parser() is riskcbf.cli.build_parser()


def run_python(*args):
    """A fresh interpreter run with args; it imports the package these
    tests import, installed or not."""
    package_root = str(Path(riskcbf.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_entry_point_subprocess():
    proc = run_python("-m", "riskcbf", "field", "--help")
    assert proc.returncode == 0
    assert "--config" in proc.stdout


def test_importing_the_cli_leaves_statistics_unloaded():
    # statistics pulls in decimal and fractions, about 5 ms of every
    # command's start-up; no module of the package needs it
    code = "import sys, riskcbf.cli; print(sorted({'statistics', 'decimal', 'fractions'} & set(sys.modules)))"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_module_uses_its_imports():
    # __init__ imports to re-export; a "# noqa: F401" on an alias's line
    # marks a name imported for others to reach
    unused = []
    for path in sorted((REPO / "src" / "riskcbf").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        tree = ast.parse(text)
        lines = text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert unused == []


def test_grid_csv_header_round_trip(tmp_path):
    out = tmp_path / "f"
    main(["field", "--config", str(CONFIGS / "field_default.cfg"), "--spec", "er", "--out", str(out)])
    meta, values = read_grid_csv(out / "c_mu.csv")
    assert (int(meta[4]), int(meta[5])) == (150, 150)
    assert values.max() == pytest.approx(200.0, abs=0.05)


def test_cli_simulate_lambda_sweep_logs(tmp_path):
    # the gamma=0.88 lambda sweep: five logs, all barrier-nonnegative
    out = tmp_path / "lam"
    code = main(
        [
            "simulate",
            "--config",
            str(CONFIGS / "single_obstacle.cfg"),
            "--spec",
            "g0p88",
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert code == 0
    logs = sorted(out.glob("sim_cpt_a0p74_b1_g0p88_l*.json"))
    assert len(logs) == 5
    for path in logs:
        summary = json.loads(path.read_text())["summary"]
        assert summary["reached_goal"] is True
        assert summary["min_h"] >= 0.0


def test_cli_simulate_without_obstacles_goes_straight(tmp_path):
    text = (CONFIGS / "single_obstacle.cfg").read_text()
    head, _, _ = text.partition("[obstacle.1]")
    cfg = write_cfg(tmp_path, head)
    out = tmp_path / "free"
    code = main(
        ["simulate", "--config", str(cfg), "--spec", "er", "--out", str(out), "--format", "json"]
    )
    assert code == 0
    payload = json.loads((out / "sim_er.json").read_text())
    assert payload["summary"]["reached_goal"] is True
    assert payload["summary"]["total_deviation"] == 0.0
    assert payload["summary"]["min_h"] is None  # no obstacles: barrier unbounded
