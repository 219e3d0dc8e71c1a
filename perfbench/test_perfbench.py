"""Tests of the benchmark's own parts: generators, output checks, tracer,
host-speed scaling.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402
from tracer import Spans, Tracer, aggregate, count_under, self_times  # noqa: E402

import riskcbf.cli  # noqa: E402

SMALL_FIELD = """\
[field]
k1 = 200.0
k2 = 0.01
r_bar = 0.5

[risk]
specs = er, cvar(0.1), cpt(0.74, 1.0, 0.88, 2.0)

[grid]
xmin = 0.0
xmax = 15.0
ymin = 0.0
ymax = 15.0
nx = 12
ny = 10
source = 10.0, 10.0
"""


@pytest.mark.parametrize("workload", sorted(workloads.SHIPPED))
def test_generators_depend_only_on_the_seed(workload):
    first = workloads.generate(workload, 7, run.ROOT)
    again = workloads.generate(workload, 7, run.ROOT)
    other = workloads.generate(workload, 8, run.ROOT)
    assert first == again
    assert len(first) == workloads.PASS_LENGTH[workload]
    assert first[0] == ("shipped", None)
    variants = [text for _, text in first[1:]]
    assert all(text for text in variants)
    assert variants != [text for _, text in other[1:]]


def _side(o, u, v) -> float:
    return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])


def test_crowd_layouts_keep_geometric_rules():
    for i, (_, text) in enumerate(workloads.generate("sim_crowd", 3, run.ROOT)[1:]):
        variant = workloads.parse_ini(text)
        a, b, clearance = workloads._agent_segment(variant)
        obstacles = [s for s in variant if s[0].startswith("obstacle.")]
        assert len(obstacles) == workloads.CROWD_COUNTS[i % len(workloads.CROWD_COUNTS)]
        for name, _ in obstacles:
            start = workloads.parse_pair(workloads.get_value(variant, name, "start"))
            goal = workloads.parse_pair(workloads.get_value(variant, name, "goal"))
            assert math.dist(start, a) >= clearance
            assert math.dist(goal, b) >= clearance
            # the path crosses the agent's segment
            assert _side(a, b, start) * _side(a, b, goal) < 0
            assert _side(start, goal, a) * _side(start, goal, b) < 0


def _field_iteration(tmp_path, main):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_FIELD)
    return run.run_iteration(main, "field_maps", "small", cfg, SMALL_FIELD, tmp_path / "out")


def test_clean_outputs_pass_and_repeat_identically(tmp_path):
    first = _field_iteration(tmp_path, riskcbf.cli.main)
    assert [op.failed for op in first.ops] == [False, False]
    assert first.ops[0].checked.grid_cells == 3 * 12 * 10
    again = _field_iteration(tmp_path, riskcbf.cli.main)
    assert again.digest == first.digest


def test_truncated_grid_counts_as_failed(tmp_path):
    def truncating_main(argv):
        code = riskcbf.cli.main(argv)
        if argv[0] == "field":
            grid = Path(argv[argv.index("--out") + 1]) / "risk_er.csv"
            grid.write_text("".join(grid.read_text().splitlines(keepends=True)[:-3]))
        return code

    it = _field_iteration(tmp_path, truncating_main)
    field_op, audit_op = it.ops
    assert field_op.exit_code == 0 and field_op.failed
    assert any("rows" in p for p in field_op.checked.problems)
    assert not audit_op.failed


def test_repeat_with_changed_output_counts_as_failed(tmp_path):
    tally = run.Tally()
    out = tmp_path / "out"
    first = _field_iteration(tmp_path, riskcbf.cli.main)
    run.record_iteration(tally, first, out, shipped=True, traced=False)
    again = run.run_iteration(riskcbf.cli.main, "field_maps", "small", tmp_path / "small.cfg", SMALL_FIELD, out,
                              known=tally.known["small"])
    assert not any(op.failed for op in again.ops)
    assert again.ops[0].checked.grid_cells == first.ops[0].checked.grid_cells

    def perturbing_main(argv):
        code = riskcbf.cli.main(argv)
        if argv[0] == "audit":
            report = Path(argv[argv.index("--out") + 1]) / "audit.json"
            report.write_text(report.read_text() + " ")
        return code

    changed = run.run_iteration(perturbing_main, "field_maps", "small", tmp_path / "small.cfg", SMALL_FIELD, out,
                                known=tally.known["small"])
    field_op, audit_op = changed.ops
    assert not field_op.failed
    assert audit_op.failed and "differ" in audit_op.checked.problems[-1]


def test_nonzero_exit_counts_as_failed(tmp_path):
    def failing_main(argv):
        riskcbf.cli.main(argv)
        return 3

    it = _field_iteration(tmp_path, failing_main)
    assert all(op.failed and op.exit_code == 3 for op in it.ops)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = Spans(
        names=["root", "a", "c", "b"],
        starts=[0.0, 1.0, 2.0, 5.0],
        ends=[10.0, 4.0, 3.0, 9.0],
        parents=[-1, 0, 1, 0],
    )
    dur, selfs = self_times(spans)
    assert dur == [10.0, 3.0, 1.0, 4.0]
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    stats = aggregate(spans)
    assert stats["root"].total_s == 10.0 and stats["root"].self_s == 3.0
    assert count_under(spans, "a") == {"c": 1}


def test_children_longer_than_parent_are_rejected():
    spans = Spans(names=["p", "c1", "c2"], starts=[0.0, 0.0, 1.0], ends=[2.0, 1.5, 2.0], parents=[-1, 0, 0])
    with pytest.raises(ValueError, match="children"):
        self_times(spans)


def test_tracer_wraps_every_binding_reports_absent_and_restores():
    original = riskcbf.field.rasterize
    tracer = Tracer(
        {"field.rasterize": "riskcbf.field:rasterize", "field.evaluate": "riskcbf.field:evaluate"}, "riskcbf"
    )
    tracer.install()
    try:
        assert tracer.absent == ["field.evaluate"]
        assert riskcbf.cli.rasterize is not original
        assert riskcbf.field.rasterize is riskcbf.cli.rasterize
        tracer.begin(0)
        riskcbf.cli.rasterize(
            riskcbf.ExpectedRisk(), riskcbf.CostFieldParams(200.0, 0.01, 0.5), (1.0, 1.0), (0, 2, 0, 2), (4, 4)
        )
        assert tracer.spans.names == ["field.rasterize"]
    finally:
        tracer.restore()
    assert riskcbf.cli.rasterize is original
    assert riskcbf.field.rasterize is original


def test_host_speed_factors_divide_out_the_kernel_time():
    assert hostspeed.kernel() == hostspeed.kernel()
    nominal = hostspeed.NOMINAL_S
    # samples of 1x and 16x nominal around an iteration: a 4x slowdown
    slowdowns = [4.0, 16.0]
    expected = [x ** -hostspeed.EXPONENT for x in slowdowns]
    assert hostspeed.factors([nominal, 16 * nominal, 16 * nominal]) == pytest.approx(expected)
