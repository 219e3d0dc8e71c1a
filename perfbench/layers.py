"""The riskcbf layers the traced run measures, and its per-layer metrics.

``TARGETS`` names each traced function by span name and by where it is
defined; the tracer wraps it at every binding callers use. ``Counters``
adds what the spans alone do not give: argument- and result-derived
counts recorded at the same boundaries (level-set vertices, bytes
written, distinct call keys, kernel cells). ``per_layer`` turns the one
traced pass into the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import os
from collections import Counter

from tracer import SpanStats, Spans, aggregate, count_under

# barrier_value and min_compose have no metric of their own; they are
# traced so that constraint and sim.run self times exclude them.
TARGETS = {
    "config.load_config": "riskcbf.config:load_config",
    "field.rasterize": "riskcbf.field:rasterize",
    "field.level_set": "riskcbf.field:level_set",
    "field.FieldGrid.to_csv": "riskcbf.field:FieldGrid.to_csv",
    "field.inclusiveness_audit": "riskcbf.field:inclusiveness_audit",
    "field.versatility_audit": "riskcbf.field:versatility_audit",
    "field.perceived_risk": "riskcbf.field:perceived_risk",
    "field.risk_gradient": "riskcbf.field:risk_gradient",
    "risk.partials": "riskcbf.risk:partials",
    "kernels.cpt_grid": "riskcbf._kernels:cpt_grid",
    "barrier.barrier_value": "riskcbf.barrier:barrier_value",
    "barrier.constraint": "riskcbf.barrier:constraint",
    "barrier.qp_filter": "riskcbf.barrier:qp_filter",
    "barrier.min_compose": "riskcbf.barrier:min_compose",
    "barrier.feasibility_margin": "riskcbf.barrier:feasibility_margin",
    "barrier.control_set_probe": "riskcbf.barrier:control_set_probe",
    "sim.run": "riskcbf.sim:run",
    "sim.compare_models": "riskcbf.sim:compare_models",
    "sim.SimLog.to_csv": "riskcbf.sim:SimLog.to_csv",
}

# Functions on no CLI path today; traced so that a change which starts
# calling them shows up as a nonzero count.
IDLE_TARGETS = {
    ("distributions", "riskcbf.distributions"): (
        "discretize_truncated_gaussian", "std_normal_cdf", "std_normal_pdf", "std_normal_quantile",
    ),
    ("risk.lottery", "riskcbf.risk"): (
        "utility", "prob_weight", "decision_weights", "er_value", "cvar_value", "cpt_value",
        "risk_value", "cpt_closed_form",
    ),
}
TARGETS.update(
    (f"{layer}.{name}", f"{module}:{name}") for (layer, module), names in IDLE_TARGETS.items() for name in names
)


def _key(value) -> str:
    """Identity of a call argument: its repr, with arrays as value lists."""
    tolist = getattr(value, "tolist", None)
    return repr(tolist()) if tolist is not None else repr(value)


class Counters:
    """Counts recorded at the traced boundaries by tracer hooks."""

    def __init__(self):
        self.values: Counter = Counter()
        self.rasterize_keys: set[str] = set()
        self.run_keys: set[str] = set()

    def end_command(self) -> None:
        """Close the distinct-key sets. Repeats count within one CLI
        invocation, the scope in which the program could reuse a result."""
        self.values["field.rasterize.distinct"] += len(self.rasterize_keys)
        self.values["sim.run.distinct"] += len(self.run_keys)
        self.rasterize_keys.clear()
        self.run_keys.clear()

    def hooks(self) -> dict:
        def level_set(args, kwargs, result):
            self.values["field.level_set.vertices"] += sum(len(poly) for poly in result)

        def grid_csv(args, kwargs, result):
            self.values["field.FieldGrid.to_csv.bytes"] += os.path.getsize(args[1])

        def simlog_csv(args, kwargs, result):
            self.values["sim.SimLog.to_csv.bytes"] += os.path.getsize(args[1])

        def rasterize(args, kwargs, result):
            self.rasterize_keys.add("|".join(_key(a) for a in (*args, *kwargs.items())))

        def cpt_grid(args, kwargs, result):
            cells, m = len(args[0]), len(args[2])
            self.values["kernels.cpt_grid.cells"] += cells
            self.values["kernels.cpt_grid.pow_ops"] += cells * m
            # mu, sigma and the result, 8 bytes per cell each, plus the
            # m-long coefficient and weight vectors
            self.values["kernels.cpt_grid.bytes"] += 8 * (3 * cells + 2 * m)

        def run(args, kwargs, result):
            self.values["sim.run.steps"] += len(result.records)
            self.run_keys.add(_key(args[0]))

        return {
            "field.level_set": level_set,
            "field.FieldGrid.to_csv": grid_csv,
            "sim.SimLog.to_csv": simlog_csv,
            "field.rasterize": rasterize,
            "kernels.cpt_grid": cpt_grid,
            "sim.run": run,
        }


class TraceTotals:
    """Span statistics summed over the traced iterations of the run."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.under_run: Counter = Counter()
        self.spans = 0

    def add(self, spans: Spans) -> None:
        for name, st in aggregate(spans).items():
            acc = self.stats.setdefault(name, SpanStats())
            acc.calls += st.calls
            acc.total_s += st.total_s
            acc.self_s += st.self_s
        self.under_run.update(count_under(spans, "sim.run"))
        self.spans += len(spans.names)


def per_layer(trace: TraceTotals, counters: Counters) -> dict[str, float]:
    """Traced-layer metrics of the traced pass."""
    out: dict[str, float] = {}

    def st(name):
        return trace.stats.get(name, SpanStats())

    def ratio(a, b):
        return a / b if b else 0.0

    for name in ("config.load_config", "field.level_set", "field.FieldGrid.to_csv", "field.rasterize",
                 "field.perceived_risk", "field.risk_gradient", "risk.partials", "kernels.cpt_grid",
                 "barrier.constraint", "barrier.qp_filter", "sim.run"):
        out[f"{name}.calls"] = st(name).calls
        out[f"{name}.s"] = st(name).total_s
    for name in ("field.level_set", "field.rasterize", "field.perceived_risk", "field.risk_gradient",
                 "risk.partials", "barrier.constraint", "sim.run"):
        out[f"{name}.self_s"] = st(name).self_s
    for name in ("field.inclusiveness_audit", "field.versatility_audit", "barrier.feasibility_margin",
                 "barrier.control_set_probe", "sim.compare_models", "sim.SimLog.to_csv"):
        out[f"{name}.s"] = st(name).total_s
    for name in ("field.level_set.vertices", "field.FieldGrid.to_csv.bytes", "kernels.cpt_grid.cells",
                 "kernels.cpt_grid.pow_ops", "kernels.cpt_grid.bytes", "sim.run.steps",
                 "sim.SimLog.to_csv.bytes"):
        out[name] = counters.values[name]

    out["field.rasterize.distinct_share"] = ratio(counters.values["field.rasterize.distinct"],
                                                  st("field.rasterize").calls)
    out["sim.run.distinct_share"] = ratio(counters.values["sim.run.distinct"], st("sim.run").calls)
    out["sim.run.us_per_step"] = 1e6 * ratio(st("sim.run").total_s, counters.values["sim.run.steps"])
    risk_evals = trace.under_run["field.perceived_risk"]
    out["barrier.risk_evals_per_constraint"] = ratio(risk_evals, trace.under_run["barrier.constraint"])
    out["barrier.constraints_per_qp"] = ratio(trace.under_run["barrier.constraint"],
                                              trace.under_run["barrier.qp_filter"])
    for (layer, _), names in IDLE_TARGETS.items():
        out[f"{layer}.calls"] = sum(st(f"{layer}.{n}").calls for n in names)
    out["trace.spans"] = trace.spans
    return out
