"""Per-layer metrics of a traced run, computed from the tracer's spans.

Every ``*_ms`` figure is a mean per op of the run's traced phase: the
layer's summed self time divided by the number of ops, so the layers of
one workload add up to its mean op time.  ``partition.*`` figures are
per ``--cut`` op.  A layer that a workload never reaches reads 0.  The
layer-to-end-to-end map is in ``bench/NOTES.md``.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import END, ERROR, NAME, OP, PARENT, START, Tracer

# (name, unit, better); the same list is in BENCHMARK.json's per_layer.
PER_LAYER = (
    ("netmodel.parse_case_ms", "ms", "lower"),
    ("netmodel.build_ybus_ms", "ms", "lower"),
    ("netmodel.bfs_tree_ms", "ms", "lower"),
    ("netmodel.ybus_bytes", "B", "lower"),
    ("powerflow.newton_calls", "count", "lower"),
    ("powerflow.newton_ms", "ms", "lower"),
    ("powerflow.newton_fail_frac", "ratio", "lower"),
    ("powerflow.evaluate_injections_ms", "ms", "lower"),
    ("hccore.thermal_ms", "ms", "lower"),
    ("hccore.thermal_violations", "count", "lower"),
    ("hccore.pattern_ms", "ms", "lower"),
    ("hccore.finalize_ms", "ms", "lower"),
    ("hccore.pf_ms", "ms", "lower"),
    ("partition.make_ms", "ms", "lower"),
    ("partition.monolithic_ms", "ms", "lower"),
    ("partition.distributed_ms", "ms", "lower"),
    ("partition.speedup", "ratio", "higher"),
    ("partition.fallback_frac", "ratio", "lower"),
    ("sequence.parse_case3_ms", "ms", "lower"),
    ("sequence.build_ybus3_ms", "ms", "lower"),
    ("sequence.sequence_ybus_ms", "ms", "lower"),
    ("sequence.positive_solve_ms", "ms", "lower"),
    ("sequence.nodal_ms", "ms", "lower"),
    ("oracle.grid_points", "count", "lower"),
    ("oracle.grid_search_ms", "ms", "lower"),
    ("oracle.points_per_s", "1/s", "higher"),
    ("oracle.error_bound_ms", "ms", "lower"),
    ("cli.emit_ms", "ms", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
)

# span name -> metric whose value is that span's summed self time per op
SELF_TIME = {
    "netmodel.parse_case": "netmodel.parse_case_ms",
    "netmodel.build_ybus": "netmodel.build_ybus_ms",
    "netmodel.bfs_tree": "netmodel.bfs_tree_ms",
    "powerflow.solve_newton": "powerflow.newton_ms",
    "powerflow.evaluate_injections": "powerflow.evaluate_injections_ms",
    "hccore.adjust_thermal": "hccore.thermal_ms",
    "hccore.solve_hc_stages": "hccore.pattern_ms",
    "hccore.finalize_solution": "hccore.finalize_ms",
    "hccore.adjust_power_factor": "hccore.pf_ms",
    "sequence.parse_case3": "sequence.parse_case3_ms",
    "sequence.build_ybus3": "sequence.build_ybus3_ms",
    "sequence.sequence_ybus": "sequence.sequence_ybus_ms",
    "sequence.nodal": "sequence.nodal_ms",
    "cli.main": "cli.emit_ms",
}

THERMAL_RTOL = 1e-8


def _over_limit(network, state) -> int:
    """Limited branches whose current exceeds their limit at ``state``."""
    import numpy as np  # not at import: run.py reads PER_LAYER without numpy

    rows = [(br.from_bus, br.to_bus, br.r, br.x, br.thermal_limit)
            for br in network.branches if br.thermal_limit is not None]
    if not rows:
        return 0
    f, t, r, x, cap = (np.array(col) for col in zip(*rows))
    v = np.asarray(state.magnitudes) * np.exp(1j * np.asarray(state.angles))
    cur = np.abs((v[f.astype(int)] - v[t.astype(int)]) / (r + 1j * x))
    return int(np.sum(cur > cap * (1 + THERMAL_RTOL)))


class LayerRecorder:
    """Tracer plus the per-op values that spans alone do not carry."""

    def __init__(self):
        self.tracer = Tracer()
        self.ybus_bytes = defaultdict(int)
        self.violations: dict[int, int] = {}
        self.fallback: dict[int, bool] = {}
        self.tracer.observe("netmodel.build_ybus", self._on_ybus)
        self.tracer.observe("hccore.solve_hc_stages", self._on_stages)
        self.tracer.observe("partition.solve_distributed_hc", self._on_distributed)

    def _on_ybus(self, span, args, result):
        self.ybus_bytes[span[OP]] += int(result.nbytes)

    def _on_stages(self, span, args, result):
        # the first solve of an op is the monolithic one; its first stage is the pattern
        if span[OP] not in self.violations:
            self.violations[span[OP]] = _over_limit(args[0], result[0].state)

    def _on_distributed(self, span, args, result):
        self.fallback[span[OP]] = result.stage != "distributed"

    def metrics(self, ops: list[dict]) -> dict[str, float]:
        """``ops``: one dict per traced op with ``id``, ``cut``, ``report_bytes``, ``grid_points``."""
        spans = self.tracer.spans
        self_s = self.tracer.self_times()
        n_ops = max(1, len(ops))
        cut_ops = {op["id"] for op in ops if op["cut"]}
        n_cut = len(cut_ops)
        out = {name: 0.0 for name, _, _ in PER_LAYER}

        sums = defaultdict(float)
        totals = defaultdict(float)
        cut_totals = defaultdict(float)
        calls = defaultdict(int)
        errors = defaultdict(int)
        for idx, span in enumerate(spans):
            name = span[NAME]
            sums[name] += self_s[idx]
            totals[name] += span[END] - span[START]
            calls[name] += 1
            errors[name] += span[ERROR] is not None
            if span[OP] in cut_ops:
                key = name
                if (name == "hccore.solve_hc_stages" and span[PARENT] is not None
                        and spans[span[PARENT]][NAME] == "cli.main"):
                    key = "monolithic"
                cut_totals[key] += span[END] - span[START]
        for span_name, metric in SELF_TIME.items():
            out[metric] = sums[span_name] * 1e3 / n_ops

        out["netmodel.ybus_bytes"] = sum(self.ybus_bytes.values()) / n_ops
        out["powerflow.newton_calls"] = calls["powerflow.solve_newton"] / n_ops
        if calls["powerflow.solve_newton"]:
            out["powerflow.newton_fail_frac"] = errors["powerflow.solve_newton"] / calls["powerflow.solve_newton"]
        out["hccore.thermal_violations"] = sum(self.violations.values()) / n_ops
        if n_cut:
            out["partition.make_ms"] = cut_totals["partition.make_partition"] * 1e3 / n_cut
            out["partition.monolithic_ms"] = cut_totals["monolithic"] * 1e3 / n_cut
            out["partition.distributed_ms"] = cut_totals["partition.solve_distributed_hc"] * 1e3 / n_cut
            if out["partition.distributed_ms"] > 0:
                out["partition.speedup"] = out["partition.monolithic_ms"] / out["partition.distributed_ms"]
            out["partition.fallback_frac"] = sum(self.fallback.get(op, False) for op in cut_ops) / n_cut
        out["sequence.positive_solve_ms"] = totals["sequence.positive_solve"] * 1e3 / n_ops
        points = sum(op["grid_points"] for op in ops)
        out["oracle.grid_points"] = points / n_ops
        out["oracle.grid_search_ms"] = totals["oracle.grid_search_hc"] * 1e3 / n_ops
        if totals["oracle.grid_search_hc"] > 0:
            out["oracle.points_per_s"] = points / totals["oracle.grid_search_hc"]
        out["oracle.error_bound_ms"] = totals["oracle.grid_error_bound"] * 1e3 / n_ops
        out["cli.report_bytes"] = sum(op["report_bytes"] for op in ops) / n_ops
        return out
