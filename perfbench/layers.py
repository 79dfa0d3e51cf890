"""The package's layers, the calls the traced run wraps, and how the per-layer metrics are computed.

The per-layer metrics, with their units, are listed in BENCHMARK.json.  Each
is a sum over one traced operation (one worker process), except where noted;
the run reports the median over its traced operations.  A layer the workload
never calls reads 0.
"""
from __future__ import annotations

from collections import defaultdict

LAYERS = ("graphs", "harmonic", "weights", "experiment", "analysis", "verify", "serialize", "cli")

# functions wrapped in a span in the traced run, by the module that defines them
SPAN_TARGETS = {
    "graphs": ("build_path", "build_lattice_ball", "build_bary_tree", "check_graph",
               "default_mechanism", "shuffled_mechanism", "check_mechanism"),
    "harmonic": ("solve_harmonic", "mc_green"),
    "weights": ("weight_table", "min_weight_config", "count_min_weight_ties", "random_config"),
    "experiment": ("init_experiment", "run_until_settled"),
    "analysis": ("escape_sweep", "random_ensemble", "theorem_check", "srw_escape_mc"),
    "verify": ("run_verification", "check_residual", "check_weight_increment", "check_telescope",
               "check_invariant", "check_lower_bound", "check_mc_green", "check_srw_escape"),
    "serialize": ("report_json", "report_csv"),
    "cli": ("main", "cmd_run", "cmd_verify", "_run_traced"),
}

def layer_metrics(spans: list, counts: dict, residuals: list, trace_rows: int,
                  trace_bytes: int, spanned_wall_s: float) -> dict:
    """Per-layer metrics of one traced operation, all but traced.overhead_s.

    spanned_wall_s is the operation's wall time less interpreter start, which
    the top-level spans should cover.
    """
    total = defaultdict(float)
    children = defaultdict(list)
    top = 0.0
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        total[name] += end - start
        children[parent].append(i)
        if parent == -1:
            top += end - start

    def t(*names):
        return sum(total[name] for name in names)

    sweep_self = 0.0
    for i, (name, start, end, *_rest) in enumerate(spans):
        if name == "analysis.escape_sweep":
            settle = sum(spans[c][2] - spans[c][1] for c in children[i]
                         if spans[c][0].startswith("experiment."))
            sweep_self += end - start - settle

    solve_rss_kb = max((s[5] - s[4] for s in spans if s[0] == "harmonic.solve_harmonic"), default=0)
    run_traced = t("cli._run_traced")
    m = {
        "graphs.build_s": t("graphs.build_path", "graphs.build_lattice_ball", "graphs.build_bary_tree"),
        "graphs.check_graph_s": t("graphs.check_graph"),
        "graphs.mechanism_s": t("graphs.default_mechanism", "graphs.shuffled_mechanism"),
        "graphs.check_mechanism_s": t("graphs.check_mechanism"),
        "harmonic.solve_s": t("harmonic.solve_harmonic"),
        "harmonic.solve_rss_mb": solve_rss_kb / 1024.0,
        "harmonic.residual": max(residuals, default=0.0),
        "weights.table_s": t("weights.weight_table"),
        "weights.min_config_s": t("weights.min_weight_config"),
        "weights.random_config_s": t("weights.random_config"),
        "experiment.init_s": t("experiment.init_experiment"),
        "experiment.settle_s": t("experiment.run_until_settled"),
        "analysis.escape_sweep_s": t("analysis.escape_sweep"),
        "analysis.escape_sweep_self_s": sweep_self,
        "analysis.random_ensemble_s": t("analysis.random_ensemble"),
        "verify.run_s": t("verify.run_verification"),
        "verify.check_weight_identities_s": t("verify.check_weight_increment", "verify.check_telescope"),
        "verify.check_invariant_s": t("verify.check_invariant"),
        "verify.check_lower_bound_s": t("verify.check_lower_bound"),
        "verify.check_mc_green_s": t("verify.check_mc_green"),
        "verify.check_srw_escape_s": t("verify.check_srw_escape"),
        "cli.run_traced_s": run_traced,
        "cli.trace_us_per_row": run_traced * 1e6 / trace_rows if trace_rows else 0.0,
        "serialize.report_json_s": t("serialize.report_json"),
        "serialize.trace_rows": trace_rows,
        "serialize.trace_bytes": trace_bytes,
        "traced.unspanned_s": spanned_wall_s - top,
    }
    m.update(counts)
    return m
