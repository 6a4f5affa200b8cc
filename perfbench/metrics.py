"""Metric names, units and directions; ``BENCHMARK.json`` lists the same."""

END_TO_END = {
    "setup_s": ("s", "lower"),
    "simulate_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "evaluate_s": ("s", "lower"),
    "report_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "units_per_s": ("units/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "agree_neutral": ("share", "higher"),
    "agree_linear": ("share", "higher"),
    "agree_quadratic": ("share", "higher"),
    "ok_ratio": ("share", "higher"),
}

# <module>.<function>.<kind> from the traced run; "pipeline.<command>" is the
# benchmark's own root span around one command, "trace" compares the traced
# pipeline with an untraced one in the same process.
_LAYER_KINDS = {
    "cli.cmd_simulate": ("busy_s", "self_s"),
    "cli.cmd_fit": ("busy_s", "self_s"),
    "cli.cmd_evaluate": ("busy_s", "self_s"),
    "cli.cmd_report": ("busy_s", "self_s"),
    "data.load_dataset": ("calls", "busy_s", "bytes"),
    "data.save_dataset": ("busy_s", "bytes"),
    "data.validate_dataset": ("calls",),
    "reporting.write_csv": ("calls", "busy_s", "rows", "bytes"),
    "reporting.write_json": ("busy_s", "bytes"),
    "reporting.read_csv": ("busy_s",),
    "reporting.write_manifest": ("busy_s", "bytes"),
    "reporting.scatter_svg": ("busy_s", "bytes"),
    "regression.fit_mnlogit": ("busy_s", "iterations"),
    "regression.fit_ols": ("calls", "busy_s"),
    "regression.predict_proba": ("busy_s",),
    "moments.build_arm_moments": ("busy_s", "self_s", "clamped_share"),
    "moments.estimate_conditional_means": ("calls", "busy_s"),
    "policies.assign_policy": ("calls", "busy_s"),
    "values.clip_propensities": ("busy_s", "clipped"),
    "values.value_ra": ("busy_s",),
    "values.value_ipw": ("busy_s",),
    "values.value_dr": ("busy_s",),
    "simulate.generate": ("busy_s",),
    "pipeline.simulate": ("busy_s",),
    "pipeline.fit": ("busy_s",),
    "pipeline.evaluate": ("busy_s",),
    "pipeline.report": ("busy_s",),
}
_KIND_UNITS = {
    "busy_s": "s",
    "self_s": "s",
    "calls": "count",
    "bytes": "bytes",
    "rows": "count",
    "iterations": "count",
    "clipped": "count",
    "clamped_share": "share",
}

PER_LAYER = {
    f"{fn}.{kind}": (_KIND_UNITS[kind], "lower")
    for fn, kinds in _LAYER_KINDS.items()
    for kind in kinds
}
PER_LAYER["trace.overhead_s"] = ("s", "lower")
PER_LAYER["trace.untraced_pipeline_s"] = ("s", "lower")
PER_LAYER["quality.dr_abs_err"] = ("outcome_units", "lower")
PER_LAYER["regression.fit_mnlogit.stall_probe_iterations"] = ("count", "lower")


def layer_value(layers: dict, name: str, pipelines: int) -> float:
    """Per-pipeline value of ``<module>.<function>.<kind>`` from the summed
    spans of ``pipelines`` traced pipelines; 0 for a function never called."""
    fn, kind = name.rsplit(".", 1)
    row = layers.get(fn, {})
    if kind == "clamped_share":
        return row["clamped"] / row["cells"] if row.get("cells") else 0.0
    return row.get(kind, 0) / pipelines
