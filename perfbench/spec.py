"""What the qlidar benchmark measures: workloads, metrics and the layer map.

This module is the single source of ``BENCHMARK.json`` at the repository
root.  Regenerate that file after editing the tables below:

    python3 perfbench/spec.py > BENCHMARK.json

The layer map records, before anything is optimised, which end-to-end
metric each per-layer metric should move and on which workload; on every
other workload the prediction is "no change".  ``BENCHMARK.json`` has a
fixed set of keys, so the map and the work unit of each workload live here.
"""

from __future__ import annotations

import json

RUN_SECONDS = 15

# name -> (work unit counted by units_per_s, why the workload exists)
WORKLOADS = {
    "sweep": (
        "metric pairs",
        "4 seed-drawn 200-point eta sweeps (qlidar benchmark): Chernoff golden "
        "search and quadrature polish in metrics dominate; no grid, fading or Fock code",
    ),
    "grid": (
        "grid cells",
        "serial heatmap plus 5-scenario parametric with --workers 2: 5.8e4 W2-only "
        "cells of object overhead in states/channel/metrics.w2_sq, CSV writes, process pool",
    ),
    "fading": (
        "realizations",
        "4 fading runs of 5e3 realizations with seed-drawn Beta shapes: Philox stream "
        "per index, one s=1/2 overlap and one W2 per draw, CSV rows and histograms",
    ),
    "oracle": (
        "oracle pairs",
        "270 seed-drawn state pairs through the Fock oracle with cutoff escalation "
        "until converged: dense expm/eigh/svd in fock, closed forms only as a check",
    ),
}

# name -> (unit, better, bound as a share of the parent's median)
# Timing bounds are wide: on a shared 2-vCPU host, pass times scaled by the
# calibration kernel in run.py still spread by 5-15% between runs.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "units_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
}

# Public functions whose per-call statistics are reported, as layer.function.
TRACED = (
    "states.probe_from_budget",
    "states.thermal_state",
    "states.validate",
    "channel.apply_loss",
    "metrics.metric_report",
    "metrics.w2_sq",
    "metrics.bures_sq",
    "metrics.gaussian_fidelity",
    "metrics.xi_qbb",
    "metrics.xi_qcb",
    "metrics.s_overlap_minimum",
    "metrics.optimal_quadrature",
    "metrics.homodyne_snr",
    "allocation.allocation_grid",
    "fading.run_ensemble",
    "fading.sample_eta",
    "fading.post_select",
    "fock.build_state",
    "fock.oracle_fidelity",
    "fock.oracle_s_overlap",
    "cli.main",
    "cli.cmd_benchmark",
    "cli.cmd_heatmap",
    "cli.cmd_parametric",
    "cli.cmd_fading",
)

# stat -> (unit, better); every traced function reports all four
CALL_STATS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "us_per_call_p50": ("us", "lower"),
    "us_per_call_p99": ("us", "lower"),
}

# counters of a pass and figures of the whole run: name -> (unit, better);
# raw_wall_s is the median untraced pass time in plain seconds, the figure
# that wall_s scales by the calibration kernel
COUNTERS = {
    "allocation.allocation_grid.cells": ("count", "higher"),
    "fock.cutoff_escalations": ("count", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace_overhead": ("ratio", "lower"),
    "raw_wall_s": ("s", "lower"),
}

# modules whose cumulative import time is parsed from -X importtime
IMPORTED = (
    "qlidar",
    "qlidar.states",
    "qlidar.channel",
    "qlidar.metrics",
    "qlidar.allocation",
    "qlidar.fading",
    "qlidar.fock",
    "qlidar.cli",
    "numpy",
    "scipy.linalg",
    "scipy.optimize",
)

# (layer metrics, end-to-end metrics they should move, workloads where they move)
LAYER_MAP = (
    (("metrics.xi_qcb.*", "metrics.optimal_quadrature.*", "metrics.metric_report.self_s"),
     ("wall_s", "units_per_s"), ("sweep",)),
    (("metrics.w2_sq.*", "states.probe_from_budget.*", "states.thermal_state.*",
      "channel.apply_loss.*"),
     ("wall_s", "units_per_s"), ("grid", "fading")),
    (("allocation.allocation_grid.*",), ("wall_s",), ("grid",)),
    (("fading.sample_eta.*", "metrics.xi_qbb.*", "fading.run_ensemble.self_s",
      "fading.post_select.*"),
     ("wall_s", "units_per_s"), ("fading",)),
    (("fock.build_state.*", "fock.oracle_fidelity.*", "fock.oracle_s_overlap.*",
      "fock.cutoff_escalations"),
     ("wall_s", "units_per_s"), ("oracle",)),
    (("cli.cmd_*.self_s", "cli.bytes_written"), ("wall_s",), ("grid", "fading")),
    (("import.*",), ("setup_s",), tuple(WORKLOADS)),
    (("trace_overhead",), (), tuple(WORKLOADS)),
)

# Functions that a traced pass must never reach on a workload.  Only the
# predictions the layer map rests on are listed; the self-tests check them.
PREDICTED_ZERO = {
    "sweep": ("allocation.allocation_grid", "fading.run_ensemble", "fading.sample_eta",
              "fading.post_select", "fock.build_state", "fock.oracle_fidelity",
              "fock.oracle_s_overlap"),
    "grid": ("metrics.xi_qcb", "metrics.s_overlap_minimum", "metrics.optimal_quadrature",
             "metrics.metric_report", "metrics.xi_qbb", "metrics.gaussian_fidelity",
             "fading.run_ensemble", "fading.sample_eta", "fock.build_state",
             "fock.oracle_fidelity", "fock.oracle_s_overlap"),
    "fading": ("metrics.xi_qcb", "metrics.s_overlap_minimum", "metrics.optimal_quadrature",
               "metrics.metric_report", "allocation.allocation_grid", "fock.build_state",
               "fock.oracle_fidelity", "fock.oracle_s_overlap"),
    "oracle": ("allocation.allocation_grid", "fading.run_ensemble", "fading.sample_eta",
               "cli.main", "metrics.xi_qcb", "metrics.optimal_quadrature",
               "metrics.metric_report"),
}


def import_metric(module: str) -> str:
    return f"import.{module}_s"


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its (unit, better)."""
    out: dict[str, tuple[str, str]] = {}
    for fn in TRACED:
        for stat, spec in CALL_STATS.items():
            out[f"{fn}.{stat}"] = spec
    out.update(COUNTERS)
    for module in IMPORTED:
        out[import_metric(module)] = ("s", "lower")
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": f"{why} (unit: {unit})"}
            for name, (unit, why) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in per_layer_metrics().items()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
