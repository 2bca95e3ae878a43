"""Analysis utilities: metrics, regression, traces, report rendering."""

from repro.analysis.metrics import ConfusionMatrix
from repro.analysis.regression import LinearFit, linear_fit
from repro.analysis.export import (
    export_delays,
    export_rssi_map,
    export_table_cells,
    export_trace_features,
    write_csv,
)
from repro.analysis.reporting import render_histogram, render_table
from repro.analysis.stats import (
    ConfidenceInterval,
    accuracy_interval,
    bootstrap_interval,
)
from repro.analysis.traces import RssiTrace

__all__ = [
    "ConfidenceInterval",
    "ConfusionMatrix",
    "LinearFit",
    "RssiTrace",
    "accuracy_interval",
    "bootstrap_interval",
    "export_delays",
    "export_rssi_map",
    "export_table_cells",
    "export_trace_features",
    "linear_fit",
    "render_histogram",
    "render_table",
    "write_csv",
]
