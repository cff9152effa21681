"""Held-out evaluation: error metrics, prediction traces, inference timing.

Note on naming: alongside the mean squared error the report carries the
maximum absolute error per target, the worst single deviation in degrees
Celsius.  That is the quantity a thermal protection engineer cares about,
since it bounds how far a derating controller could be misled.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .dataio import write_csv
from .features import TARGETS, Standardization, WindowedDataset, _is_int
from .models import ModelParams, predict

__all__ = [
    "EvaluationError",
    "EvalReport",
    "compute_metrics",
    "collect_predictions",
    "evaluate",
    "emit_traces",
    "write_traces",
    "time_inference",
]


class EvaluationError(ValueError):
    """Evaluation was asked to run on unusable data."""


@dataclass
class EvalReport:
    """Per-target and pooled error metrics over a test set."""

    target_names: tuple
    mse: dict            # target -> mean squared error
    max_abs_error: dict  # target -> worst absolute deviation
    overall_mse: float
    overall_max_abs_error: float
    n_windows: int

    def to_dict(self) -> dict:
        return {
            "target_names": list(self.target_names),
            "mse": dict(self.mse),
            "max_abs_error": dict(self.max_abs_error),
            "overall_mse": self.overall_mse,
            "overall_max_abs_error": self.overall_max_abs_error,
            "n_windows": self.n_windows,
        }

    def to_text(self) -> str:
        width = max(len(t) for t in self.target_names)
        lines = [
            f"evaluated {self.n_windows} windows (degC)",
            f"{'target':<{width}}  {'mse':>12}  {'max |err|':>12}",
        ]
        for t in self.target_names:
            lines.append(
                f"{t:<{width}}  {self.mse[t]:>12.6f}  {self.max_abs_error[t]:>12.6f}"
            )
        lines.append(
            f"{'overall':<{width}}  {self.overall_mse:>12.6f}  "
            f"{self.overall_max_abs_error:>12.6f}"
        )
        return "\n".join(lines)


def compute_metrics(actual: np.ndarray, predicted: np.ndarray) -> EvalReport:
    """Error metrics from aligned (n, 4) arrays, columns in ``TARGETS`` order.

    Per target: mean squared error and maximum absolute error.  Pooled
    across targets: the mean of squared errors over every entry, and the
    largest absolute error anywhere.  A mean squared error past the float
    range is refused, naming its target.
    """
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 2:
        raise EvaluationError(
            f"metrics need matching (n, targets) arrays, got {a.shape} and {p.shape}"
        )
    if a.shape[0] == 0:
        raise EvaluationError("metrics need at least one window")
    if a.shape[1] != len(TARGETS):
        raise EvaluationError(
            f"data has {a.shape[1]} targets, expected {len(TARGETS)}"
        )
    err = p - a
    with np.errstate(over="ignore"):
        sq = err * err
        per_mse = sq.mean(axis=0)
        overall_mse = float(sq.mean())
    per_max = np.abs(err).max(axis=0)
    labels = [f"target {t!r}" for t in TARGETS] + ["all targets pooled"]
    for label, value in zip(labels, [*per_mse, overall_mse]):
        if not np.isfinite(value):
            raise EvaluationError(
                f"the squared error of {label} overflows (mean {value}); "
                "the model's predictions are out of range")
    return EvalReport(
        target_names=TARGETS,
        mse={t: float(per_mse[i]) for i, t in enumerate(TARGETS)},
        max_abs_error={t: float(per_max[i]) for i, t in enumerate(TARGETS)},
        overall_mse=overall_mse,
        overall_max_abs_error=float(np.abs(err).max()),
        n_windows=a.shape[0],
    )


def collect_predictions(params: ModelParams, dataset: WindowedDataset,
                        stats: Standardization, batch_size: int = 256):
    """Run the model once over every window of ``dataset``, in batches.

    Returns (actual, predicted) in degrees Celsius, shape (n, targets)
    each, row k belonging to window k of ``dataset``; ``stats`` maps the
    model's standardized outputs back.
    """
    if not isinstance(stats, Standardization):
        raise EvaluationError(
            "stats must be the fitted Standardization that maps predictions "
            f"back to degrees Celsius, got {type(stats).__name__}")
    n = dataset.n_windows
    if n == 0:
        raise EvaluationError("dataset holds no windows")
    if not _is_int(batch_size) or batch_size < 1:
        raise EvaluationError(
            f"batch_size must be a positive integer, got {batch_size!r}")
    actual, predicted = [], []
    for at in range(0, n, batch_size):
        idx = np.arange(at, min(at + batch_size, n))
        inputs, raw = dataset.gather(idx)
        actual.append(raw)
        predicted.append(stats.untransform_predictions(predict(params, inputs)))
    return np.concatenate(actual), np.concatenate(predicted)


def evaluate(params: ModelParams, dataset, stats: Standardization,
             batch_size: int = 256) -> EvalReport:
    """Metrics in degrees Celsius for a model over held-out windows."""
    return compute_metrics(*collect_predictions(params, dataset, stats, batch_size))


def emit_traces(params: ModelParams, dataset, stats: Standardization,
                out_dir, batch_size: int = 256) -> list[str]:
    """Predict every window of ``dataset`` and ``write_traces`` the result."""
    actual, predicted = collect_predictions(params, dataset, stats, batch_size)
    return write_traces(out_dir, dataset.provenance(), actual, predicted)


def write_traces(out_dir, provenance, actual: np.ndarray,
                 predicted: np.ndarray) -> list[str]:
    """Write per-target prediction and error traces as CSV files.

    Row k of the (n, targets) ``actual`` and ``predicted`` arrays (degrees
    Celsius) gets the sample id ``<profile_id>:<end_index>`` of entry k of
    the ``provenance`` pair (profile_ids, end_index).  For each target two
    files appear in ``out_dir``: ``<target>_trace.csv`` with (sample_id,
    actual_c, predicted_c) and ``<target>_error.csv`` with (sample_id,
    error_c), error = actual - predicted.  Floats are written with repr so
    the files parse back exactly.  Returns the paths written.
    """
    pids, ends = (np.asarray(a).astype(str) for a in provenance)
    ids = np.char.add(np.char.add(pids, ":"), ends)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, target in enumerate(TARGETS):
        trace_path = os.path.join(out_dir, f"{target}_trace.csv")
        error_path = os.path.join(out_dir, f"{target}_error.csv")
        write_csv(trace_path, ["sample_id", "actual_c", "predicted_c"],
                  [ids, actual[:, i], predicted[:, i]])
        write_csv(error_path, ["sample_id", "error_c"],
                  [ids, actual[:, i] - predicted[:, i]])
        paths.extend([trace_path, error_path])
    return paths


def time_inference(params: ModelParams, batch, repetitions: int = 10) -> float:
    """Mean wall-clock milliseconds per forward pass of one batch.

    Runs two unmeasured passes first.  At least 10 measured repetitions are
    required for a stable figure.
    """
    if repetitions < 10:
        raise ValueError("time_inference needs at least 10 repetitions")
    arr = np.asarray(batch, dtype=np.float64)
    for _ in range(2):
        predict(params, arr)
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        predict(params, arr)
        times.append(time.perf_counter() - t0)
    return float(np.mean(times) * 1000.0)
