"""Path reconstruction and drift metrics.

Predicted increments are accumulated from the true state at the first
prediction time; a single wrong increment therefore produces a constant
offset on all later samples instead of growing drift. Per-flight metrics:
maximum 3D position error over the prediction span (MPE), the same value
divided by the span duration in minutes (TN-MPE), and the maximum 3D
velocity error (MVE).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .deadreckon import DeadReckonConfig, NavState, dead_reckon
from .errors import DataError
from .flightlog import FlightLog, write_json, write_table
from .preprocess import Normalization, UnifiedSeries
from .rnn import Checkpoint, predict


def reconstruct_path(
    increments: np.ndarray, init_state: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative sum of position/velocity increments from an initial state.

    increments is [k, 6] ordered (dPn, dPe, dPd, dVn, dVe, dVd); returns
    position and velocity series of length k+1 whose first row is the
    initial state.
    """
    increments = np.asarray(increments, dtype=np.float64)
    if increments.ndim != 2 or increments.shape[1] != 6:
        raise DataError(f"increments must be [k, 6], got {increments.shape}")
    init_pos, init_vel = (np.asarray(v, dtype=np.float64).reshape(3) for v in init_state)
    k = len(increments)
    pos = np.empty((k + 1, 3))
    vel = np.empty((k + 1, 3))
    pos[0] = init_pos
    vel[0] = init_vel
    np.cumsum(increments[:, :3], axis=0, out=pos[1:])
    pos[1:] += init_pos
    np.cumsum(increments[:, 3:], axis=0, out=vel[1:])
    vel[1:] += init_vel
    return pos, vel


def compute_mpe(pred_pos: np.ndarray, true_pos: np.ndarray) -> float:
    """Maximum 3D Euclidean error over aligned series: the MPE of positions,
    and the MVE of velocities."""
    pred_pos = np.asarray(pred_pos, dtype=np.float64)
    true_pos = np.asarray(true_pos, dtype=np.float64)
    if pred_pos.shape != true_pos.shape:
        raise DataError(f"shape mismatch {pred_pos.shape} vs {true_pos.shape}")
    return float(np.max(np.linalg.norm(pred_pos - true_pos, axis=-1)))


def compute_tn_mpe(mpe_m: float, duration_min: float) -> float:
    """MPE divided by flight duration in minutes (m/min)."""
    if duration_min <= 0:
        raise DataError("duration must be positive")
    return mpe_m / duration_min


@dataclass
class FlightMetrics:
    log_id: str
    mpe_m: float
    tn_mpe_m_per_min: float
    mve_mps: float
    duration_min: float
    distance_m: float
    pos_error_m: np.ndarray = field(repr=False)
    t_us: np.ndarray = field(repr=False)
    true_pos: np.ndarray = field(repr=False)
    pred_pos: np.ndarray = field(repr=False)
    true_vel: np.ndarray = field(repr=False)
    pred_vel: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "log_id": self.log_id,
            "mpe_m": self.mpe_m,
            "tn_mpe_m_per_min": self.tn_mpe_m_per_min,
            "mve_mps": self.mve_mps,
            "duration_min": self.duration_min,
            "distance_m": self.distance_m,
            "pos_error_m": [float(v) for v in self.pos_error_m],
        }

    def save(self, path: str | Path) -> None:
        write_json(self.to_dict(), path)

    def write_path_compare(self, path: str | Path) -> None:
        header = "t_us,true_pn,true_pe,true_pd,pred_pn,pred_pe,pred_pd,true_vn,true_ve,true_vd,pred_vn,pred_ve,pred_vd"
        write_table(path, header, self.t_us, np.hstack([self.true_pos, self.pred_pos, self.true_vel, self.pred_vel]))


def _metrics_from_series(
    log_id: str, series: UnifiedSeries, start: int, pred_pos: np.ndarray, pred_vel: np.ndarray
) -> FlightMetrics:
    """Metrics of a path predicted for rows start on of series, against its estimator states there."""
    t_us, true_pos, true_vel = series.t_us[start:], series.state_pos[start:], series.state_vel[start:]
    duration_min = float(t_us[-1] - t_us[0]) * 1e-6 / 60.0
    mpe = compute_mpe(pred_pos, true_pos)
    return FlightMetrics(
        log_id=log_id,
        mpe_m=mpe,
        tn_mpe_m_per_min=compute_tn_mpe(mpe, duration_min),
        mve_mps=compute_mpe(pred_vel, true_vel),
        duration_min=duration_min,
        distance_m=float(np.sum(np.linalg.norm(np.diff(true_pos, axis=0), axis=1))),
        pos_error_m=np.linalg.norm(pred_pos - true_pos, axis=1),
        t_us=t_us,
        true_pos=true_pos,
        pred_pos=pred_pos,
        true_vel=true_vel,
        pred_vel=pred_vel,
    )


def predict_increments(ckpt: Checkpoint, series: UnifiedSeries, batch_size: int = 256) -> np.ndarray:
    """Predict the per-step increments for every window position of a flight.

    Windows take the checkpoint's window size at stride 1, and features are
    normalized with its stored statistics. `rnn.predict` runs them, as a view
    of the rows (no copy), with the stream's `rnn.Rolling` arithmetic, so the
    two agree bit for bit. batch_size has no effect; it is accepted for callers
    that still pass it.
    """
    w = ckpt.meta["window"]
    if len(series.labels) < w:
        raise DataError(f"flight too short: {len(series.labels)} steps < window {w}")
    norm = Normalization(mean=ckpt.meta["feature_mean"], std=ckpt.meta["feature_std"])
    rows = norm.apply(series.features[: len(series.labels)])
    return predict(ckpt.params, np.lib.stride_tricks.sliding_window_view(rows, w, axis=0).transpose(0, 2, 1))


def evaluate_flight(ckpt: Checkpoint, series: UnifiedSeries) -> FlightMetrics:
    """Metrics for one flight against its estimator ground truth.

    series is the unified cleaned/trimmed log. The path is reconstructed
    from the true state at the first prediction time (the end of the first
    full window); metrics cover the prediction span only.
    """
    increments = predict_increments(ckpt, series)
    start = ckpt.meta["window"] - 1  # row index of the state the first increment builds on
    pred_pos, pred_vel = reconstruct_path(
        increments, (series.state_pos[start], series.state_vel[start])
    )
    return _metrics_from_series(series.log_id, series, start, pred_pos, pred_vel)


def baseline_flight_metrics(
    log: FlightLog, series: UnifiedSeries, window: int, cfg: DeadReckonConfig | None = None
) -> FlightMetrics:
    """Dead-reckoning metrics over the same prediction span as the network.

    series is unify_rates(log). The integrator starts from the true state
    at the first prediction time, so both estimators get identical initial
    conditions; its attitude is the last estimator sample at or before that
    time, which on the bin grid is the sample at it.
    """
    if len(series.labels) < window:
        raise DataError(f"flight too short: {len(series.labels)} steps < window {window}")
    start = window - 1
    init = NavState(
        quat=log.ekf.quat[np.searchsorted(log.ekf.t_us, series.t_us[start], side="right") - 1].copy(),
        vel_ned=series.state_vel[start].copy(),
        pos_ned=series.state_pos[start].copy(),
        t_us=int(series.t_us[start]),
    )
    traj = dead_reckon(log, cfg or DeadReckonConfig(), init=init)
    vel, pos = traj.sample_at(series.t_us[start:])
    return _metrics_from_series(log.log_id + "/deadreckon", series, start, pos, vel)


def aggregate_metrics(metrics: list[FlightMetrics]) -> dict:
    """Mean / median / p90 / best / worst per metric.

    Median uses the lower middle element for even counts and p90 the nearest
    rank (the ceil(0.9·n)-th smallest), so both are values that occurred.
    """
    if not metrics:
        raise DataError("no metrics to aggregate")

    def stats(values: np.ndarray) -> dict:
        ordered = np.sort(values)
        return {
            "mean": float(np.mean(ordered)),
            "median": float(ordered[(len(ordered) - 1) // 2]),
            "p90": float(ordered[-(-9 * len(ordered) // 10) - 1]),
            "best": float(ordered[0]),
            "worst": float(ordered[-1]),
        }

    return {
        "count": len(metrics),
        "mpe_m": stats(np.array([m.mpe_m for m in metrics])),
        "tn_mpe_m_per_min": stats(np.array([m.tn_mpe_m_per_min for m in metrics])),
        "mve_mps": stats(np.array([m.mve_mps for m in metrics])),
    }


def write_summary_csv(rows: list[FlightMetrics], path: str | Path, baseline: list[FlightMetrics] | None = None) -> None:
    """Per-flight metric table; optional dead-reckoning columns alongside."""
    header = "log_id,duration_min,distance_m,nn_mpe_m,nn_tn_mpe_m_per_min,nn_mve_mps"
    if baseline is not None:
        header += ",deadreckon_mpe_m,deadreckon_tn_mpe_m_per_min,deadreckon_mve_mps"
    lines = [header]
    for i, m in enumerate(rows):
        line = (
            f"{m.log_id},{m.duration_min:.6g},{m.distance_m:.6g},"
            f"{m.mpe_m:.6g},{m.tn_mpe_m_per_min:.6g},{m.mve_mps:.6g}"
        )
        if baseline is not None:
            b = baseline[i]
            line += f",{b.mpe_m:.6g},{b.tn_mpe_m_per_min:.6g},{b.mve_mps:.6g}"
        lines.append(line)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
