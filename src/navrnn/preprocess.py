"""Preprocessing: raw flight logs to training-ready windowed datasets.

Sensor streams are averaged between consecutive estimator outputs to unify
all rates to the 5 Hz label rate; barometric altitude is differenced and
temperature passed through; labels are per-step increments of the estimator
state. Ground time is trimmed with a velocity-hysteresis detector. Fixed-
length windows with z-scored features feed the network; `build_dataset` is
the only code that cuts them, and the NAVW windows file goes through
flightlog's binary codec. Raw measurements are never filtered.

The cleanup verdict is decided here alone, by one staged check shared by
`clean_log` (a log directory) and `detect_corrupted` (a log in memory). It
stops at the first rejection, so a rejected log's later files are never read:
(1) manifest.json, then ekf.csv and the estimator's own invariants; (2)
takeoff and landing from the estimator alone (`no_takeoff`), then the
post-trim duration (`too_short`); (3) baro.csv, mag.csv and imu.csv, smallest
first, each checked on its own as it is read; (4) the overlap of the streams,
then acceptance with the crop to [takeoff, landing]. An unreadable file or a
failed invariant is `validation_defects`. So a log with an estimator problem
and a sensor problem reports the estimator one, and the WARNING line of a
rejected log lists only the defects of the first stream that fails.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, DataError, EmptyBinError, ValidationError, check_fields
from .flightlog import (STREAMS, EkfStream, FlightLog, read_binary, read_json_object, read_manifest, read_stream,
                        split_payload, write_binary, write_json)
from .synth import DatasetManifest, LogEntry

logger = logging.getLogger(__name__)

# the inertial columns, barometer temperature and altitude difference, then the magnetometer columns
FEATURE_NAMES = (*STREAMS["imu"].COLUMNS, STREAMS["baro"].COLUMNS[0], "dalt_m", *STREAMS["mag"].COLUMNS)
LABEL_NAMES = ("dpn", "dpe", "dpd", "dvn", "dve", "dvd")
N_FEATURES = len(FEATURE_NAMES)
N_LABELS = len(LABEL_NAMES)

WINDOWS_MAGIC = b"NAVW"
WINDOWS_VERSION = 1
WINDOWS_HEAD = "<5I"  # version, window count, window length, feature count, label count


@dataclass
class UnifiedSeries:
    """5 Hz aligned feature/label table for one flight.

    Row k holds the sensor averages over the k-th inter-estimator interval
    and is stamped with the interval's end time; label k is the estimator
    state increment over the interval that follows row k. A series with n
    rows therefore carries n-1 labels.
    """

    t_us: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    state_pos: np.ndarray
    state_vel: np.ndarray
    baro_carried: int = 0
    mag_carried: int = 0
    log_id: str = ""

    def __len__(self) -> int:
        return len(self.t_us)


# the sensor streams features are built from, in FEATURE_NAMES order, and their value widths
SENSORS = {name: len(STREAMS[name].COLUMNS) for name in ("imu", "baro", "mag")}


class FeatureAssembler:
    """Causal feature rows from raw sensor samples, for batch and stream alike.

    `add` takes a sensor's samples in arrival order; `close` ends one
    averaging bin (previous edge, edge] per edge. A bin's mean is an
    np.bincount over its samples in arrival order, so the rows do not depend
    on how samples and edges were split across calls. An empty bin repeats
    the sensor's last value: its previous mean, or a sample that arrived at
    or before the bin's start edge. A sensor with no value yet gives its
    first sample to its leading empty bins, so rows wait in the assembler
    until every sensor has produced one.
    """

    def __init__(self, first_edge_us: int):
        self._edge = int(first_edge_us)  # end of the last bin returned
        self._waiting: list[int] = []  # edges closed while a sensor had no value
        self._t = {s: np.empty(0, dtype=np.int64) for s in SENSORS}  # samples not yet binned
        self._v = {s: np.empty((0, d)) for s, d in SENSORS.items()}
        self._last: dict[str, np.ndarray | None] = dict.fromkeys(SENSORS)
        self._prev_alt: float | None = None

    def add(self, sensor: str, t_us: np.ndarray, values: np.ndarray) -> None:
        if len(t_us) == 0:
            return
        if len(self._t[sensor]):
            t_us = np.concatenate([self._t[sensor], t_us])
            values = np.concatenate([self._v[sensor], values])
        self._t[sensor], self._v[sensor] = np.asarray(t_us), np.asarray(values, dtype=np.float64)

    def close(self, edges) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Close one bin per edge.

        Returns the feature rows [m, N_FEATURES] of every row now complete,
        and per sensor the flags [m] of the rows whose bin was empty: none
        while a sensor has produced no sample, then one per edge closed since
        the last rows.
        """
        self._waiting.extend(int(e) for e in edges)
        if any(self._last[s] is None and len(self._t[s]) == 0 for s in SENSORS):
            return np.empty((0, N_FEATURES)), {s: np.empty(0, dtype=bool) for s in SENSORS}
        grid = np.array([self._edge, *self._waiting], dtype=np.int64)
        self._waiting = []
        self._edge = int(grid[-1])
        means, empty = {}, {}
        for s in SENSORS:
            means[s], empty[s] = self._bin(s, grid)
        imu, baro, mag = means["imu"], means["baro"], means["mag"]
        alt = baro[:, 1]
        dalt = np.empty((len(alt), 1))
        dalt[0] = 0.0 if self._prev_alt is None else alt[0] - self._prev_alt
        dalt[1:, 0] = alt[1:] - alt[:-1]
        self._prev_alt = alt[-1]
        return np.concatenate([imu, baro[:, :1], dalt, mag], axis=1), empty

    def _bin(self, sensor: str, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t, v = self._t[sensor], self._v[sensor]
        m, d = len(grid) - 1, SENSORS[sensor]
        # slot 0 holds samples at or before the first edge, slot k bin k-1, slot m+1 those after the last edge
        slot = grid.searchsorted(t)
        counts = np.bincount(slot, minlength=m + 2)
        # one bincount over the (slot, column) cells still adds each cell's samples in arrival order
        sums = np.bincount((slot[:, None] * d + np.arange(d)).ravel(), weights=v.ravel(), minlength=(m + 2) * d)
        if counts[0]:
            self._last[sensor] = v[slot == 0][-1]
        pending = slot > m if counts[-1] else slice(0)  # samples after the last edge wait for the next call
        self._t[sensor], self._v[sensor] = t[pending], v[pending]
        counts = counts[1:-1]
        means = sums.reshape(m + 2, d)[1:-1] / np.maximum(counts, 1)[:, None]  # empty bins are filled below
        empty = counts == 0
        if empty.any():
            seed = self._last[sensor] if self._last[sensor] is not None else v[0]
            src = np.maximum.accumulate(np.where(empty, -1, np.arange(m)))
            means = np.where((src < 0)[:, None], seed, means[src])
        self._last[sensor] = means[-1]
        return means, empty


def unify_rates(log: FlightLog) -> UnifiedSeries:
    """Average every sensor stream between consecutive estimator outputs.

    Each interval (t_{k}, t_{k+1}] between estimator samples becomes one
    feature row, built by a FeatureAssembler fed the whole log. An interval
    with no inertial samples is a hard error; empty barometer/magnetometer
    intervals reuse the previous value and are counted in the carried-bin
    fields.
    """
    t_edges = log.ekf.t_us
    n = len(t_edges) - 1
    if n < 1:
        raise DataError("need at least two estimator samples")
    assembler = FeatureAssembler(t_edges[0])
    for sensor in SENSORS:
        stream = getattr(log, sensor)
        assembler.add(sensor, stream.t_us, stream.values)
    features, empty = assembler.close(t_edges[1:])
    if len(features) < n:
        raise DataError("a sensor stream has no samples")
    if empty["imu"].any():
        raise EmptyBinError(f"imu: {int(empty['imu'].sum())} estimator interval(s) without samples")

    state_pos = log.ekf.pos_ned[1:]
    state_vel = log.ekf.vel_ned[1:]
    labels = np.hstack([np.diff(state_pos, axis=0), np.diff(state_vel, axis=0)])
    return UnifiedSeries(
        t_us=t_edges[1:].copy(),
        features=features,
        labels=labels,
        state_pos=state_pos,
        state_vel=state_vel,
        baro_carried=int(empty["baro"].sum()),
        mag_carried=int(empty["mag"].sum()),
        log_id=log.log_id,
    )


def flight_span(ekf: EkfStream, vel_thresh_mps: float = 0.5, hold_s: float = 1.0) -> tuple[int, int] | None:
    """Ground-time trimming: the takeoff and landing times (us) of an
    estimator stream, or None when it never takes off. Takeoff is the first
    sample whose velocity norm stays above vel_thresh_mps for hold_s; landing
    is the end of the last such stretch."""
    moving = (np.linalg.norm(ekf.vel_ned, axis=1) > vel_thresh_mps).astype(np.int8)
    dt_med = float(np.median(np.diff(ekf.t_us))) * 1e-6 if len(ekf) > 1 else 0.2
    hold_n = max(1, int(round(min(hold_s / max(dt_med, 1e-6), len(ekf) + 1))))  # no overflow for a huge hold_s
    step = np.diff(moving, prepend=0, append=0)
    starts, stops = np.flatnonzero(step == 1), np.flatnonzero(step == -1)  # runs of motion [start, stop)
    sustained = stops - starts >= hold_n
    if not sustained.any():
        return None
    return int(ekf.t_us[starts[sustained][0]]), int(ekf.t_us[stops[sustained][-1] - 1])


@dataclass
class CleanupVerdict:
    log_id: str
    accepted: bool
    reasons: list[str] = field(default_factory=list)
    post_trim_duration_s: float | None = None
    trimmed: FlightLog | None = None

    def to_dict(self) -> dict:
        return {key: value for key, value in vars(self).items() if key != "trimmed"}


def detect_corrupted(log: FlightLog, max_gap_s: float = 1.0, min_duration_s: float = 60.0,
                     vel_thresh_mps: float = 0.5, hold_s: float = 1.0) -> CleanupVerdict:
    """The cleanup verdict on a log in memory, in the module docstring's order.
    Raises only ConfigError, for an option that is not a finite number >= 0; a
    rejected log gets one WARNING line naming its reason."""
    return _judge(log.log_id, lambda: vars(log), partial(getattr, log),
                  max_gap_s, min_duration_s, vel_thresh_mps, hold_s)


def clean_log(path: str | Path, log_id: str, **options) -> CleanupVerdict:
    """detect_corrupted's verdict on a log directory, reading each file only
    while the log can still be accepted; an unreadable file rejects the log."""
    return _judge(log_id, partial(read_manifest, path), partial(read_stream, path), **options)


def _judge(log_id, head, stream, max_gap_s=1.0, min_duration_s=60.0, vel_thresh_mps=0.5, hold_s=1.0):
    """The one cleanup verdict, over head() (the log's FlightLog fields) and stream(name)."""
    options = SimpleNamespace(max_gap_s=max_gap_s, min_duration_s=min_duration_s, vel_thresh_mps=vel_thresh_mps,
                              hold_s=hold_s)
    check_fields(options, floats=dict.fromkeys(vars(options), 0))
    verdict = CleanupVerdict(log_id=log_id, accepted=False)

    def checked(name):
        data = stream(name)
        if found := data.defects(max_gap_s):
            raise ValidationError("; ".join(found))
        return data

    try:
        fields = head()
        verdict.log_id = fields["log_id"]
        ekf = checked("ekf")
        span = flight_span(ekf, vel_thresh_mps, hold_s)
        if span is None:
            return _reject(verdict, "no_takeoff", f"no sustained motion above {vel_thresh_mps:g} m/s")
        duration = float(span[1] - span[0]) * 1e-6
        if duration < min_duration_s:
            verdict.post_trim_duration_s = duration
            return _reject(verdict, "too_short", f"{duration:g} s after trimming (minimum {min_duration_s:g} s)")
        log = FlightLog(**{**fields, "ekf": ekf, **{name: checked(name) for name in ("baro", "mag", "imu")}})
        if found := log.overlap_defects():
            raise ValidationError("; ".join(found))
    except (DataError, ValidationError) as exc:
        return _reject(verdict, "validation_defects", str(exc))
    verdict.accepted = True
    verdict.post_trim_duration_s = duration
    verdict.trimmed = log.crop(*span)
    return verdict


def _reject(verdict: CleanupVerdict, reason: str, detail: str) -> CleanupVerdict:
    """Record reason on a rejected verdict, with the one WARNING line each rejected log gets."""
    logger.warning("rejecting %s (%s): %s", verdict.log_id, reason, detail)
    verdict.reasons.append(reason)
    return verdict


def compute_signal_weights(all_labels: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Loss weight per label signal: reciprocal of its mean absolute value."""
    all_labels = np.asarray(all_labels, dtype=float)
    if all_labels.ndim != 2 or len(all_labels) == 0:
        raise DataError("labels must be a non-empty 2-D array")
    return 1.0 / np.maximum(np.mean(np.abs(all_labels), axis=0), eps)


@dataclass
class Normalization:
    """Per-feature z-score statistics, frozen from the training corpus.

    Stored and applied in float32 so every consumer (batch pipeline, file
    round trip, streaming inference) performs identical arithmetic.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float32).reshape(-1)
        self.std = np.asarray(self.std, dtype=np.float32).reshape(-1)
        if not np.all(self.std > 0):  # NaN fails too
            raise ConfigError("normalization std must be positive")

    @classmethod
    def fit(cls, features: np.ndarray) -> "Normalization":
        mean = np.mean(features, axis=0)
        std = np.maximum(np.std(features, axis=0), 1e-6)
        return cls(mean=mean, std=std)

    def apply(self, features: np.ndarray) -> np.ndarray:
        rows = np.asarray(features, dtype=np.float32)
        return (rows - self.mean) / self.std


def fit_normalization(series_list: list[UnifiedSeries]) -> Normalization:
    return Normalization.fit(np.vstack([s.features for s in series_list]))


@dataclass
class WindowedDataset:
    """Fixed-length feature windows with the increment label at each window end."""

    windows: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    window_size: int
    stride: int
    normalization: Normalization
    source_logs: list[str] = field(default_factory=list)
    period_ms: int = 200  # label period the source series were binned at

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.float32)
        self.weights = np.asarray(self.weights, dtype=np.float32).reshape(-1)
        if not np.all(self.weights > 0):  # NaN fails too
            raise ConfigError("signal weights must be positive")

    def __len__(self) -> int:
        return len(self.windows)


def build_dataset(
    series_list: list[UnifiedSeries],
    window: int = 200,
    stride: int = 1,
    normalization: Normalization | None = None,
    weights: np.ndarray | None = None,
) -> WindowedDataset:
    """Window a corpus of flights; the one windowing path. Windows never straddle flights.

    Window j of a flight covers its feature rows [j*stride, j*stride + window);
    its label is the increment at the window's final step. Each flight's rows
    are normalised once and its strided window view is copied straight into
    one C-contiguous [M, window, f] float32 array. Normalization statistics
    and signal weights are computed from the given corpus when not provided,
    so compute them on the training corpus and pass them in for the
    validation corpus. The dataset's period_ms is the median row step of the
    corpus, rounded to whole milliseconds.
    """
    if not series_list:
        raise DataError("empty series list")
    if window < 1 or stride < 1:
        raise ConfigError("window and stride must be >= 1")
    period_ms = round(float(np.median(np.concatenate([np.diff(s.t_us) for s in series_list]))) / 1000.0)
    if period_ms < 1:
        raise DataError(f"series rows are {period_ms} ms apart; a period needs at least 1 ms")
    norm = normalization or fit_normalization(series_list)
    w = weights if weights is not None else compute_signal_weights(np.vstack([s.labels for s in series_list]))
    views, labels = [], []
    for s in series_list:
        n_labels = len(s.labels)
        if n_labels < window:
            raise DataError(f"{s.log_id}: series too short: {n_labels} labels < window {window}")
        rows = norm.apply(s.features[:n_labels])
        views.append(np.lib.stride_tricks.sliding_window_view(rows, window, axis=0)[::stride].transpose(0, 2, 1))
        labels.append(s.labels[window - 1 :: stride])
    windows = np.empty((sum(map(len, views)), *views[0].shape[1:]), dtype=np.float32)
    return WindowedDataset(
        windows=np.concatenate(views, axis=0, out=windows),
        labels=np.concatenate(labels, axis=0, dtype=np.float32),
        weights=w,
        window_size=window,
        stride=stride,
        normalization=norm,
        source_logs=[s.log_id for s in series_list],
        period_ms=period_ms,
    )


def split_dataset(
    manifest: DatasetManifest, val_fraction: float, seed: int
) -> tuple[list[LogEntry], list[LogEntry]]:
    """Whole-flight train/validation split, deterministic for a given seed."""
    if not (0.0 < val_fraction < 1.0):
        raise ConfigError("val_fraction must be in (0, 1)")
    entries = list(manifest.logs)
    if len(entries) < 2:
        raise DataError("need at least two logs to split")
    order = np.random.default_rng(seed).permutation(len(entries))
    n_val = int(round(len(entries) * val_fraction))
    n_val = min(max(n_val, 1), len(entries) - 1)
    val = [entries[i] for i in order[:n_val]]
    train = [entries[i] for i in order[n_val:]]
    return train, val


# ---------------------------------------------------------------------------
# windows container


def save_windows(dataset: WindowedDataset, path: str | Path, provenance: dict | None = None) -> None:
    """Write windows.bin (binary) and its windows.json sidecar.

    The sidecar holds the dataset's source_logs, stride and period_ms, the
    fields `load_windows` reads from it, beside the caller's provenance
    entries, which cannot override them.
    """
    path = Path(path)
    m, w, f = dataset.windows.shape
    head = struct.pack(WINDOWS_HEAD, WINDOWS_VERSION, m, w, f, dataset.labels.shape[1])
    norm = dataset.normalization
    write_binary(path, WINDOWS_MAGIC, head, (dataset.windows, dataset.labels, dataset.weights, norm.mean, norm.std))
    fields = {"source_logs": dataset.source_logs, "stride": dataset.stride, "period_ms": dataset.period_ms}
    write_json({**(provenance or {}), **fields}, path.with_suffix(".json"))


def load_windows(path: str | Path) -> WindowedDataset:
    """The dataset `save_windows` wrote to path; a missing or malformed
    windows file, sidecar or sidecar field raises DataError."""
    path = Path(path)
    (m, w, f, lab), payload = read_binary(path, WINDOWS_MAGIC, WINDOWS_HEAD, WINDOWS_VERSION, DataError)
    shapes = (("windows", (m, w, f)), ("labels", (m, lab)), ("weights", (lab,)), ("mean", (f,)), ("std", (f,)))
    arrays = split_payload(path, payload, shapes, DataError)
    sidecar_path = path.with_suffix(".json")
    meta = read_json_object(sidecar_path)
    stride, period_ms, source_logs = meta.get("stride"), meta.get("period_ms"), meta.get("source_logs")
    for key, value in (("stride", stride), ("period_ms", period_ms)):
        if type(value) is not int or value < 1:
            raise DataError(f"{sidecar_path}: {key} must be a positive integer, got {value!r}")
    if not isinstance(source_logs, list) or not all(isinstance(s, str) for s in source_logs):
        raise DataError(f"{sidecar_path}: source_logs must be a list of log ids")
    try:  # a value the dataclasses reject is bad file content, not bad configuration
        return WindowedDataset(
            windows=arrays["windows"],
            labels=arrays["labels"],
            weights=arrays["weights"],
            window_size=w,
            stride=stride,
            normalization=Normalization(mean=arrays["mean"], std=arrays["std"]),
            source_logs=source_logs,
            period_ms=period_ms,
        )
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc
