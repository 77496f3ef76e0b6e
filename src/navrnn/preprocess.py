"""Preprocessing: raw flight logs to training-ready windowed datasets.

Sensor streams are averaged between consecutive estimator outputs to unify
all rates to the 5 Hz label rate; barometric altitude is differenced and
temperature passed through; labels are per-step increments of the estimator
state. Ground time is trimmed with a velocity-hysteresis detector. The
cleanup verdict (clean_log, detect_corrupted) is decided here alone: a log
that cannot be read, has a defect, never takes off or is too short is
rejected with a reason. Fixed-length windows with z-scored features feed
the network. Raw measurements are never filtered.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, EmptyBinError, NoTakeoffError, ValidationError
from .flightlog import EkfState, FlightLog, read_flight_log, read_json_object, write_json
from .synth import DatasetManifest, LogEntry

logger = logging.getLogger(__name__)

FEATURE_NAMES = ("gx", "gy", "gz", "ax", "ay", "az", "temp_c", "dalt_m", "mx", "my", "mz")
LABEL_NAMES = ("dpn", "dpe", "dpd", "dvn", "dve", "dvd")
N_FEATURES = len(FEATURE_NAMES)
N_LABELS = len(LABEL_NAMES)

WINDOWS_MAGIC = b"NAVW"
WINDOWS_VERSION = 1


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
    init_state: EkfState
    state_pos: np.ndarray
    state_vel: np.ndarray
    baro_carried: int = 0
    mag_carried: int = 0
    log_id: str = ""

    def __len__(self) -> int:
        return len(self.t_us)


# raw value columns per sensor, in FEATURE_NAMES order (the barometer gives temperature and altitude)
SENSORS = {"imu": 6, "baro": 2, "mag": 3}


def sensor_samples(log: FlightLog) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each sensor's timestamps and raw values, columns in FEATURE_NAMES order."""
    return {
        "imu": (log.imu.t_us, np.hstack([log.imu.gyro, log.imu.accel])),
        "baro": (log.baro.t_us, np.column_stack([log.baro.temp_c, log.baro.alt_m])),
        "mag": (log.mag.t_us, log.mag.mag),
    }


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
    for sensor, (t_us, values) in sensor_samples(log).items():
        assembler.add(sensor, t_us, values)
    features, empty = assembler.close(t_edges[1:])
    if len(features) < n:
        raise DataError("a sensor stream has no samples")
    if empty["imu"].any():
        raise EmptyBinError(f"imu: {int(empty['imu'].sum())} estimator interval(s) without samples")

    state_pos = log.ekf.pos_ned[1:]
    state_vel = log.ekf.vel_ned[1:]
    labels = np.hstack([np.diff(state_pos, axis=0), np.diff(state_vel, axis=0)])
    init = EkfState(
        t_us=int(t_edges[1]),
        quat=log.ekf.quat[1].copy(),
        vel_ned=log.ekf.vel_ned[1].copy(),
        pos_ned=log.ekf.pos_ned[1].copy(),
    )
    return UnifiedSeries(
        t_us=t_edges[1:].copy(),
        features=features,
        labels=labels,
        init_state=init,
        state_pos=state_pos,
        state_vel=state_vel,
        baro_carried=int(empty["baro"].sum()),
        mag_carried=int(empty["mag"].sum()),
        log_id=log.log_id,
    )


def trim_ground_time(log: FlightLog, vel_thresh_mps: float = 0.5, hold_s: float = 1.0) -> FlightLog:
    """Crop a log to [takeoff, landing].

    Takeoff is the first estimator sample whose velocity norm stays above
    vel_thresh_mps for hold_s; landing is the end of the last such stretch.
    Raises NoTakeoffError when no sustained motion exists.
    """
    if len(log.ekf) == 0:
        raise DataError("ekf stream is empty")
    speed = np.linalg.norm(log.ekf.vel_ned, axis=1)
    moving = speed > vel_thresh_mps
    dt_med = float(np.median(np.diff(log.ekf.t_us))) * 1e-6 if len(log.ekf) > 1 else 0.2
    hold_n = max(1, int(round(hold_s / max(dt_med, 1e-6))))

    sustained_starts = []
    sustained_ends = []
    i = 0
    n = len(moving)
    while i < n:
        if moving[i]:
            j = i
            while j < n and moving[j]:
                j += 1
            if j - i >= hold_n:
                sustained_starts.append(i)
                sustained_ends.append(j - 1)
            i = j
        else:
            i += 1
    if not sustained_starts:
        raise NoTakeoffError(f"{log.log_id}: no sustained motion above {vel_thresh_mps} m/s")
    t_takeoff = int(log.ekf.t_us[sustained_starts[0]])
    t_landing = int(log.ekf.t_us[sustained_ends[-1]])
    return log.crop(t_takeoff, t_landing)


@dataclass
class CleanupVerdict:
    log_id: str
    accepted: bool
    reasons: list[str] = field(default_factory=list)
    post_trim_duration_s: float | None = None
    trimmed: FlightLog | None = None

    def to_dict(self) -> dict:
        return {
            "log_id": self.log_id,
            "accepted": self.accepted,
            "reasons": list(self.reasons),
            "post_trim_duration_s": self.post_trim_duration_s,
        }


def detect_corrupted(
    log: FlightLog,
    max_gap_s: float = 1.0,
    min_duration_s: float = 60.0,
    vel_thresh_mps: float = 0.5,
    hold_s: float = 1.0,
) -> CleanupVerdict:
    """Decide whether a log is usable; never raises.

    Rejection reasons: validation defects (any defect FlightLog.defects
    finds, with max_gap_s as its gap limit), no takeoff, or a post-trim
    duration below min_duration_s. The trimmed log is attached when the
    verdict is positive.
    """
    verdict = CleanupVerdict(log_id=log.log_id, accepted=False)
    defects = log.defects(max_gap_s)
    if defects:
        logger.warning("rejecting %s: %s", log.log_id, "; ".join(defects))
        verdict.reasons.append("validation_defects")
        return verdict
    try:
        trimmed = trim_ground_time(log, vel_thresh_mps=vel_thresh_mps, hold_s=hold_s)
    except NoTakeoffError:
        verdict.reasons.append("no_takeoff")
        return verdict
    verdict.post_trim_duration_s = trimmed.duration_s
    if trimmed.duration_s < min_duration_s:
        verdict.reasons.append("too_short")
        return verdict
    verdict.accepted = True
    verdict.trimmed = trimmed
    return verdict


def clean_log(path: str | Path, log_id: str, **options) -> CleanupVerdict:
    """Read one log directory and run detect_corrupted(log, **options) on it.

    A log that cannot be read (missing or malformed files) or fails its
    invariant checks on load is rejected as validation_defects, like a log
    detect_corrupted finds defects in, so one bad log never ends a corpus.
    """
    try:
        flight = read_flight_log(path)
    except (DataError, ValidationError) as exc:
        logger.warning("rejecting %s: %s", log_id, exc)
        return CleanupVerdict(log_id=log_id, accepted=False, reasons=["validation_defects"])
    return detect_corrupted(flight, **options)


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


def window_count(n_labels: int, window: int, stride: int) -> int:
    return (n_labels - window) // stride + 1


def gather_windows(rows: np.ndarray, window: int, stride: int, count: int) -> np.ndarray:
    """Contiguous [count, window, f] copy of rows[j*stride : j*stride + window] for j < count."""
    view = np.lib.stride_tricks.sliding_window_view(rows, window, axis=0)[: (count - 1) * stride + 1 : stride]
    return np.ascontiguousarray(view.transpose(0, 2, 1))


def make_windows(
    series: UnifiedSeries,
    window: int = 200,
    stride: int = 1,
    normalization: Normalization | None = None,
    weights: np.ndarray | None = None,
) -> WindowedDataset:
    """Slice one unified series into overlapping windows.

    Window j covers feature rows [j*stride, j*stride + window); its label is
    the increment at the window's final step. Normalization defaults to
    statistics of this series alone; pass the training-corpus statistics for
    anything that will be evaluated.
    """
    if window < 1 or stride < 1:
        raise ConfigError("window and stride must be >= 1")
    n_labels = len(series.labels)
    if n_labels < window:
        raise DataError(f"series too short: {n_labels} labels < window {window}")
    norm = normalization or Normalization.fit(series.features)
    rows = norm.apply(series.features)
    m = window_count(n_labels, window, stride)
    windows = gather_windows(rows, window, stride, m)
    labels = series.labels[window - 1 :: stride][:m]
    w = weights if weights is not None else compute_signal_weights(series.labels)
    return WindowedDataset(
        windows=windows,
        labels=labels,
        weights=w,
        window_size=window,
        stride=stride,
        normalization=norm,
        source_logs=[series.log_id],
    )


def build_dataset(
    series_list: list[UnifiedSeries],
    window: int = 200,
    stride: int = 1,
    normalization: Normalization | None = None,
    weights: np.ndarray | None = None,
) -> WindowedDataset:
    """Window a corpus of flights; windows never straddle flights.

    Normalization statistics and signal weights are computed from the given
    corpus when not provided, so compute them on the training corpus and
    pass them in for the validation corpus.
    """
    if not series_list:
        raise DataError("empty series list")
    norm = normalization or fit_normalization(series_list)
    w = weights if weights is not None else compute_signal_weights(np.vstack([s.labels for s in series_list]))
    parts = [make_windows(s, window=window, stride=stride, normalization=norm, weights=w) for s in series_list]
    return WindowedDataset(
        windows=np.concatenate([p.windows for p in parts], axis=0),
        labels=np.concatenate([p.labels for p in parts], axis=0),
        weights=w,
        window_size=window,
        stride=stride,
        normalization=norm,
        source_logs=[s.log_id for s in series_list],
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
    """Write windows.bin (binary) and a windows.json provenance sidecar."""
    path = Path(path)
    m, w, f = dataset.windows.shape
    lab = dataset.labels.shape[1]
    with open(path, "wb") as fh:
        fh.write(WINDOWS_MAGIC)
        fh.write(struct.pack("<5I", WINDOWS_VERSION, m, w, f, lab))
        fh.write(np.ascontiguousarray(dataset.windows, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(dataset.labels, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(dataset.weights, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(dataset.normalization.mean, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(dataset.normalization.std, dtype="<f4").tobytes())
    sidecar = {
        "source_logs": dataset.source_logs,
        "window": dataset.window_size,
        "stride": dataset.stride,
        "count": m,
    }
    if provenance:
        sidecar.update(provenance)
    write_json(sidecar, path.with_suffix(".json"))


def load_windows(path: str | Path) -> WindowedDataset:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"missing windows file: {path}")
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != WINDOWS_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        header = fh.read(20)
        if len(header) != 20:
            raise DataError(f"{path}: truncated header")
        version, m, w, f, lab = struct.unpack("<5I", header)
        if version != WINDOWS_VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        payload = fh.read()
    expected = 4 * (m * w * f + m * lab + lab + 2 * f)
    if len(payload) != expected:
        raise DataError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    arr = np.frombuffer(payload, dtype="<f4")
    o1 = m * w * f
    o2 = o1 + m * lab
    o3 = o2 + lab
    o4 = o3 + f
    sidecar_path = path.with_suffix(".json")
    meta = read_json_object(sidecar_path) if sidecar_path.is_file() else {}
    stride = meta.get("stride", 1)
    period_ms = meta.get("period_ms", WindowedDataset.period_ms)
    for key, value in (("stride", stride), ("period_ms", period_ms)):
        if type(value) is not int or value < 1:
            raise DataError(f"{sidecar_path}: {key} must be a positive integer, got {value!r}")
    source_logs = meta.get("source_logs", [])
    if not isinstance(source_logs, list) or not all(isinstance(s, str) for s in source_logs):
        raise DataError(f"{sidecar_path}: source_logs must be a list of log ids")
    try:  # a value the dataclasses reject is bad file content, not bad configuration
        return WindowedDataset(
            windows=arr[:o1].reshape(m, w, f).copy(),
            labels=arr[o1:o2].reshape(m, lab).copy(),
            weights=arr[o2:o3].copy(),
            window_size=w,
            stride=stride,
            normalization=Normalization(mean=arr[o3:o4].copy(), std=arr[o4:].copy()),
            source_logs=source_logs,
            period_ms=period_ms,
        )
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc
