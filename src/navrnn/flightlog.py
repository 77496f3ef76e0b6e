"""Flight-log data model and its on-disk container.

A flight log holds the four multi-rate streams a low-cost autopilot records:
inertial samples (gyro + accelerometer), barometer, magnetometer, and the
estimator's state output (quaternion attitude, NED velocity and position).
Timestamps are integer microseconds from log start. On disk a log is a
directory of four CSV files plus a JSON manifest; floats are written with
17 significant digits so the decimal round trip is bit exact.

The same text codec serves every JSON and CSV file the toolkit reads or
writes: `write_json`/`read_json_object` and `write_table`/`read_table`.
A file the readers cannot parse raises one error that names the file.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError

SCHEMA_VERSION = 1

VEHICLE_TYPES = (
    "quadrotor",
    "fixed_wing",
    "vtol",
    "octorotor",
    "hexarotor",
    "ground_vehicle",
    "unknown",
)
SOURCES = ("recorded", "synthetic")

QUAT_NORM_TOL = 1e-3

_CSV_HEADERS = {
    "imu": "t_us,gx,gy,gz,ax,ay,az",
    "baro": "t_us,temp_c,alt_m",
    "mag": "t_us,mx,my,mz",
    "ekf": "t_us,q1,q2,q3,q4,vn,ve,vd,pn,pe,pd",
}


def _as_time(t) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(t), dtype=np.int64)


def _as_f64(a, cols: int | None = None) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a), dtype=np.float64)
    if cols is not None and (out.ndim != 2 or out.shape[1] != cols):
        raise ValidationError(f"expected array with {cols} columns, got shape {out.shape}")
    return out


@dataclass
class ImuStream:
    """Gyro (rad/s) and accelerometer (m/s^2, specific force) in body frame."""

    t_us: np.ndarray
    gyro: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        self.t_us = _as_time(self.t_us)
        self.gyro = _as_f64(self.gyro, 3)
        self.accel = _as_f64(self.accel, 3)
        if not (len(self.t_us) == len(self.gyro) == len(self.accel)):
            raise ValidationError("imu stream arrays have mismatched lengths")

    def __len__(self) -> int:
        return len(self.t_us)


@dataclass
class BaroStream:
    """Barometer temperature (degC) and pressure altitude (m)."""

    t_us: np.ndarray
    temp_c: np.ndarray
    alt_m: np.ndarray

    def __post_init__(self):
        self.t_us = _as_time(self.t_us)
        self.temp_c = _as_f64(self.temp_c)
        self.alt_m = _as_f64(self.alt_m)
        if not (len(self.t_us) == len(self.temp_c) == len(self.alt_m)):
            raise ValidationError("baro stream arrays have mismatched lengths")

    def __len__(self) -> int:
        return len(self.t_us)


@dataclass
class MagStream:
    """Magnetic field components (gauss) in body frame."""

    t_us: np.ndarray
    mag: np.ndarray

    def __post_init__(self):
        self.t_us = _as_time(self.t_us)
        self.mag = _as_f64(self.mag, 3)
        if len(self.t_us) != len(self.mag):
            raise ValidationError("mag stream arrays have mismatched lengths")

    def __len__(self) -> int:
        return len(self.t_us)


@dataclass
class EkfStream:
    """Estimator output: unit quaternion, NED velocity (m/s), NED position (m)."""

    t_us: np.ndarray
    quat: np.ndarray
    vel_ned: np.ndarray
    pos_ned: np.ndarray

    def __post_init__(self):
        self.t_us = _as_time(self.t_us)
        self.quat = _as_f64(self.quat, 4)
        self.vel_ned = _as_f64(self.vel_ned, 3)
        self.pos_ned = _as_f64(self.pos_ned, 3)
        if not (len(self.t_us) == len(self.quat) == len(self.vel_ned) == len(self.pos_ned)):
            raise ValidationError("ekf stream arrays have mismatched lengths")

    def __len__(self) -> int:
        return len(self.t_us)


@dataclass
class EkfState:
    """A single estimator sample; used as an integration start point."""

    t_us: int
    quat: np.ndarray
    vel_ned: np.ndarray
    pos_ned: np.ndarray


@dataclass
class FlightLog:
    """One flight's raw sensor streams plus the estimator's state stream."""

    log_id: str
    vehicle_type: str
    source: str
    imu: ImuStream
    baro: BaroStream
    mag: MagStream
    ekf: EkfStream
    home_lat_deg: float | None = None

    def __post_init__(self):
        if self.vehicle_type not in VEHICLE_TYPES:
            raise ValidationError(f"unknown vehicle_type {self.vehicle_type!r}")
        if self.source not in SOURCES:
            raise ValidationError(f"unknown source {self.source!r}")

    @property
    def duration_s(self) -> float:
        """Span of the EKF stream in seconds (0 for an empty stream)."""
        if len(self.ekf) == 0:
            return 0.0
        return float(self.ekf.t_us[-1] - self.ekf.t_us[0]) * 1e-6

    def streams(self):
        return (("imu", self.imu), ("baro", self.baro), ("mag", self.mag), ("ekf", self.ekf))

    def defects(self, max_gap_s: float | None = None) -> list[str]:
        """Every invariant the log violates, one message per defect.

        This is the one implementation of the log invariants: non-empty
        streams, strictly increasing timestamps, finite values, unit
        quaternion norms (a non-finite norm is a violation), overlapping
        stream time ranges and, when max_gap_s is given, no step between
        consecutive samples longer than max_gap_s. An empty list means the
        log is sound.
        """
        found = []
        for name, stream in self.streams():
            if len(stream) == 0:
                found.append(f"{name} stream is empty")
                continue
            dt = np.diff(stream.t_us)
            if np.any(dt <= 0):
                found.append(f"{name} timestamps are not strictly increasing")
            if max_gap_s is not None and np.any(dt > max_gap_s * 1e6):
                found.append(f"{name} stream has a gap of {dt.max() * 1e-6:g} s (limit {max_gap_s:g} s)")
            n_bad = sum(np.count_nonzero(~np.isfinite(arr)) for arr in _value_arrays(stream))
            if n_bad:
                found.append(f"{name} stream has {n_bad} non-finite value(s)")
        if len(self.ekf):
            unit = np.abs(np.linalg.norm(self.ekf.quat, axis=1) - 1.0) <= QUAT_NORM_TOL
            if not unit.all():
                found.append(f"ekf quaternions are not unit norm in {np.count_nonzero(~unit)} row(s)")
        if all(len(s) for _, s in self.streams()):
            if max(s.t_us[0] for _, s in self.streams()) > min(s.t_us[-1] for _, s in self.streams()):
                found.append("stream time ranges do not overlap")
        return found

    def check(self) -> None:
        """Raise ValidationError naming every defect `defects()` finds; no gap limit."""
        found = self.defects()
        if found:
            raise ValidationError("; ".join(found))

    def crop(self, t_start_us: int, t_end_us: int) -> "FlightLog":
        """Restrict every stream to [t_start_us, t_end_us], inclusive."""

        def sel(stream):
            return (stream.t_us >= t_start_us) & (stream.t_us <= t_end_us)

        m_imu, m_baro, m_mag, m_ekf = (sel(s) for _, s in self.streams())
        return replace(
            self,
            imu=ImuStream(self.imu.t_us[m_imu], self.imu.gyro[m_imu], self.imu.accel[m_imu]),
            baro=BaroStream(self.baro.t_us[m_baro], self.baro.temp_c[m_baro], self.baro.alt_m[m_baro]),
            mag=MagStream(self.mag.t_us[m_mag], self.mag.mag[m_mag]),
            ekf=EkfStream(
                self.ekf.t_us[m_ekf],
                self.ekf.quat[m_ekf],
                self.ekf.vel_ned[m_ekf],
                self.ekf.pos_ned[m_ekf],
            ),
        )


def _value_arrays(stream) -> tuple[np.ndarray, ...]:
    if isinstance(stream, ImuStream):
        return (stream.gyro, stream.accel)
    if isinstance(stream, BaroStream):
        return (stream.temp_c, stream.alt_m)
    if isinstance(stream, MagStream):
        return (stream.mag,)
    return (stream.quat, stream.vel_ned, stream.pos_ned)


# ---------------------------------------------------------------------------
# text codec


def write_json(payload, path: str | Path) -> None:
    """Write payload as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json_object(path: str | Path, error: type[Exception] = DataError) -> dict:
    """Read a JSON object; a missing file, invalid UTF-8 or JSON, or a value
    that is not an object raises error, naming the file."""
    path = Path(path)
    if not path.is_file():
        raise error(f"missing file: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both are
        raise error(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise error(f"{path}: expected a JSON object")
    return payload


def write_table(path: str | Path, header: str, t_us: np.ndarray, values: np.ndarray) -> None:
    """Write a CSV table: integer times, then float columns at 17 significant
    digits (an exact decimal round trip of float64)."""
    row = "%d" + ",%.17g" * header.count(",") + "\n"
    times = np.asarray(t_us).tolist()
    rows = np.asarray(values, dtype=np.float64).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(row % (t, *v) for t, v in zip(times, rows))


def read_table(path: str | Path, header: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a table written by write_table as (int64 times, [n, d] floats);
    a missing file, a wrong header or any unparsable row raises DataError."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"missing file: {path}")
    d = header.count(",")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != header:
                raise DataError(f"{path}: bad header, expected {header!r}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a table without rows
                rows = np.loadtxt(fh, dtype=[("t", "<i8"), ("v", "<f8", (d,))], delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:  # a bad value, a wrong field count or invalid UTF-8
        raise DataError(f"{path}: malformed table ({exc})") from exc
    return rows["t"], rows["v"]


# ---------------------------------------------------------------------------
# container IO


def write_flight_log(log: FlightLog, path: str | Path) -> None:
    """Write a validated log as manifest.json + four CSV files under path."""
    log.check()
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "log_id": log.log_id,
        "vehicle_type": log.vehicle_type,
        "source": log.source,
        "home_lat_deg": log.home_lat_deg,
    }
    write_json(manifest, root / "manifest.json")
    for name, stream in log.streams():
        write_table(root / f"{name}.csv", _CSV_HEADERS[name], stream.t_us, np.column_stack(_value_arrays(stream)))


def read_flight_log(path: str | Path) -> FlightLog:
    """Read a log directory; all invariants are re-checked on load."""
    root = Path(path)
    manifest = read_json_object(root / "manifest.json")
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    t_imu, v_imu = read_table(root / "imu.csv", _CSV_HEADERS["imu"])
    t_baro, v_baro = read_table(root / "baro.csv", _CSV_HEADERS["baro"])
    t_mag, v_mag = read_table(root / "mag.csv", _CSV_HEADERS["mag"])
    t_ekf, v_ekf = read_table(root / "ekf.csv", _CSV_HEADERS["ekf"])
    log = FlightLog(
        log_id=str(manifest.get("log_id", root.name)),
        vehicle_type=str(manifest.get("vehicle_type", "unknown")),
        source=str(manifest.get("source", "recorded")),
        imu=ImuStream(t_imu, v_imu[:, 0:3], v_imu[:, 3:6]),
        baro=BaroStream(t_baro, v_baro[:, 0], v_baro[:, 1]),
        mag=MagStream(t_mag, v_mag),
        ekf=EkfStream(t_ekf, v_ekf[:, 0:4], v_ekf[:, 4:7], v_ekf[:, 7:10]),
        home_lat_deg=manifest.get("home_lat_deg"),
    )
    log.check()
    return log
