"""Flight-log data model and its on-disk container.

A flight log holds the four multi-rate streams a low-cost autopilot records:
inertial samples (gyro + accelerometer), barometer, magnetometer, and the
estimator's state output (quaternion attitude, NED velocity and position).
Each stream is a timestamp array and one value matrix whose columns its
class declares once, in COLUMNS; the CSV header and the named column views
(gyro, accel, ...) follow from that declaration. Timestamps are integer
microseconds from log start. On disk a log is a directory of four CSV
files plus a JSON manifest; floats are written with 17 significant digits
so the decimal round trip is bit exact. `read_manifest` and `read_stream`
read one file each, for cleanup to stop at a rejection; `read_flight_log`
reads all of them and checks every invariant.

The same text codec serves every JSON and CSV file the toolkit reads or
writes: `write_json`/`read_json_object` and `write_table`/`read_table`.
A file the readers cannot parse raises one error that names the file.
One binary codec serves the NAVW windows file and the NAVC checkpoint:
`write_binary`, `read_binary` and `split_payload` (a magic, a packed head,
little-endian float32 arrays), each raising the caller's error class.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

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

def _view(start: int, stop: int | None = None) -> property:
    """A read-only attribute viewing value column start, or columns [start, stop)."""
    cols = start if stop is None else slice(start, stop)
    return property(lambda stream: stream.values[:, cols])


@dataclass
class _Stream:
    """Timestamps t_us [n] (int64) and one value matrix values [n, d] (float64)
    whose columns are the class's COLUMNS. Both are copied on construction,
    so no two streams share an array."""

    NAME: ClassVar[str]
    COLUMNS: ClassVar[tuple[str, ...]]

    t_us: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.t_us = np.array(self.t_us, dtype=np.int64)
        self.values = np.array(self.values, dtype=np.float64)
        shape = (len(self.t_us), len(self.COLUMNS))
        if self.t_us.ndim != 1 or self.values.shape != shape:
            raise ValidationError(
                f"{type(self).__name__} needs times [n] and values [n, {shape[1]}], "
                f"got {self.t_us.shape} and {self.values.shape}"
            )

    def __len__(self) -> int:
        return len(self.t_us)

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(("t_us", *cls.COLUMNS))

    def defects(self, max_gap_s: float | None = None) -> list[str]:
        """One message per invariant of this stream alone that it violates:
        non-empty, strictly increasing timestamps, finite values and, given
        max_gap_s, no step between consecutive samples longer than that."""
        if len(self) == 0:
            return [f"{self.NAME} stream is empty"]
        found = []
        dt = np.diff(self.t_us)
        if np.any(dt <= 0):
            found.append(f"{self.NAME} timestamps are not strictly increasing")
        if max_gap_s is not None and np.any(dt > max_gap_s * 1e6):
            found.append(f"{self.NAME} stream has a gap of {dt.max() * 1e-6:g} s (limit {max_gap_s:g} s)")
        n_bad = np.count_nonzero(~np.isfinite(self.values))
        if n_bad:
            found.append(f"{self.NAME} stream has {n_bad} non-finite value(s)")
        return found


class ImuStream(_Stream):
    """Gyro (rad/s) and accelerometer (m/s^2, specific force) in body frame."""

    NAME = "imu"
    COLUMNS = ("gx", "gy", "gz", "ax", "ay", "az")
    gyro = _view(0, 3)
    accel = _view(3, 6)


class BaroStream(_Stream):
    """Barometer temperature (degC) and pressure altitude (m)."""

    NAME = "baro"
    COLUMNS = ("temp_c", "alt_m")
    temp_c = _view(0)
    alt_m = _view(1)


class MagStream(_Stream):
    """Magnetic field components (gauss) in body frame."""

    NAME = "mag"
    COLUMNS = ("mx", "my", "mz")
    mag = _view(0, 3)


class EkfStream(_Stream):
    """Estimator output: unit quaternion, NED velocity (m/s), NED position (m)."""

    NAME = "ekf"
    COLUMNS = ("q1", "q2", "q3", "q4", "vn", "ve", "vd", "pn", "pe", "pd")
    quat = _view(0, 4)
    vel_ned = _view(4, 7)
    pos_ned = _view(7, 10)

    def defects(self, max_gap_s: float | None = None) -> list[str]:
        """The stream invariants, then unit quaternion norms (a non-finite norm is a violation)."""
        found = super().defects(max_gap_s)
        unit = np.abs(np.linalg.norm(self.quat, axis=1) - 1.0) <= QUAT_NORM_TOL
        if not unit.all():
            found.append(f"ekf quaternions are not unit norm in {np.count_nonzero(~unit)} row(s)")
        return found


# a log's streams, in file and field order
STREAMS = {cls.NAME: cls for cls in (ImuStream, BaroStream, MagStream, EkfStream)}


def _check_manifest(fields: dict) -> None:
    """ValidationError unless a log's vehicle_type and source are known and its home_lat_deg is null or in [-90, 90]."""
    for key, known in (("vehicle_type", VEHICLE_TYPES), ("source", SOURCES)):
        if fields[key] not in known:
            raise ValidationError(f"unknown {key} {fields[key]!r}")
    lat = fields["home_lat_deg"]
    if lat is not None and (isinstance(lat, bool) or not isinstance(lat, (int, float)) or not abs(lat) <= 90.0):
        raise ValidationError(f"home_lat_deg must be null or a number in [-90, 90], got {lat!r}")


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
        _check_manifest(vars(self))

    def streams(self):
        return tuple((name, getattr(self, name)) for name in STREAMS)

    def defects(self, max_gap_s: float | None = None) -> list[str]:
        """Every invariant the log violates, one message per defect.

        This is the one implementation of the log invariants: each stream's
        own (`_Stream.defects`, with the estimator's quaternion norms), then
        overlapping stream time ranges. An empty list means the log is sound.
        """
        return [d for _, stream in self.streams() for d in stream.defects(max_gap_s)] + self.overlap_defects()

    def overlap_defects(self) -> list[str]:
        """The time ranges of the streams must overlap; not checked while one is empty."""
        streams = [stream for _, stream in self.streams()]
        if all(map(len, streams)) and max(s.t_us[0] for s in streams) > min(s.t_us[-1] for s in streams):
            return ["stream time ranges do not overlap"]
        return []

    def check(self) -> None:
        """Raise ValidationError naming every defect `defects()` finds; no gap limit."""
        found = self.defects()
        if found:
            raise ValidationError("; ".join(found))

    def crop(self, t_start_us: int, t_end_us: int) -> "FlightLog":
        """Restrict every stream to [t_start_us, t_end_us], inclusive."""

        def cropped(stream):
            keep = (stream.t_us >= t_start_us) & (stream.t_us <= t_end_us)
            return type(stream)(stream.t_us[keep], stream.values[keep])

        return replace(self, **{name: cropped(stream) for name, stream in self.streams()})


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
# binary codec


def write_binary(path: str | Path, magic: bytes, head: bytes, arrays) -> None:
    """Write magic, then the packed head, then each array as little-endian float32."""
    with open(path, "wb") as fh:
        fh.write(magic + head)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def read_binary(path: str | Path, magic: bytes, head: str, version: int, error: type[Exception]):
    """Read a file written by write_binary whose head packs struct format head,
    version first: returns the head's other fields and the bytes after it. A
    missing file, a bad magic, a short head or another version raises error."""
    path = Path(path)
    if not path.is_file():
        raise error(f"missing file: {path}")
    data = memoryview(path.read_bytes())
    size = struct.calcsize(head)
    if data[: len(magic)] != magic:
        raise error(f"{path}: bad magic {bytes(data[: len(magic)])!r}")
    if len(data) < len(magic) + size:
        raise error(f"{path}: truncated header")
    found, *fields = struct.unpack_from(head, data, len(magic))
    if found != version:
        raise error(f"{path}: unsupported version {found}")
    return fields, data[len(magic) + size :]


def split_payload(path: str | Path, payload, shapes, error: type[Exception]) -> dict[str, np.ndarray]:
    """Cut payload into float32 arrays of the (name, shape) pairs, in order.
    A payload too short for them or with bytes left over raises error."""
    arrays, offset = {}, 0
    for name, shape in shapes:
        count = math.prod(shape)
        if offset + 4 * count > len(payload):
            raise error(f"{path}: truncated payload: its {len(payload)} bytes end inside {name}")
        arrays[name] = np.frombuffer(payload, dtype="<f4", count=count, offset=offset).reshape(shape).copy()
        offset += 4 * count
    if offset != len(payload):
        raise error(f"{path}: {len(payload) - offset} trailing payload bytes")
    return arrays


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
        write_table(root / f"{name}.csv", stream.csv_header(), stream.t_us, stream.values)


def read_manifest(path: str | Path) -> dict:
    """A log directory's FlightLog fields other than its streams, from its
    manifest.json; a missing or malformed manifest, another schema version or a
    field `_check_manifest` refuses raises DataError or ValidationError."""
    root = Path(path)
    manifest = read_json_object(root / "manifest.json")
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    defaults = {"log_id": root.name, "vehicle_type": "unknown", "source": "recorded"}
    fields = {key: str(manifest.get(key, default)) for key, default in defaults.items()}
    fields["home_lat_deg"] = manifest.get("home_lat_deg")
    _check_manifest(fields)
    return fields


def read_stream(path: str | Path, name: str) -> _Stream:
    """Read the named stream of a log directory, unchecked; a missing or
    malformed CSV raises DataError."""
    cls = STREAMS[name]
    return cls(*read_table(Path(path) / f"{name}.csv", cls.csv_header()))


def read_flight_log(path: str | Path) -> FlightLog:
    """Read a log directory; all invariants are re-checked on load."""
    log = FlightLog(**read_manifest(path), **{name: read_stream(path, name) for name in STREAMS})
    log.check()
    return log
