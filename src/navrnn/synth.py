"""Synthetic flight generation.

Builds smooth ground-truth trajectories and the exact multi-rate sensor
measurements that would produce them. Paths are C2-smooth (closed-form
circles or cubic splines through waypoints) composed with a C2 time warp
whose velocity and acceleration vanish at the flight boundaries, so the
vehicle sits still during ground segments. Inertial samples are derived
so that the dead-reckoning discretization recovers the trajectory:
the gyro sample over an interval is the exact rotation-vector increment
divided by dt, and the accelerometer sample is the exact NED velocity
increment rotated into the body frame with gravity removed. Configured
biases and white Gaussian noise are added afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import quat
from .deadreckon import GRAVITY_MPS2
from .errors import ConfigError, DataError, check_fields, finite_vector, from_json
from .flightlog import (
    VEHICLE_TYPES,
    BaroStream,
    EkfStream,
    FlightLog,
    ImuStream,
    MagStream,
    read_json_object,
    write_flight_log,
    write_json,
)

PROFILES = ("hover", "survey_lawnmower", "circle", "waypoint_polyline", "aggressive_manual")

# representative mid-latitude geomagnetic field in NED, gauss
MAG_FIELD_NED = np.array([0.22, 0.0, 0.42])

_CRUISE_MPS = 6.0
_RAMP_S = 4.0


@dataclass
class Rates:
    imu: float = 84.0
    baro: float = 67.0
    mag: float = 45.0
    ekf: float = 5.0

    def __post_init__(self):
        check_fields(self)
        if min(self.imu, self.baro, self.mag, self.ekf) <= 0:
            raise ConfigError("rates must be positive")


@dataclass
class NoiseConfig:
    """Per-sample white noise plus a constant per-flight bias.

    Bias fields are magnitudes; the bias direction is drawn once per flight
    from the generator seed. Explicit *_bias_vec overrides pin the vector.
    Magnitude defaults of the low_cost factory are representative of a
    consumer MEMS IMU class, not measured values.
    """

    gyro_std: float = 0.0
    accel_std: float = 0.0
    gyro_bias: float = 0.0
    accel_bias: float = 0.0
    baro_std: float = 0.0
    mag_std: float = 0.0
    gyro_bias_vec: tuple[float, float, float] | None = None
    accel_bias_vec: tuple[float, float, float] | None = None

    def __post_init__(self):
        check_fields(self, gyro_std=0, accel_std=0, gyro_bias=0, accel_bias=0, baro_std=0, mag_std=0)
        for name in ("gyro_bias_vec", "accel_bias_vec"):
            if getattr(self, name) is not None:
                setattr(self, name, tuple(finite_vector(getattr(self, name), name, 3).tolist()))

    @classmethod
    def low_cost(cls, scale: float = 1.0) -> "NoiseConfig":
        return cls(
            gyro_std=0.005 * scale,
            accel_std=0.12 * scale,
            gyro_bias=0.008 * scale,
            accel_bias=0.08 * scale,
            baro_std=0.25 * scale,
            mag_std=0.004 * scale,
        )


@dataclass
class SynthConfig:
    duration_s: float = 60.0
    profile: str = "hover"
    rates_hz: Rates = field(default_factory=Rates)
    noise: NoiseConfig = field(default_factory=NoiseConfig)  # or a preset: "none" or "low_cost"
    ground_time_s: float = 0.0
    seed: int = 0
    ground_drift_mps: float = 0.0
    vehicle_type: str = "quadrotor"
    home_lat_deg: float = 30.0

    def __post_init__(self):
        self.rates_hz = from_json(Rates, self.rates_hz, "rates_hz")
        if isinstance(self.noise, str):
            if self.noise not in ("none", "low_cost"):
                raise ConfigError(f"unknown noise preset {self.noise!r}")
            self.noise = NoiseConfig.low_cost() if self.noise == "low_cost" else NoiseConfig()
        self.noise = from_json(NoiseConfig, self.noise, "noise")
        check_fields(self, ground_time_s=0, seed=0, ground_drift_mps=0)
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if abs(self.home_lat_deg) > 90.0:
            raise ConfigError(f"home_lat_deg must be in [-90, 90], got {self.home_lat_deg!r}")
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}")
        if self.vehicle_type not in VEHICLE_TYPES:
            raise ConfigError(f"unknown vehicle_type {self.vehicle_type!r}")

    @property
    def total_duration_s(self) -> float:
        return self.duration_s + 2.0 * self.ground_time_s


@dataclass
class Batch(SynthConfig):
    """A synth config's 'batch': count flights with the other fields, their
    profiles cycling through profiles and their seeds counting up from seed."""

    count: int = 0
    profiles: list = field(default_factory=lambda: ["circle"])

    def __post_init__(self):
        super().__post_init__()
        check_fields(self, count=0)
        if self.count > 0 and not self.profiles:
            raise ConfigError("batch 'profiles' must not be empty")

    def flights(self) -> list[SynthConfig]:
        common = {f.name: getattr(self, f.name) for f in fields(SynthConfig)}
        return [SynthConfig(**dict(common, profile=self.profiles[i % len(self.profiles)], seed=self.seed + i))
                for i in range(self.count)]


# ---------------------------------------------------------------------------
# time warp: smooth speed trapezoid with quintic ramps


def _smoothstep(x):
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def _smoothstep_int(x):
    # integral of _smoothstep from 0 to x
    return x * x * x * x * (2.5 + x * (-3.0 + x))


@dataclass
class _Warp:
    """Monotone C2 map s: [0,1] -> [0,1] with s' = s'' = 0 at both ends."""

    ramp_frac: float

    def value(self, tau):
        tau = np.clip(tau, 0.0, 1.0)
        rho = self.ramp_frac
        c = 1.0 / (1.0 - rho)
        up = tau < rho
        down = tau > 1.0 - rho
        mid = ~(up | down)
        out = np.empty_like(tau)
        out[up] = c * rho * _smoothstep_int(tau[up] / rho)
        out[mid] = c * (0.5 * rho + tau[mid] - rho)
        out[down] = 1.0 - c * rho * _smoothstep_int((1.0 - tau[down]) / rho)
        return out

    def deriv(self, tau):
        rho = self.ramp_frac
        c = 1.0 / (1.0 - rho)
        inside = (tau > 0.0) & (tau < 1.0)
        x = np.clip(tau, 0.0, 1.0)
        ramp_pos = np.minimum(x / rho, 1.0)
        ramp_neg = np.minimum((1.0 - x) / rho, 1.0)
        return np.where(inside, c * _smoothstep(ramp_pos) * _smoothstep(ramp_neg), 0.0)


# ---------------------------------------------------------------------------
# paths (u in [0,1] -> NED position), with exact parametric derivatives


class _CirclePath:
    def __init__(self, radius: float, laps: float, climb_m: float):
        self.radius = radius
        self.laps = laps
        self.climb = climb_m

    def pos(self, u):
        th = 2.0 * np.pi * self.laps * u
        return np.stack(
            [
                self.radius * np.sin(th),
                self.radius * (1.0 - np.cos(th)),
                -0.5 * self.climb * (1.0 - np.cos(2.0 * np.pi * u)),
            ],
            axis=-1,
        )

    def dpos(self, u):
        rate = 2.0 * np.pi * self.laps
        th = rate * u
        return np.stack(
            [
                self.radius * rate * np.cos(th),
                self.radius * rate * np.sin(th),
                -self.climb * np.pi * np.sin(2.0 * np.pi * u),
            ],
            axis=-1,
        )


class _SplinePath:
    def __init__(self, waypoints: np.ndarray):
        from scipy.interpolate import CubicSpline  # here, so that no command but synth imports scipy

        pts = np.asarray(waypoints, dtype=float)
        chord = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        u = np.concatenate([[0.0], np.cumsum(chord)])
        u /= u[-1]
        self._spline = CubicSpline(u, pts, axis=0, bc_type="natural")
        self._dspline = self._spline.derivative()

    def pos(self, u):
        return self._spline(u)

    def dpos(self, u):
        return self._dspline(u)


class _StaticPath:
    def pos(self, u):
        u = np.asarray(u, dtype=float)
        return np.zeros(u.shape + (3,))

    def dpos(self, u):
        u = np.asarray(u, dtype=float)
        return np.zeros(u.shape + (3,))


def _lawnmower_waypoints(length_target: float) -> np.ndarray:
    leg, spacing = 80.0, 20.0
    n_legs = max(2, int(round(length_target / (leg + spacing))))
    pts = [(0.0, 0.0)]
    x = 0.0
    for i in range(n_legs):
        x = leg if i % 2 == 0 else 0.0
        pts.append((x, i * spacing))
        if i < n_legs - 1:
            pts.append((x, (i + 1) * spacing))
    raw = np.array(pts)
    raw = raw * (length_target / max(_polyline_length(raw), 1e-9))
    z = np.full(len(raw), -12.0)
    z[0] = 0.0
    return np.column_stack([raw[:, 1], raw[:, 0], z])  # legs run north, spacing east


def _polyline_length(pts: np.ndarray) -> float:
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def _random_waypoints(rng: np.random.Generator, length_target: float, n: int = 6) -> np.ndarray:
    span = max(length_target / 3.0, 20.0)
    pts = [np.zeros(3)]
    for _ in range(n - 1):
        p = rng.uniform([-span, -span, -25.0], [span, span, -5.0])
        pts.append(p)
    raw = np.array(pts)
    scale = length_target / max(_polyline_length(raw), 1e-9)
    out = raw * scale
    out[:, 2] = np.minimum(out[:, 2], -2.0 * scale)
    out[0] = 0.0
    return out


@dataclass
class _Attitude:
    yaw_total: float = 0.0
    roll_amp: float = 0.0
    pitch_amp: float = 0.0
    roll_cycles: float = 0.0
    pitch_cycles: float = 0.0

    def angles(self, u):
        env = np.sin(np.pi * u) ** 2
        roll = self.roll_amp * np.sin(2.0 * np.pi * self.roll_cycles * u) * env
        pitch = self.pitch_amp * np.sin(2.0 * np.pi * self.pitch_cycles * u) * env
        yaw = self.yaw_total * u
        return roll, pitch, yaw


class FlightTrajectory:
    """Analytic ground truth: position, velocity, and attitude vs. time."""

    def __init__(self, cfg: SynthConfig, path, attitude: _Attitude):
        self.t0 = cfg.ground_time_s
        self.T = cfg.duration_s
        self.path = path
        self.attitude = attitude
        self.warp = _Warp(ramp_frac=min(_RAMP_S / self.T, 0.25))

    def _tau(self, t):
        return np.clip((np.asarray(t, dtype=float) - self.t0) / self.T, 0.0, 1.0)

    def pos(self, t):
        return self.path.pos(self.warp.value(self._tau(t)))

    def vel(self, t):
        tau = self._tau(t)
        return self.path.dpos(self.warp.value(tau)) * (self.warp.deriv(tau) / self.T)[..., None]

    def quat_at(self, t):
        u = self.warp.value(self._tau(t))
        roll, pitch, yaw = self.attitude.angles(u)
        return quat.from_euler_zyx(roll, pitch, yaw)


def build_trajectory(cfg: SynthConfig, rng: np.random.Generator) -> FlightTrajectory:
    warp_frac = min(_RAMP_S / cfg.duration_s, 0.25)
    length_target = _CRUISE_MPS * (1.0 - warp_frac) * cfg.duration_s
    if cfg.profile == "hover":
        return FlightTrajectory(cfg, _StaticPath(), _Attitude())
    if cfg.profile == "circle":
        radius = 25.0
        laps = length_target / (2.0 * np.pi * radius)
        att = _Attitude(yaw_total=2.0 * np.pi * laps)
        return FlightTrajectory(cfg, _CirclePath(radius, laps, climb_m=15.0), att)
    if cfg.profile == "survey_lawnmower":
        return FlightTrajectory(cfg, _SplinePath(_lawnmower_waypoints(length_target)), _Attitude())
    if cfg.profile == "waypoint_polyline":
        wps = _random_waypoints(rng, length_target)
        att = _Attitude(yaw_total=float(rng.uniform(-2.0, 2.0) * np.pi))
        return FlightTrajectory(cfg, _SplinePath(wps), att)
    if cfg.profile == "aggressive_manual":
        wps = _random_waypoints(rng, length_target * 0.8, n=8)
        att = _Attitude(
            yaw_total=float(rng.uniform(-4.0, 4.0) * np.pi),
            roll_amp=0.35,
            pitch_amp=0.25,
            roll_cycles=max(3.0, round(0.4 * cfg.duration_s)),
            pitch_cycles=max(2.0, round(0.3 * cfg.duration_s)),
        )
        return FlightTrajectory(cfg, _SplinePath(wps), att)
    raise ConfigError(f"unknown profile {cfg.profile!r}")


# ---------------------------------------------------------------------------
# sensor synthesis


def _time_grid(total_s: float, rate_hz: float) -> np.ndarray:
    n = int(np.floor(total_s * rate_hz)) + 1
    return np.round(np.arange(n) * (1e6 / rate_hz)).astype(np.int64)


def _bias_vector(rng: np.random.Generator, magnitude: float, override) -> np.ndarray:
    if override is not None:
        return np.asarray(override)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return magnitude * direction


def _ground_drift(cfg: SynthConfig, t_s: np.ndarray, rng: np.random.Generator):
    """Slow position wander of the estimator while the vehicle is parked."""
    pos = np.zeros((len(t_s), 3))
    vel = np.zeros((len(t_s), 3))
    if cfg.ground_drift_mps <= 0 or cfg.ground_time_s <= 0:
        return pos, vel
    f = 0.05
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    amp = cfg.ground_drift_mps * np.array([1.0, 1.0, 0.3])
    segments = [
        (0.0, cfg.ground_time_s),
        (cfg.ground_time_s + cfg.duration_s, cfg.total_duration_s),
    ]
    for t_begin, t_end in segments:
        m = (t_s >= t_begin) & (t_s <= t_end)
        dt_seg = t_s[m] - t_begin
        w = 2.0 * np.pi * f
        for ax in range(3):
            vel[m, ax] = amp[ax] * np.sin(w * dt_seg + phases[ax]) - amp[ax] * np.sin(phases[ax])
            pos[m, ax] = (amp[ax] / w) * (np.cos(phases[ax]) - np.cos(w * dt_seg + phases[ax])) - amp[ax] * np.sin(
                phases[ax]
            ) * dt_seg
    return pos, vel


def generate_flight(cfg: SynthConfig) -> FlightLog:
    """Generate one flight log; bit-identical for identical configs."""
    ss = np.random.SeedSequence(cfg.seed)
    rng_traj, rng_bias, rng_noise, rng_drift = (np.random.default_rng(s) for s in ss.spawn(4))
    traj = build_trajectory(cfg, rng_traj)
    total = cfg.total_duration_s
    g_ned = np.array([0.0, 0.0, GRAVITY_MPS2])

    gyro_bias = _bias_vector(rng_bias, cfg.noise.gyro_bias, cfg.noise.gyro_bias_vec)
    accel_bias = _bias_vector(rng_bias, cfg.noise.accel_bias, cfg.noise.accel_bias_vec)

    # inertial stream: exact interval increments of the analytic trajectory
    t_imu = _time_grid(total, cfg.rates_hz.imu)
    ts = t_imu * 1e-6
    q_all = traj.quat_at(ts)
    v_all = traj.vel(ts)
    dt = np.diff(ts)
    dq = quat.multiply(quat.conjugate(q_all[:-1]), q_all[1:])
    gyro = np.zeros((len(t_imu), 3))
    gyro[1:] = quat.to_rotvec(dq) / dt[:, None]
    accel = np.zeros((len(t_imu), 3))
    accel[1:] = quat.rotate_inverse(q_all[1:], np.diff(v_all, axis=0) / dt[:, None] - g_ned)
    accel[0] = quat.rotate_inverse(q_all[0], -g_ned)  # at rest at log start
    gyro = gyro + gyro_bias + rng_noise.normal(0.0, cfg.noise.gyro_std, size=gyro.shape)
    accel = accel + accel_bias + rng_noise.normal(0.0, cfg.noise.accel_std, size=accel.shape)

    # barometer: altitude is -down, temperature follows a fixed lapse rate
    t_baro = _time_grid(total, cfg.rates_hz.baro)
    alt_true = -traj.pos(t_baro * 1e-6)[:, 2]
    alt = alt_true + rng_noise.normal(0.0, cfg.noise.baro_std, size=alt_true.shape)
    temp = 25.0 - 0.0065 * alt_true

    # magnetometer: fixed earth field rotated into the body frame
    t_mag = _time_grid(total, cfg.rates_hz.mag)
    q_mag = traj.quat_at(t_mag * 1e-6)
    mag = quat.rotate_inverse(q_mag, MAG_FIELD_NED)
    mag = mag + rng_noise.normal(0.0, cfg.noise.mag_std, size=mag.shape)

    # estimator stream: the analytic trajectory, plus optional ground wander
    t_ekf = _time_grid(total, cfg.rates_hz.ekf)
    ts_ekf = t_ekf * 1e-6
    pos_e = traj.pos(ts_ekf)
    vel_e = traj.vel(ts_ekf)
    drift_pos, drift_vel = _ground_drift(cfg, ts_ekf, rng_drift)
    q_ekf = traj.quat_at(ts_ekf)

    return FlightLog(
        log_id=f"{cfg.profile}_{cfg.seed:06d}",
        vehicle_type=cfg.vehicle_type,
        source="synthetic",
        imu=ImuStream(t_imu, np.hstack([gyro, accel])),
        baro=BaroStream(t_baro, np.column_stack([temp, alt])),
        mag=MagStream(t_mag, mag),
        ekf=EkfStream(t_ekf, np.hstack([q_ekf, vel_e + drift_vel, pos_e + drift_pos])),
        home_lat_deg=cfg.home_lat_deg,
    )


# ---------------------------------------------------------------------------
# dataset assembly


@dataclass
class LogEntry:
    log_id: str
    path: str
    duration_s: float
    profile: str


@dataclass
class DatasetManifest:
    root: Path
    logs: list[LogEntry]

    def log_path(self, entry: LogEntry) -> Path:
        return self.root / entry.path

    def save(self) -> None:
        payload = {
            "logs": [
                {"id": e.log_id, "path": e.path, "duration_s": e.duration_s, "profile": e.profile}
                for e in self.logs
            ]
        }
        write_json(payload, self.root / "dataset.json")

    @classmethod
    def load(cls, root: str | Path) -> "DatasetManifest":
        root = Path(root)
        payload = read_json_object(root / "dataset.json")
        try:
            logs = [
                LogEntry(str(d["id"]), str(d["path"]), float(d["duration_s"]), str(d["profile"]))
                for d in payload.get("logs", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{root / 'dataset.json'}: malformed log entry ({exc!r})") from exc
        return cls(root=root, logs=logs)


def make_dataset(cfgs: list[SynthConfig], out_dir: str | Path) -> DatasetManifest:
    """Generate one log directory per config plus a dataset manifest."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    entries: list[LogEntry] = []
    seen: set[str] = set()
    for cfg in cfgs:
        log = generate_flight(cfg)
        if log.log_id in seen:
            raise ConfigError(f"duplicate log id {log.log_id!r}; use distinct seeds")
        seen.add(log.log_id)
        write_flight_log(log, root / log.log_id)
        entries.append(LogEntry(log.log_id, log.log_id, cfg.total_duration_s, cfg.profile))
    manifest = DatasetManifest(root=root, logs=entries)
    manifest.save()
    return manifest
