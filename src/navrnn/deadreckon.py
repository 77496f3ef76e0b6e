"""Strapdown inertial dead reckoning.

Propagates attitude, velocity, and position from gyro and accelerometer
samples alone: debiased delta angles (optionally corrected for the earth's
rotation rate at the home latitude) update the quaternion through the exact
exponential map; debiased delta velocities are rotated into NED, gravity is
added, and position integrates the trapezoidal mean of old and new velocity.
Without aiding this diverges quickly on low-cost sensors, which is exactly
what makes it the reference baseline.

Attitude is the only true recursion, so it alone runs as a per-sample loop,
on plain Python floats. Given the attitudes, velocity and position need no
loop: one batched rotation of all delta velocities, then sequential sums
(np.cumsum adds strictly left to right, as a per-sample loop would).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quat
from .errors import ConfigError, DataError, check_fields, finite_vector
from .flightlog import FlightLog

GRAVITY_MPS2 = 9.80665
EARTH_RATE_RADPS = 7.292115e-5


@dataclass
class DeadReckonConfig:
    gravity_mps2: float = GRAVITY_MPS2
    home_lat_deg: float = 0.0
    apply_earth_rate: bool = False
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        check_fields(self)
        self.gyro_bias = finite_vector(self.gyro_bias, "gyro_bias", 3)
        self.accel_bias = finite_vector(self.accel_bias, "accel_bias", 3)
        if self.gravity_mps2 <= 0:
            raise ConfigError("gravity must be positive")
        if abs(self.home_lat_deg) > 90.0:
            raise ConfigError("latitude out of range")

    def earth_rate_ned(self) -> np.ndarray:
        lat = np.deg2rad(self.home_lat_deg)
        return EARTH_RATE_RADPS * np.array([np.cos(lat), 0.0, -np.sin(lat)])


@dataclass
class NavState:
    """Navigation state: unit quaternion, NED velocity (m/s), NED position (m)."""

    quat: np.ndarray
    vel_ned: np.ndarray
    pos_ned: np.ndarray
    t_us: int = 0

    def __post_init__(self):
        self.quat = np.asarray(self.quat, dtype=float).reshape(4)
        self.vel_ned = np.asarray(self.vel_ned, dtype=float).reshape(3)
        self.pos_ned = np.asarray(self.pos_ned, dtype=float).reshape(3)


@dataclass
class Trajectory:
    """Dense state history at sensor rate, with helpers for resampling."""

    t_us: np.ndarray
    quat: np.ndarray
    vel_ned: np.ndarray
    pos_ned: np.ndarray

    def __len__(self) -> int:
        return len(self.t_us)

    def sample_at(self, t_query_us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(vel, pos) linearly interpolated at the given times."""
        t_query_us = np.asarray(t_query_us, dtype=np.int64)
        t = self.t_us.astype(np.float64)
        tq = np.clip(t_query_us.astype(np.float64), t[0], t[-1])
        idx = np.clip(np.searchsorted(t, tq, side="right") - 1, 0, len(t) - 2)
        denom = t[idx + 1] - t[idx]
        alpha = np.where(denom > 0, (tq - t[idx]) / np.where(denom > 0, denom, 1.0), 0.0)
        vel = self.vel_ned[idx] + alpha[:, None] * (self.vel_ned[idx + 1] - self.vel_ned[idx])
        pos = self.pos_ned[idx] + alpha[:, None] * (self.pos_ned[idx + 1] - self.pos_ned[idx])
        return vel, pos


def dead_reckon(log: FlightLog, cfg: DeadReckonConfig | None = None, init: NavState | None = None) -> Trajectory:
    """Propagate the full IMU stream from an initial state.

    The initial state defaults to the log's first EKF sample. Each IMU
    sample at time t is treated as the measured rate over the interval
    ending at t: attitude advances first, then velocity/position using the
    updated attitude. Samples at or before the initial time are skipped.
    """
    cfg = cfg or DeadReckonConfig()
    if len(log.imu) == 0:
        raise DataError("imu stream is empty")
    if np.any(np.diff(log.imu.t_us) <= 0):
        raise DataError("imu timestamps are not strictly increasing")
    if init is None:
        if len(log.ekf) == 0:
            raise DataError("no ekf sample to initialize from")
        e = log.ekf
        init = NavState(e.quat[0].copy(), e.vel_ned[0].copy(), e.pos_ned[0].copy(), int(e.t_us[0]))

    mask = log.imu.t_us > init.t_us
    t_us = np.concatenate([np.array([init.t_us], dtype=np.int64), log.imu.t_us[mask]])
    dt = np.diff(t_us).astype(float) * 1e-6
    q = _integrate_attitude(init.quat, (log.imu.gyro[mask] - cfg.gyro_bias) * dt[:, None], dt, cfg)
    dv = quat.rotate(q[1:], (log.imu.accel[mask] - cfg.accel_bias) * dt[:, None])
    dv[:, 2] += cfg.gravity_mps2 * dt
    vel = np.cumsum(np.vstack([init.vel_ned, dv]), axis=0)
    pos = np.cumsum(np.vstack([init.pos_ned, 0.5 * (vel[:-1] + vel[1:]) * dt[:, None]]), axis=0)
    return Trajectory(t_us, q, vel, pos)


def _integrate_attitude(q0: np.ndarray, dtheta: np.ndarray, dt: np.ndarray, cfg: DeadReckonConfig) -> np.ndarray:
    """Attitudes [n+1, 4] from q0 and debiased delta angles [n, 3].

    Each step takes the earth rate out of the delta angle (when enabled),
    applies it through the exact exponential map and renormalises. The
    arithmetic is quat.rotate_inverse, the exponential map (sin(a/2)/a
    taken as np.sinc does), multiply and normalize on plain floats, in
    their order.
    """
    sqrt, sin, cos, pi = math.sqrt, math.sin, math.cos, math.pi
    eps = float(np.finfo(float).eps)
    earth = cfg.apply_earth_rate
    ex, ey, ez = cfg.earth_rate_ned().tolist()
    w, x, y, z = (float(c) for c in q0)
    out = [(w, x, y, z)]
    for (ax, ay, az), h in zip(dtheta.tolist(), dt.tolist()):
        if earth:
            ux, uy, uz = -x, -y, -z
            tx, ty, tz = 2.0 * (uy * ez - uz * ey), 2.0 * (uz * ex - ux * ez), 2.0 * (ux * ey - uy * ex)
            ax -= (ex + w * tx + (uy * tz - uz * ty)) * h
            ay -= (ey + w * ty + (uz * tx - ux * tz)) * h
            az -= (ez + w * tz + (ux * ty - uy * tx)) * h
        half = 0.5 * sqrt(ax * ax + ay * ay + az * az)
        arg = pi * (half / pi) or eps
        s = 0.5 * (sin(arg) / arg)
        c, bx, by, bz = cos(half), s * ax, s * ay, s * az
        w, x, y, z = (
            w * c - x * bx - y * by - z * bz,
            w * bx + x * c + y * bz - z * by,
            w * by - x * bz + y * c + z * bx,
            w * bz + x * by - y * bx + z * c,
        )
        n = sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / n, x / n, y / n, z / n
        out.append((w, x, y, z))
    return np.array(out)
