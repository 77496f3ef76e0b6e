"""Reference implementations the tests compare the package against."""

import numpy as np

from navrnn import quat
from navrnn.deadreckon import DeadReckonConfig, NavState
from navrnn.errors import DataError


def difference(series) -> np.ndarray:
    """out[i] = series[i+1] - series[i]; length shrinks by one. The inverse
    of evaluate.reconstruct_path (criterion 3)."""
    series = np.asarray(series)
    if len(series) < 2:
        raise ValueError("difference needs at least two points")
    return series[1:] - series[:-1]


def normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def from_rotvec(rv: np.ndarray) -> np.ndarray:
    """Exact exponential map: rotation vector (axis * angle) to quaternion."""
    rv = np.asarray(rv, dtype=float)
    angle = np.linalg.norm(rv, axis=-1, keepdims=True)
    half = 0.5 * angle
    # sin(half)/angle, continuous through angle = 0
    scale = 0.5 * np.sinc(half / np.pi)
    return np.concatenate([np.cos(half), scale * rv], axis=-1)


# Per-sample reference integrator (oracle): one NavState per step, numpy
# quaternion helpers throughout. dead_reckon must reproduce its loop.


def propagate_attitude(state: NavState, gyro: np.ndarray, dt: float, cfg: DeadReckonConfig) -> NavState:
    """Advance attitude by one gyro sample over dt seconds."""
    if dt <= 0:
        raise DataError("dt must be positive")
    dtheta = (np.asarray(gyro, dtype=float) - cfg.gyro_bias) * dt
    if cfg.apply_earth_rate:
        dtheta = dtheta - quat.rotate_inverse(state.quat, cfg.earth_rate_ned()) * dt
    q_new = normalize(quat.multiply(state.quat, from_rotvec(dtheta)))
    return NavState(q_new, state.vel_ned, state.pos_ned, state.t_us)


def propagate_velocity_position(state: NavState, accel: np.ndarray, dt: float, cfg: DeadReckonConfig) -> NavState:
    """Advance velocity and position by one accelerometer sample over dt."""
    if dt <= 0:
        raise DataError("dt must be positive")
    dv_body = (np.asarray(accel, dtype=float) - cfg.accel_bias) * dt
    dv_ned = quat.rotate(state.quat, dv_body)
    dv_ned[2] += cfg.gravity_mps2 * dt
    vel_new = state.vel_ned + dv_ned
    pos_new = state.pos_ned + 0.5 * (state.vel_ned + vel_new) * dt
    return NavState(state.quat, vel_new, pos_new, state.t_us)


def oracle_dead_reckon(log, cfg: DeadReckonConfig, init: NavState):
    """States [n+1] of quat, vel, pos: attitude first, then velocity/position."""
    mask = log.imu.t_us > init.t_us
    states, t_prev = [init], init.t_us
    for t, gyro, accel in zip(log.imu.t_us[mask], log.imu.gyro[mask], log.imu.accel[mask]):
        dt = float(t - t_prev) * 1e-6
        s = propagate_attitude(states[-1], gyro, dt, cfg)
        states.append(propagate_velocity_position(s, accel, dt, cfg))
        t_prev = t
    return tuple(np.array([getattr(s, k) for s in states]) for k in ("quat", "vel_ned", "pos_ned"))
