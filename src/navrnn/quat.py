"""Quaternion utilities for attitude propagation and frame rotation.

Conventions: Hamilton product, scalar-first component order (w, x, y, z).
A quaternion q maps body-frame vectors into the local NED frame:
v_ned = rotate(q, v_body). All functions broadcast over leading axes;
the quaternion lives on the last axis.
"""

from __future__ import annotations

import numpy as np


def normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product q1 * q2 (apply q2's rotation first, then q1's)."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    w1, x1, y1, z1 = (q1[..., i] for i in range(4))
    w2, x2, y2, z2 = (q2[..., i] for i in range(4))
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def conjugate(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def to_rotvec(q: np.ndarray) -> np.ndarray:
    """Logarithm map: quaternion to rotation vector, exact for rotations below pi."""
    q = np.asarray(q, dtype=float)
    # canonicalize to the w >= 0 hemisphere so the angle is in [0, pi]
    q = np.where(q[..., :1] < 0.0, -q, q)
    w = q[..., 0]
    v = q[..., 1:]
    n = np.linalg.norm(v, axis=-1)
    angle = 2.0 * np.arctan2(n, w)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(n > 1e-12, angle / np.where(n > 1e-12, n, 1.0), 2.0 / np.where(w == 0.0, 1.0, w))
    return v * scale[..., None]


def rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate body-frame vector(s) into the navigation frame."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w = q[..., :1]
    u = q[..., 1:]
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


def rotate_inverse(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate navigation-frame vector(s) into the body frame."""
    return rotate(conjugate(q), v)


def from_euler_zyx(roll: np.ndarray, pitch: np.ndarray, yaw: np.ndarray) -> np.ndarray:
    """Aerospace Euler angles (yaw-pitch-roll, intrinsic z-y'-x'') to quaternion."""
    roll = np.asarray(roll, dtype=float)
    pitch = np.asarray(pitch, dtype=float)
    yaw = np.asarray(yaw, dtype=float)
    cr, sr = np.cos(roll / 2), np.sin(roll / 2)
    cp, sp = np.cos(pitch / 2), np.sin(pitch / 2)
    cy, sy = np.cos(yaw / 2), np.sin(yaw / 2)
    return np.stack(
        [
            cy * cp * cr + sy * sp * sr,
            cy * cp * sr - sy * sp * cr,
            cy * sp * cr + sy * cp * sr,
            sy * cp * cr - cy * sp * sr,
        ],
        axis=-1,
    )


def nlerp(q0: np.ndarray, q1: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Normalized linear interpolation; adequate for closely spaced samples."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    alpha = np.asarray(alpha, dtype=float)[..., None]
    # stay on the shorter arc
    dot = np.sum(q0 * q1, axis=-1, keepdims=True)
    q1 = np.where(dot < 0.0, -q1, q1)
    return normalize(q0 * (1.0 - alpha) + q1 * alpha)
