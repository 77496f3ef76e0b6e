import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from navrnn import quat
from oracles import from_rotvec, normalize


def to_matrix(q):
    """Rotation matrix R with v_ned = R @ v_body. Batched on leading axes."""
    w, x, y, z = (q[..., i] for i in range(4))
    row0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1)
    row1 = np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1)
    row2 = np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def _to_scipy(q):
    # scipy is scalar-last
    return Rotation.from_quat(np.roll(np.asarray(q), -1, axis=-1))


def test_multiply_matches_scipy(rng):
    q1 = normalize(rng.standard_normal((50, 4)))
    q2 = normalize(rng.standard_normal((50, 4)))
    ours = quat.multiply(q1, q2)
    theirs = (_to_scipy(q1) * _to_scipy(q2)).as_quat()
    theirs = np.roll(theirs, 1, axis=-1)
    # sign is a gauge freedom
    sign = np.sign(np.sum(ours * theirs, axis=-1, keepdims=True))
    np.testing.assert_allclose(ours, sign * theirs, atol=1e-12)


def test_rotate_matches_matrix(rng):
    q = normalize(rng.standard_normal((20, 4)))
    v = rng.standard_normal((20, 3))
    via_formula = quat.rotate(q, v)
    via_matrix = np.einsum("nij,nj->ni", to_matrix(q), v)
    np.testing.assert_allclose(via_formula, via_matrix, atol=1e-12)
    scipy_rot = _to_scipy(q).apply(v)
    np.testing.assert_allclose(via_formula, scipy_rot, atol=1e-12)


def test_rotvec_round_trip(rng):
    # the log map is only the exact inverse below a half turn
    rv = rng.standard_normal((100, 3))
    rv *= (rng.uniform(0.0, 0.99 * np.pi, 100) / np.linalg.norm(rv, axis=1))[:, None]
    back = quat.to_rotvec(from_rotvec(rv))
    np.testing.assert_allclose(back, rv, atol=1e-12)


def test_from_rotvec_matches_scipy(rng):
    rv = rng.uniform(-3.0, 3.0, size=(30, 3))
    ours = from_rotvec(rv)
    theirs = np.roll(Rotation.from_rotvec(rv).as_quat(), 1, axis=-1)
    sign = np.sign(np.sum(ours * theirs, axis=-1, keepdims=True))
    np.testing.assert_allclose(ours, sign * theirs, atol=1e-12)


def test_small_angle_stability():
    rv = np.array([[1e-15, 0.0, 0.0], [0.0, 0.0, 0.0]])
    q = from_rotvec(rv)
    assert np.all(np.isfinite(q))
    np.testing.assert_allclose(q[1], [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(quat.to_rotvec(q), rv, atol=1e-18)


def test_rotate_inverse_is_inverse(rng):
    q = normalize(rng.standard_normal((10, 4)))
    v = rng.standard_normal((10, 3))
    np.testing.assert_allclose(quat.rotate_inverse(q, quat.rotate(q, v)), v, atol=1e-12)


@pytest.mark.parametrize("angles", [(0.0, 0.0, np.pi / 2), (0.3, -0.2, 1.1), (0.0, 0.0, 0.0)])
def test_euler_matches_scipy(angles):
    roll, pitch, yaw = angles
    ours = quat.from_euler_zyx(roll, pitch, yaw)
    theirs = np.roll(Rotation.from_euler("ZYX", [yaw, pitch, roll]).as_quat(), 1)
    sign = np.sign(np.sum(ours * theirs))
    np.testing.assert_allclose(ours, sign * theirs, atol=1e-12)
