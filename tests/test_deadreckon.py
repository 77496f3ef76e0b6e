import numpy as np
import pytest

from navrnn import quat
from navrnn.deadreckon import DeadReckonConfig, NavState, dead_reckon
from navrnn.errors import ConfigError, DataError
from navrnn.flightlog import ImuStream
from navrnn.synth import NoiseConfig, SynthConfig, generate_flight
from oracles import oracle_dead_reckon, propagate_attitude, propagate_velocity_position

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def _state(vel=(0, 0, 0), pos=(0, 0, 0)):
    return NavState(IDENTITY.copy(), np.array(vel, dtype=float), np.array(pos, dtype=float))


class TestAttitude:
    def test_zero_gyro_unchanged(self):
        s = _state()
        out = propagate_attitude(s, np.zeros(3), 0.05, DeadReckonConfig())
        np.testing.assert_array_equal(out.quat, IDENTITY)

    def test_quarter_turn_closed_form(self):
        cfg = DeadReckonConfig()
        s = _state()
        for _ in range(20):
            s = propagate_attitude(s, [0.0, 0.0, np.pi / 2], 0.05, cfg)
        expected = quat.from_euler_zyx(0.0, 0.0, np.pi / 2)
        assert np.abs(2 * np.arccos(np.clip(np.abs(np.dot(s.quat, expected)), -1, 1))) < 1e-6

    def test_norm_preserved_many_random_steps(self, rng):
        cfg = DeadReckonConfig()
        s = _state()
        for _ in range(2000):
            s = propagate_attitude(s, rng.uniform(-3, 3, 3), 0.01, cfg)
            assert abs(np.linalg.norm(s.quat) - 1.0) < 1e-9

    def test_gyro_bias_subtracted(self):
        cfg = DeadReckonConfig(gyro_bias=np.array([0.1, 0.0, 0.0]))
        s = propagate_attitude(_state(), [0.1, 0.0, 0.0], 0.5, cfg)
        np.testing.assert_allclose(s.quat, IDENTITY, atol=1e-15)

    def test_earth_rate_correction(self):
        cfg = DeadReckonConfig(home_lat_deg=45.0, apply_earth_rate=True)
        # measured rate exactly equal to earth rate in body frame -> no rotation
        earth_body = cfg.earth_rate_ned()  # identity attitude: body == NED
        s = propagate_attitude(_state(), earth_body, 1.0, cfg)
        np.testing.assert_allclose(s.quat, IDENTITY, atol=1e-12)

    def test_bad_dt(self):
        with pytest.raises(DataError):
            propagate_attitude(_state(), np.zeros(3), 0.0, DeadReckonConfig())


class TestVelocityPosition:
    def test_hover_equilibrium(self):
        cfg = DeadReckonConfig()
        s = _state()
        for _ in range(100):
            s = propagate_velocity_position(s, [0.0, 0.0, -cfg.gravity_mps2], 0.02, cfg)
        np.testing.assert_allclose(s.vel_ned, 0.0, atol=1e-12)
        np.testing.assert_allclose(s.pos_ned, 0.0, atol=1e-12)

    def test_constant_accel_kinematics(self):
        cfg = DeadReckonConfig()
        s = _state()
        dt = 0.01
        for _ in range(1000):
            s = propagate_velocity_position(s, [1.0, 0.0, -cfg.gravity_mps2], dt, cfg)
        assert s.vel_ned[0] == pytest.approx(10.0, rel=1e-9)
        assert s.pos_ned[0] == pytest.approx(50.0, rel=1e-3)

    def test_accel_bias_drift_law(self):
        b = 0.2
        cfg = DeadReckonConfig()
        s = _state()
        dt = 0.02
        n = 500  # 10 s
        for _ in range(n):
            s = propagate_velocity_position(s, [b, 0.0, -cfg.gravity_mps2], dt, cfg)
        t = n * dt
        assert s.pos_ned[0] == pytest.approx(0.5 * b * t * t, rel=0.05)

    def test_configured_bias_cancels(self):
        cfg = DeadReckonConfig(accel_bias=np.array([0.2, 0.0, 0.0]))
        s = _state()
        for _ in range(100):
            s = propagate_velocity_position(s, [0.2, 0.0, -cfg.gravity_mps2], 0.02, cfg)
        np.testing.assert_allclose(s.pos_ned, 0.0, atol=1e-12)


class TestDeadReckon:
    def test_circle_round_trip(self):
        log = generate_flight(SynthConfig(duration_s=60.0, profile="circle", seed=3))
        traj = dead_reckon(log, DeadReckonConfig())
        _, _, pos = traj.sample_at(log.ekf.t_us)
        assert np.max(np.linalg.norm(pos - log.ekf.pos_ned, axis=1)) < 0.1

    def test_noisy_error_grows(self):
        log = generate_flight(SynthConfig(duration_s=60.0, profile="circle", seed=3, noise=NoiseConfig.low_cost()))
        traj = dead_reckon(log, DeadReckonConfig())
        _, _, pos = traj.sample_at(log.ekf.t_us)
        err = np.linalg.norm(pos - log.ekf.pos_ned, axis=1)
        assert err[-1] > 10.0
        assert err[-1] > 3.0 * err[len(err) // 2]  # superlinear growth

    def test_empty_imu_errors(self):
        log = generate_flight(SynthConfig(duration_s=10.0, profile="hover", seed=0))
        log.imu = ImuStream(log.imu.t_us[:0], log.imu.values[:0])
        with pytest.raises(DataError):
            dead_reckon(log, DeadReckonConfig())

    def test_non_monotonic_errors(self):
        log = generate_flight(SynthConfig(duration_s=10.0, profile="hover", seed=0))
        log.imu.t_us[10] = log.imu.t_us[9]
        with pytest.raises(DataError):
            dead_reckon(log, DeadReckonConfig())

    def test_starts_at_first_ekf_state(self):
        log = generate_flight(SynthConfig(duration_s=20.0, profile="circle", seed=1))
        traj = dead_reckon(log, DeadReckonConfig())
        assert traj.t_us[0] == log.ekf.t_us[0]
        np.testing.assert_array_equal(traj.pos_ned[0], log.ekf.pos_ned[0])

    def test_time_reversal_returns_to_start(self, rng):
        cfg = DeadReckonConfig()
        k = 50
        dt = 0.02
        gyro = rng.uniform(-1.0, 1.0, (k, 3))
        accel = rng.uniform(-2.0, 2.0, (k, 3)) + [0.0, 0.0, -cfg.gravity_mps2]
        states = [_state(vel=(1.0, -0.5, 0.2))]
        for i in range(k):
            s = propagate_attitude(states[-1], gyro[i], dt, cfg)
            s = propagate_velocity_position(s, accel[i], dt, cfg)
            states.append(s)
        # mirror trajectory: reversed attitude increments, specific force mapped
        # through the recorded attitudes, velocities negated
        s = NavState(states[-1].quat.copy(), -states[-1].vel_ned, states[-1].pos_ned.copy())
        g_ned = np.array([0.0, 0.0, cfg.gravity_mps2])
        for i in range(k - 1, -1, -1):
            q_new = states[i].quat
            q_old = states[i + 1].quat
            dv_fwd = quat.rotate(q_old, accel[i] * dt) + g_ned * dt
            f_rev = quat.rotate_inverse(q_new, dv_fwd / dt - g_ned)
            s = propagate_attitude(s, -gyro[i], dt, cfg)
            s = propagate_velocity_position(s, f_rev, dt, cfg)
        np.testing.assert_allclose(s.pos_ned, states[0].pos_ned, atol=1e-8)
        np.testing.assert_allclose(-s.vel_ned, states[0].vel_ned, atol=1e-8)
        assert min(np.linalg.norm(s.quat - states[0].quat), np.linalg.norm(s.quat + states[0].quat)) < 1e-8


@pytest.fixture(scope="module")
def biased_flight():
    return generate_flight(SynthConfig(duration_s=60.0, profile="aggressive_manual", seed=7, noise=NoiseConfig.low_cost()))


BIASES = dict(gyro_bias=[0.004, -0.003, 0.002], accel_bias=[0.05, -0.04, 0.08])


@pytest.mark.parametrize(
    "cfg_kw, init_row",
    [
        pytest.param({}, None, id="default"),
        pytest.param(dict(apply_earth_rate=True, home_lat_deg=45.0), None, id="earth_rate_45deg"),
        pytest.param({}, 120, id="mid_flight_init"),
    ],
)
def test_matches_per_sample_oracle(biased_flight, cfg_kw, init_row):
    log = biased_flight
    cfg = DeadReckonConfig(**BIASES, **cfg_kw)
    row = init_row or 0
    init = NavState(log.ekf.quat[row], log.ekf.vel_ned[row], log.ekf.pos_ned[row], int(log.ekf.t_us[row]))
    traj = dead_reckon(log, cfg, init=init if init_row else None)
    q, vel, pos = oracle_dead_reckon(log, cfg, init)
    assert len(traj) == len(q) and traj.t_us[0] == init.t_us
    np.testing.assert_array_equal(traj.t_us[1:], log.imu.t_us[log.imu.t_us > init.t_us])
    np.testing.assert_allclose(traj.quat, q, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.vel_ned, vel, rtol=0, atol=1e-9)
    np.testing.assert_allclose(traj.pos_ned, pos, rtol=0, atol=1e-9)


def test_config_validation():
    with pytest.raises(ConfigError):
        DeadReckonConfig(gravity_mps2=-1.0)
    with pytest.raises(ConfigError):
        DeadReckonConfig(home_lat_deg=100.0)
