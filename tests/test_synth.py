import json

import numpy as np
import pytest

from navrnn.deadreckon import DeadReckonConfig, dead_reckon
from navrnn.errors import ConfigError, DataError
from navrnn.synth import (
    DatasetManifest,
    NoiseConfig,
    SynthConfig,
    generate_flight,
    make_dataset,
)


def test_hover_statics():
    log = generate_flight(SynthConfig(duration_s=10.0, profile="hover", seed=0))
    assert np.all(log.ekf.vel_ned == 0.0)
    assert np.all(log.ekf.pos_ned == 0.0)
    np.testing.assert_allclose(log.imu.accel, np.tile([0.0, 0.0, -9.80665], (len(log.imu), 1)), atol=1e-12)
    np.testing.assert_allclose(log.imu.gyro, 0.0, atol=1e-12)


def test_same_seed_identical():
    cfg = SynthConfig(duration_s=30.0, profile="waypoint_polyline", seed=7, noise=NoiseConfig.low_cost())
    a = generate_flight(cfg)
    b = generate_flight(cfg)
    assert np.array_equal(a.imu.gyro, b.imu.gyro)
    assert np.array_equal(a.imu.accel, b.imu.accel)
    assert np.array_equal(a.baro.alt_m, b.baro.alt_m)
    assert np.array_equal(a.mag.mag, b.mag.mag)
    assert np.array_equal(a.ekf.pos_ned, b.ekf.pos_ned)


def test_different_seed_differs():
    noise = NoiseConfig.low_cost()
    a = generate_flight(SynthConfig(duration_s=30.0, profile="circle", seed=1, noise=noise))
    b = generate_flight(SynthConfig(duration_s=30.0, profile="circle", seed=2, noise=noise))
    assert not np.array_equal(a.imu.gyro, b.imu.gyro)


@pytest.mark.parametrize("profile", ["circle", "survey_lawnmower", "waypoint_polyline", "aggressive_manual"])
def test_noiseless_dead_reckon_round_trip(profile):
    log = generate_flight(SynthConfig(duration_s=60.0, profile=profile, seed=3))
    traj = dead_reckon(log, DeadReckonConfig())
    _, vel, pos = traj.sample_at(log.ekf.t_us)
    assert np.max(np.linalg.norm(pos - log.ekf.pos_ned, axis=1)) < 0.1
    assert np.max(np.linalg.norm(vel - log.ekf.vel_ned, axis=1)) < 0.01


def test_bias_injection_drift_law():
    b = 0.05
    cfg = SynthConfig(
        duration_s=60.0,
        profile="hover",
        seed=5,
        noise=NoiseConfig(accel_bias=b, accel_bias_vec=(0.0, 0.0, b)),
    )
    log = generate_flight(cfg)
    traj = dead_reckon(log, DeadReckonConfig())
    _, _, pos = traj.sample_at(log.ekf.t_us)
    err = np.linalg.norm(pos - log.ekf.pos_ned, axis=1)
    t = (log.ekf.t_us - log.ekf.t_us[0]) * 1e-6
    expected = 0.5 * b * t[-1] ** 2
    assert abs(err[-1] - expected) < 0.05 * expected


def test_mag_is_rotated_earth_field():
    log = generate_flight(SynthConfig(duration_s=30.0, profile="circle", seed=2))
    norms = np.linalg.norm(log.mag.mag, axis=1)
    np.testing.assert_allclose(norms, np.hypot(0.22, 0.42), atol=1e-9)
    # heading change rotates the horizontal component
    assert np.ptp(log.mag.mag[:, 0]) > 0.05


def test_baro_tracks_altitude():
    log = generate_flight(SynthConfig(duration_s=60.0, profile="circle", seed=2))
    assert np.max(log.baro.alt_m) > 5.0
    np.testing.assert_allclose(log.baro.alt_m, -np.interp(log.baro.t_us, log.ekf.t_us, log.ekf.pos_ned[:, 2]), atol=0.2)


def test_ground_time_is_static():
    cfg = SynthConfig(duration_s=40.0, profile="circle", seed=1, ground_time_s=10.0)
    log = generate_flight(cfg)
    on_ground = log.ekf.t_us < 10_000_000
    assert np.all(np.linalg.norm(log.ekf.vel_ned[on_ground], axis=1) == 0.0)
    assert (log.ekf.t_us[-1] - log.ekf.t_us[0]) * 1e-6 == pytest.approx(60.0, abs=0.5)


def test_ground_drift_injection():
    cfg = SynthConfig(duration_s=40.0, profile="circle", seed=1, ground_time_s=15.0, ground_drift_mps=0.1)
    log = generate_flight(cfg)
    on_ground = log.ekf.t_us < 15_000_000
    speeds = np.linalg.norm(log.ekf.vel_ned[on_ground], axis=1)
    assert 0.0 < np.max(speeds) < 0.5  # wanders, but below the takeoff threshold
    assert np.max(np.linalg.norm(log.ekf.pos_ned[on_ground], axis=1)) > 0.1


def test_invalid_configs():
    with pytest.raises(ConfigError):
        SynthConfig(duration_s=0.0)
    with pytest.raises(ConfigError):
        SynthConfig(duration_s=10.0, profile="loop_the_loop")
    with pytest.raises(ConfigError):
        NoiseConfig(gyro_std=-1.0)


def test_make_dataset(tmp_path):
    cfgs = [
        SynthConfig(duration_s=20.0, profile="circle", seed=i, ground_time_s=2.0) for i in range(3)
    ]
    manifest = make_dataset(cfgs, tmp_path / "ds")
    assert len(manifest.logs) == 3
    for entry in manifest.logs:
        assert entry.duration_s == pytest.approx(24.0)
        assert (tmp_path / "ds" / entry.path / "manifest.json").is_file()
    payload = json.loads((tmp_path / "ds" / "dataset.json").read_text())
    assert len(payload["logs"]) == 3
    again = DatasetManifest.load(tmp_path / "ds")
    assert [e.log_id for e in again.logs] == [e.log_id for e in manifest.logs]


def test_make_dataset_empty(tmp_path):
    manifest = make_dataset([], tmp_path / "empty")
    assert manifest.logs == []
    assert (tmp_path / "empty" / "dataset.json").is_file()


def test_streams_cover_total_duration():
    cfg = SynthConfig(duration_s=20.0, profile="circle", seed=0, ground_time_s=5.0)
    log = generate_flight(cfg)
    for _, stream in log.streams():
        assert stream.t_us[0] == 0
        assert stream.t_us[-1] <= 30_000_000
        assert stream.t_us[-1] >= 29_000_000


@pytest.mark.parametrize(
    "text",
    ["{not json", '{"logs": [{"path": "a", "duration_s": 60.0, "profile": "circle"}]}'],
    ids=["not_json", "entry_without_id"],
)
def test_malformed_dataset_manifest(tmp_path, text):
    (tmp_path / "dataset.json").write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match="dataset.json"):
        DatasetManifest.load(tmp_path)
