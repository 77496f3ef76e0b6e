import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navrnn.errors import DataError, ValidationError
from navrnn.flightlog import (
    BaroStream,
    EkfStream,
    FlightLog,
    ImuStream,
    MagStream,
    read_flight_log,
    write_flight_log,
)
from navrnn.synth import SynthConfig, generate_flight


def _tiny_log(n=20, log_id="tiny"):
    t = np.arange(n, dtype=np.int64) * 12000
    t_ekf = np.arange(max(n // 4, 2), dtype=np.int64) * 200000
    quat = np.zeros((len(t_ekf), 4))
    quat[:, 0] = 1.0
    return FlightLog(
        log_id=log_id,
        vehicle_type="quadrotor",
        source="synthetic",
        imu=ImuStream(t, np.full((n, 3), 0.25), np.tile([0.0, 0.0, -9.80665], (n, 1))),
        baro=BaroStream(t, np.full(n, 25.0), np.full(n, 3.5)),
        mag=MagStream(t, np.tile([0.22, 0.0, 0.42], (n, 1))),
        ekf=EkfStream(t_ekf, quat, np.zeros((len(t_ekf), 3)), np.zeros((len(t_ekf), 3))),
    )


def _assert_logs_equal(a: FlightLog, b: FlightLog):
    assert a.log_id == b.log_id
    assert a.vehicle_type == b.vehicle_type
    assert a.source == b.source
    assert a.home_lat_deg == b.home_lat_deg
    for (_, sa), (_, sb) in zip(a.streams(), b.streams()):
        assert np.array_equal(sa.t_us, sb.t_us)
        for va, vb in zip(_values(sa), _values(sb)):
            assert np.array_equal(va, vb)


def _values(s):
    if isinstance(s, ImuStream):
        return (s.gyro, s.accel)
    if isinstance(s, BaroStream):
        return (s.temp_c, s.alt_m)
    if isinstance(s, MagStream):
        return (s.mag,)
    return (s.quat, s.vel_ned, s.pos_ned)


def test_round_trip_synthetic_hover(tmp_path):
    log = generate_flight(SynthConfig(duration_s=10.0, profile="hover", seed=1))
    write_flight_log(log, tmp_path / "log")
    assert {(tmp_path / "log" / f).name for f in ("manifest.json", "imu.csv", "baro.csv", "mag.csv", "ekf.csv")} == {
        p.name for p in (tmp_path / "log").iterdir()
    }
    back = read_flight_log(tmp_path / "log")
    _assert_logs_equal(log, back)


def test_round_trip_awkward_floats(tmp_path):
    log = _tiny_log()
    log.imu.gyro[0] = [0.1, 1 / 3, np.pi]
    log.imu.accel[1] = [1e-300, -1e300, 5e-324]
    log.baro.alt_m[2] = np.nextafter(1.0, 2.0)
    write_flight_log(log, tmp_path / "log")
    _assert_logs_equal(log, read_flight_log(tmp_path / "log"))


def test_non_monotonic_rejected(tmp_path):
    log = _tiny_log()
    log.imu.t_us[5] = log.imu.t_us[4]
    with pytest.raises(ValidationError, match="imu"):
        write_flight_log(log, tmp_path / "log")


def test_imu_row_count_at_standard_rates():
    log = generate_flight(SynthConfig(duration_s=360.0, profile="hover", seed=0))
    assert abs(len(log.imu) - 360 * 84) <= 2


def test_schema_version_mismatch(tmp_path):
    write_flight_log(_tiny_log(), tmp_path / "log")
    manifest = tmp_path / "log" / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"schema_version": 1', '"schema_version": 99'))
    with pytest.raises(DataError, match="schema_version"):
        read_flight_log(tmp_path / "log")


def test_bad_quat_norm_rejected(tmp_path):
    log = _tiny_log()
    write_flight_log(log, tmp_path / "log")
    ekf = tmp_path / "log" / "ekf.csv"
    lines = ekf.read_text().splitlines()
    parts = lines[1].split(",")
    parts[1] = "0.5"
    lines[1] = ",".join(parts)
    ekf.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="quaternion"):
        read_flight_log(tmp_path / "log")


def test_missing_file_and_malformed_row(tmp_path):
    write_flight_log(_tiny_log(), tmp_path / "log")
    (tmp_path / "log" / "mag.csv").unlink()
    with pytest.raises(DataError, match="missing file"):
        read_flight_log(tmp_path / "log")
    write_flight_log(_tiny_log(), tmp_path / "log2")
    imu = tmp_path / "log2" / "imu.csv"
    imu.write_text(imu.read_text() + "12,nope,0,0,0,0,0\n")
    with pytest.raises(DataError, match="malformed"):
        read_flight_log(tmp_path / "log2")


def test_validate_clean_log():
    assert _tiny_log().defects(max_gap_s=1.0) == []


def test_validate_detects_gap():
    log = _tiny_log(n=50)
    t = log.imu.t_us.copy()  # the tiny log's sensors share one time array
    t[25:] += 5_000_000  # 5 s hole
    log.imu = ImuStream(t, log.imu.gyro, log.imu.accel)
    assert log.defects(max_gap_s=1.0) == ["imu stream has a gap of 5.012 s (limit 1 s)"]
    assert log.defects() == []  # no gap limit: the reader's check


def test_validate_counts_nan():
    log = _tiny_log()
    log.imu.accel[3, 1] = np.nan
    log.imu.gyro[7, 0] = np.inf
    assert log.defects() == ["imu stream has 2 non-finite value(s)"]
    with pytest.raises(ValidationError, match="non-finite"):
        log.check()


def test_validate_is_pure():
    log = _tiny_log()
    log.baro.alt_m[4] = np.inf
    before = log.baro.alt_m.copy()
    assert log.defects() == log.defects() == ["baro stream has 1 non-finite value(s)"]
    assert np.array_equal(log.baro.alt_m, before)


@st.composite
def small_logs(draw):
    n_ekf = draw(st.integers(min_value=2, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    t_ekf = np.cumsum(rng.integers(150_000, 250_000, size=n_ekf)).astype(np.int64)
    span = int(t_ekf[-1] - t_ekf[0])
    n = draw(st.integers(min_value=2, max_value=30))
    t = np.sort(rng.choice(np.arange(t_ekf[0], t_ekf[-1] + 1), size=n, replace=False)).astype(np.int64)
    quat = rng.standard_normal((n_ekf, 4))
    quat /= np.linalg.norm(quat, axis=1, keepdims=True)
    home = draw(st.one_of(st.none(), st.floats(-80, 80, allow_nan=False)))
    return FlightLog(
        log_id=draw(st.text(alphabet="abcdef0123456789", min_size=1, max_size=10)),
        vehicle_type=draw(st.sampled_from(("quadrotor", "fixed_wing", "unknown"))),
        source=draw(st.sampled_from(("recorded", "synthetic"))),
        imu=ImuStream(t, rng.standard_normal((n, 3)), rng.standard_normal((n, 3))),
        baro=BaroStream(t, rng.standard_normal(n), rng.standard_normal(n)),
        mag=MagStream(t, rng.standard_normal((n, 3))),
        ekf=EkfStream(t_ekf, quat, rng.standard_normal((n_ekf, 3)), rng.standard_normal((n_ekf, 3))),
        home_lat_deg=home,
    )


@settings(max_examples=25, deadline=None)
@given(small_logs())
def test_round_trip_property(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("rt") / "log"
    write_flight_log(log, path)
    back = read_flight_log(path)
    _assert_logs_equal(log, back)
    for _, stream in back.streams():
        assert np.all(np.diff(stream.t_us) > 0)


def test_unknown_vehicle_type_preserved(tmp_path):
    log = _tiny_log()
    log.vehicle_type = "unknown"
    write_flight_log(log, tmp_path / "log")
    assert read_flight_log(tmp_path / "log").vehicle_type == "unknown"
