import json
import struct

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
from navrnn.preprocess import Normalization, WindowedDataset, save_windows
from navrnn.rnn import DenseParams, LayerParams, NetworkConfig, NetworkParams, save_checkpoint
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
        imu=ImuStream(t, np.tile([0.25, 0.25, 0.25, 0.0, 0.0, -9.80665], (n, 1))),
        baro=BaroStream(t, np.tile([25.0, 3.5], (n, 1))),
        mag=MagStream(t, np.tile([0.22, 0.0, 0.42], (n, 1))),
        ekf=EkfStream(t_ekf, np.hstack([quat, np.zeros((len(t_ekf), 6))])),
    )


def _assert_logs_equal(a: FlightLog, b: FlightLog):
    assert a.log_id == b.log_id
    assert a.vehicle_type == b.vehicle_type
    assert a.source == b.source
    assert a.home_lat_deg == b.home_lat_deg
    for (_, sa), (_, sb) in zip(a.streams(), b.streams()):
        assert np.array_equal(sa.t_us, sb.t_us)
        assert np.array_equal(sa.values, sb.values)


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


def test_streams_own_their_arrays():
    # two streams built from one time array: changing one in place leaves the other as it was
    t = np.arange(5, dtype=np.int64)
    imu = ImuStream(t, np.zeros((5, 6)))
    baro = BaroStream(t, np.zeros((5, 2)))
    imu.t_us[2:] += 100
    imu.values[0] = 1.0
    assert baro.t_us.tolist() == t.tolist() == [0, 1, 2, 3, 4]
    assert not baro.values.any()


def test_named_fields_view_the_value_matrix():
    log = _tiny_log()
    assert np.array_equal(log.imu.accel, log.imu.values[:, 3:6])
    assert np.array_equal(log.baro.alt_m, log.baro.values[:, 1])
    assert np.array_equal(log.ekf.pos_ned, log.ekf.values[:, 7:10])
    log.imu.accel[0, 2] = 1.5
    assert log.imu.values[0, 5] == 1.5
    with pytest.raises(AttributeError):
        log.imu.gyro = np.zeros((20, 3))


@pytest.mark.parametrize(
    "make",
    [lambda: ImuStream(np.arange(3), np.zeros((3, 5))), lambda: BaroStream(np.arange(3), np.zeros((4, 2))),
     lambda: MagStream(np.arange(3), np.zeros(3))],
    ids=["imu_five_columns", "baro_four_rows", "mag_one_dimensional"],
)
def test_stream_shape_checked(make):
    with pytest.raises(ValidationError, match="Stream needs times"):
        make()


def test_csv_headers(tmp_path):
    write_flight_log(_tiny_log(), tmp_path / "log")
    headers = {name: (tmp_path / "log" / f"{name}.csv").read_text().split("\n")[0] for name in ("imu", "baro", "mag", "ekf")}
    assert headers == {
        "imu": "t_us,gx,gy,gz,ax,ay,az",
        "baro": "t_us,temp_c,alt_m",
        "mag": "t_us,mx,my,mz",
        "ekf": "t_us,q1,q2,q3,q4,vn,ve,vd,pn,pe,pd",
    }


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
    t = log.imu.t_us.copy()
    t[25:] += 5_000_000  # 5 s hole
    log.imu = ImuStream(t, log.imu.values)
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
        imu=ImuStream(t, rng.standard_normal((n, 6))),
        baro=BaroStream(t, rng.standard_normal((n, 2))),
        mag=MagStream(t, rng.standard_normal((n, 3))),
        ekf=EkfStream(t_ekf, np.hstack([quat, rng.standard_normal((n_ekf, 6))])),
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


# ---------------------------------------------------------------------------
# the binary layouts, decoded by hand


def _fixed(*shape, start=0.0):
    return (start + np.arange(np.prod(shape), dtype=np.float32) / 8).reshape(shape)


def test_navw_layout(tmp_path):
    # magic, <5I version/m/w/f/labels, then windows, labels, weights, mean, std as <f4
    m, w, f, lab = 2, 3, 4, 5
    arrays = [_fixed(m, w, f), _fixed(m, lab, start=-1.0), _fixed(lab, start=1.0), _fixed(f), _fixed(f, start=2.0)]
    norm = Normalization(mean=arrays[3], std=arrays[4])
    save_windows(WindowedDataset(*arrays[:3], window_size=w, stride=2, normalization=norm), tmp_path / "w.bin")
    data = (tmp_path / "w.bin").read_bytes()
    assert data[:4] == b"NAVW"
    assert struct.unpack("<5I", data[4:24]) == (1, m, w, f, lab)
    sizes = [a.size for a in arrays]
    assert len(data) == 24 + 4 * sum(sizes)
    parts = np.split(np.frombuffer(data, dtype="<f4", offset=24), np.cumsum(sizes)[:-1])
    for part, a in zip(parts, arrays):
        np.testing.assert_array_equal(part.reshape(a.shape), a)


def test_navc_layout(tmp_path):
    # magic, <2I version/JSON length, the sorted-key JSON header, then each array as <f4 in header order
    params = NetworkParams(
        layers=[LayerParams(_fixed(8, 3), _fixed(8, 2, start=-1.0), _fixed(8, start=1.0))],
        dense=DenseParams(_fixed(1, 2, start=3.0), _fixed(1, start=-2.0)),
    )
    cfg = NetworkConfig(recurrent_layers=1, hidden_size=2, input_size=3, output_size=1)
    meta = {"window": 4, "period_ms": 200, "feature_mean": [0.0] * 3, "feature_std": [1.0] * 3, "loss_weights": [2.0]}
    save_checkpoint(params, cfg, meta, tmp_path / "m.navc")
    data = (tmp_path / "m.navc").read_bytes()
    assert data[:4] == b"NAVC"
    version, blob_len = struct.unpack("<2I", data[4:12])
    header = {
        "config": {"recurrent_layers": 1, "hidden_size": 2, "input_size": 3, "output_size": 1,
                   "cell": "lstm", "input_activation": "tanh"},
        "meta": meta,
        "arrays": [{"name": n, "shape": s} for n, s in (("layer0.wx", [8, 3]), ("layer0.wh", [8, 2]),
                                                         ("layer0.b", [8]), ("dense.w", [1, 2]), ("dense.b", [1]))],
    }
    assert version == 1
    assert data[12 : 12 + blob_len] == json.dumps(header, sort_keys=True).encode("utf-8")
    payload = np.frombuffer(data, dtype="<f4", offset=12 + blob_len)
    np.testing.assert_array_equal(payload, np.concatenate([a.ravel() for _, a in params.arrays()]))
