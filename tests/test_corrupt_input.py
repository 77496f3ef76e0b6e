"""Fuzz the file readers: one flipped byte or a truncation of any file must
end as a loaded object or a NavError, never as another exception."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navrnn.errors import NavError
from navrnn.flightlog import read_flight_log, write_flight_log
from navrnn.preprocess import build_dataset, load_windows, save_windows, unify_rates
from navrnn.rnn import NetworkConfig, init_params, load_checkpoint, save_checkpoint
from navrnn.synth import NoiseConfig, SynthConfig, generate_flight

LOG_FILES = ("manifest.json", "imu.csv", "baro.csv", "mag.csv", "ekf.csv")

# (kind, position, xor mask): "flip" xors the byte at position % len with the
# mask, "cut" keeps the first position % len bytes
corruptions = st.tuples(st.sampled_from(("flip", "cut")), st.integers(0, 2**31), st.integers(1, 255))


def _corrupt(data: bytes, corruption) -> bytes:
    kind, pos, mask = corruption
    pos %= len(data)
    if kind == "cut":
        return data[:pos]
    return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1 :]


def _read_or_nav_error(reader, path):
    try:
        reader(path)
    except NavError:
        pass


def _rewrite(src, dst, names, corrupt_name, corruption):
    """Copy names from src to dst, corrupting the one named corrupt_name."""
    dst.mkdir(exist_ok=True)
    for name in names:
        data = (src / name).read_bytes()
        (dst / name).write_bytes(_corrupt(data, corruption) if name == corrupt_name else data)
    return dst


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A directory with a short noisy log, its windows file plus sidecar,
    and a checkpoint."""
    root = tmp_path_factory.mktemp("pristine")
    flight = generate_flight(SynthConfig(duration_s=1.0, profile="hover", seed=3, noise=NoiseConfig.low_cost()))
    write_flight_log(flight, root / "log")
    save_windows(build_dataset([unify_rates(flight)], window=2), root / "w.bin", {"period_ms": 200})
    cfg = NetworkConfig(recurrent_layers=1, hidden_size=3)
    meta = {"window": 2, "feature_mean": [0.0] * 11, "feature_std": [1.0] * 11, "loss_weights": [1.0] * 6}
    save_checkpoint(init_params(cfg, seed=0), cfg, meta, root / "m.navc")
    return root


def test_pristine_files_load(pristine):
    read_flight_log(pristine / "log")
    assert load_windows(pristine / "w.bin").period_ms == 200
    load_checkpoint(pristine / "m.navc")


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(LOG_FILES), corruption=corruptions)
def test_corrupt_log_file(pristine, name, corruption):
    work = _rewrite(pristine / "log", pristine / "work_log", LOG_FILES, name, corruption)
    _read_or_nav_error(read_flight_log, work)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(("w.bin", "w.json")), corruption=corruptions)
def test_corrupt_windows_file(pristine, name, corruption):
    work = _rewrite(pristine, pristine / "work_windows", ("w.bin", "w.json"), name, corruption)
    _read_or_nav_error(load_windows, work / "w.bin")


@settings(max_examples=150, deadline=None)
@given(corruption=corruptions)
def test_corrupt_checkpoint_header(pristine, corruption):
    data = (pristine / "m.navc").read_bytes()
    if corruption[0] == "flip":  # flips stay inside the magic, the lengths and the JSON header
        header_len = 12 + struct.unpack("<I", data[8:12])[0]
        data = _corrupt(data[:header_len], corruption) + data[header_len:]
    else:
        data = _corrupt(data, corruption)
    (pristine / "work.navc").write_bytes(data)
    _read_or_nav_error(load_checkpoint, pristine / "work.navc")
