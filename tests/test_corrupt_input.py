"""Fuzz the file readers: one flipped byte or a truncation of any file must
end as a loaded object or the reader's own error category (exit code 2),
never as another exception; cleanup must end as a verdict."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navrnn.cli import main
from navrnn.errors import CheckpointError, DataError, ValidationError
from navrnn.flightlog import read_flight_log, read_manifest, read_stream, write_flight_log
from navrnn.preprocess import Cleanup, build_dataset, clean_log, load_windows, save_windows, unify_rates
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


def _read_or_raise(reader, path, errors):
    """Run reader; any exception outside errors fails the test."""
    try:
        reader(path)
    except errors:
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
    save_windows(build_dataset([unify_rates(flight)], window=2), root / "w.bin")
    cfg = NetworkConfig(recurrent_layers=1, hidden_size=3)
    meta = {"window": 2, "period_ms": 200, "feature_mean": [0.0] * 11, "feature_std": [1.0] * 11,
            "loss_weights": [1.0] * 6}
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
    _read_or_raise(read_flight_log, work, (DataError, ValidationError))


@pytest.fixture(scope="module")
def flying(tmp_path_factory):
    """A short flight that cleanup accepts, so that it reads every file of the log."""
    root = tmp_path_factory.mktemp("flying")
    cfg = SynthConfig(duration_s=2.0, profile="circle", seed=3, ground_time_s=0.5, noise=NoiseConfig.low_cost())
    write_flight_log(generate_flight(cfg), root / "log")
    assert clean_log(root / "log", "log", Cleanup(min_duration_s=0.0)).accepted
    return root


def _sound(log_dir, name) -> bool:
    """Whether the named file still reads, and a stream file passes its own checks."""
    try:
        if name == "manifest.json":
            read_manifest(log_dir)
            return True
        return not read_stream(log_dir, name.removesuffix(".csv")).defects(max_gap_s=1.0)
    except (DataError, ValidationError):
        return False


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(LOG_FILES), corruption=corruptions)
def test_corrupt_log_file_cleanup(flying, name, corruption):
    # cleanup never raises on a corrupted file, and rejects a log whose corrupted file is unreadable or unsound
    work = _rewrite(flying / "log", flying / "work_log", LOG_FILES, name, corruption)
    verdict = clean_log(work, "log", Cleanup(min_duration_s=0.0))
    if not _sound(work, name):
        assert verdict.reasons == ["validation_defects"]
        assert verdict.post_trim_duration_s is None


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(("w.bin", "w.json")), corruption=corruptions)
def test_corrupt_windows_file(pristine, name, corruption):
    work = _rewrite(pristine, pristine / "work_windows", ("w.bin", "w.json"), name, corruption)
    _read_or_raise(load_windows, work / "w.bin", DataError)


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
    _read_or_raise(load_checkpoint, pristine / "work.navc", CheckpointError)


@pytest.mark.parametrize(
    "array, value", [("weights", -1.0), ("weights", np.nan), ("std", 0.0)], ids=["weight", "nan_weight", "std"]
)
def test_windows_value_check_is_data_error(pristine, tmp_path, capsys, array, value):
    # decoded values that the dataclasses reject are data errors, not config errors
    ds = load_windows(pristine / "w.bin")
    (ds.weights if array == "weights" else ds.normalization.std)[0] = value
    save_windows(ds, tmp_path / "w.bin")
    with pytest.raises(DataError, match="must be positive"):
        load_windows(tmp_path / "w.bin")
    (tmp_path / "train.json").write_text(json.dumps({"train_windows": str(tmp_path / "w.bin")}))
    assert main(["train", "--config", str(tmp_path / "train.json"), "--out", str(tmp_path / "out")]) == 2
    assert "data error" in capsys.readouterr().err
