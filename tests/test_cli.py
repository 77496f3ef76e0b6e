import argparse
import ast
import inspect
import json
import logging
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import navrnn
from navrnn import cli, stream
from navrnn.cli import main
from navrnn.errors import ValidationError, from_json
from navrnn.flightlog import EkfStream, read_flight_log, write_flight_log
from navrnn.preprocess import Normalization, clean_log, load_windows, save_windows, split_dataset
from navrnn.rnn import NetworkConfig, load_checkpoint
from navrnn.synth import DatasetManifest, LogEntry, SynthConfig


def _write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """synth -> preprocess -> train on a deliberately small experiment."""
    root = tmp_path_factory.mktemp("pipeline")
    synth_cfg = _write_config(
        root / "synth.json",
        {
            "batch": {
                "count": 4,
                "profiles": ["circle", "survey_lawnmower", "waypoint_polyline"],
                "duration_s": 70.0,
                "ground_time_s": 3.0,
                "noise": "low_cost",
                "seed": 100,
            }
        },
    )
    assert main(["synth", "--config", synth_cfg, "--out", str(root / "data")]) == 0

    pre_cfg = _write_config(
        root / "pre.json",
        {
            "dataset": str(root / "data"),
            "window": 20,
            "stride": 2,
            "val_fraction": 0.25,
            "seed": 0,
            "min_duration_s": 30.0,
        },
    )
    assert main(["preprocess", "--config", pre_cfg, "--out", str(root / "pre")]) == 0

    train_cfg = _write_config(
        root / "train.json",
        {
            "train_windows": str(root / "pre" / "train_windows.bin"),
            "val_windows": str(root / "pre" / "val_windows.bin"),
            "network": {"recurrent_layers": 1, "hidden_size": 24},
            "train": {"epochs": 4, "batch_size": 128, "shuffle_seed": 0},
            "init_seed": 0,
        },
    )
    assert main(["train", "--config", train_cfg, "--out", str(root / "model")]) == 0
    return root


def test_synth_outputs(tiny_pipeline):
    data = tiny_pipeline / "data"
    manifest = json.loads((data / "dataset.json").read_text())
    assert len(manifest["logs"]) == 4
    for entry in manifest["logs"]:
        assert (data / entry["path"] / "imu.csv").is_file()
        assert entry["duration_s"] == pytest.approx(76.0)


def test_preprocess_outputs(tiny_pipeline):
    pre = tiny_pipeline / "pre"
    for name in ("train_windows.bin", "train_windows.json", "val_windows.bin", "cleanup_report.json", "split.json"):
        assert (pre / name).is_file()
    cleanup = json.loads((pre / "cleanup_report.json").read_text())
    assert cleanup["accepted_count"] <= cleanup["input_count"]
    split = json.loads((pre / "split.json").read_text())
    assert set(split["train"]) | set(split["val"]) <= {e["id"] for e in json.loads((tiny_pipeline / "data" / "dataset.json").read_text())["logs"]}
    assert not set(split["train"]) & set(split["val"])


@pytest.mark.parametrize("fast_in", ["train", "val"])
def test_preprocess_refuses_mixed_periods(mixed_rate_logs, tmp_path, capsys, fast_in):
    # the 10 Hz log among the training logs, or the only validation log: exit 2 with no windows file either way
    entries = [LogEntry(log.log_id, log.log_id, 90.0, "circle") for log in mixed_rate_logs]
    for log in mixed_rate_logs:
        write_flight_log(log, tmp_path / "data" / log.log_id)
    manifest = DatasetManifest(root=tmp_path / "data", logs=entries)
    _, (val,) = split_dataset(manifest, 0.34, 0)  # the split picks places in the list, whichever logs are there
    at = next(i for i, e in enumerate(entries) if (e is val) == (fast_in == "val"))
    entries[2], entries[at] = entries[at], entries[2]  # the 10 Hz log goes to that place
    manifest.save()
    cfg = _write_config(tmp_path / "pre.json", {"dataset": str(tmp_path / "data"), "window": 20,
                                                "val_fraction": 0.34, "seed": 0, "min_duration_s": 30.0})
    capsys.readouterr()
    assert main(["preprocess", "--config", cfg, "--out", str(tmp_path / "pre")]) == 2
    err = capsys.readouterr().err
    assert "a corpus needs one period" in err and mixed_rate_logs[2].log_id in err
    assert json.loads((tmp_path / "pre" / "cleanup_report.json").read_text())["accepted_count"] == 3
    assert not list((tmp_path / "pre").glob("*_windows.*"))


def test_train_outputs(tiny_pipeline):
    model = tiny_pipeline / "model"
    assert (model / "model_final.navc").is_file()
    report = json.loads((model / "train_report.json").read_text())
    assert len(report["train_loss"]) == 4
    assert all(v > 0 for v in report["train_loss"])


def test_eval_with_baseline(tiny_pipeline):
    cfg = _write_config(
        tiny_pipeline / "eval.json",
        {
            "checkpoint": str(tiny_pipeline / "model" / "model_final.navc"),
            "dataset": str(tiny_pipeline / "data"),
            "split": str(tiny_pipeline / "pre" / "split.json"),
            "min_duration_s": 30.0,
        },
    )
    out = tiny_pipeline / "eval"
    assert main(["eval", "--config", cfg, "--out", str(out), "--baseline"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "nn" in summary and "deadreckon" in summary
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert "nn_mpe_m" in header and "deadreckon_mpe_m" in header
    metrics_files = list((out / "metrics").glob("*.json"))
    assert metrics_files


def test_eval_rerun_byte_identical(tiny_pipeline):
    cfg = _write_config(
        tiny_pipeline / "eval2.json",
        {
            "checkpoint": str(tiny_pipeline / "model" / "model_final.navc"),
            "dataset": str(tiny_pipeline / "data"),
            "split": str(tiny_pipeline / "pre" / "split.json"),
            "min_duration_s": 30.0,
        },
    )
    out_a = tiny_pipeline / "eval_a"
    out_b = tiny_pipeline / "eval_b"
    assert main(["eval", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["eval", "--config", cfg, "--out", str(out_b)]) == 0
    for f in sorted((out_a / "metrics").glob("*.json")):
        assert f.read_bytes() == (out_b / "metrics" / f.name).read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_stream_command(tiny_pipeline, monkeypatch):
    # the flight is replayed once, and the report describes the predictions written
    calls = []
    replay_once = stream.run_stream
    monkeypatch.setattr(stream, "run_stream", lambda *args: calls.append(args) or replay_once(*args))
    split = json.loads((tiny_pipeline / "pre" / "split.json").read_text())
    log_id = split["val"][0]
    cfg = _write_config(
        tiny_pipeline / "stream.json",
        {
            "checkpoint": str(tiny_pipeline / "model" / "model_final.navc"),
            "log": str(tiny_pipeline / "data" / log_id),
            "stream": {"jitter_ms": 0.0, "replay_speed": 0.0},
        },
    )
    out = tiny_pipeline / "stream"
    assert main(["stream", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "compare_report.json").read_text())
    assert report["bitwise_equal"] is True
    assert report["dropped"] == {}  # the closed loop reads the log without queues
    lines = (out / "online_predictions.csv").read_text().splitlines()
    assert lines[0].startswith("t_us,dpn")
    assert len(lines) > 10
    assert len(calls) == 1
    assert report["n_online"] == len(lines) - 1


@pytest.mark.parametrize(
    "key, value",
    [("window", "x"), ("period_ms", "abc"), ("feature_mean", [0.0] * 3), ("feature_std", [0.0] * 11),
     ("loss_weights", [-1.0] * 6)],
    ids=["window", "period_ms", "short_feature_mean", "zero_feature_std", "negative_loss_weight"],
)
def test_bad_checkpoint_meta_exits_two(tiny_pipeline, tmp_path, capsys, key, value):
    # save_checkpoint refuses such a meta, so plant it in a saved file's JSON header
    data = (tiny_pipeline / "model" / "model_final.navc").read_bytes()
    version, blob_len = struct.unpack("<2I", data[4:12])
    header = json.loads(data[12 : 12 + blob_len])
    blob = json.dumps({**header, "meta": {**header["meta"], key: value}}).encode("utf-8")
    bad = data[:4] + struct.pack("<2I", version, len(blob)) + blob + data[12 + blob_len :]
    (tmp_path / "bad.navc").write_bytes(bad)
    log_id = json.loads((tiny_pipeline / "pre" / "split.json").read_text())["val"][0]
    cfg = _write_config(
        tmp_path / "stream.json", {"checkpoint": str(tmp_path / "bad.navc"), "log": str(tiny_pipeline / "data" / log_id)}
    )
    capsys.readouterr()
    assert main(["stream", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"meta {key}" in capsys.readouterr().err


@pytest.mark.parametrize("lat", ["abc", 1e300, [1], True], ids=["string", "huge", "array", "bool"])
def test_bad_home_lat_in_manifest_rejected(tiny_pipeline, tmp_path, capsys, lat):
    log_id = json.loads((tiny_pipeline / "pre" / "split.json").read_text())["val"][0]
    log = shutil.copytree(tiny_pipeline / "data" / log_id, tmp_path / log_id)
    manifest = json.loads((log / "manifest.json").read_text())
    (log / "manifest.json").write_text(json.dumps({**manifest, "home_lat_deg": lat}))
    with pytest.raises(ValidationError, match="home_lat_deg"):
        read_flight_log(log)
    assert clean_log(log, log_id).reasons == ["validation_defects"]
    cfg = _write_config(tmp_path / "stream.json", {"checkpoint": str(tiny_pipeline / "model" / "model_final.navc"),
                                                   "log": str(log)})
    capsys.readouterr()
    assert main(["stream", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "home_lat_deg" in capsys.readouterr().err


def test_stream_jitter_of_half_a_period_exits_one(tiny_pipeline, tmp_path, capsys):
    # the checkpoint bins at 200 ms; 100 ms of jitter could put a bin edge at or before the last one
    log_id = json.loads((tiny_pipeline / "pre" / "split.json").read_text())["val"][0]
    cfg = _write_config(
        tmp_path / "stream.json",
        {
            "checkpoint": str(tiny_pipeline / "model" / "model_final.navc"),
            "log": str(tiny_pipeline / "data" / log_id),
            "stream": {"jitter_ms": 100.0},
        },
    )
    capsys.readouterr()
    assert main(["stream", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "jitter_ms" in capsys.readouterr().err


def test_unknown_flag_exits_one():
    assert main(["synth", "--config", "x.json", "--out", "y", "--bogus"]) == 1


def test_missing_config_exits_one(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 1


def test_bad_data_exits_two(tmp_path):
    cfg = _write_config(tmp_path / "eval.json", {"checkpoint": "nope.navc", "dataset": str(tmp_path)})
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def _nan_in_imu(log_dir: Path) -> None:
    imu_csv = log_dir / "imu.csv"
    lines = imu_csv.read_text().splitlines()
    fields = lines[5].split(",")
    fields[1] = "nan"
    lines[5] = ",".join(fields)
    imu_csv.write_text("\n".join(lines) + "\n")


def _flip_imu_byte(log_dir: Path) -> None:
    data = bytearray((log_dir / "imu.csv").read_bytes())
    data[len(data) // 2] = 0xFF
    (log_dir / "imu.csv").write_bytes(bytes(data))


def _cut_imu_mid_row(log_dir: Path) -> None:
    data = (log_dir / "imu.csv").read_bytes()
    row_start = data.index(b"\n", len(data) // 2) + 1
    (log_dir / "imu.csv").write_bytes(data[: data.index(b",", row_start) + 1])


def _manifest_not_an_object(log_dir: Path) -> None:
    (log_dir / "manifest.json").write_text("[]")


def _synth_with_one_bad_log(root: Path, count: int, corrupt=_nan_in_imu) -> str:
    """Synthesize `count` short flights and corrupt the first one's files;
    returns that log's id."""
    synth_cfg = _write_config(
        root / "synth.json",
        {"batch": {"count": count, "profiles": ["circle"], "duration_s": 20.0, "seed": 5}},
    )
    assert main(["synth", "--config", synth_cfg, "--out", str(root / "data")]) == 0
    log_dir = sorted((root / "data").rglob("imu.csv"))[0].parent
    log_id = json.loads((log_dir / "manifest.json").read_text())["log_id"]
    corrupt(log_dir)
    return log_id


def test_non_finite_imu_sample_exits_two(tmp_path, capsys):
    _synth_with_one_bad_log(tmp_path, count=2)
    pre_cfg = _write_config(tmp_path / "pre.json", {"dataset": str(tmp_path / "data"), "min_duration_s": 10.0})
    capsys.readouterr()
    assert main(["preprocess", "--config", pre_cfg, "--out", str(tmp_path / "pre")]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt",
    [_nan_in_imu, _flip_imu_byte, _cut_imu_mid_row, _manifest_not_an_object],
    ids=["nan", "flipped_byte", "cut_mid_row", "manifest_not_an_object"],
)
def test_non_finite_log_rejected_rest_of_corpus_kept(tmp_path, corrupt):
    bad_id = _synth_with_one_bad_log(tmp_path, count=3, corrupt=corrupt)
    pre_cfg = _write_config(
        tmp_path / "pre.json", {"dataset": str(tmp_path / "data"), "min_duration_s": 10.0, "window": 10}
    )
    assert main(["preprocess", "--config", pre_cfg, "--out", str(tmp_path / "pre")]) == 0
    report = json.loads((tmp_path / "pre" / "cleanup_report.json").read_text())
    assert report["input_count"] == 3 and report["accepted_count"] == 2
    verdicts = {v["log_id"]: v for v in report["verdicts"]}
    assert verdicts[bad_id]["accepted"] is False
    assert verdicts[bad_id]["reasons"] == ["validation_defects"]


def test_eval_warns_once_per_rejected_log(tiny_pipeline, tmp_path, caplog):
    synth_cfg = _write_config(
        tmp_path / "synth.json",
        {"flights": [{"profile": "circle", "duration_s": d} for d in (40.0, 40.0, 12.0)]},
    )
    assert main(["synth", "--config", synth_cfg, "--out", str(tmp_path / "data")]) == 0
    _nan_in_imu(tmp_path / "data" / "circle_000000")
    cfg = _write_config(
        tmp_path / "eval.json", {**_model_inputs(tiny_pipeline), "dataset": str(tmp_path / "data"), "min_duration_s": 20.0}
    )
    caplog.set_level(logging.WARNING)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "eval")]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 2, warnings
    assert sum("circle_000000" in m and "validation_defects" in m for m in warnings) == 1
    assert sum("circle_000002" in m and "too_short" in m for m in warnings) == 1


def _train_and_eval(root: Path, out: Path, epochs: int, run) -> None:
    """Run `train` for epochs on root's windows, then `eval --baseline` of its model on root's split, under out."""
    train_cfg = json.loads((root / "train.json").read_text())
    train_cfg["train"]["epochs"] = epochs
    run(["train", "--config", _write_config(out / "train.json", train_cfg), "--out", str(out / "model")])
    eval_cfg = {"checkpoint": str(out / "model" / "model_final.navc"), "dataset": str(root / "data"),
                "split": str(root / "pre" / "split.json"), "min_duration_s": 30.0}
    run(["eval", "--config", _write_config(out / "eval.json", eval_cfg), "--out", str(out / "eval"), "--baseline"])


def test_info_logs_each_epoch_and_flight(tiny_pipeline, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="navrnn")
    _train_and_eval(tiny_pipeline, tmp_path, 3, lambda argv: main(argv) == 0 or pytest.fail(f"{argv[0]} failed"))
    epochs = [r.getMessage() for r in caplog.records if r.name == "navrnn.train"]
    assert [m.split(":")[0] for m in epochs] == ["epoch 0", "epoch 1", "epoch 2"]
    assert all(re.fullmatch(r"epoch \d: lr \S+, train loss \S+, val loss \S+, \d+\.\d\d s", m) for m in epochs), epochs
    flights = [r.getMessage() for r in caplog.records if r.getMessage().startswith("eval ")]
    metrics = {p.stem: json.loads(p.read_text()) for p in (tmp_path / "eval" / "metrics").glob("*.json")}
    assert sorted(m.split(":")[0][5:] for m in flights) == sorted(metrics) and metrics
    for m in flights:
        log_id = m.split(":")[0][5:]
        assert f"MPE {metrics[log_id]['mpe_m']:.3f} m, dead reckoning MPE " in m and m.endswith(" s")


@pytest.mark.parametrize("level", ["WARNING", "INFO"])
def test_progress_lines_only_at_info(tiny_pipeline, tmp_path, level):
    src = str(Path(navrnn.__file__).resolve().parent.parent)
    env = dict(os.environ, NAV_LOG_LEVEL=level,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    stderr = []

    def run(argv):
        done = subprocess.run([sys.executable, "-m", "navrnn.cli", *argv], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        stderr.append(done.stderr)

    _train_and_eval(tiny_pipeline, tmp_path, 2, run)
    progress = [line for err in stderr for line in err.splitlines() if ":epoch " in line or ":eval " in line]
    assert len(progress) == (0 if level == "WARNING" else 2 + len(list((tmp_path / "eval" / "metrics").glob("*.json"))))


def _model_inputs(root: Path) -> dict:
    return {"checkpoint": str(root / "model" / "model_final.navc"), "dataset": str(root / "data")}


def _train_inputs(root: Path, **fields) -> dict:
    return {"train_windows": str(root / "pre" / "train_windows.bin"), **fields}


def _stream_inputs(root: Path, **fields) -> dict:
    log_id = json.loads((root / "pre" / "split.json").read_text())["val"][0]
    model = str(root / "model" / "model_final.navc")
    return {"checkpoint": model, "log": str(root / "data" / log_id), "stream": fields}


@pytest.mark.parametrize(
    "command, config",
    [
        ("preprocess", lambda root: []),
        ("preprocess", lambda root: {}),
        ("preprocess", lambda root: {"dataset": str(root / "data"), "window": "abc"}),
        ("train", lambda root: {"train_windows": str(root / "pre" / "train_windows.bin"),
                                "train": {"lr_schedule": [[0]]}}),
        ("eval", lambda root: {**_model_inputs(root), "deadreckon": {"gyro_bias": [1, 2]}}),
        ("eval", lambda root: {**_model_inputs(root), "deadreckon": {"foo": 1}}),
        ("synth", lambda root: {"flights": [{"rates_hz": {"foo": 1}}]}),
        ("synth", lambda root: {"batch": {"count": 1, "profiles": []}}),
        ("stream", lambda root: {"checkpoint": str(root / "model" / "model_final.navc")}),
        ("eval", lambda root: {**_model_inputs(root), "logs": "abc"}),
        ("preprocess", lambda root: {"dataset": str(root / "data"), "trim": [["hold_s", 1.0]]}),
        ("preprocess", lambda root: {"dataset": str(root / "data"), "window": 10.7}),
        ("train", lambda root: _train_inputs(root, train={"epochs": 2.5})),
        ("train", lambda root: _train_inputs(root, train={"batch_size": 1.5})),
        ("train", lambda root: _train_inputs(root, network={"hidden_size": 8.0})),
        ("stream", lambda root: _stream_inputs(root, jitter_ms=float("nan"))),
        ("stream", lambda root: _stream_inputs(root, jitter_ms=float("inf"))),
        ("synth", lambda root: {"flights": [{"duration_s": float("nan")}]}),
        ("synth", lambda root: {"flights": [{"ground_time_s": float("nan")}]}),
        ("synth", lambda root: {"flights": [{"rates_hz": {"imu": float("inf")}}]}),
        ("eval", lambda root: {**_model_inputs(root), "trim": {"hold_s": float("nan")}}),
        ("preprocess", lambda root: {"dataset": str(root / "data"), "min_duration_s": float("nan")}),
        ("preprocess", lambda root: {"dataset": str(root / "data"), "max_gap_s": float("inf")}),
        ("eval", lambda root: {**_model_inputs(root), "trim": {"vel_thresh_mps": -1.0}}),
        ("train", lambda root: _train_inputs(root, train={"lr_schedule": [[0, 0.01], [2.5, 0.001]]})),
        ("train", lambda root: _train_inputs(root, train={"lr_schedule": [[0, float("nan")]]})),
        ("train", lambda root: _train_inputs(root, train={"loss": "mae"})),
        ("preprocess", lambda root: {"dataset": str(root / "data"), "seed": -1}),
        ("train", lambda root: _train_inputs(root, init_seed=-1)),
        ("synth", lambda root: {"flights": [{"rates_hz": []}]}),
        ("train", lambda root: _train_inputs(root, train={"loss": {"weights": [1.0, 1.0]}})),
        ("preprocess", lambda root: {"dataset": str(root / "data"), "windw": 3}),
        ("eval", lambda root: {**_model_inputs(root), "trim": {"vel_thres_mps": 0.5}}),
        ("eval", lambda root: {**_model_inputs(root), "baseline": "no"}),
        ("eval", lambda root: {**_model_inputs(root), "deadreckon": {"apply_earth_rate": "x"}}),
        ("stream", lambda root: _stream_inputs(root, replay_speed=True)),
        ("preprocess", lambda root: {"dataset": str(root / "data"), "window": 50.0}),
        ("eval", lambda root: {**_model_inputs(root), "deadreckon": {"gyro_bias": [float("nan"), 0, 0]}}),
        ("train", lambda root: _train_inputs(root, train={"loss": {"weights": [float("nan")] * 6}})),
        ("synth", lambda root: {"flights": [{"vehicle_type": 3}]}),
        ("synth", lambda root: {"flights": [{"home_lat_deg": -1e300}]}),
        ("synth", lambda root: {"flights": [{"ground_drift_mps": -1.0}]}),
        ("train", lambda root: _train_inputs(root, train={"early_stop_patience": -1})),
        ("train", lambda root: _train_inputs(root, network={"input_activation": "relu"})),
        ("train", lambda root: _train_inputs(root, network={"input_activation": "sigmoid"})),
        ("train", lambda root: _train_inputs(root, train={"loss": {"weights": [1.0] * 6}})),
        ("preprocess", lambda root: {"dataset": str(root / "data"), "val_stride": 2}),
        ("eval", lambda root: {**_model_inputs(root), "baseline": True}),
    ],
    ids=[
        "preprocess_not_an_object",
        "preprocess_no_dataset",
        "preprocess_bad_window",
        "train_bad_lr_schedule",
        "eval_short_gyro_bias",
        "eval_unknown_deadreckon_field",
        "synth_unknown_rate",
        "synth_no_profiles",
        "stream_no_log",
        "eval_logs_not_an_array",
        "preprocess_trim_not_an_object",
        "preprocess_fractional_window",
        "train_fractional_epochs",
        "train_fractional_batch_size",
        "train_float_hidden_size",
        "stream_nan_jitter",
        "stream_infinite_jitter",
        "synth_nan_duration",
        "synth_nan_ground_time",
        "synth_infinite_imu_rate",
        "eval_nan_hold_s",
        "preprocess_nan_min_duration",
        "preprocess_infinite_max_gap",
        "eval_negative_vel_thresh",
        "train_fractional_lr_schedule_epoch",
        "train_nan_lr_schedule_rate",
        "train_loss_not_an_object",
        "preprocess_negative_seed",
        "train_negative_init_seed",
        "synth_rates_not_an_object",
        "train_short_loss_weights",
        "preprocess_unknown_key",
        "eval_unknown_trim_key",
        "eval_string_baseline",
        "eval_string_apply_earth_rate",
        "stream_bool_replay_speed",
        "preprocess_whole_float_window",
        "eval_nan_gyro_bias",
        "train_nan_loss_weights",
        "synth_integer_vehicle_type",
        "synth_huge_home_lat",
        "synth_negative_ground_drift",
        "train_negative_early_stop_patience",
        "train_relu_activation",
        "train_sigmoid_activation",
        "train_loss_object",
        "preprocess_val_stride",
        "eval_baseline_key",
    ],
)
def test_bad_config_exits_one(tiny_pipeline, tmp_path, capsys, command, config):
    cfg = _write_config(tmp_path / "cfg.json", config(tiny_pipeline))
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("command", ["synth", "preprocess", "train", "stream"])
def test_negative_seed_override_exits_one(tiny_pipeline, tmp_path, capsys, command):
    configs = {
        "synth": {"flights": [{"duration_s": 5.0}]},
        "preprocess": {"dataset": str(tiny_pipeline / "data")},
        "train": _train_inputs(tiny_pipeline),
        "stream": _stream_inputs(tiny_pipeline),
    }
    cfg = _write_config(tmp_path / "cfg.json", configs[command])
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err


def test_unknown_log_level_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NAV_LOG_LEVEL", "verbose")
    cfg = _write_config(tmp_path / "cfg.json", {"flights": [{"duration_s": 5.0}]})
    capsys.readouterr()
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("network, code", [({"recurrent_layers": 3, "hidden_size": 8}, 1), ({"hidden_size": 24}, 0)],
                         ids=["differs", "matches"])
def test_transfer_network_is_the_sources(tiny_pipeline, tmp_path, capsys, network, code):
    # a network key that differs from the source checkpoint's is an error, not silently dropped
    cfg = _write_config(tmp_path / "train.json", _train_inputs(
        tiny_pipeline, transfer_from=str(tiny_pipeline / "model" / "model_final.navc"), network=network,
        train={"epochs": 1, "batch_size": 128}))
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "model")]) == code
    err = capsys.readouterr().err
    if code:
        assert "config error" in err and "recurrent_layers, hidden_size" in err and "Traceback" not in err
        assert not list((tmp_path / "model").glob("*.navc"))
    else:
        source, model = (load_checkpoint(p / "model" / "model_final.navc") for p in (tiny_pipeline, tmp_path))
        assert model.config == source.config and model.meta["warm_start"] is True


@pytest.mark.parametrize("width", ["features", "labels"])
def test_validation_set_of_wrong_width_exits_one(tiny_pipeline, tmp_path, capsys, width):
    val = load_windows(tiny_pipeline / "pre" / "val_windows.bin")
    if width == "features":
        norm = Normalization(mean=val.normalization.mean[:7], std=val.normalization.std[:7])
        val = replace(val, windows=np.ascontiguousarray(val.windows[:, :, :7]), normalization=norm)
    else:
        val = replace(val, labels=np.ascontiguousarray(val.labels[:, :4]), weights=val.weights[:4])
    save_windows(val, tmp_path / "val_windows.bin")
    cfg = _write_config(tmp_path / "train.json", _train_inputs(
        tiny_pipeline, val_windows=str(tmp_path / "val_windows.bin"), network={"recurrent_layers": 1, "hidden_size": 8},
        train={"epochs": 1, "batch_size": 128}))
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "model")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "validation set" in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["window_size", "normalization", "period_ms"])
def test_mismatched_validation_set_exits_one(tiny_pipeline, tmp_path, capsys, field):
    # a validation set cut at another window, normalised otherwise or binned at another period
    val = load_windows(tiny_pipeline / "pre" / "val_windows.bin")
    if field == "window_size":
        val = replace(val, windows=np.ascontiguousarray(val.windows[:, -10:]), window_size=10)
    elif field == "normalization":
        val = replace(val, normalization=Normalization(mean=val.normalization.mean + 1, std=val.normalization.std))
    else:
        val = replace(val, period_ms=100)
    save_windows(val, tmp_path / "val_windows.bin")
    cfg = _write_config(tmp_path / "train.json", _train_inputs(
        tiny_pipeline, val_windows=str(tmp_path / "val_windows.bin"), network={"recurrent_layers": 1, "hidden_size": 8},
        train={"epochs": 1, "batch_size": 128}))
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "model")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"validation set differs from the training set in {field}" in err
    assert "Traceback" not in err and not (tmp_path / "model" / "model_best.navc").exists()


def test_stream_off_grid_log(tiny_pipeline, tmp_path):
    # a log whose estimator timestamps after the first are 90 ms late: the zero-jitter stream
    # still gives the offline bits, and the report names no grid of its own
    flight = read_flight_log(_stream_inputs(tiny_pipeline)["log"])
    ekf_t = flight.ekf.t_us + np.where(np.arange(len(flight.ekf)) > 0, 90_000, 0)
    write_flight_log(replace(flight, ekf=EkfStream(ekf_t, flight.ekf.values)), tmp_path / "log")
    cfg = _write_config(tmp_path / "stream.json", {**_stream_inputs(tiny_pipeline), "log": str(tmp_path / "log")})
    assert main(["stream", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "compare_report.json").read_text())
    assert report["bitwise_equal"] is True
    assert set(report) == {"n_compared", "n_online", "n_offline", "max_abs_dev", "mean_abs_dev", "bitwise_equal",
                           "dropped_samples", "dropped"}


def test_split_without_val_exits_two(tiny_pipeline, tmp_path):
    split = _write_config(tmp_path / "split.json", {"train": []})
    cfg = _write_config(tmp_path / "eval.json", {**_model_inputs(tiny_pipeline), "split": split})
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--out", "--baseline"):
        assert flag in out
    assert "--seed" not in out  # eval draws no random numbers
    assert main(["eval", "--config", "eval.json", "--out", "eval", "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_every_flag_is_read_by_its_command():
    # a flag that its cmd_* never reads does nothing
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        source = inspect.getsource(parser.get_default("func"))
        for action in parser._actions:
            if action.dest != "help":
                assert f"args.{action.dest}" in source, f"navrnn {name} never reads {action.option_strings}"


def test_only_synth_imports_scipy():
    # train, eval, stream and preprocess start without scipy; synth imports
    # it when it builds a spline path
    src = str(Path(navrnn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, navrnn.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_imports_are_stdlib_numpy_scipy_or_navrnn():
    # the package's only runtime dependencies are numpy and scipy
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "navrnn"}
    for path in sorted(Path(navrnn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]  # a relative import stays inside navrnn
            else:
                continue
            outside = [name for name in names if name.split(".")[0] not in allowed]
            assert not outside, f"{path.name}:{node.lineno} imports {outside}"


HOSTILE = [None, True, "x", "", [], [1], {}, {"a": 1}, float("nan"), float("inf"), -1, 0, 2.5, -1e300]

# valid values that are only slow, so they stay out of the property's domain:
# a replay at a positive speed runs on the wall clock (2.5 on a 70 s flight
# takes 28 s), and a long flight, many epochs or many flights take as long
SLOW = {
    "replay_speed": lambda v: v > 0,
    "duration_s": lambda v: v > 100,
    "epochs": lambda v: v > 5,
    "count": lambda v: v > 5,
}

# fields whose value holds a config that its command builds later: a flights entry, the network
ENTRIES = {"flights": SynthConfig, "network": NetworkConfig}

COMMAND_CONFIGS = {
    "synth": cli.SynthCommand,
    "preprocess": cli.PreprocessCommand,
    "train": cli.TrainCommand,
    "eval": cli.EvalCommand,
    "stream": cli.StreamCommand,
}


def _declared_paths(cls, prefix=()):
    """The key path of every declared field of config class cls, nested configs included."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        path = (*prefix, f.name)
        yield path
        types = (hints[f.name], *get_args(hints[f.name]))
        nested = ENTRIES.get(f.name) or next((t for t in types if is_dataclass(t)), None)
        if nested is not None:
            yield from _declared_paths(nested, (*path, 0) if f.name == "flights" else path)


def _valid_configs(root: Path) -> dict:
    """A small config of each command that runs to exit 0 on the tiny pipeline."""
    ids = json.loads((root / "pre" / "split.json").read_text())["val"]
    return {
        "synth": {"flights": [{"duration_s": 5.0, "profile": "hover"}],
                  "batch": {"count": 1, "profiles": ["circle"], "duration_s": 5.0, "noise": "low_cost"}},
        "preprocess": {"dataset": str(root / "data"), "window": 20, "stride": 2, "val_fraction": 0.25,
                       "min_duration_s": 30.0},
        "train": _train_inputs(root, network={"recurrent_layers": 1, "hidden_size": 8},
                               train={"epochs": 1, "batch_size": 128}),
        "eval": {**_model_inputs(root), "logs": ids[:1], "min_duration_s": 30.0},
        "stream": _stream_inputs(root, jitter_ms=0.0),
    }


def _with(config: dict, path: tuple, value) -> dict:
    """A deep copy of config with the key at path set to value, making the objects on the way."""
    config = json.loads(json.dumps(config))
    node = config
    for key, next_key in zip(path, path[1:]):
        if isinstance(node, dict):
            made = [{}] if isinstance(next_key, int) else {}
            if not isinstance(node.get(key), type(made)):
                node[key] = made
        node = node[key]
    node[path[-1]] = value
    return config


CASES = [(command, path) for command, cls in COMMAND_CONFIGS.items() for path in _declared_paths(cls)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES), value=st.sampled_from(HOSTILE))
def test_hostile_field_never_tracebacks(tiny_pipeline, tmp_path_factory, capsys, case, value):
    command, path = case
    slow = SLOW.get(path[-1])
    assume(not (slow and isinstance(value, (int, float)) and not isinstance(value, bool) and slow(value)))
    work = tmp_path_factory.mktemp("hostile")
    cfg = _write_config(work / "cfg.json", _with(_valid_configs(tiny_pipeline)[command], path, value))
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(work / "out")]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_readme_configs_load():
    # each walkthrough config loads through its command's declared config, so the two cannot drift apart
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\nnavrnn (\w+) --config \1", readme, re.S)
    assert [command for *_, command in blocks] == list(COMMAND_CONFIGS)
    for _, text, command in blocks:
        assert isinstance(from_json(COMMAND_CONFIGS[command], json.loads(text), "config"), COMMAND_CONFIGS[command])
