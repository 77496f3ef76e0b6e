"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from navrnn import evaluate, preprocess, rnn, stream, synth, train  # noqa: E402
from tracing import PER_LAYER, Span, Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1"]
    cmd += ["--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {d["name"]: d["unit"] for d in declared}
    assert all(isinstance(m["value"], float) and np.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_names_match_benchmark_json():
    assert {d["name"]: d["unit"] for d in BENCHMARK["per_layer"]} == PER_LAYER


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("train", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ---------------------------------------------------------------------------
# a corrupted output makes its check fail and counts as a failed operation


@pytest.fixture(scope="module")
def tiny_series():
    cfgs = [workloads.flight_cfg(s, i, workloads.TINY) for i, s in enumerate(workloads.flight_seeds(5, 2))]
    return workloads._series(cfgs)


def test_corrupted_window_fails_the_window_check(tmp_path, tiny_series):
    window, stride = 20, 3
    ds = preprocess.build_dataset(tiny_series, window, stride)
    path = tmp_path / "w.bin"
    preprocess.save_windows(ds, path)
    mean, std = checks.reference_norm([s.features for s in tiny_series])
    parsed = checks.read_navw(path)
    assert checks.check_windows(parsed, tiny_series, mean, std, window, stride) == []
    assert checks.check_navw_round_trip(path, parsed) == []

    raw = bytearray(path.read_bytes())
    at = checks.NAVW_HEADER.size + 4 * (len(parsed["windows"][0].ravel()) * 7 + 5)  # inside window 7
    raw[at : at + 4] = np.float32(123.0).tobytes()
    path.write_bytes(bytes(raw))
    problems = checks.check_windows(checks.read_navw(path), tiny_series, mean, std, window, stride)
    assert any("window 7 " in p for p in problems)

    tally = checks.Tally()
    tally.record([])
    tally.record(problems)
    assert (tally.attempted, tally.failed, tally.error_ratio) == (2, 1, 0.5)


def test_corrupted_prediction_fails_the_closed_loop_check(tiny_series):
    net = rnn.NetworkConfig(recurrent_layers=1, hidden_size=8)
    ds = preprocess.build_dataset(tiny_series, 20, 4)
    meta = {
        "window": 20,
        "period_ms": 200,
        "feature_mean": ds.normalization.mean.tolist(),
        "feature_std": ds.normalization.std.tolist(),
        "loss_weights": ds.weights.tolist(),
    }
    ckpt = rnn.Checkpoint(rnn.init_params(net, seed=0), net, meta)
    log = synth.generate_flight(workloads.flight_cfg(99, 0, workloads.TINY))
    offline = evaluate.predict_increments(ckpt, preprocess.unify_rates(log), batch_size=1)
    online = stream.run_stream(log, ckpt, stream.StreamConfig())
    assert checks.check_closed_loop(online, offline) == []

    bad = online[10].increment.copy()
    bad[2] = np.nextafter(bad[2], np.inf)
    online[10] = stream.OnlinePrediction(online[10].t_us, bad, 0.0, 0)
    assert checks.check_closed_loop(online, offline) == ["online predictions differ from offline batch-1 prediction"]


def test_wrong_reject_reason_fails_the_cleanup_check():
    for cfg, reason in workloads.designed_rejects(workloads.flight_seeds(7, 3), workloads.TINY):
        verdict = preprocess.detect_corrupted(synth.generate_flight(cfg))
        assert checks.check_rejected("log", verdict, reason) == []
        assert checks.check_rejected("log", verdict, "not_a_reason")


def test_non_finite_or_rising_loss_fails_the_epoch_check():
    assert checks.check_epochs([3.0, 2.0, 1.0], [1.0, 1.0, 1.0]) == [[], [], []]
    assert checks.check_epochs([3.0, float("nan")], [1.0, 1.0])[1]
    assert checks.check_epochs([3.0, 1.0, 4.0], [1.0, 1.0, 1.0])[2]


# ---------------------------------------------------------------------------
# tracing


def test_wrappers_record_spans_and_are_removed(tiny_series):
    original = rnn.forward
    tracer = Tracer()
    ds = preprocess.build_dataset(tiny_series, 20, 4)
    init = rnn.init_params(rnn.NetworkConfig(recurrent_layers=1, hidden_size=8), seed=0)
    with tracer.installed():
        assert train.forward is not original and rnn.forward is not original
        train.fit(ds, None, train.TrainConfig(epochs=1, batch_size=64), init)
    assert train.forward is original and rnn.forward is original
    names = [s.name for s in tracer.spans]
    assert names.count("rnn.forward") == names.count("rnn.backward") == -(-len(ds) // 64)
    fit = next(s for s in tracer.spans if s.name == "train.fit")
    assert all(s.parent == fit.sid for s in tracer.spans if s.name != "train.fit")


def test_self_time_subtracts_child_spans():
    spans = [Span(1, "a", 0.0, 10.0, None, "", None), Span(2, "b", 1.0, 4.0, 1, "", None), Span(3, "c", 5.0, 6.0, 1, "", None)]
    assert self_times(spans) == {1: 6.0, 2: 3.0, 3: 1.0}
