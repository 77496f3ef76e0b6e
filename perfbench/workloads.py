"""The benchmark workloads: seeded set-up, timed phase, output checks.

Every flight is synthetic, 180 s long with 4 s of ground time at each end,
low-cost sensor noise, and the four non-hover profiles in rotation. Flight
seeds derive from the workload seed alone, so one seed gives one input set.

    train   `train.fit` at the acceptance config (2x64 LSTM, window 50,
            stride 4, batch 256, validation every epoch) from the NAVW
            windows its set-up builds.
    eval    `navrnn eval --baseline`, one of four held-out flights per call
            (one of them noise-free) plus one log of each kind cleanup
            rejects (hover, 40 s, 0.8 Hz magnetometer), with a checkpoint
            trained briefly during set-up. Dead reckoning dominates.
    stream  the real-time harness on two held-out flights: a closed loop on
            the virtual clock (throughput, checked bitwise against offline
            batch-1 prediction) and an open loop replayed on the wall clock at
            10x real time (latency of each prediction from its due time; one
            flight, both in the traced run).

`SETUP[name](root, seed, size)` writes a workload's inputs under root;
`CHECK_INPUTS[name](root, seed, size)` checks them against an independent
reference (the train windows and their NAVW file; the reason cleanup gives
for each designed eval reject), outside the timed process;
`measure(name, root, seed, size, seconds, tracer)` runs the timed phase there
and returns its samples. With a tracer the timed phase runs twice as long
and half of it with the wrappers installed, which gives both the per-layer
spans and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from navrnn import cli, evaluate, flightlog, preprocess, rnn, stream, synth, train

import checks
from tracing import PUT_TARGET, TARGETS, Tracer, layer_metrics

PROFILES = ("circle", "survey_lawnmower", "waypoint_polyline", "aggressive_manual")
GROUND_S = 4.0
STRIDE = 4
BATCH = 256
LAYERS, HIDDEN = 2, 64
SPEED = 10.0  # open-loop replay speed, times real time; at 20x a slow host phase saturates the consumer
STREAM_FLIGHTS = 2


@dataclass(frozen=True)
class Size:
    duration_s: float  # airborne part of each flight
    train_flights: int  # the last one is the validation flight
    window: int  # network window of train, eval and stream
    eval_flights: int  # noisy held-out flights, plus one noise-free flight
    ckpt_flights: int  # flights behind the briefly trained checkpoint
    ckpt_epochs: int
    paper_window: int  # 4x200 LSTM pass timed in the traced train run
    paper_batch: int
    min_epochs: int  # per timed fit; the loss check needs the loss to have fallen


FULL = Size(180.0, 7, 50, 3, 3, 2, 200, 256, 3)
TINY = Size(70.0, 3, 20, 1, 2, 1, 20, 16, 8)


def flight_seeds(seed: int, n: int) -> list[int]:
    base = int(np.random.default_rng(seed).integers(0, 900_000))
    return [base + i for i in range(n)]


def flight_cfg(seed: int, i: int, size: Size, **overrides) -> synth.SynthConfig:
    kwargs = dict(
        duration_s=size.duration_s,
        ground_time_s=GROUND_S,
        profile=PROFILES[i % len(PROFILES)],
        noise=synth.NoiseConfig.low_cost(),
        seed=seed,
    )
    kwargs.update(overrides)
    return synth.SynthConfig(**kwargs)


def _series(cfgs: list[synth.SynthConfig]) -> list[preprocess.UnifiedSeries]:
    out = []
    for cfg in cfgs:
        verdict = preprocess.detect_corrupted(synth.generate_flight(cfg))
        if not verdict.accepted:
            raise RuntimeError(f"seeded flight {cfg.seed} rejected: {verdict.reasons}")
        out.append(preprocess.unify_rates(verdict.trimmed))
    return out


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _paused(tracer: Tracer | None):
    return tracer.paused() if tracer else contextlib.nullcontext()


def traced(tracer: Tracer | None, group: str, targets=TARGETS):
    """Install the tracer's wrappers, labelling spans with group; no-op without a tracer."""
    if tracer is None:
        return contextlib.nullcontext()
    tracer.group = group
    return tracer.installed(targets)


def _repeat(op, budget_s: float, min_ops: int, first: int, tracer: Tracer | None) -> list[float]:
    """Call op(i) until the durations it returns add up to budget_s."""
    durations: list[float] = []
    while len(durations) < min_ops or sum(durations) < budget_s:
        i = first + len(durations)
        if tracer:
            tracer.group = f"op{i}"
        durations.append(op(i))
    return durations


def _run_ops(op, seconds: float, tracer: Tracer | None, min_ops: int = 1):
    """Untraced durations, and with a tracer a second, traced half."""
    if tracer is None:
        return _repeat(op, seconds, min_ops, 0, None), []
    plain = _repeat(op, seconds / 2, min_ops, 0, None)
    with tracer.installed():
        traced_ops = _repeat(op, seconds / 2, min_ops, len(plain), tracer)
    return plain, traced_ops


def _overhead_pct(plain: list[float], traced: list[float]) -> float:
    return (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1))


# ---------------------------------------------------------------------------
# train


def _train_corpus(seed: int, size: Size):
    series = _series([flight_cfg(s, i, size) for i, s in enumerate(flight_seeds(seed, size.train_flights))])
    return series[:-1], series[-1:]


def setup_train(root: Path, seed: int, size: Size) -> None:
    train_series, val_series = _train_corpus(seed, size)
    norm = preprocess.fit_normalization(train_series)
    weights = preprocess.compute_signal_weights(np.vstack([s.labels for s in train_series]))
    for name, part in (("train", train_series), ("val", val_series)):
        ds = preprocess.build_dataset(part, size.window, STRIDE, norm, weights)
        preprocess.save_windows(ds, root / f"{name}_windows.bin")


def _paper_pass(seed: int, size: Size) -> dict:
    """One forward and one backward pass of the paper-default 4x200 LSTM."""
    params = rnn.init_params(rnn.NetworkConfig(), seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((size.paper_batch, size.paper_window, params.input_size)).astype(np.float32)
    y = rng.standard_normal((size.paper_batch, params.output_size)).astype(np.float32)
    t0 = time.perf_counter()
    _, tape = rnn.forward(params, x)
    t1 = time.perf_counter()
    rnn.backward(tape, y, rnn.LossSpec(weights=np.ones(params.output_size)))
    t2 = time.perf_counter()
    return {"rnn.paper_forward_s": t1 - t0, "rnn.paper_backward_s": t2 - t1}


def check_train_inputs(root: Path, seed: int, size: Size) -> checks.Tally:
    """The NAVW windows of the set-up, against flights regenerated and windowed independently."""
    tally = checks.Tally()
    reference = _train_corpus(seed, size)
    for name, part in zip(("train", "val"), reference):
        tally.record(checks.check_navw(root / f"{name}_windows.bin", part, reference[0], size.window, STRIDE))
    return tally


def measure_train(root: Path, seed: int, size: Size, seconds: float, tracer: Tracer | None) -> dict:
    t0 = time.perf_counter()
    with traced(tracer, "load"):
        train_ds = preprocess.load_windows(root / "train_windows.bin")
        val_ds = preprocess.load_windows(root / "val_windows.bin")
    load_s = time.perf_counter() - t0
    tally = checks.Tally()

    net = rnn.NetworkConfig(
        recurrent_layers=LAYERS,
        hidden_size=HIDDEN,
        input_size=train_ds.windows.shape[2],
        output_size=train_ds.labels.shape[1],
    )
    init = rnn.init_params(net, seed=seed)

    def fit(epochs: int, tally: checks.Tally) -> list[float]:
        cfg = train.TrainConfig(epochs=epochs, batch_size=BATCH, shuffle_seed=seed)
        _, report = train.fit(train_ds, val_ds, cfg, init)
        with _paused(tracer):
            for problems in checks.check_epochs(report.train_loss, report.val_loss):
                tally.record(problems)
        return list(report.wall_time_s)

    warm = fit(1, checks.Tally())[0]  # warm-up, not reported
    share = seconds if tracer is None else seconds / 2
    epochs = max(size.min_epochs, math.ceil(share / warm))
    plain = fit(epochs, tally)
    traced_epochs, direct = [], {}
    if tracer:
        with traced(tracer, "op"):
            traced_epochs = fit(epochs, tally)
        _label_batches(tracer.spans)
        with traced(tracer, "paper"):
            direct = _paper_pass(seed, size)
    return {
        "items_per_s": len(train_ds) * len(plain) / sum(plain),
        "item": "windows",
        "durations": plain,
        "traced": traced_epochs,
        "tally": tally,
        "load_s": load_s,
        "direct": direct,
    }


def _label_batches(spans) -> None:
    """Group the spans of each training batch as op/batch<k>, validation as op/val."""
    group, batch = "op", 0
    for s in sorted((s for s in spans if s.group == "op"), key=lambda s: s.start):
        if s.name == "train.val":
            group = "op/val"
        elif s.name == "rnn.forward" and s.extra[3]:
            group, batch = f"op/batch{batch}", batch + 1
        if s.name != "train.fit":
            s.group = group


# ---------------------------------------------------------------------------
# eval and stream share a briefly trained checkpoint


def _brief_checkpoint(path: Path, seeds: list[int], seed: int, size: Size) -> None:
    series = _series([flight_cfg(s, i, size) for i, s in enumerate(seeds)])
    ds = preprocess.build_dataset(series, size.window, STRIDE)
    net = rnn.NetworkConfig(recurrent_layers=LAYERS, hidden_size=HIDDEN)
    cfg = train.TrainConfig(epochs=size.ckpt_epochs, batch_size=BATCH, shuffle_seed=seed)
    params, _ = train.fit(ds, None, cfg, rnn.init_params(net, seed=seed))
    meta = {
        "window": size.window,
        "period_ms": 200,
        "feature_mean": [float(v) for v in ds.normalization.mean],
        "feature_std": [float(v) for v in ds.normalization.std],
        "loss_weights": [float(v) for v in ds.weights],
    }
    rnn.save_checkpoint(params, net, meta, path)


def designed_rejects(seeds: list[int], size: Size) -> list[tuple[synth.SynthConfig, str]]:
    """One log of each kind cleanup rejects, with the reason it should give."""
    hover, short, slow_mag = seeds
    return [
        (flight_cfg(hover, 0, size, profile="hover"), "no_takeoff"),
        (flight_cfg(short, 0, size, duration_s=40.0), "too_short"),
        (flight_cfg(slow_mag, 0, size, rates_hz=synth.Rates(mag=0.8)), "validation_defects"),
    ]


def setup_eval(root: Path, seed: int, size: Size) -> None:
    seeds = flight_seeds(seed, size.ckpt_flights + size.eval_flights + 4)
    _brief_checkpoint(root / "model.navc", seeds[: size.ckpt_flights], seed, size)
    flights = seeds[size.ckpt_flights : -3]
    held_out = [flight_cfg(s, i, size) for i, s in enumerate(flights[:-1])]
    clean = flight_cfg(flights[-1], 0, size, noise=synth.NoiseConfig())
    rejects = designed_rejects(seeds[-3:], size)
    manifest = synth.make_dataset(held_out + [clean] + [cfg for cfg, _ in rejects], root / "data")
    ids = [e.log_id for e in manifest.logs]
    for log_id in ids[:-3]:
        # every call also reads the three logs cleanup must reject and skip
        config = {"checkpoint": str(root / "model.navc"), "dataset": str(root / "data"), "logs": [log_id] + ids[-3:]}
        _write_json(root / f"eval_{log_id}.json", config)
    reasons = {log_id: reason for log_id, (_, reason) in zip(ids[-3:], rejects)}
    _write_json(root / "flights.json", {"flights": ids[:-3], "rejects": reasons})


def check_eval_inputs(root: Path, seed: int, size: Size) -> checks.Tally:
    """Cleanup rejects each designed log for the reason it was designed to give."""
    tally = checks.Tally()
    manifest = synth.DatasetManifest.load(root / "data")
    expected = json.loads((root / "flights.json").read_text())["rejects"]
    for entry in manifest.logs:
        if entry.log_id in expected:
            verdict = preprocess.detect_corrupted(flightlog.read_flight_log(manifest.log_path(entry)))
            tally.record(checks.check_rejected(entry.log_id, verdict, expected[entry.log_id]))
    return tally


def measure_eval(root: Path, seed: int, size: Size, seconds: float, tracer: Tracer | None) -> dict:
    # the noise-free flight comes first; it must dead-reckon within criterion 4's 0.1 m
    *noisy, clean = json.loads((root / "flights.json").read_text())["flights"]
    flights = [(clean, 0.1)] + [(log_id, None) for log_id in noisy]
    tally = checks.Tally()

    def op(i: int) -> float:
        log_id, max_dr_mpe_m = flights[i % len(flights)]
        out = root / f"out{i}"
        t0 = time.perf_counter()
        rc = cli.main(["eval", "--config", str(root / f"eval_{log_id}.json"), "--out", str(out), "--baseline"])
        elapsed = time.perf_counter() - t0
        with _paused(tracer):
            tally.record(checks.check_eval(out, rc, log_id, max_dr_mpe_m))
        shutil.rmtree(out)
        return elapsed

    op(-1)  # warm-up, checked but not timed
    plain, traced_ops = _run_ops(op, seconds, tracer)
    return {
        "items_per_s": len(plain) / sum(plain),
        "item": "flights",
        "durations": plain,
        "traced": traced_ops,
        "tally": tally,
    }


def setup_stream(root: Path, seed: int, size: Size) -> None:
    seeds = flight_seeds(seed, size.ckpt_flights + STREAM_FLIGHTS)
    _brief_checkpoint(root / "model.navc", seeds[: size.ckpt_flights], seed, size)
    held_out = [flight_cfg(s, i, size) for i, s in enumerate(seeds[size.ckpt_flights :])]
    synth.make_dataset(held_out, root / "data")


def _open_loop(log, ckpt, offline, tally: checks.Tally, tracer: Tracer | None) -> dict:
    """Wall-clock replay; each prediction is timed from its bin's due time.

    The due time counts from the moment `replay` has started the producers.
    The consumer's clock starts only then, so the time `replay` takes to
    start its threads (0.6 to 9 ms on a 2-core VM) delays every prediction
    of the replay; it is reported apart, as stream.open.spawn_ms.
    """
    cfg = stream.StreamConfig(replay_speed=SPEED)
    queues = stream.make_queues(cfg)
    t0_us = int(min(log.imu.t_us[0], log.baro.t_us[0], log.mag.t_us[0]))
    spawn = time.perf_counter()
    producers = stream.replay(log, cfg, queues)
    start = time.perf_counter()
    predictions, lateness_ms = [], []
    for p in stream.online_infer(ckpt, queues, cfg, anchor_us=int(log.ekf.t_us[0])):
        lateness_ms.append((time.perf_counter() - (start + (p.t_us - t0_us) * 1e-6 / SPEED)) * 1e3)
        predictions.append(p)
    for th in producers:
        th.join(timeout=30.0)
    drops = {name: q.dropped for name, q in queues.items()}
    with _paused(tracer):
        done = not any(th.is_alive() for th in producers)
        tally.record(checks.check_open_loop(predictions, offline, drops, done))
    return {
        "lateness_ms": lateness_ms,
        "compute_ms": [p.latency_ms for p in predictions],
        "drops": drops,
        "carried_imu": sum(p.carried_imu for p in predictions),
        "start": start,
        "spawn_ms": (start - spawn) * 1e3,
        "t0_us": t0_us,
    }


def measure_stream(root: Path, seed: int, size: Size, seconds: float, tracer: Tracer | None) -> dict:
    manifest = synth.DatasetManifest.load(root / "data")
    t0 = time.perf_counter()
    ckpt = rnn.load_checkpoint(root / "model.navc")
    logs = [flightlog.read_flight_log(manifest.log_path(e)) for e in manifest.logs]
    load_s = time.perf_counter() - t0
    offline = [evaluate.predict_increments(ckpt, preprocess.unify_rates(log), batch_size=1) for log in logs]
    tally = checks.Tally()
    counts: list[int] = []

    def closed(i: int) -> float:
        k = i % len(logs)
        t0 = time.perf_counter()
        predictions = stream.run_stream(logs[k], ckpt, stream.StreamConfig())
        elapsed = time.perf_counter() - t0
        with _paused(tracer):
            tally.record(checks.check_closed_loop(predictions, offline[k]))
        counts.append(len(predictions))
        return elapsed

    closed(0)  # warm-up, not reported
    counts.clear()
    tally = checks.Tally()
    # the open loop's length is fixed by the flight; the closed loop gets the rest of the budget
    replay_s = (size.duration_s + 2 * GROUND_S) / SPEED
    plain, traced_ops = _run_ops(closed, seconds - replay_s, tracer, len(logs))

    # one flight gives ~900 predictions, enough for the median; the traced
    # run replays both, so that the per-layer p99 has ten samples beyond it
    runs = []
    for k, log in enumerate(logs if tracer else logs[:1]):
        with traced(tracer, f"wall{k}", TARGETS + (PUT_TARGET,)):
            runs.append(_open_loop(log, ckpt, offline[k], tally, tracer))
    lateness = [v for r in runs for v in r["lateness_ms"]]
    direct = {}
    if tracer:
        direct = _open_loop_layers(runs, tracer.spans)
        direct["stream.open.latency_p99_ms"] = _percentile(lateness, 99)
    return {
        "items_per_s": sum(counts[: len(plain)]) / sum(plain),
        "item": "predictions",
        "durations": plain,
        "traced": traced_ops,
        "latency_ms": lateness,
        "tally": tally,
        "load_s": load_s,
        "direct": direct,
    }


def _open_loop_layers(runs: list[dict], spans) -> dict:
    compute = [v for r in runs for v in r["compute_ms"]]
    wait = [late - c for r in runs for late, c in zip(r["lateness_ms"], r["compute_ms"])]
    generator_late = []
    for k, r in enumerate(runs):
        for s in spans:
            if s.group == f"wall{k}" and s.name == "stream.put" and s.extra is not None:
                due = r["start"] + (s.extra - r["t0_us"]) * 1e-6 / SPEED
                generator_late.append((s.start - due) * 1e3)
    out = {
        "stream.open.compute_p50_ms": statistics.median(compute),
        "stream.open.wait_p50_ms": statistics.median(wait),
        "stream.open.generator_late_p99_ms": _percentile(generator_late, 99),
        "stream.open.spawn_ms": statistics.median(r["spawn_ms"] for r in runs),
        "stream.carried_imu": float(sum(r["carried_imu"] for r in runs)),
    }
    for sensor in ("imu", "baro", "mag"):
        out[f"stream.drops.{sensor}"] = float(sum(r["drops"][sensor] for r in runs))
    return out


SETUP = {"train": setup_train, "eval": setup_eval, "stream": setup_stream}
MEASURE = {"train": measure_train, "eval": measure_eval, "stream": measure_stream}
# checks of the set-up's output, run by the parent process outside any timing
CHECK_INPUTS = {"train": check_train_inputs, "eval": check_eval_inputs}


def measure(name: str, root: Path, seed: int, size: Size, seconds: float, tracer: Tracer | None) -> dict:
    """Run a workload's timed phase and fold its samples into a summary.

    Latency is per operation, except for the stream, whose latency is that
    of each open-loop prediction.
    """
    raw = MEASURE[name](root, seed, size, seconds, tracer)
    tally = raw["tally"]
    latency = raw.get("latency_ms") or [d * 1e3 for d in raw["durations"]]
    summary = {
        "item": raw["item"],
        "items_per_s": raw["items_per_s"],
        "latency_p50_ms": _percentile(latency, 50),
        "latency_p99_ms": _percentile(latency, 99),
        "latency_samples": len(latency),
        "ops": len(raw["durations"]),
        "op_ms": [d * 1e3 for d in raw["durations"]],
        "load_s": raw.get("load_s", 0.0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_ratio": tally.error_ratio,
        "problems": tally.problems,
    }
    if tracer:
        op_spans = [s for s in tracer.spans if s.group.startswith("op")]
        load_spans = [s for s in tracer.spans if s.group == "load"]
        layers = layer_metrics(load_spans, op_spans, len(raw["traced"]))
        layers.update(raw.get("direct", {}))
        layers["trace.overhead_pct"] = _overhead_pct(raw["durations"], raw["traced"])
        summary["layers"] = layers
    return summary
