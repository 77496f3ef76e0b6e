"""Command-line entry point.

One experiment = one JSON config file + one output directory; no state is
shared between commands. Subcommands: synth, preprocess, train, eval,
stream. Exit codes: 0 ok, 1 configuration error, 2 data error, 3 runtime
failure. NAV_LOG_LEVEL controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import deadreckon, evaluate, preprocess, rnn, stream, synth, train
from .errors import ConfigError, DataError, NavError, TrainingDivergedError, ValidationError
from .flightlog import read_flight_log

log = logging.getLogger("navrnn")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here is exit 1
    def error(self, message):
        raise _ArgumentError(message)


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        with open(p, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc


def _write_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _noise_from_config(value) -> synth.NoiseConfig:
    if value is None:
        return synth.NoiseConfig()
    if isinstance(value, str):
        if value == "low_cost":
            return synth.NoiseConfig.low_cost()
        if value == "none":
            return synth.NoiseConfig()
        raise ConfigError(f"unknown noise preset {value!r}")
    if isinstance(value, dict):
        value = dict(value)
        for key in ("gyro_bias_vec", "accel_bias_vec"):
            if value.get(key) is not None:
                value[key] = tuple(value[key])
        try:
            return synth.NoiseConfig(**value)
        except TypeError as exc:
            raise ConfigError(f"bad noise config: {exc}") from exc
    raise ConfigError("noise must be a preset name or an object")


def _synth_cfgs(config: dict, seed_override: int | None) -> list[synth.SynthConfig]:
    cfgs: list[synth.SynthConfig] = []

    def build(entry: dict, seed: int) -> synth.SynthConfig:
        entry = dict(entry)
        noise = _noise_from_config(entry.pop("noise", None))
        rates = entry.pop("rates_hz", None)
        kwargs = dict(entry)
        kwargs["noise"] = noise
        kwargs["seed"] = seed
        if rates is not None:
            kwargs["rates_hz"] = synth.Rates(**rates)
        try:
            return synth.SynthConfig(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad flight config: {exc}") from exc

    base_seed = seed_override if seed_override is not None else 0
    for i, entry in enumerate(config.get("flights", [])):
        seed = entry.get("seed", base_seed + i)
        cfgs.append(build({k: v for k, v in entry.items() if k != "seed"}, seed))
    batch = config.get("batch")
    if batch is not None:
        batch = dict(batch)
        count = int(batch.pop("count", 0))
        profiles = batch.pop("profiles", ["circle"])
        seed0 = int(batch.pop("seed", base_seed))
        for i in range(count):
            entry = dict(batch)
            entry["profile"] = profiles[i % len(profiles)]
            cfgs.append(build(entry, seed0 + i))
    if not cfgs:
        raise ConfigError("synth config needs 'flights' and/or 'batch'")
    return cfgs


def cmd_synth(args) -> int:
    config = _load_config(args.config)
    out = Path(args.out)
    cfgs = _synth_cfgs(config, args.seed)
    manifest = synth.make_dataset(cfgs, out)
    log.info("wrote %d logs under %s", len(manifest.logs), out)
    print(f"synth: {len(manifest.logs)} logs -> {out}")
    return EXIT_OK


def _clean_log(manifest: synth.DatasetManifest, entry: synth.LogEntry, config: dict) -> preprocess.CleanupVerdict:
    """Read one log and run cleanup on it; a log that fails its invariant
    checks on load (NaN, non-increasing timestamps, ...) is rejected as
    validation_defects instead of ending the run."""
    try:
        flight = read_flight_log(manifest.log_path(entry))
    except ValidationError as exc:
        log.warning("rejecting %s: %s", entry.log_id, exc)
        return preprocess.CleanupVerdict(log_id=entry.log_id, accepted=False, reasons=["validation_defects"])
    trim = config.get("trim", {})
    return preprocess.detect_corrupted(
        flight,
        max_gap_s=float(config.get("max_gap_s", 1.0)),
        min_duration_s=float(config.get("min_duration_s", 60.0)),
        vel_thresh_mps=float(trim.get("vel_thresh_mps", 0.5)),
        hold_s=float(trim.get("hold_s", 1.0)),
    )


def _clean_logs(manifest: synth.DatasetManifest, config: dict):
    """Run cleanup on every log; returns (kept entries+logs, verdicts)."""
    kept = []
    verdicts = []
    for entry in manifest.logs:
        verdict = _clean_log(manifest, entry, config)
        verdicts.append(verdict)
        if verdict.accepted:
            kept.append((entry, verdict.trimmed))
    return kept, verdicts


def cmd_preprocess(args) -> int:
    config = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = synth.DatasetManifest.load(config["dataset"])
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    window = int(config.get("window", 200))
    stride = int(config.get("stride", 1))
    val_fraction = float(config.get("val_fraction", 0.15))

    kept, verdicts = _clean_logs(manifest, config)
    _write_json(
        {
            "input_count": len(manifest.logs),
            "accepted_count": len(kept),
            "verdicts": [v.to_dict() for v in verdicts],
        },
        out / "cleanup_report.json",
    )
    if len(kept) < 2:
        raise DataError(f"only {len(kept)} usable logs after cleanup")

    kept_manifest = synth.DatasetManifest(root=manifest.root, logs=[e for e, _ in kept])
    train_entries, val_entries = preprocess.split_dataset(kept_manifest, val_fraction, seed)
    trimmed = {e.log_id: flight for e, flight in kept}
    train_series = [preprocess.unify_rates(trimmed[e.log_id]) for e in train_entries]
    val_series = [preprocess.unify_rates(trimmed[e.log_id]) for e in val_entries]

    norm = preprocess.fit_normalization(train_series)
    weights = preprocess.compute_signal_weights(np.vstack([s.labels for s in train_series]))
    period_ms = int(round(float(np.median(np.diff(train_series[0].t_us))) / 1000.0))
    provenance = {
        "dataset": str(manifest.root),
        "trim": config.get("trim", {}),
        "period_ms": period_ms,
        "seed": seed,
    }
    train_ds = preprocess.build_dataset(train_series, window, stride, norm, weights)
    preprocess.save_windows(train_ds, out / "train_windows.bin", provenance)
    val_stride = int(config.get("val_stride", stride))
    val_ds = preprocess.build_dataset(val_series, window, val_stride, norm, weights)
    preprocess.save_windows(val_ds, out / "val_windows.bin", provenance)
    _write_json(
        {
            "train": [e.log_id for e in train_entries],
            "val": [e.log_id for e in val_entries],
            "dataset": str(manifest.root),
        },
        out / "split.json",
    )
    print(
        f"preprocess: {len(manifest.logs)} logs -> {len(kept)} kept, "
        f"{len(train_ds)} train / {len(val_ds)} val windows -> {out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_ds = preprocess.load_windows(config["train_windows"])
    val_ds = preprocess.load_windows(config["val_windows"]) if config.get("val_windows") else None

    sidecar_path = Path(config["train_windows"]).with_suffix(".json")
    sidecar = {}
    if sidecar_path.is_file():
        with open(sidecar_path, "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)

    net_cfg_dict = dict(config.get("network", {}))
    net_cfg_dict.setdefault("input_size", train_ds.windows.shape[2])
    net_cfg_dict.setdefault("output_size", train_ds.labels.shape[1])
    try:
        net_cfg = rnn.NetworkConfig(**net_cfg_dict)
    except TypeError as exc:
        raise ConfigError(f"bad network config: {exc}") from exc

    train_cfg_dict = dict(config.get("train", {}))
    if "lr_schedule" in train_cfg_dict:
        train_cfg_dict["lr_schedule"] = tuple(tuple(e) for e in train_cfg_dict["lr_schedule"])
    if args.seed is not None:
        train_cfg_dict["shuffle_seed"] = args.seed
    try:
        train_cfg = train.TrainConfig(**train_cfg_dict)
    except TypeError as exc:
        raise ConfigError(f"bad train config: {exc}") from exc

    init_seed = int(config.get("init_seed", args.seed if args.seed is not None else 0))
    transfer_from = config.get("transfer_from")
    if transfer_from:
        source = rnn.load_checkpoint(transfer_from)
        params, report = train.transfer_fit(source, train_ds, val_ds, train_cfg)
        net_cfg = source.config
    else:
        init = rnn.init_params(net_cfg, seed=init_seed)
        params, report = train.fit(train_ds, val_ds, train_cfg, init)

    meta = {
        "window": train_ds.window_size,
        "period_ms": int(sidecar.get("period_ms", 200)),
        "feature_mean": [float(v) for v in train_ds.normalization.mean],
        "feature_std": [float(v) for v in train_ds.normalization.std],
        "loss_weights": [float(v) for v in train_ds.weights],
        "best_epoch": report.best_epoch,
        "warm_start": report.warm_start,
    }
    rnn.save_checkpoint(params, net_cfg, meta, out / "model_final.navc")
    rnn.save_checkpoint(report.best_params if report.best_params is not None else params,
                        net_cfg, meta, out / "model_best.navc")
    report.save(out / "train_report.json")
    final_loss = report.train_loss[-1] if report.train_loss else float("nan")
    print(f"train: {len(report.train_loss)} epochs, final train loss {final_loss:.6g} -> {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = rnn.load_checkpoint(config["checkpoint"])
    manifest = synth.DatasetManifest.load(config["dataset"])

    log_ids = config.get("logs")
    if not log_ids and config.get("split"):
        with open(config["split"], "r", encoding="utf-8") as fh:
            log_ids = json.load(fh)["val"]
    entries = [e for e in manifest.logs if not log_ids or e.log_id in set(log_ids)]
    if not entries:
        raise DataError("no logs selected for evaluation")

    run_baseline = bool(args.baseline or config.get("baseline"))
    dr_cfg = deadreckon.DeadReckonConfig(**config.get("deadreckon", {})) if run_baseline else None

    metrics_dir = out / "metrics"
    metrics_dir.mkdir(exist_ok=True)
    all_metrics = []
    baseline_metrics = [] if run_baseline else None
    for entry in entries:
        verdict = _clean_log(manifest, entry, config)
        if not verdict.accepted:
            log.warning("skipping %s: %s", entry.log_id, ",".join(verdict.reasons))
            continue
        m = evaluate.evaluate_flight(ckpt, verdict.trimmed)
        m.save(metrics_dir / f"{entry.log_id}.json")
        m.write_path_compare(out / f"path_compare_{entry.log_id}.csv")
        all_metrics.append(m)
        if run_baseline:
            baseline_metrics.append(
                evaluate.baseline_flight_metrics(verdict.trimmed, ckpt.meta["window"], dr_cfg)
            )
    if not all_metrics:
        raise DataError("every selected log was rejected by cleanup")

    evaluate.write_summary_csv(all_metrics, out / "summary.csv", baseline_metrics)
    summary = {"nn": evaluate.aggregate_metrics(all_metrics)}
    if run_baseline:
        summary["deadreckon"] = evaluate.aggregate_metrics(baseline_metrics)
    _write_json(summary, out / "summary.json")
    med = summary["nn"]["mpe_m"]["median"]
    line = f"eval: {len(all_metrics)} flights, median MPE {med:.3f} m"
    if run_baseline:
        line += f" (dead reckoning {summary['deadreckon']['mpe_m']['median']:.3f} m)"
    print(line + f" -> {out}")
    return EXIT_OK


def cmd_stream(args) -> int:
    config = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = rnn.load_checkpoint(config["checkpoint"])
    flight = read_flight_log(config["log"])
    stream_cfg_dict = dict(config.get("stream", {}))
    if args.seed is not None:
        stream_cfg_dict["seed"] = args.seed
    try:
        cfg = stream.StreamConfig(**stream_cfg_dict)
    except TypeError as exc:
        raise ConfigError(f"bad stream config: {exc}") from exc

    predictions = stream.run_stream(flight, ckpt, cfg)
    with open(out / "online_predictions.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_us,dpn,dpe,dpd,dvn,dve,dvd,latency_ms,dropped_samples\n")
        for p in predictions:
            vals = ",".join(format(float(v), ".17g") for v in p.increment)
            fh.write(f"{p.t_us},{vals},{p.latency_ms:.3f},{p.dropped_samples}\n")
    report = stream.compare_online_offline(flight, ckpt, predictions)
    _write_json(report, out / "compare_report.json")
    print(
        f"stream: {len(predictions)} predictions, max offline deviation "
        f"{max(report['max_abs_dev']):.3g} -> {out}"
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="navrnn", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.set_defaults(func=func)
        return p

    add("synth", "generate a synthetic dataset from a profile spec", cmd_synth)
    add("preprocess", "clean, unify, window, and split a dataset", cmd_preprocess)
    add("train", "fit or transfer-fit a network on windowed data", cmd_train)
    p_eval = add("eval", "per-flight metrics and aggregate summary", cmd_eval)
    p_eval.add_argument("--baseline", action="store_true", help="also dead-reckon every flight")
    add("stream", "replay a flight through the real-time harness", cmd_stream)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("NAV_LOG_LEVEL", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not hasattr(args, "baseline"):
        args.baseline = False
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ValidationError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, NavError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
