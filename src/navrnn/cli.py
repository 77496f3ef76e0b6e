"""Command-line entry point.

One experiment = one JSON config file + one output directory; no state is
shared between commands. Subcommands: synth, preprocess, train, eval,
stream. Exit codes: 0 ok, 1 configuration error, 2 data error, 3 runtime
failure. NAV_LOG_LEVEL controls verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import deadreckon, evaluate, preprocess, rnn, stream, synth, train
from .errors import ConfigError, DataError, NavError, ValidationError
from .flightlog import read_flight_log, read_json_object, write_json, write_table

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


_REQUIRED = object()


def _get(config: dict, key: str, kind=str, default=_REQUIRED):
    """config[key] converted by kind (str, int, float, dict or list); a missing
    or null key gives default. A list or dict key takes only a JSON array or
    object, an int key no bool and no fractional number. A missing required
    key, or a value that kind cannot convert, raises ConfigError naming the key."""
    value = config.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"config needs {key!r}")
        return default
    if kind in (list, dict) and not isinstance(value, kind):
        raise ConfigError(f"{key!r} must be a JSON {'array' if kind is list else 'object'}, got {value!r}")
    if kind is int and (isinstance(value, bool) or isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def _build(cls, fields, what: str):
    """cls(**fields); an unknown field or a bad value raises ConfigError."""
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} config: {exc}") from exc


def _noise_from_config(value) -> synth.NoiseConfig:
    if value is None or value == "none":
        return synth.NoiseConfig()
    if value == "low_cost":
        return synth.NoiseConfig.low_cost()
    if isinstance(value, str):
        raise ConfigError(f"unknown noise preset {value!r}")
    return _build(synth.NoiseConfig, value, "noise")


def _synth_cfg(entry: dict) -> synth.SynthConfig:
    fields = dict(entry, noise=_noise_from_config(entry.get("noise")))
    if entry.get("rates_hz") is not None:
        fields["rates_hz"] = _build(synth.Rates, entry["rates_hz"], "rates_hz")
    return _build(synth.SynthConfig, fields, "flight")


def _synth_cfgs(config: dict, seed_override: int | None) -> list[synth.SynthConfig]:
    """One SynthConfig per 'flights' entry and per 'batch' member."""
    base_seed = seed_override if seed_override is not None else 0
    entries = []
    for i, flight in enumerate(_get(config, "flights", list, [])):
        if not isinstance(flight, dict):
            raise ConfigError("each 'flights' entry must be an object")
        entries.append({"seed": base_seed + i, **flight})
    batch = _get(config, "batch", dict, None)
    if batch is not None:
        count = _get(batch, "count", int, 0)
        profiles = _get(batch, "profiles", list, ["circle"])
        if count > 0 and not profiles:
            raise ConfigError("batch 'profiles' must not be empty")
        seed0 = _get(batch, "seed", int, base_seed)
        common = {k: v for k, v in batch.items() if k not in ("count", "profiles", "seed")}
        entries += [dict(common, profile=profiles[i % len(profiles)], seed=seed0 + i) for i in range(count)]
    if not entries:
        raise ConfigError("synth config needs 'flights' and/or 'batch'")
    return [_synth_cfg(e) for e in entries]


def cmd_synth(args) -> int:
    config = read_json_object(args.config, ConfigError)
    out = Path(args.out)
    cfgs = _synth_cfgs(config, args.seed)
    manifest = synth.make_dataset(cfgs, out)
    log.info("wrote %d logs under %s", len(manifest.logs), out)
    print(f"synth: {len(manifest.logs)} logs -> {out}")
    return EXIT_OK


def _cleanup_options(config: dict) -> dict:
    """clean_log keyword arguments from a preprocess or eval config; clean_log checks their values."""
    trim = _get(config, "trim", dict, {})
    return {
        "max_gap_s": _get(config, "max_gap_s", float, 1.0),
        "min_duration_s": _get(config, "min_duration_s", float, 60.0),
        "vel_thresh_mps": _get(trim, "vel_thresh_mps", float, 0.5),
        "hold_s": _get(trim, "hold_s", float, 1.0),
    }


def cmd_preprocess(args) -> int:
    config = read_json_object(args.config, ConfigError)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = synth.DatasetManifest.load(_get(config, "dataset"))
    seed = args.seed if args.seed is not None else _get(config, "seed", int, 0)
    window = _get(config, "window", int, 200)
    stride = _get(config, "stride", int, 1)
    val_stride = _get(config, "val_stride", int, stride)
    val_fraction = _get(config, "val_fraction", float, 0.15)
    trim = _get(config, "trim", dict, {})

    cleanup = _cleanup_options(config)
    verdicts = [preprocess.clean_log(manifest.log_path(e), e.log_id, **cleanup) for e in manifest.logs]
    kept = [e for e, v in zip(manifest.logs, verdicts) if v.accepted]
    trimmed = {e.log_id: v.trimmed for e, v in zip(manifest.logs, verdicts) if v.accepted}
    write_json(
        {
            "input_count": len(manifest.logs),
            "accepted_count": len(kept),
            "verdicts": [v.to_dict() for v in verdicts],
        },
        out / "cleanup_report.json",
    )
    if len(kept) < 2:
        raise DataError(f"only {len(kept)} usable logs after cleanup")

    kept_manifest = synth.DatasetManifest(root=manifest.root, logs=kept)
    train_entries, val_entries = preprocess.split_dataset(kept_manifest, val_fraction, seed)
    train_series = [preprocess.unify_rates(trimmed[e.log_id]) for e in train_entries]
    val_series = [preprocess.unify_rates(trimmed[e.log_id]) for e in val_entries]

    norm = preprocess.fit_normalization(train_series)
    weights = preprocess.compute_signal_weights(np.vstack([s.labels for s in train_series]))
    provenance = {
        "dataset": str(manifest.root),
        "trim": trim,
        "seed": seed,
    }
    train_ds = preprocess.build_dataset(train_series, window, stride, norm, weights)
    preprocess.save_windows(train_ds, out / "train_windows.bin", provenance)
    val_ds = preprocess.build_dataset(val_series, window, val_stride, norm, weights)
    preprocess.save_windows(val_ds, out / "val_windows.bin", provenance)
    write_json(
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
    config = read_json_object(args.config, ConfigError)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_ds = preprocess.load_windows(_get(config, "train_windows"))
    val_path = _get(config, "val_windows", str, "")
    val_ds = preprocess.load_windows(val_path) if val_path else None

    net_fields = {"input_size": train_ds.windows.shape[2], "output_size": train_ds.labels.shape[1]}
    net_cfg = _build(rnn.NetworkConfig, dict(net_fields, **_get(config, "network", dict, {})), "network")
    train_fields = _get(config, "train", dict, {})
    if args.seed is not None:
        train_fields["shuffle_seed"] = args.seed
    train_cfg = _build(train.TrainConfig, train_fields, "train")

    init_seed = _get(config, "init_seed", int, args.seed if args.seed is not None else 0)
    transfer_from = _get(config, "transfer_from", str, "")
    if transfer_from:
        source = rnn.load_checkpoint(transfer_from)
        params, report = train.fit(train_ds, val_ds, train_cfg, source.params, warm_start=True)
        net_cfg = source.config
    else:
        init = rnn.init_params(net_cfg, seed=init_seed)
        params, report = train.fit(train_ds, val_ds, train_cfg, init)

    meta = {
        "window": train_ds.window_size,
        "period_ms": train_ds.period_ms,
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
    config = read_json_object(args.config, ConfigError)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = rnn.load_checkpoint(_get(config, "checkpoint"))
    manifest = synth.DatasetManifest.load(_get(config, "dataset"))
    cleanup = _cleanup_options(config)

    wanted = _get(config, "logs", list, None) or None
    split_path = _get(config, "split", str, "")
    if wanted is None and split_path:
        wanted = read_json_object(split_path).get("val")
        if not isinstance(wanted, list):
            raise DataError(f"{split_path}: split has no 'val' list of log ids")
    entries = [e for e in manifest.logs if wanted is None or e.log_id in wanted]
    if not entries:
        raise DataError("no logs selected for evaluation")

    run_baseline = bool(args.baseline or config.get("baseline"))
    dr_cfg = _build(deadreckon.DeadReckonConfig, config.get("deadreckon", {}), "deadreckon") if run_baseline else None

    metrics_dir = out / "metrics"
    metrics_dir.mkdir(exist_ok=True)
    all_metrics = []
    baseline_metrics = [] if run_baseline else None
    for entry in entries:
        verdict = preprocess.clean_log(manifest.log_path(entry), entry.log_id, **cleanup)
        if not verdict.accepted:  # cleanup has logged why
            continue
        series = preprocess.unify_rates(verdict.trimmed)
        m = evaluate.evaluate_flight(ckpt, series)
        m.save(metrics_dir / f"{entry.log_id}.json")
        m.write_path_compare(out / f"path_compare_{entry.log_id}.csv")
        all_metrics.append(m)
        if run_baseline:
            baseline_metrics.append(
                evaluate.baseline_flight_metrics(verdict.trimmed, series, ckpt.meta["window"], dr_cfg)
            )
    if not all_metrics:
        raise DataError("every selected log was rejected by cleanup")

    evaluate.write_summary_csv(all_metrics, out / "summary.csv", baseline_metrics)
    summary = {"nn": evaluate.aggregate_metrics(all_metrics)}
    if run_baseline:
        summary["deadreckon"] = evaluate.aggregate_metrics(baseline_metrics)
    write_json(summary, out / "summary.json")
    med = summary["nn"]["mpe_m"]["median"]
    line = f"eval: {len(all_metrics)} flights, median MPE {med:.3f} m"
    if run_baseline:
        line += f" (dead reckoning {summary['deadreckon']['mpe_m']['median']:.3f} m)"
    print(line + f" -> {out}")
    return EXIT_OK


def cmd_stream(args) -> int:
    config = read_json_object(args.config, ConfigError)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = rnn.load_checkpoint(_get(config, "checkpoint"))
    flight = read_flight_log(_get(config, "log"))
    stream_fields = _get(config, "stream", dict, {})
    if args.seed is not None:
        stream_fields["seed"] = args.seed
    cfg = _build(stream.StreamConfig, stream_fields, "stream")

    predictions = stream.run_stream(flight, ckpt, cfg)
    write_table(
        out / "online_predictions.csv",
        "t_us,dpn,dpe,dpd,dvn,dve,dvd,latency_ms,dropped_samples",
        [p.t_us for p in predictions],
        [[*p.increment, p.latency_ms, p.dropped_samples] for p in predictions],
    )
    report = stream.compare_online_offline(flight, ckpt, predictions)
    write_json(report, out / "compare_report.json")
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
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ValidationError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NavError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
