"""Command-line entry point.

One experiment = one JSON config file + one output directory; no state is
shared between commands. Subcommands: synth, preprocess, train, eval,
stream. Each command declares its config once, as a dataclass whose fields
are the file's keys (`SynthCommand`, `PreprocessCommand`, `TrainCommand`,
`EvalCommand`, `StreamCommand`); `errors.from_json` builds it and every
nested config, and `errors.check_fields` checks each field against its
declared type. --seed replaces the declared seed field it overrides. Exit
codes: 0 ok, 1 configuration error, 2 data error, 3 runtime failure.
NAV_LOG_LEVEL (a logging level name) controls verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import InitVar, asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import deadreckon, evaluate, preprocess, rnn, stream, synth, train
from .errors import ConfigError, DataError, NavError, ValidationError, check_fields, from_json
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


def _load(cls, args, **defaults):
    """The command's config from the --config file, built by from_json."""
    return from_json(cls, read_json_object(args.config, ConfigError), "config", **defaults)


@dataclass
class SynthCommand:
    flights: list = field(default_factory=list)  # SynthConfig objects
    batch: synth.Batch | None = None
    base_seed: InitVar[int] = 0  # --seed: the default seed of the batch and of flights[0], +1 per later flight

    def __post_init__(self, base_seed):
        check_fields(self)
        self.flights = [from_json(synth.SynthConfig, f, "flight", seed=base_seed + i)
                        for i, f in enumerate(self.flights)]
        if self.batch is not None:
            self.batch = from_json(synth.Batch, self.batch, "batch", seed=base_seed)
        if not self.flights and not (self.batch and self.batch.count):
            raise ConfigError("synth config needs 'flights' and/or 'batch'")


def cmd_synth(args) -> int:
    config = _load(SynthCommand, args, base_seed=args.seed)
    out = Path(args.out)
    manifest = synth.make_dataset(config.flights + (config.batch.flights() if config.batch else []), out)
    log.info("wrote %d logs under %s", len(manifest.logs), out)
    print(f"synth: {len(manifest.logs)} logs -> {out}")
    return EXIT_OK


@dataclass(kw_only=True)
class PreprocessCommand(preprocess.Cleanup):
    dataset: str
    window: int = 200
    stride: int = 1
    val_stride: int | None = None  # None: stride
    val_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        check_fields(self, window=1, stride=1, val_stride=1, seed=0)


def cmd_preprocess(args) -> int:
    config = _load(PreprocessCommand, args)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = synth.DatasetManifest.load(config.dataset)

    verdicts = [preprocess.clean_log(manifest.log_path(e), e.log_id, config) for e in manifest.logs]
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
    train_entries, val_entries = preprocess.split_dataset(kept_manifest, config.val_fraction, config.seed)
    train_series = [preprocess.unify_rates(trimmed[e.log_id]) for e in train_entries]
    val_series = [preprocess.unify_rates(trimmed[e.log_id]) for e in val_entries]

    norm = preprocess.fit_normalization(train_series)
    weights = preprocess.compute_signal_weights(np.vstack([s.labels for s in train_series]))
    provenance = {
        "dataset": str(manifest.root),
        "trim": asdict(config.trim),
        "seed": config.seed,
    }
    train_ds = preprocess.build_dataset(train_series, config.window, config.stride, norm, weights)
    preprocess.save_windows(train_ds, out / "train_windows.bin", provenance)
    val_stride = config.stride if config.val_stride is None else config.val_stride
    val_ds = preprocess.build_dataset(val_series, config.window, val_stride, norm, weights)
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


@dataclass(kw_only=True)
class TrainCommand:
    train_windows: str
    val_windows: str = ""  # "": no validation set
    network: dict = field(default_factory=dict)  # NetworkConfig keys; the sizes default to the dataset's
    train: train.TrainConfig = field(default_factory=train.TrainConfig)
    init_seed: int = 0  # defaults to --seed when given
    transfer_from: str = ""  # a source checkpoint to warm-start from

    def __post_init__(self):
        check_fields(self, init_seed=0)
        from_json(rnn.NetworkConfig, self.network, "network")  # checked here, sized by the dataset in cmd_train
        self.train = from_json(train.TrainConfig, self.train, "train")


def cmd_train(args) -> int:
    config = _load(TrainCommand, args, init_seed=args.seed)
    if args.seed is not None:
        config = replace(config, train=replace(config.train, shuffle_seed=args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_ds = preprocess.load_windows(config.train_windows)
    val_ds = preprocess.load_windows(config.val_windows) if config.val_windows else None
    sizes = {"input_size": train_ds.windows.shape[2], "output_size": train_ds.labels.shape[1]}
    net_cfg = from_json(rnn.NetworkConfig, config.network, "network", **sizes)

    if config.transfer_from:
        source = rnn.load_checkpoint(config.transfer_from)
        params, report = train.fit(train_ds, val_ds, config.train, source.params, warm_start=True)
        net_cfg = source.config
    else:
        init = rnn.init_params(net_cfg, seed=config.init_seed)
        params, report = train.fit(train_ds, val_ds, config.train, init)

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


@dataclass(kw_only=True)
class EvalCommand(preprocess.Cleanup):
    checkpoint: str
    dataset: str
    logs: list | None = None  # log ids; None or []: the split's 'val' list, else every log
    split: str = ""  # a preprocess split.json
    baseline: bool = False  # as --baseline: also dead-reckon every flight
    deadreckon: deadreckon.DeadReckonConfig = field(default_factory=deadreckon.DeadReckonConfig)

    def __post_init__(self):
        super().__post_init__()
        self.deadreckon = from_json(deadreckon.DeadReckonConfig, self.deadreckon, "deadreckon")


def cmd_eval(args) -> int:
    config = _load(EvalCommand, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = rnn.load_checkpoint(config.checkpoint)
    manifest = synth.DatasetManifest.load(config.dataset)

    wanted = config.logs or None
    if wanted is None and config.split:
        wanted = read_json_object(config.split).get("val")
        if not isinstance(wanted, list):
            raise DataError(f"{config.split}: split has no 'val' list of log ids")
    entries = [e for e in manifest.logs if wanted is None or e.log_id in wanted]
    if not entries:
        raise DataError("no logs selected for evaluation")

    run_baseline = args.baseline or config.baseline

    metrics_dir = out / "metrics"
    metrics_dir.mkdir(exist_ok=True)
    all_metrics = []
    baseline_metrics = [] if run_baseline else None
    for entry in entries:
        t0 = time.perf_counter()
        verdict = preprocess.clean_log(manifest.log_path(entry), entry.log_id, config)
        if not verdict.accepted:  # cleanup has logged why
            continue
        series = preprocess.unify_rates(verdict.trimmed)
        m = evaluate.evaluate_flight(ckpt, series)
        m.save(metrics_dir / f"{entry.log_id}.json")
        m.write_path_compare(out / f"path_compare_{entry.log_id}.csv")
        all_metrics.append(m)
        if run_baseline:
            baseline_metrics.append(
                evaluate.baseline_flight_metrics(verdict.trimmed, series, ckpt.meta["window"], config.deadreckon)
            )
        dr = f", dead reckoning MPE {baseline_metrics[-1].mpe_m:.3f} m" if run_baseline else ""
        log.info("eval %s: MPE %.3f m%s, %.2f s", entry.log_id, m.mpe_m, dr, time.perf_counter() - t0)
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


@dataclass(kw_only=True)
class StreamCommand:
    checkpoint: str
    log: str  # a log directory
    stream: stream.StreamConfig = field(default_factory=stream.StreamConfig)

    def __post_init__(self):
        check_fields(self)
        self.stream = from_json(stream.StreamConfig, self.stream, "stream")


def cmd_stream(args) -> int:
    config = _load(StreamCommand, args)
    if args.seed is not None:
        config = replace(config, stream=replace(config.stream, seed=args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = rnn.load_checkpoint(config.checkpoint)
    flight = read_flight_log(config.log)

    predictions = stream.run_stream(flight, ckpt, config.stream)
    write_table(
        out / "online_predictions.csv",
        "t_us,dpn,dpe,dpd,dvn,dve,dvd,latency_ms,dropped_samples",
        [p.t_us for p in predictions],
        [[*p.increment, p.latency_ms, p.dropped_samples] for p in predictions],
    )
    report = stream.compare_online_offline(flight, ckpt, predictions)
    write_json(report, out / "compare_report.json")
    off = f" (estimator times up to {report['grid_offset_us'] / 1000:g} ms off the bin grid)"
    print(f"stream: {len(predictions)} predictions, max offline deviation {max(report['max_abs_dev']):.3g}"
          f"{off if report['grid_offset_us'] else ''} -> {out}")
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


def _log_level() -> int:
    name = os.environ.get("NAV_LOG_LEVEL", "WARNING").upper()
    level = logging.getLevelName(name)
    if not isinstance(level, int):
        raise ConfigError(f"NAV_LOG_LEVEL {name!r} is not a logging level name")
    return level


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        logging.basicConfig(level=_log_level())
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
