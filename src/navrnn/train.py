"""Training loop: schedule, batching, early stopping, warm starts."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError, check_fields, from_json
from .flightlog import write_json
from .preprocess import WindowedDataset
from .rnn import (
    AdamState,
    Buffers,
    LossSpec,
    NetworkParams,
    adam_step,
    backward,
    forward,
    loss,
    predict,
)

log = logging.getLogger(__name__)

DEFAULT_LR_SCHEDULE = ((0, 0.005), (51, 0.0025), (101, 0.001))


@dataclass
class LrStep:  # one lr_schedule entry: the rate from its start epoch on
    lr_schedule_epoch: int
    lr_schedule_rate: float

    def __post_init__(self):
        check_fields(self, lr_schedule_epoch=0, lr_schedule_rate=0)


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 1024
    lr_schedule: tuple = DEFAULT_LR_SCHEDULE  # [start epoch, rate] pairs
    shuffle_seed: int = 0
    early_stop_patience: int = 0  # 0 disables early stopping
    loss: LossSpec | None = None  # defaults to weighted MAE with dataset weights; a mapping builds a LossSpec

    def __post_init__(self):
        check_fields(self, epochs=0, batch_size=1, shuffle_seed=0, early_stop_patience=0)
        if not all(isinstance(entry, (list, tuple)) and len(entry) == 2 for entry in self.lr_schedule):
            raise ConfigError(f"each lr_schedule entry must be a [start epoch, rate] pair, got {self.lr_schedule!r}")
        steps = [LrStep(*entry) for entry in self.lr_schedule]
        self.lr_schedule = tuple((int(s.lr_schedule_epoch), float(s.lr_schedule_rate)) for s in steps)
        starts = [e for e, _ in self.lr_schedule]
        if not starts:
            raise ConfigError("lr_schedule must not be empty")
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ConfigError("lr_schedule epochs must be strictly increasing")
        if self.loss is not None:
            self.loss = from_json(LossSpec, self.loss, "loss")


def lr_at(schedule, epoch: int) -> float:
    """Learning rate of the last schedule entry whose start <= epoch."""
    rates = [lr for start, lr in schedule if start <= epoch]
    if not rates:
        raise ConfigError(f"no schedule entry covers epoch {epoch}")
    return rates[-1]


@dataclass
class TrainReport:
    """Per-epoch history; wall time is excluded from equality checks."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    wall_time_s: list[float] = field(default_factory=list, compare=False)
    best_epoch: int = -1
    warm_start: bool = False
    stopped_early: bool = False
    # parameters at the best validation epoch (None without validation data);
    # not serialized
    best_params: NetworkParams | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "train_loss": self.train_loss,
            "val_loss": self.val_loss,
            "lr": self.lr,
            "wall_time_s": self.wall_time_s,
            "best_epoch": self.best_epoch,
            "warm_start": self.warm_start,
            "stopped_early": self.stopped_early,
        }

    def save(self, path: str | Path) -> None:
        write_json(self.to_dict(), path)


def _resolve_loss(cfg: TrainConfig, dataset: WindowedDataset) -> LossSpec:
    if cfg.loss is None:
        return LossSpec(kind="weighted_mae", weights=dataset.weights.astype(np.float64))
    if cfg.loss.weights is not None and len(cfg.loss.weights) != dataset.labels.shape[1]:
        raise ConfigError(f"loss weights hold {len(cfg.loss.weights)} numbers for {dataset.labels.shape[1]} labels")
    return cfg.loss


def _dataset_loss(params: NetworkParams, dataset: WindowedDataset, spec: LossSpec) -> float:
    """Mean loss over the dataset, from `predict`: the inference the eval and the stream run."""
    return loss(predict(params, dataset.windows), dataset.labels, spec)


def fit(
    dataset: WindowedDataset,
    val: WindowedDataset | None,
    cfg: TrainConfig,
    init: NetworkParams,
    warm_start: bool = False,
) -> tuple[NetworkParams, TrainReport]:
    """Train with per-epoch shuffling and the piecewise-constant lr schedule.

    Window order is reshuffled every epoch from shuffle_seed; the last
    partial batch is kept (its gradient is the mean over its true size).
    With early stopping enabled the parameters from the best validation
    epoch are returned, otherwise the final parameters. Inputs are never
    mutated; identical inputs and seeds give identical outputs. All batches
    run `forward` on one `Buffers` set: one tape's memory. The validation loss
    comes from `predict`, the path eval and the stream run; a validation set
    must share the training set's window size, normalization and period.

    To retrain a pretrained checkpoint on a new domain, pass its params as
    init with warm_start=True (recorded in the report): every layer, the
    output layer included, starts from the source weights, and the optimizer
    state starts fresh.
    """
    if len(dataset) == 0:
        raise DataError("training dataset is empty")
    for name, ds in (("dataset", dataset), ("validation set", val)):
        if ds is not None and (ds.windows.shape[2] != init.input_size or ds.labels.shape[1] != init.output_size):
            raise ConfigError(
                f"{name} input/output size {ds.windows.shape[2]}/{ds.labels.shape[1]} does not match "
                f"network input/output size {init.input_size}/{init.output_size}"
            )
    if val is not None and (differ := [key for key in ("window_size", "normalization", "period_ms")
                                       if getattr(val, key) != getattr(dataset, key)]):
        raise ConfigError(f"validation set differs from the training set in {', '.join(differ)}")
    spec = _resolve_loss(cfg, dataset)
    params = init.copy()
    state = AdamState.zeros_like(params)
    report = TrainReport(warm_start=warm_start)
    rng = np.random.default_rng(cfg.shuffle_seed)
    m = len(dataset)
    bufs = Buffers()

    best_params = params.copy()
    best_val = np.inf
    since_best = 0

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        lr = lr_at(cfg.lr_schedule, epoch)
        order = rng.permutation(m)
        epoch_loss = 0.0
        for start in range(0, m, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = dataset.windows[idx]
            yb = dataset.labels[idx]
            y_hat, tape = forward(params, xb, buffers=bufs)
            batch_loss = loss(y_hat, yb, spec)
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(
                    f"non-finite loss {batch_loss} at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            grads = backward(tape, yb, spec)
            params, state = adam_step(params, grads, state, lr=lr)
            epoch_loss += batch_loss * len(idx)
        epoch_loss /= m

        val_loss = float("nan")
        if val is not None and len(val) > 0:
            val_loss = _dataset_loss(params, val, spec)
            if val_loss < best_val:
                best_val = val_loss
                best_params = params.copy()
                report.best_epoch = epoch
                since_best = 0
            else:
                since_best += 1

        report.train_loss.append(float(epoch_loss))
        report.val_loss.append(float(val_loss))
        report.lr.append(lr)
        report.wall_time_s.append(time.perf_counter() - t0)
        log.info("epoch %d: lr %g, train loss %.6g, val loss %.6g, %.2f s",
                 epoch, lr, epoch_loss, val_loss, report.wall_time_s[-1])

        if cfg.early_stop_patience > 0 and since_best >= cfg.early_stop_patience:
            report.stopped_early = True
            break

    if report.best_epoch >= 0:
        report.best_params = best_params
    if cfg.early_stop_patience > 0 and report.best_epoch >= 0:
        return best_params, report
    return params, report

