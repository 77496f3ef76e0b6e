"""Real-time inference harness.

A single consumer owns the rolling feature window: every period it feeds
the samples up to the next bin edge into the same FeatureAssembler that
offline preprocessing uses, closes that bin, and predicts the upcoming
state increment once the window is full. There is no virtual clock. At
replay_speed 0 the closed loop reads the log's arrays directly, which makes
the run deterministic and, with zero jitter, bit-identical to the offline
batch pipeline. Threads serve wall-clock replay (replay_speed > 0) only:
one producer per sensor replays samples into a bounded queue that drops its
oldest entry on overflow, so producers never block, and dropped counts are
surfaced in every prediction.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_fields
from .flightlog import FlightLog
from .preprocess import SENSORS, FeatureAssembler, Normalization, unify_rates
from .rnn import Checkpoint, Rolling
from .evaluate import predict_increments

_DONE = object()


@dataclass
class StreamConfig:
    """Replay settings. The bin period is the checkpoint's `period_ms`, which
    every checkpoint stores, so a stream always bins as training did; the
    jitter must stay below half of it, or starting the stream raises
    ConfigError."""

    jitter_ms: float = 0.0
    queue_capacity: int = 1024
    replay_speed: float = 0.0  # 0 = as fast as possible, straight from the log's arrays
    seed: int = 0

    def __post_init__(self):
        check_fields(self, jitter_ms=0, queue_capacity=1, replay_speed=0, seed=0)


@dataclass
class OnlinePrediction:
    t_us: int
    increment: np.ndarray
    latency_ms: float
    dropped_samples: int
    carried_imu: bool = False


class SensorQueue:
    """Bounded queue with drop-oldest overflow; the producer never blocks."""

    def __init__(self, capacity: int):
        self._q: queue.Queue = queue.Queue(maxsize=capacity)
        self.dropped = 0

    def put(self, item) -> None:
        while True:
            try:
                self._q.put_nowait(item)
                return
            except queue.Full:
                try:
                    self._q.get_nowait()
                    self.dropped += 1
                except queue.Empty:
                    pass

    def get(self, timeout: float | None = None):
        return self._q.get(timeout=timeout)

    def get_nowait(self):
        return self._q.get_nowait()


def make_queues(cfg: StreamConfig) -> dict[str, SensorQueue]:
    return {name: SensorQueue(cfg.queue_capacity) for name in SENSORS}


def _producer(t_arr, values, q: SensorQueue, speed: float, t0_us: int):
    wall_start = time.perf_counter()
    for i in range(len(t_arr)):
        t = int(t_arr[i])
        if speed > 0:
            deadline = wall_start + (t - t0_us) * 1e-6 / speed
            delay = deadline - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        q.put((t, values[i]))
    q.put(_DONE)


def replay(log: FlightLog, cfg: StreamConfig, queues: dict[str, SensorQueue]) -> list[threading.Thread]:
    """Start one producer thread per sensor stream; returns started threads."""
    t0 = int(min(log.imu.t_us[0], log.baro.t_us[0], log.mag.t_us[0]))
    threads = []
    for name in SENSORS:
        samples = getattr(log, name)
        th = threading.Thread(
            target=_producer,
            args=(samples.t_us, samples.values, queues[name], cfg.replay_speed, t0),
            name=f"replay-{name}",
            daemon=True,
        )
        th.start()
        threads.append(th)
    return threads


class _QueueReader:
    """Drains one sensor queue up to a bin edge, holding the one sample read
    past it for the next call, and remembers its end of stream."""

    def __init__(self, name: str, q: SensorQueue, blocking: bool, timeout: float = 30.0):
        self.name, self.q, self.blocking, self.timeout = name, q, blocking, timeout
        self.finished = False
        self.held = None  # the sample read past the last edge

    def take(self, edge: int) -> tuple[list, list, bool]:
        t: list[int] = []
        values: list = []
        while not self.finished:
            item, self.held = self.held, None
            if item is None:
                try:
                    item = self.q.get(timeout=self.timeout) if self.blocking else self.q.get_nowait()
                except queue.Empty:
                    if self.blocking:
                        raise DataError(f"{self.name} producer stalled (no data for {self.timeout:.0f}s)")
                    break
            if item is _DONE:
                self.finished = True
                break
            if item[0] > edge:
                self.held = item
                break
            t.append(item[0])
            values.append(item[1])
        return t, values, self.finished


class _ArrayReader:
    """Hands out one sensor stream's logged samples up to each bin edge."""

    def __init__(self, samples):
        self.t_us = samples.t_us
        self.values = samples.values
        self.pos = 0

    def take(self, edge: int) -> tuple[np.ndarray, np.ndarray, bool]:
        i = self.pos
        self.pos = max(i, int(np.searchsorted(self.t_us, edge, side="right")))
        return self.t_us[i : self.pos], self.values[i : self.pos], self.pos == len(self.t_us)


def _bin_period_us(ckpt: Checkpoint, cfg: StreamConfig) -> int:
    """The checkpoint's bin period in microseconds.

    A bin edge moves by up to the jitter, rounded to whole microseconds as
    the edges are, so jitter of half a period or more could put an edge at
    or before the previous one; that raises ConfigError.
    """
    period_us = ckpt.meta["period_ms"] * 1000
    if 2 * round(cfg.jitter_ms * 1000.0) >= period_us:
        raise ConfigError(f"jitter_ms {cfg.jitter_ms:g} must be below half the {period_us / 1000:g} ms bin period")
    return period_us


def _predict(ckpt: Checkpoint, cfg: StreamConfig, period_us: int, anchor_us: int, readers: dict, queues: dict):
    """The consumer loop: one bin per period, one prediction per completed window.

    readers[sensor].take(edge) returns the samples that arrived up to edge,
    in time order, and whether the sensor's stream has ended. Each released
    row advances one `Rolling`; rows held back for a late sensor come out
    together, and each window they complete is stamped with its last row's
    edge. The loop stops at the first period in which every stream has ended
    and no sample fell in the bin."""
    meta = ckpt.meta
    norm = Normalization(mean=meta["feature_mean"], std=meta["feature_std"])
    rng = np.random.default_rng(cfg.seed)
    assembler = FeatureAssembler(anchor_us)
    rolling = Rolling(ckpt.params, meta["window"])
    edges: list[int] = []  # edges closed whose rows the assembler holds; it releases them all at once
    wall_start = time.perf_counter()
    edge_prev = anchor_us
    k = 0
    while True:
        k += 1
        jitter_us = int(round(rng.uniform(-cfg.jitter_ms, cfg.jitter_ms) * 1000.0)) if cfg.jitter_ms > 0 else 0
        edge = anchor_us + k * period_us + jitter_us
        if cfg.replay_speed > 0:
            delay = wall_start + (edge - anchor_us) * 1e-6 / cfg.replay_speed - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        taken = {name: r.take(edge) for name, r in readers.items()}
        ended = all(done for _, _, done in taken.values())
        if ended and not any(len(t) and t[-1] > edge_prev for t, _, _ in taken.values()):
            return
        t_compute = time.perf_counter()
        for name, (t, values, _) in taken.items():
            assembler.add(name, t, values)
        features, empty = assembler.close([edge])
        edges.append(edge)
        edge_prev = edge
        for row, row_edge, carried in zip(norm.apply(features), edges, empty["imu"]):
            if (y := rolling.push(row)) is not None:
                yield OnlinePrediction(
                    t_us=row_edge,
                    increment=y,
                    latency_ms=(time.perf_counter() - t_compute) * 1e3,
                    dropped_samples=sum(q.dropped for q in queues.values()),
                    carried_imu=bool(carried),
                )
        del edges[: len(features)]


def online_infer(ckpt: Checkpoint, queues: dict[str, SensorQueue], cfg: StreamConfig, anchor_us: int):
    """Yield one OnlinePrediction per completed window, one per period once the first is full.

    The consumer drains each queue up to the period's bin edge, blocking at
    replay_speed 0 and paced by the wall clock otherwise. Causal feature
    assembly is the offline pipeline's: barometer/magnetometer bins without
    samples reuse the previous mean; an inertial bin without samples repeats
    the last one and flags the prediction. anchor_us fixes the bin grid
    origin; matching it to the log's first estimator timestamp makes the
    bins identical to the offline pipeline's.
    """
    readers = {name: _QueueReader(name, q, blocking=cfg.replay_speed == 0) for name, q in queues.items()}
    return _predict(ckpt, cfg, _bin_period_us(ckpt, cfg), int(anchor_us), readers, queues)


def run_stream(log: FlightLog, ckpt: Checkpoint, cfg: StreamConfig) -> list[OnlinePrediction]:
    """Replay a log through the online path and collect every prediction.

    The bin grid starts at the log's first estimator timestamp so the online
    bins line up with offline preprocessing. At replay_speed 0 the consumer
    reads the log's arrays and no thread is started; otherwise producer
    threads replay the log into queues on the wall clock.
    """
    anchor_us = int(log.ekf.t_us[0])
    if cfg.replay_speed == 0:
        readers = {name: _ArrayReader(getattr(log, name)) for name in SENSORS}
        return list(_predict(ckpt, cfg, _bin_period_us(ckpt, cfg), anchor_us, readers, {}))
    queues = make_queues(cfg)
    consumer = online_infer(ckpt, queues, cfg, anchor_us=anchor_us)  # checks the jitter before a thread starts
    threads = replay(log, cfg, queues)
    predictions = list(consumer)
    for th in threads:
        th.join(timeout=30.0)
        if th.is_alive():
            raise DataError(f"{th.name} failed to finish")
    return predictions


def compare_online_offline(log: FlightLog, ckpt: Checkpoint, predictions: list[OnlinePrediction]) -> dict:
    """Diff a log's online predictions against the batch path.

    The offline reference pushes the same rows through the same `Rolling`,
    so both sides execute identical arithmetic; with zero jitter the
    deviations are exactly zero.
    """
    series = unify_rates(log)
    offline = predict_increments(ckpt, series)
    online_arr = np.array([p.increment for p in predictions], dtype=np.float64)
    offline_arr = offline.astype(np.float64)
    n = min(len(online_arr), len(offline_arr))
    if n == 0:
        raise DataError("no overlapping predictions to compare")
    dev = np.abs(online_arr[:n] - offline_arr[:n])
    return {
        "n_compared": int(n),
        "n_online": int(len(online_arr)),
        "n_offline": int(len(offline_arr)),
        "max_abs_dev": [float(v) for v in dev.max(axis=0)],
        "mean_abs_dev": [float(v) for v in dev.mean(axis=0)],
        "bitwise_equal": bool(np.array_equal(online_arr[:n], offline_arr[:n])),
        "dropped_samples": int(predictions[-1].dropped_samples) if predictions else 0,
    }
