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

from .errors import ConfigError, DataError
from .flightlog import FlightLog
from .preprocess import SENSORS, FeatureAssembler, Normalization, WindowedDataset, sensor_samples, unify_rates
from .rnn import Checkpoint, forward
from .evaluate import predict_increments

_DONE = object()


@dataclass
class StreamConfig:
    """Replay settings. The bin period is the checkpoint's `period_ms` (200 ms
    when its meta has none), so a stream always bins as training did."""

    jitter_ms: float = 0.0
    queue_capacity: int = 1024
    replay_speed: float = 0.0  # 0 = as fast as possible, straight from the log's arrays
    seed: int = 0

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be >= 1")
        if self.jitter_ms < 0 or self.replay_speed < 0:
            raise ConfigError("jitter_ms and replay_speed must be >= 0")


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
        self._pushback = None  # consumer-side one-slot peek buffer
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
        if self._pushback is not None:
            item = self._pushback
            self._pushback = None
            return item
        return self._q.get(timeout=timeout)

    def get_nowait(self):
        if self._pushback is not None:
            item = self._pushback
            self._pushback = None
            return item
        return self._q.get_nowait()

    def push_back(self, item) -> None:
        self._pushback = item


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
    for name, (t_arr, values) in sensor_samples(log).items():
        th = threading.Thread(
            target=_producer,
            args=(t_arr, values, queues[name], cfg.replay_speed, t0),
            name=f"replay-{name}",
            daemon=True,
        )
        th.start()
        threads.append(th)
    return threads


class _QueueReader:
    """Drains one sensor queue up to a bin edge and remembers its end of stream."""

    def __init__(self, name: str, q: SensorQueue, blocking: bool, timeout: float = 30.0):
        self.name = name
        self.q = q
        self.blocking = blocking
        self.timeout = timeout
        self.finished = False

    def take(self, edge: int) -> tuple[list, list, bool]:
        t: list[int] = []
        values: list = []
        while not self.finished:
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
                self.q.push_back(item)
                break
            t.append(item[0])
            values.append(item[1])
        return t, values, self.finished


class _ArrayReader:
    """Hands out one sensor's logged samples up to each bin edge."""

    def __init__(self, t_us: np.ndarray, values: np.ndarray):
        self.t_us = t_us
        self.values = values
        self.pos = 0

    def take(self, edge: int) -> tuple[np.ndarray, np.ndarray, bool]:
        i = self.pos
        self.pos = max(i, int(np.searchsorted(self.t_us, edge, side="right")))
        return self.t_us[i : self.pos], self.values[i : self.pos], self.pos == len(self.t_us)


def _predict(ckpt: Checkpoint, cfg: StreamConfig, anchor_us: int, readers: dict, queues: dict[str, SensorQueue]):
    """The consumer loop: one bin per period, one prediction once the window is full.

    readers[sensor].take(edge) returns the samples that arrived up to edge,
    in time order, and whether the sensor's stream has ended. The loop stops
    at the first period in which every stream has ended and no sample fell
    in the bin.
    """
    meta = ckpt.meta
    window = meta["window"]
    norm = Normalization(mean=meta["feature_mean"], std=meta["feature_std"])
    rng = np.random.default_rng(cfg.seed)
    period_us = meta.get("period_ms", WindowedDataset.period_ms) * 1000
    assembler = FeatureAssembler(anchor_us)
    rows: list[np.ndarray] = []
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
        rows.extend(norm.apply(features))
        del rows[:-window]
        edge_prev = edge
        if len(rows) < window:
            continue
        y, _ = forward(ckpt.params, np.stack(rows), want_tape=False)
        yield OnlinePrediction(
            t_us=int(edge),
            increment=y,
            latency_ms=(time.perf_counter() - t_compute) * 1e3,
            dropped_samples=sum(q.dropped for q in queues.values()),
            carried_imu=bool(empty["imu"][-1]),
        )


def online_infer(ckpt: Checkpoint, queues: dict[str, SensorQueue], cfg: StreamConfig, anchor_us: int):
    """Yield one OnlinePrediction per elapsed period once the window is full.

    The consumer drains each queue up to the period's bin edge, blocking at
    replay_speed 0 and paced by the wall clock otherwise. Causal feature
    assembly is the offline pipeline's: barometer/magnetometer bins without
    samples reuse the previous mean; an inertial bin without samples repeats
    the last one and flags the prediction. anchor_us fixes the bin grid
    origin; matching it to the log's first estimator timestamp makes the
    bins identical to the offline pipeline's.
    """
    readers = {name: _QueueReader(name, q, blocking=cfg.replay_speed == 0) for name, q in queues.items()}
    return _predict(ckpt, cfg, int(anchor_us), readers, queues)


def run_stream(log: FlightLog, ckpt: Checkpoint, cfg: StreamConfig) -> list[OnlinePrediction]:
    """Replay a log through the online path and collect every prediction.

    The bin grid starts at the log's first estimator timestamp so the online
    bins line up with offline preprocessing. At replay_speed 0 the consumer
    reads the log's arrays and no thread is started; otherwise producer
    threads replay the log into queues on the wall clock.
    """
    anchor_us = int(log.ekf.t_us[0])
    if cfg.replay_speed == 0:
        readers = {name: _ArrayReader(t, v) for name, (t, v) in sensor_samples(log).items()}
        return list(_predict(ckpt, cfg, anchor_us, readers, {}))
    queues = make_queues(cfg)
    threads = replay(log, cfg, queues)
    predictions = list(online_infer(ckpt, queues, cfg, anchor_us=anchor_us))
    for th in threads:
        th.join(timeout=30.0)
        if th.is_alive():
            raise DataError(f"{th.name} failed to finish")
    return predictions


def compare_online_offline(log: FlightLog, ckpt: Checkpoint, predictions: list[OnlinePrediction]) -> dict:
    """Diff a log's online predictions against the batch path.

    The offline reference predicts window by window (batch size 1) so both
    sides execute identical arithmetic; with zero jitter the deviations are
    exactly zero.
    """
    series = unify_rates(log)
    offline = predict_increments(ckpt, series, batch_size=1)
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
