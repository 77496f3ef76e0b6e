"""Real-time inference harness.

A single consumer owns the rolling feature window: every period it feeds
the samples up to the next bin edge into the FeatureAssembler that offline
preprocessing uses, closes that bin, and predicts the next state increment
once the window is full. At replay_speed 0 it reads the log's arrays, which
is deterministic and, with zero jitter, bit-identical to the offline batch
pipeline. Wall-clock replay has one clock, the origin `replay` takes: its
producers put one chunk per bin edge of the consumer at the edge's due
time, and the consumer blocks on the chunks instead of pacing itself.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

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
    dropped_samples: int  # the sum of `dropped`
    carried_imu: bool = False
    dropped: dict[str, int] = field(default_factory=dict)  # samples dropped so far, per sensor queue


class _Chunks(queue.Queue):
    """queue.Queue's FIFO holding at most `capacity` samples: a put drops the
    oldest chunks until its own fits, or the oldest samples of a chunk larger
    than that, and counts them. The hooks run under the queue's lock."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity, self.held, self.dropped = capacity, 0, 0

    def _put(self, item) -> None:
        if item is not _DONE:
            cut = max(0, len(item[1]) - self.capacity)
            item, self.dropped = (item[0], item[1][cut:], item[2][cut:]), self.dropped + cut
            while self.held + len(item[1]) > self.capacity:
                self.dropped += len(self._get()[1])  # _DONE comes last, so the oldest is a chunk
            self.held += len(item[1])
        self.queue.append(item)

    def _get(self):
        item = self.queue.popleft()
        self.held -= 0 if item is _DONE else len(item[1])
        return item


class SensorQueue:
    """Bounded queue of (watermark_us, t_us, values) chunks, holding at most
    `capacity` samples; the producer never blocks. `bins` carries the
    consumer's bin grid to the producer."""

    def __init__(self, capacity: int):
        self._q = _Chunks(capacity)
        self.bins: Future = Future()  # (anchor_us, period_us, cfg), set by online_infer

    @property
    def dropped(self) -> int:
        return self._q.dropped

    def put(self, item) -> None:
        self._q.put(item)

    def get(self, timeout: float | None = None):
        return self._q.get(timeout=timeout)


def make_queues(cfg: StreamConfig) -> dict[str, SensorQueue]:
    return {name: SensorQueue(cfg.queue_capacity) for name in SENSORS}


def _edges(anchor_us: int, period_us: int, cfg: StreamConfig):
    """The bin edges after anchor_us, one per period, each moved by the seeded jitter."""
    rng = np.random.default_rng(cfg.seed)
    for k in itertools.count(1):
        jitter_us = int(round(rng.uniform(-cfg.jitter_ms, cfg.jitter_ms) * 1000.0)) if cfg.jitter_ms > 0 else 0
        yield anchor_us + k * period_us + jitter_us


def replay(log: FlightLog, cfg: StreamConfig, queues: dict[str, SensorQueue]) -> list[threading.Thread]:
    """Start one producer thread per sensor stream, then take the pacing
    origin and release them with it; returns the started threads. A producer
    waits for its queue's bin grid, then at each edge's due time puts its
    samples in (previous edge, edge] as one chunk, until its last sample is
    out, then _DONE."""
    t0 = int(min(log.imu.t_us[0], log.baro.t_us[0], log.mag.t_us[0]))
    speed, released = cfg.replay_speed, threading.Event()

    def produce(samples, q: SensorQueue):
        t_us, start = samples.t_us, 0
        released.wait()  # origin is set by then
        for edge in _edges(*q.bins.result()):
            if speed > 0 and (delay := origin + (edge - t0) * 1e-6 / speed - time.perf_counter()) > 0:
                time.sleep(delay)
            end = int(np.searchsorted(t_us, edge, side="right"))
            q.put((edge, t_us[start:end], samples.values[start:end]))
            if (start := end) == len(t_us):
                break
        q.put(_DONE)

    threads = [threading.Thread(target=produce, args=(getattr(log, n), queues[n]), name=f"replay-{n}", daemon=True)
               for n in SENSORS]
    for th in threads:
        th.start()
    origin = time.perf_counter()
    released.set()
    return threads


class _QueueReader:
    """Reads one sensor queue's chunks up to a bin edge: blocks until it holds
    a chunk whose watermark reaches the edge, or the stream has ended, and
    keeps the samples past the edge for the next call."""

    def __init__(self, name: str, q: SensorQueue, timeout: float):
        self.name, self.q, self.timeout = name, q, timeout
        self.mark = -np.inf  # watermark of the last chunk read; infinite once the stream has ended
        self.t_us, self.values = np.empty(0, dtype=np.int64), np.empty((0, SENSORS[name]))  # read past the last edge

    def take(self, edge: int) -> tuple[np.ndarray, np.ndarray, bool]:
        t_parts, v_parts = [self.t_us], [self.values]
        while self.mark < edge:
            try:
                item = self.q.get(timeout=self.timeout)
            except queue.Empty:
                raise DataError(f"{self.name} producer stalled (no data for {self.timeout:.0f}s)") from None
            if item is _DONE:
                self.mark = np.inf
            else:
                self.mark = item[0]
                t_parts.append(item[1])
                v_parts.append(item[2])
        t_us, values = np.concatenate(t_parts), np.concatenate(v_parts)
        n = int(np.searchsorted(t_us, edge, side="right"))
        self.t_us, self.values = t_us[n:], values[n:]
        return t_us[:n], values[:n], self.mark == np.inf and n == len(t_us)


class _ArrayReader:
    """Hands out one sensor stream's logged samples up to each bin edge."""

    def __init__(self, samples):
        self.t_us, self.values, self.pos = samples.t_us, samples.values, 0

    def take(self, edge: int) -> tuple[np.ndarray, np.ndarray, bool]:
        i = self.pos
        self.pos = max(i, int(np.searchsorted(self.t_us, edge, side="right")))
        return self.t_us[i : self.pos], self.values[i : self.pos], self.pos == len(self.t_us)


def _bin_period_us(ckpt: Checkpoint, cfg: StreamConfig) -> int:
    """The checkpoint's bin period in microseconds.

    A bin edge moves by up to the jitter, rounded to whole microseconds as
    the edges are, so jitter of half a period or more could put an edge at
    or before the previous one; that raises ConfigError."""
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
    assembler = FeatureAssembler(anchor_us)
    rolling = Rolling(ckpt.params, meta["window"])
    edges: list[int] = []  # edges closed whose rows the assembler holds; it releases them all at once
    edge_prev = anchor_us
    for edge in _edges(anchor_us, period_us, cfg):
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
                latency_ms = (time.perf_counter() - t_compute) * 1e3
                dropped = {name: q.dropped for name, q in queues.items()}
                yield OnlinePrediction(row_edge, y, latency_ms, sum(dropped.values()), bool(carried), dropped)
        del edges[: len(features)]


def online_infer(ckpt: Checkpoint, queues: dict[str, SensorQueue], cfg: StreamConfig, anchor_us: int):
    """Yield one OnlinePrediction per completed window, one per period once the first is full.

    It hands each queue its bin grid, at whose edges the producers cut their
    chunks, and drains each queue up to the period's edge, blocking until the
    chunks reach it; no chunk for 30 s, or for 30 s of replayed time below
    real-time speed, raises DataError. Barometer/magnetometer bins without
    samples reuse the previous mean; an inertial bin without samples repeats
    the last one and flags the prediction. anchor_us fixes the bin grid
    origin; the log's first estimator timestamp makes the bins the offline
    pipeline's."""
    period_us = _bin_period_us(ckpt, cfg)
    for q in queues.values():
        q.bins.set_result((int(anchor_us), period_us, cfg))
    readers = {name: _QueueReader(name, q, 30.0 / min(1.0, cfg.replay_speed or 1.0)) for name, q in queues.items()}
    return _predict(ckpt, cfg, period_us, int(anchor_us), readers, queues)


def run_stream(log: FlightLog, ckpt: Checkpoint, cfg: StreamConfig) -> list[OnlinePrediction]:
    """Replay a log through the online path and collect every prediction.

    The bin grid starts at the log's first estimator timestamp, as offline
    preprocessing's does. At replay_speed 0 the consumer reads the log's
    arrays and starts no thread; otherwise producer threads replay the log
    into queues on the wall clock."""
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

    The offline reference runs the same rows through `rnn.lockstep`, which gives `Rolling`'s
    bits, so at zero jitter the deviations are exactly zero if the offline bins, which end at the
    estimator timestamps, are the stream's; `grid_offset_us` is the largest distance between them."""
    series = unify_rates(log)
    offline = predict_increments(ckpt, series)
    online_arr = np.array([p.increment for p in predictions], dtype=np.float64)
    offline_arr = offline.astype(np.float64)
    n = min(len(online_arr), len(offline_arr))
    if n == 0:
        raise DataError("no overlapping predictions to compare")
    dev = np.abs(online_arr[:n] - offline_arr[:n])
    k = np.arange(1, n + ckpt.meta["window"])  # the compared windows' rows, which end at grid edges k
    return {
        "n_compared": int(n),
        "grid_offset_us": int(np.max(np.abs(series.t_us[k - 1] - log.ekf.t_us[0] - k * ckpt.meta["period_ms"] * 1000))),
        "n_online": int(len(online_arr)),
        "n_offline": int(len(offline_arr)),
        "max_abs_dev": [float(v) for v in dev.max(axis=0)],
        "mean_abs_dev": [float(v) for v in dev.mean(axis=0)],
        "bitwise_equal": bool(np.array_equal(online_arr[:n], offline_arr[:n])),
        "dropped_samples": int(predictions[-1].dropped_samples) if predictions else 0,
        "dropped": dict(predictions[-1].dropped) if predictions else {},
    }
