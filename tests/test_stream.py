import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from navrnn.errors import ConfigError
from navrnn.evaluate import predict_increments
from navrnn.flightlog import BaroStream
from navrnn.preprocess import unify_rates
from navrnn.rnn import Checkpoint
from navrnn.stream import (
    SensorQueue,
    StreamConfig,
    compare_online_offline,
    make_queues,
    online_infer,
    replay,
    run_stream,
)
from navrnn.synth import NoiseConfig, SynthConfig, generate_flight


class TestSensorQueue:
    def test_drop_oldest_never_blocks(self):
        q = SensorQueue(capacity=2)
        for i in range(10):
            q.put((i, None))
        assert q.dropped == 8
        assert q.get()[0] == 8
        assert q.get()[0] == 9


class TestReplay:
    def test_fast_replay_delivers_in_order(self, noisy_logs):
        import queue as queue_mod

        log = noisy_logs[0]
        cfg = StreamConfig(replay_speed=0.0, queue_capacity=100000)
        queues = make_queues(cfg)
        t0 = time.perf_counter()
        threads = replay(log, cfg, queues)
        for th in threads:
            th.join(timeout=30)
        assert time.perf_counter() - t0 < 0.2 * (log.ekf.t_us[-1] - log.ekf.t_us[0]) * 1e-6
        seen = []
        while True:
            try:
                item = queues["imu"].get_nowait()
            except queue_mod.Empty:
                break
            if isinstance(item, tuple):
                seen.append(item[0])
        assert len(seen) == len(log.imu)
        assert seen == sorted(seen)
        assert queues["imu"].dropped == 0

    def test_wall_clock_period(self, small_ckpt):
        # 3 s of real-time replay: predictions should arrive ~200 ms apart
        log = small_ckpt["val_log"].crop(0, 12_000_000)
        cfg = StreamConfig(replay_speed=4.0, queue_capacity=4096)
        queues = make_queues(cfg)
        threads = replay(log, cfg, queues)
        t_wall = []
        preds = []
        for p in online_infer(small_ckpt["ckpt"], queues, cfg, anchor_us=0):
            t_wall.append(time.perf_counter())
            preds.append(p)
        for th in threads:
            th.join(timeout=30)
        assert len(preds) >= 30
        gaps = np.diff(t_wall)
        # 200 ms bins replayed at 4x -> 50 ms cadence, scheduler tolerance wide
        assert abs(np.median(gaps) - 0.05) < 0.02


class TestOnlineInference:
    def test_bitwise_equivalence_zero_jitter(self, small_ckpt):
        log, ckpt = small_ckpt["val_log"], small_ckpt["ckpt"]
        report = compare_online_offline(log, ckpt, run_stream(log, ckpt, StreamConfig(jitter_ms=0.0, replay_speed=0.0)))
        assert report["bitwise_equal"]
        assert report["dropped_samples"] == 0
        assert max(report["max_abs_dev"]) == 0.0

    def test_jitter_deviation_bounded_and_deterministic(self, small_ckpt):
        cfg = StreamConfig(jitter_ms=1.0, replay_speed=0.0, seed=5)
        log, ckpt = small_ckpt["val_log"], small_ckpt["ckpt"]
        r1 = compare_online_offline(log, ckpt, run_stream(log, ckpt, cfg))
        r2 = compare_online_offline(log, ckpt, run_stream(log, ckpt, cfg))
        assert not r1["bitwise_equal"]
        assert 0.0 < max(r1["max_abs_dev"]) < 10.0
        assert r1["max_abs_dev"] == r2["max_abs_dev"]  # seeded jitter is reproducible

    def test_prediction_timestamps_monotone_one_per_period(self, small_ckpt):
        preds = run_stream(small_ckpt["val_log"], small_ckpt["ckpt"], StreamConfig(replay_speed=0.0))
        t = np.array([p.t_us for p in preds])
        assert np.all(np.diff(t) == 200_000)
        series = unify_rates(small_ckpt["val_log"])
        w = small_ckpt["window"]
        assert t[0] == series.t_us[w - 1]  # first prediction once the window fills

    def test_causality_no_future_samples(self, small_ckpt):
        # step the barometer altitude after mid-flight; predictions whose
        # windows end before the step must be unaffected, ones covering it not
        log = small_ckpt["val_log"]
        tampered = log.crop(0, log.ekf.t_us[-1])
        cut = tampered.baro.t_us > 30_000_000
        tampered.baro.alt_m[cut] += 1000.0
        p_ref = run_stream(log, small_ckpt["ckpt"], StreamConfig(replay_speed=0.0))
        p_tam = run_stream(tampered, small_ckpt["ckpt"], StreamConfig(replay_speed=0.0))
        n_early = sum(1 for p in p_ref if p.t_us <= 30_000_000)
        for a, b in zip(p_ref[:n_early], p_tam[:n_early]):
            assert np.array_equal(a.increment, b.increment)
        affected = next(i for i, p in enumerate(p_ref) if p.t_us > 30_200_000)
        assert not np.array_equal(p_ref[affected].increment, p_tam[affected].increment)

    def test_capacity_one_slow_consumer_no_deadlock(self, small_ckpt):
        log = small_ckpt["val_log"].crop(0, 20_000_000)
        # at 10x real time the consumer drains every 20 ms, ~17 IMU samples into a 1-slot queue
        cfg = StreamConfig(replay_speed=10.0, queue_capacity=1)
        queues = make_queues(cfg)
        threads = replay(log, cfg, queues)
        preds = []
        done = threading.Event()

        def consume():
            for p in online_infer(small_ckpt["ckpt"], queues, cfg, anchor_us=0):
                preds.append(p)
                time.sleep(0.01)  # artificially slow consumer
            done.set()

        worker = threading.Thread(target=consume, daemon=True)
        worker.start()
        assert done.wait(timeout=60.0), "consumer deadlocked"
        for th in threads:
            th.join(timeout=10)
            assert not th.is_alive()
        assert preds, "no predictions produced"
        assert preds[-1].dropped_samples > 0
        # queues stayed bounded by construction; drops were counted instead
        for q in queues.values():
            assert q._q.qsize() <= 1

    def test_queue_path_matches_offline(self, small_ckpt):
        # the wall-clock harness's queue draining, checked bitwise with no sample dropped
        log, ckpt = small_ckpt["val_log"], small_ckpt["ckpt"]
        cfg = StreamConfig(replay_speed=0.0, queue_capacity=len(log.imu) + 1)
        queues = make_queues(cfg)
        for th in replay(log, cfg, queues):
            th.join(timeout=30)
            assert not th.is_alive()
        preds = list(online_infer(ckpt, queues, cfg, anchor_us=int(log.ekf.t_us[0])))
        report = compare_online_offline(log, ckpt, preds)
        assert report["bitwise_equal"]
        assert report["dropped_samples"] == 0
        assert report["n_online"] >= report["n_offline"]

    @staticmethod
    def _late_barometer(delay_us: int):
        full = generate_flight(SynthConfig(duration_s=60.0, profile="circle", seed=31, noise=NoiseConfig.low_cost()))
        b = full.baro
        keep = b.t_us >= full.ekf.t_us[0] + delay_us
        return replace(full, baro=BaroStream(b.t_us[keep], b.values[keep]))

    def test_late_barometer_matches_offline(self, small_ckpt):
        # the barometer's first sample comes 0.5 s after the first bin edge:
        # its leading empty bins take that sample, online as offline
        log = self._late_barometer(500_000)
        assert log.defects(max_gap_s=1.0) == []
        ckpt = small_ckpt["ckpt"]
        report = compare_online_offline(log, ckpt, run_stream(log, ckpt, StreamConfig()))
        assert report["bitwise_equal"]

    def test_barometer_late_by_more_than_a_window_predicts_every_window(self, small_ckpt):
        # 5 s of held-back rows (25 bins, window 20) come out of one close;
        # each window they complete is predicted, at its own last edge
        log, ckpt = self._late_barometer(5_000_000), small_ckpt["ckpt"]
        preds = run_stream(log, ckpt, StreamConfig())
        report = compare_online_offline(log, ckpt, preds)
        assert report["bitwise_equal"]
        assert report["n_online"] == report["n_offline"] + 1  # the last window has no label offline
        series = unify_rates(log)
        w = small_ckpt["window"]
        assert [p.t_us for p in preds] == list(series.t_us[w - 1 :])

    def test_closed_loop_starts_no_thread(self, small_ckpt, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail(f"{self.name} started"))
        assert run_stream(small_ckpt["val_log"], small_ckpt["ckpt"], StreamConfig(replay_speed=0.0))

    def test_period_from_checkpoint(self, small_ckpt):
        ckpt = small_ckpt["ckpt"]
        meta = {**ckpt.meta, "period_ms": 100}
        preds = run_stream(small_ckpt["val_log"], Checkpoint(ckpt.params, ckpt.config, meta), StreamConfig())
        assert set(np.diff([p.t_us for p in preds])) == {100 * 1000}

    def test_jitter_below_half_a_period_keeps_edges_increasing(self, small_ckpt):
        preds = run_stream(small_ckpt["val_log"], small_ckpt["ckpt"], StreamConfig(jitter_ms=99.0))
        assert np.all(np.diff([p.t_us for p in preds]) > 0)

    def test_jitter_of_half_a_period_rejected_before_a_thread_starts(self, small_ckpt, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail(f"{self.name} started"))
        for speed in (0.0, 10.0):
            with pytest.raises(ConfigError, match="half the 200 ms bin period"):
                run_stream(small_ckpt["val_log"], small_ckpt["ckpt"], StreamConfig(jitter_ms=100.0, replay_speed=speed))

    def test_latency_reported(self, small_ckpt):
        preds = run_stream(small_ckpt["val_log"], small_ckpt["ckpt"], StreamConfig(replay_speed=0.0))
        assert all(p.latency_ms >= 0.0 for p in preds)
        assert all(np.all(np.isfinite(p.increment)) for p in preds)


class TestOfflineParity:
    def test_offline_reference_matches_predict_increments(self, small_ckpt):
        series = unify_rates(small_ckpt["val_log"])
        a = predict_increments(small_ckpt["ckpt"], series, batch_size=1)
        b = predict_increments(small_ckpt["ckpt"], series, batch_size=1)
        assert np.array_equal(a, b)

    def test_stream_equals_default_predict_increments(self, small_ckpt):
        log, ckpt = small_ckpt["val_log"], small_ckpt["ckpt"]
        online = np.array([p.increment for p in run_stream(log, ckpt, StreamConfig())])
        offline = predict_increments(ckpt, unify_rates(log))
        assert len(online) == len(offline) + 1
        assert np.array_equal(online[:-1], offline)

    def test_predict_increments_ignores_batch_size(self, small_ckpt):
        series = unify_rates(small_ckpt["val_log"])
        ref = predict_increments(small_ckpt["ckpt"], series)
        for batch_size in (1, 7, 256):
            assert np.array_equal(predict_increments(small_ckpt["ckpt"], series, batch_size=batch_size), ref)

    def test_online_count_matches_bins(self, small_ckpt):
        preds = run_stream(small_ckpt["val_log"], small_ckpt["ckpt"], StreamConfig(replay_speed=0.0))
        series = unify_rates(small_ckpt["val_log"])
        n_rows = len(series)
        w = small_ckpt["window"]
        # one prediction per bin once the window is full
        assert abs(len(preds) - (n_rows - w + 1)) <= 1


def test_stream_config_validation():
    with pytest.raises(ConfigError):
        StreamConfig(queue_capacity=0)
    with pytest.raises(ConfigError):
        StreamConfig(jitter_ms=-1.0)
