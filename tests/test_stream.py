import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navrnn.errors import ConfigError
from navrnn.evaluate import predict_increments
from navrnn.flightlog import BaroStream, EkfStream, FlightLog, ImuStream, MagStream
from navrnn.preprocess import SENSORS, FeatureAssembler, Normalization, unify_rates
from navrnn.rnn import Checkpoint, Rolling
from navrnn.stream import (
    _DONE,
    SensorQueue,
    StreamConfig,
    _ArrayReader,
    _QueueReader,
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
            q.put((i, np.array([i]), np.zeros((1, 1))))
        assert q.dropped == 8
        assert q.get()[0] == 8
        assert q.get()[0] == 9

    def test_capacity_counts_samples(self):
        # a put drops the oldest chunks until its own fits; a chunk larger
        # than the queue keeps its newest samples
        q = SensorQueue(capacity=5)
        for mark, n in ((0, 2), (1, 2), (2, 2)):
            q.put((mark, np.arange(n), np.zeros((n, 1))))
        assert q.dropped == 2
        q.put((3, np.arange(7), np.zeros((7, 1))))
        q.put(_DONE)
        assert q.dropped == 2 + 4 + 2
        mark, t_us, _ = q.get()
        assert (mark, t_us.tolist()) == (3, [2, 3, 4, 5, 6])
        assert q.get() is _DONE


class TestReplay:
    def test_fast_replay_delivers_in_order(self, noisy_logs, small_ckpt):
        log = noisy_logs[0]
        cfg = StreamConfig(replay_speed=0.0, queue_capacity=100000)
        queues = make_queues(cfg)
        anchor_us = int(log.ekf.t_us[0])
        online_infer(small_ckpt["ckpt"], queues, cfg, anchor_us=anchor_us)  # hands the producers its 200 ms bin grid
        t0 = time.perf_counter()
        threads = replay(log, cfg, queues)
        for th in threads:
            th.join(timeout=30)
        assert time.perf_counter() - t0 < 0.2 * (log.ekf.t_us[-1] - log.ekf.t_us[0]) * 1e-6
        chunks = []
        while (item := queues["imu"].get(timeout=1.0)) is not _DONE:
            chunks.append(item)
        # one chunk per bin edge up to the last sample; every sample once, in order, by its watermark
        marks = [mark for mark, _, _ in chunks]
        assert marks == [anchor_us + k * 200_000 for k in range(1, len(chunks) + 1)]
        assert marks[-2] < log.imu.t_us[-1] <= marks[-1]
        assert np.array_equal(np.concatenate([t for _, t, _ in chunks]), log.imu.t_us)
        assert np.array_equal(np.concatenate([v for _, _, v in chunks]), log.imu.values)
        assert all(len(t) == 0 or t[-1] <= mark for mark, t, _ in chunks)
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

    @pytest.mark.parametrize("offsets", [lambda n: 0, lambda n: 90_000,
                                         lambda n: np.random.default_rng(22).integers(-40_000, 40_001, n)],
                             ids=["0", "90000", "jitter40ms"])
    def test_off_grid_estimator_times_match_offline(self, small_ckpt, offsets):
        # estimator timestamps after the first moved off the stream's anchor + k·period grid: the
        # offline reference bins on that grid too, so the zero-jitter stream gives its bits
        log, ckpt = small_ckpt["val_log"], small_ckpt["ckpt"]
        log = _moved_estimator(log, offsets(len(log.ekf)))
        report = compare_online_offline(log, ckpt, run_stream(log, ckpt, StreamConfig()))
        assert report["bitwise_equal"]
        assert max(report["max_abs_dev"]) == 0.0
        assert report["n_compared"] == report["n_offline"] > 300

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
        # at 10x real time the consumer drains every 20 ms, ~17 IMU samples into a 1-sample queue
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
        assert preds[len(preds) // 2].dropped_samples > 0  # the queues overflow throughout, not only at the end
        assert preds[-1].dropped_samples > 0
        # queues stayed bounded by construction; drops were counted instead
        for q in queues.values():
            assert q.qsize() <= 1

    def test_fast_wall_clock_replay_matches_offline(self, small_ckpt):
        # at 200x a bin lasts 1 ms of wall time: the consumer waits for each
        # bin's chunks, so no sample at an edge races into the next bin
        log, ckpt = small_ckpt["val_log"].crop(0, 40_000_000), small_ckpt["ckpt"]
        preds = run_stream(log, ckpt, StreamConfig(replay_speed=200.0, queue_capacity=4096))
        report = compare_online_offline(log, ckpt, preds)
        assert report["bitwise_equal"]
        assert report["dropped_samples"] == 0
        assert not any(p.carried_imu for p in preds)

    @pytest.mark.parametrize("jitter_ms, ekf_shift_us", [(20.0, 0), (0.0, 90_000)], ids=["jitter", "off_grid_ekf"])
    def test_wall_clock_lateness_below_a_period(self, small_ckpt, jitter_ms, ekf_shift_us):
        # edges moved by jitter, or estimator times off the bin grid, still get
        # their chunk at their own due time: no prediction waits for a later one
        log, speed = small_ckpt["val_log"].crop(0, 12_000_000), 4.0
        ekf_t = log.ekf.t_us + np.where(np.arange(len(log.ekf)) > 0, ekf_shift_us, 0)
        log = replace(log, ekf=EkfStream(ekf_t, log.ekf.values))
        cfg = StreamConfig(jitter_ms=jitter_ms, replay_speed=speed, queue_capacity=4096, seed=3)
        queues = make_queues(cfg)
        t0 = int(min(log.imu.t_us[0], log.baro.t_us[0], log.mag.t_us[0]))
        threads = replay(log, cfg, queues)
        start = time.perf_counter()
        lateness_ms = []
        for p in online_infer(small_ckpt["ckpt"], queues, cfg, anchor_us=int(log.ekf.t_us[0])):
            lateness_ms.append((time.perf_counter() - (start + (p.t_us - t0) * 1e-6 / speed)) * 1e3)
        for th in threads:
            th.join(timeout=30)
            assert not th.is_alive()
        assert len(lateness_ms) >= 30
        # one period is 50 ms of wall time; waiting for the next chunk would cost most of one
        assert np.percentile(lateness_ms, 90) < 12.5

    def test_drops_counted_per_sensor(self, small_ckpt):
        # a 3-sample barometer queue keeps its last three samples and _DONE;
        # its rows wait for the first kept sample, then come out together
        log, ckpt = small_ckpt["val_log"].crop(0, 20_000_000), small_ckpt["ckpt"]
        cfg = StreamConfig(queue_capacity=len(log.imu))
        queues = {**make_queues(cfg), "baro": SensorQueue(3)}
        consumer = online_infer(ckpt, queues, cfg, anchor_us=0)
        for th in replay(log, cfg, queues):
            th.join(timeout=30)
            assert not th.is_alive()
        preds = list(consumer)
        assert preds
        for p in preds:
            assert p.dropped == {"imu": 0, "baro": len(log.baro) - 3, "mag": 0}
            assert p.dropped_samples == len(log.baro) - 3
        assert compare_online_offline(log, ckpt, preds)["dropped"] == preds[-1].dropped

    def test_queue_path_matches_offline(self, small_ckpt):
        # the wall-clock harness's queue draining, checked bitwise with no sample dropped
        log, ckpt = small_ckpt["val_log"], small_ckpt["ckpt"]
        cfg = StreamConfig(replay_speed=0.0, queue_capacity=len(log.imu) + 1)
        queues = make_queues(cfg)
        consumer = online_infer(ckpt, queues, cfg, anchor_us=int(log.ekf.t_us[0]))
        for th in replay(log, cfg, queues):
            th.join(timeout=30)
            assert not th.is_alive()
        preds = list(consumer)
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
        ckpt = Checkpoint(ckpt.params, ckpt.config, {**ckpt.meta, "period_ms": 100})
        preds = run_stream(small_ckpt["val_log"], ckpt, StreamConfig())
        assert set(np.diff([p.t_us for p in preds])) == {100 * 1000}
        # the offline reference bins the 200 ms estimator log at the checkpoint's 100 ms too
        report = compare_online_offline(small_ckpt["val_log"], ckpt, preds)
        assert report["bitwise_equal"]
        assert report["n_compared"] == report["n_offline"] > 600

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


def _moved_estimator(log: FlightLog, offsets_us) -> FlightLog:
    """The log with its estimator timestamps after the first moved by offsets_us."""
    ekf_t = log.ekf.t_us + np.where(np.arange(len(log.ekf)) > 0, offsets_us, 0)
    return replace(log, ekf=EkfStream(ekf_t, log.ekf.values))


def _arrival_pattern(draw):
    """A log on a small integer clock: each bin (edge, next edge] holds at
    least one inertial sample; barometer and magnetometer bins may be empty,
    and either may start late. Sample times often fall exactly on an edge."""
    edges = np.cumsum([draw(st.integers(-3, 3)), *draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))])
    lo, hi = int(edges[0]) - 3, int(edges[-1]) + 3
    near_edges = st.one_of(st.sampled_from(edges.tolist()), st.integers(lo, hi))
    imu = set(draw(st.sets(near_edges, max_size=12)))
    for a, b in zip(edges[:-1], edges[1:]):
        imu |= draw(st.sets(st.integers(int(a) + 1, int(b)), min_size=1))
    times = {"imu": sorted(imu)}
    for name in ("baro", "mag"):
        times[name] = sorted(draw(st.sets(near_edges, min_size=1, max_size=12).filter(lambda t: min(t) <= edges[-1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    streams = {n: (np.array(t, dtype=np.int64), rng.normal(size=(len(t), SENSORS[n]))) for n, t in times.items()}
    ekf = np.zeros((len(edges), 10))
    ekf[:, 0] = 1.0
    log = FlightLog(
        log_id="pattern",
        vehicle_type="quadrotor",
        source="synthetic",
        imu=ImuStream(*streams["imu"]),
        baro=BaroStream(*streams["baro"]),
        mag=MagStream(*streams["mag"]),
        ekf=EkfStream(edges, ekf),
    )
    return log, streams


def _chunked_queue(draw, name: str, t_us: np.ndarray, values: np.ndarray) -> _QueueReader:
    """One sensor's samples as chunks cut anywhere, empty chunks included; a
    chunk's watermark is at or after its samples and before the next chunk's."""
    cuts = sorted(draw(st.lists(st.integers(0, len(t_us)), max_size=6)))
    q = SensorQueue(len(t_us))
    mark = int(t_us[0]) - 10
    for a, b in zip([0, *cuts], [*cuts, len(t_us)]):
        floor = max(mark, int(t_us[b - 1])) if b > a else mark
        ceiling = int(t_us[b]) - 1 if b < len(t_us) else floor + 5
        mark = draw(st.integers(floor, ceiling))
        q.put((mark, t_us[a:b], values[a:b]))
    q.put(_DONE)
    return _QueueReader(name, q, timeout=1.0)


def _rows(readers: dict, edges: np.ndarray) -> tuple[np.ndarray, dict]:
    """Feature rows and empty-bin flags from feeding a FeatureAssembler edge by edge, as the consumer does."""
    assembler = FeatureAssembler(edges[0])
    rows, empty = [], {name: [] for name in SENSORS}
    for edge in edges[1:]:
        for name, reader in readers.items():
            t, values, _ = reader.take(int(edge))
            assembler.add(name, t, values)
        features, flags = assembler.close([edge])
        rows.extend(features)
        for name in SENSORS:
            empty[name].extend(flags[name])
    return np.array(rows), empty


class TestBinningPaths:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_array_queue_and_whole_log_agree(self, data):
        # on irregular edges, the closed loop's arrays and the wall-clock queues in chunks
        # cut anywhere give the rows of one assembler fed the whole log, bit for bit
        log, streams = _arrival_pattern(data.draw)
        edges = log.ekf.t_us
        whole = FeatureAssembler(edges[0])
        for name in SENSORS:
            whole.add(name, *streams[name])
        features_ref, empty_ref = whole.close(edges[1:])
        from_arrays = _rows({name: _ArrayReader(getattr(log, name)) for name in SENSORS}, edges)
        from_queues = _rows({name: _chunked_queue(data.draw, name, *streams[name]) for name in SENSORS}, edges)
        for features, empty in (from_arrays, from_queues):
            assert np.array_equal(features, features_ref)
            assert not any(empty["imu"])
            for name in SENSORS:
                assert np.array_equal(empty[name], empty_ref[name])


class TestOfflineParity:
    def test_offline_reference_matches_predict_increments(self, small_ckpt):
        ckpt, series = small_ckpt["ckpt"], unify_rates(small_ckpt["val_log"])
        norm = Normalization(mean=ckpt.meta["feature_mean"], std=ckpt.meta["feature_std"])
        rolling = Rolling(ckpt.params, ckpt.meta["window"])
        pushed = [rolling.push(row) for row in norm.apply(series.features[: len(series.labels)])]
        got = predict_increments(ckpt, series, batch_size=1)
        assert got.tobytes() == np.array(pushed[ckpt.meta["window"] - 1 :]).tobytes()

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
