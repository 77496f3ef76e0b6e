from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navrnn import evaluate
from navrnn.errors import DataError
from navrnn.evaluate import (
    aggregate_metrics,
    baseline_flight_metrics,
    compute_mpe,
    compute_tn_mpe,
    evaluate_flight,
    predict_increments,
    reconstruct_path,
)
from navrnn.flightlog import EkfStream
from navrnn.preprocess import unify_rates
from navrnn.rnn import Checkpoint
from oracles import difference


class TestReconstruct:
    def test_zero_increments(self):
        pos, vel = reconstruct_path(np.zeros((10, 6)), (np.ones(3), np.zeros(3)))
        np.testing.assert_array_equal(pos, np.ones((11, 3)))
        np.testing.assert_array_equal(vel, np.zeros((11, 3)))

    def test_unit_steps(self):
        inc = np.zeros((7, 6))
        inc[:, 0] = 1.0
        pos, _ = reconstruct_path(inc, (np.array([2.0, 0, 0]), np.zeros(3)))
        np.testing.assert_allclose(pos[-1], [9.0, 0.0, 0.0])

    def test_single_corruption_gives_constant_offset(self, rng):
        inc = rng.standard_normal((50, 6))
        pos_clean, _ = reconstruct_path(inc, (np.zeros(3), np.zeros(3)))
        corrupted = inc.copy()
        corrupted[20, 1] += 5.0
        pos_bad, _ = reconstruct_path(corrupted, (np.zeros(3), np.zeros(3)))
        delta = pos_bad - pos_clean
        np.testing.assert_allclose(delta[:21], 0.0, atol=1e-12)
        np.testing.assert_allclose(delta[21:, 1], 5.0, atol=1e-9)
        np.testing.assert_allclose(delta[21:, [0, 2]], 0.0, atol=1e-12)

    def test_inverse_of_difference(self, rng):
        states = rng.standard_normal((40, 6))
        inc = difference(states)
        pos, vel = reconstruct_path(inc, (states[0, :3], states[0, 3:]))
        np.testing.assert_allclose(np.hstack([pos, vel]), states, atol=1e-12)


class TestMetrics:
    def test_identical_paths(self, rng):
        p = rng.standard_normal((30, 3))
        assert compute_mpe(p, p) == 0.0

    def test_pythagorean_offset(self, rng):
        p = rng.standard_normal((30, 3))
        assert compute_mpe(p + np.array([3.0, 4.0, 0.0]), p) == pytest.approx(5.0, abs=1e-12)

    def test_mve_offset(self, rng):
        v = rng.standard_normal((30, 3))
        assert compute_mpe(v + np.array([0.6, 0.8, 0.0]), v) == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            compute_mpe(np.zeros((5, 3)), np.zeros((6, 3)))

    def test_tn_mpe_reference_arithmetic(self):
        assert compute_tn_mpe(103.72, 0.73) == pytest.approx(142.08, abs=0.01)
        assert compute_tn_mpe(0.0, 5.0) == 0.0
        assert compute_tn_mpe(60.0, 5.0) == pytest.approx(12.0)

    def test_tn_mpe_zero_duration(self):
        with pytest.raises(DataError):
            compute_tn_mpe(10.0, 0.0)

    def test_tn_mpe_orders_by_duration(self):
        assert compute_tn_mpe(50.0, 2.0) > compute_tn_mpe(50.0, 4.0)

    def test_brute_force_recomputation(self, rng):
        for _ in range(20):
            n = rng.integers(5, 60)
            pred = rng.standard_normal((n, 3)) * 10
            true = rng.standard_normal((n, 3)) * 10
            brute = 0.0
            for i in range(n):
                d = np.sqrt(sum((pred[i, j] - true[i, j]) ** 2 for j in range(3)))
                brute = max(brute, d)
            assert compute_mpe(pred, true) == pytest.approx(brute, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_mpe_invariances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 30))
        pred = rng.standard_normal((n, 3))
        true = rng.standard_normal((n, 3))
        base = compute_mpe(pred, true)
        shift = rng.standard_normal(3)
        assert compute_mpe(pred + shift, true + shift) == pytest.approx(base, rel=1e-9)
        from scipy.spatial.transform import Rotation

        rot = Rotation.random(random_state=int(seed % 2**31)).as_matrix()
        assert compute_mpe(pred @ rot.T, true @ rot.T) == pytest.approx(base, rel=1e-9)


class TestEvaluateFlight:
    def test_ground_truth_as_predictions_gives_zero(self, small_ckpt):
        # feed the true increments through the reconstruction/metric path
        log = small_ckpt["val_log"]
        series = unify_rates(log)
        w = small_ckpt["window"]
        inc = series.labels[w - 1 :]
        pos, vel = reconstruct_path(inc, (series.state_pos[w - 1], series.state_vel[w - 1]))
        assert compute_mpe(pos, series.state_pos[w - 1 :]) < 1e-9
        assert compute_mpe(vel, series.state_vel[w - 1 :]) < 1e-9

    def test_trained_net_beats_biased_dead_reckoning(self, small_ckpt):
        log = small_ckpt["val_log"]
        series = unify_rates(log)
        m = evaluate_flight(small_ckpt["ckpt"], series)
        b = baseline_flight_metrics(log, series, small_ckpt["window"])
        assert m.mpe_m < b.mpe_m

    def test_baseline_attitude_is_the_last_estimator_sample_at_the_start(self, small_ckpt, monkeypatch):
        # row w-1 ends at estimator sample w on the grid; with the estimator 90 ms late, sample w
        # comes after that edge, so the integrator starts from sample w-1
        log, w = small_ckpt["val_log"], small_ckpt["window"]
        starts = []
        dead_reckon = evaluate.dead_reckon
        monkeypatch.setattr(evaluate, "dead_reckon",
                            lambda *args, init: starts.append(init) or dead_reckon(*args, init=init))
        for shift_us in (0, 90_000):
            ekf_t = log.ekf.t_us + np.where(np.arange(len(log.ekf)) > 0, shift_us, 0)
            moved = replace(log, ekf=EkfStream(ekf_t, log.ekf.values))
            series = unify_rates(moved, 200)
            baseline_flight_metrics(moved, series, w)
            assert starts[-1].t_us == series.t_us[w - 1] == log.ekf.t_us[w]
        assert np.array_equal(starts[0].quat, log.ekf.quat[w])
        assert np.array_equal(starts[1].quat, log.ekf.quat[w - 1])

    def test_metric_fields_consistent(self, small_ckpt):
        m = evaluate_flight(small_ckpt["ckpt"], unify_rates(small_ckpt["val_log"]))
        assert m.tn_mpe_m_per_min == pytest.approx(m.mpe_m / m.duration_min)
        assert m.mpe_m == pytest.approx(np.max(m.pos_error_m))
        # the reported metrics are the ones the brute-force oracle checks
        assert m.mpe_m == compute_mpe(m.pred_pos, m.true_pos)
        assert m.mve_mps == compute_mpe(m.pred_vel, m.true_vel)
        assert len(m.pos_error_m) == len(m.t_us)
        assert m.pos_error_m[0] == 0.0  # starts from the true state
        assert m.distance_m > 0

    def test_too_short_flight(self, small_ckpt):
        log = small_ckpt["val_log"].crop(0, 2_000_000)
        with pytest.raises(DataError):
            evaluate_flight(small_ckpt["ckpt"], unify_rates(log))

    def test_prediction_count_at_the_window_boundary(self, small_ckpt):
        ckpt = small_ckpt["ckpt"]
        series = unify_rates(small_ckpt["val_log"])
        n = len(series.labels)
        at_edge = Checkpoint(ckpt.params, ckpt.config, dict(ckpt.meta, window=n))
        assert predict_increments(at_edge, series).shape == (1, 6)
        with pytest.raises(DataError, match="too short"):
            predict_increments(Checkpoint(ckpt.params, ckpt.config, dict(ckpt.meta, window=n + 1)), series)

    def test_artifacts_written(self, small_ckpt, tmp_path):
        m = evaluate_flight(small_ckpt["ckpt"], unify_rates(small_ckpt["val_log"]))
        m.save(tmp_path / "metrics.json")
        m.write_path_compare(tmp_path / "cmp.csv")
        import json

        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["mpe_m"] == pytest.approx(m.mpe_m)
        lines = (tmp_path / "cmp.csv").read_text().splitlines()
        assert len(lines) == len(m.t_us) + 1


class TestAggregate:
    def _metric(self, mpe, tn=None, mve=1.0):
        from navrnn.evaluate import FlightMetrics

        return FlightMetrics(
            log_id="x", mpe_m=mpe, tn_mpe_m_per_min=tn if tn is not None else mpe, mve_mps=mve,
            duration_min=1.0, distance_m=10.0, pos_error_m=np.zeros(1), vel_error_mps=np.zeros(1),
            t_us=np.zeros(1, dtype=np.int64), true_pos=np.zeros((1, 3)), pred_pos=np.zeros((1, 3)),
            true_vel=np.zeros((1, 3)), pred_vel=np.zeros((1, 3)),
        )

    def test_single_flight(self):
        s = aggregate_metrics([self._metric(7.0)])
        assert s["mpe_m"] == {"mean": 7.0, "median": 7.0, "p90": 7.0, "best": 7.0, "worst": 7.0}

    def test_p90_nearest_rank_brute_force(self):
        # the smallest value that at least 90% of the flights are at or below
        rng = np.random.default_rng(0)
        for n in range(1, 32):
            values = rng.integers(0, 8, n).astype(float)  # ties included
            s = aggregate_metrics([self._metric(1.0, mve=v) for v in values])
            assert s["mve_mps"]["p90"] == min(v for v in values if 10 * np.sum(values <= v) >= 9 * n)

    def test_lower_median_convention(self):
        s = aggregate_metrics([self._metric(v) for v in [1.0, 2.0, 3.0, 100.0]])
        assert s["mpe_m"]["median"] == 2.0
        assert s["mpe_m"]["mean"] == pytest.approx(26.5)
        assert s["mpe_m"]["best"] == 1.0
        assert s["mpe_m"]["worst"] == 100.0

    def test_empty_errors(self):
        with pytest.raises(DataError):
            aggregate_metrics([])
