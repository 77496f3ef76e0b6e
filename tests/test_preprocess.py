from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from navrnn.errors import ConfigError, DataError, EmptyBinError, ValidationError
from navrnn import flightlog
from navrnn.flightlog import (
    BaroStream,
    EkfStream,
    FlightLog,
    ImuStream,
    MagStream,
    read_flight_log,
    write_flight_log,
)
from navrnn.preprocess import (
    Cleanup,
    FeatureAssembler,
    Normalization,
    Trim,
    UnifiedSeries,
    build_dataset,
    clean_log,
    compute_signal_weights,
    detect_corrupted,
    flight_span,
    load_windows,
    save_windows,
    split_dataset,
    unify_rates,
)
from navrnn.synth import DatasetManifest, LogEntry, SynthConfig, generate_flight
from oracles import difference


def _log_from_arrays(t_imu, gyro, accel, t_baro, temp, alt, t_mag, mag, t_ekf, pos, vel):
    n_ekf = len(t_ekf)
    quat = np.zeros((n_ekf, 4))
    quat[:, 0] = 1.0
    return FlightLog(
        log_id="manual",
        vehicle_type="quadrotor",
        source="synthetic",
        imu=ImuStream(t_imu, np.hstack([gyro, accel])),
        baro=BaroStream(t_baro, np.column_stack([temp, alt])),
        mag=MagStream(t_mag, mag),
        ekf=EkfStream(t_ekf, np.hstack([quat, vel, pos])),
    )


def _constant_log(c=3.25, n_ekf=6):
    t_ekf = np.arange(n_ekf, dtype=np.int64) * 200000
    t_fast = np.arange(1, n_ekf * 20, dtype=np.int64) * 10000
    n = len(t_fast)
    return _log_from_arrays(
        t_fast,
        np.full((n, 3), c),
        np.full((n, 3), c),
        t_fast,
        np.full(n, c),
        np.full(n, c),
        t_fast,
        np.full((n, 3), c),
        t_ekf,
        np.zeros((n_ekf, 3)),
        np.zeros((n_ekf, 3)),
    )


class TestUnifyRates:
    def test_row_count_at_standard_rates(self):
        log = generate_flight(SynthConfig(duration_s=60.0, profile="circle", seed=0))
        series = unify_rates(log)
        assert len(series) == len(log.ekf) - 1 == 300
        assert len(series.labels) == 299

    def test_constant_streams(self):
        c = 3.25
        series = unify_rates(_constant_log(c))
        np.testing.assert_array_equal(series.features[:, 0:6], c)
        np.testing.assert_array_equal(series.features[:, 6], c)  # temperature raw
        np.testing.assert_array_equal(series.features[:, 7], 0.0)  # altitude differenced
        np.testing.assert_array_equal(series.features[:, 8:], c)

    def test_bin_average_hand_oracle(self):
        t_ekf = np.array([0, 200000, 400000], dtype=np.int64)
        t_imu = np.array([50000, 100000, 150000, 250000], dtype=np.int64)
        gyro = np.array([[1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0], [7.0, 0, 0]])
        accel = np.zeros((4, 3))
        t_slow = np.array([100000, 300000], dtype=np.int64)
        series = unify_rates(
            _log_from_arrays(
                t_imu, gyro, accel,
                t_slow, np.array([20.0, 21.0]), np.array([5.0, 8.0]),
                t_slow, np.array([[0.2, 0, 0.4], [0.3, 0, 0.4]]),
                t_ekf, np.zeros((3, 3)), np.zeros((3, 3)),
            )
        )
        assert series.features[0, 0] == pytest.approx(2.0)  # mean of {1,2,3}
        assert series.features[1, 0] == pytest.approx(7.0)
        assert series.features[0, 7] == 0.0
        assert series.features[1, 7] == pytest.approx(8.0 - 5.0)

    def test_brute_force_oracle(self, noisy_logs):
        log = noisy_logs[0]
        series = unify_rates(log)
        t_edges = log.ekf.t_us
        k = 7
        mask = (log.imu.t_us > t_edges[k]) & (log.imu.t_us <= t_edges[k + 1])
        expected = sum(log.imu.gyro[mask, 1]) / mask.sum()  # plain sequential sum
        assert series.features[k, 1] == pytest.approx(expected, rel=1e-12)

    def test_conserves_sample_mass(self, noisy_logs):
        log = noisy_logs[1]
        t_edges = log.ekf.t_us
        inside = np.sum((log.mag.t_us > t_edges[0]) & (log.mag.t_us <= t_edges[-1]))
        series = unify_rates(log)
        # every inside sample lands in exactly one bin: recount via searchsorted
        idx = np.searchsorted(t_edges, log.mag.t_us, side="left") - 1
        counted = np.sum((idx >= 0) & (idx < len(series)))
        assert counted == inside

    def test_assembler_fed_per_edge_matches_whole_log(self, noisy_logs):
        # the barometer starts 0.5 s late and the magnetometer has a 1 s gap
        log = noisy_logs[0]
        t_edges = log.ekf.t_us
        b, m = log.baro, log.mag
        kb = b.t_us >= t_edges[0] + 500_000
        km = (m.t_us < 20_000_000) | (m.t_us > 21_000_000)
        log = replace(log, baro=BaroStream(b.t_us[kb], b.values[kb]), mag=MagStream(m.t_us[km], m.values[km]))
        series = unify_rates(log)
        assert series.baro_carried >= 2 and series.mag_carried >= 4
        assembler = FeatureAssembler(t_edges[0])
        rows = []
        for lo, hi in zip(t_edges[:-1], t_edges[1:]):
            for name, stream in (("imu", log.imu), ("baro", log.baro), ("mag", log.mag)):
                t = stream.t_us
                inside = (t > lo) & (t <= hi) if lo > t_edges[0] else t <= hi
                assembler.add(name, t[inside], stream.values[inside])
            features, _ = assembler.close([hi])
            rows.extend(features)
        np.testing.assert_array_equal(np.array(rows), series.features)

    def test_empty_imu_bin_is_fatal(self):
        t_ekf = np.array([0, 200000, 400000], dtype=np.int64)
        t_imu = np.array([50000], dtype=np.int64)  # nothing in the second bin
        with pytest.raises(EmptyBinError):
            unify_rates(
                _log_from_arrays(
                    t_imu, np.zeros((1, 3)), np.zeros((1, 3)),
                    t_imu, np.zeros(1), np.zeros(1),
                    t_imu, np.zeros((1, 3)),
                    t_ekf, np.zeros((3, 3)), np.zeros((3, 3)),
                )
            )

    def test_empty_baro_bin_carried_forward(self):
        t_ekf = np.array([0, 200000, 400000, 600000], dtype=np.int64)
        t_imu = np.arange(1, 60, dtype=np.int64) * 10000
        n = len(t_imu)
        t_baro = np.array([150000, 550000], dtype=np.int64)  # middle bin empty
        series = unify_rates(
            _log_from_arrays(
                t_imu, np.zeros((n, 3)), np.zeros((n, 3)),
                t_baro, np.array([20.0, 22.0]), np.array([5.0, 9.0]),
                t_imu, np.zeros((n, 3)),
                t_ekf, np.zeros((4, 3)), np.zeros((4, 3)),
            )
        )
        assert series.baro_carried == 1
        assert series.features[1, 6] == series.features[0, 6] == 20.0
        assert series.features[1, 7] == 0.0  # carried mean differences to zero
        assert series.features[2, 7] == pytest.approx(9.0 - 5.0)

    def test_labels_are_state_increments(self, noisy_logs):
        log = noisy_logs[0]
        series = unify_rates(log)
        expected = np.hstack([np.diff(log.ekf.pos_ned[1:], axis=0), np.diff(log.ekf.vel_ned[1:], axis=0)])
        np.testing.assert_array_equal(series.labels, expected)
        assert series.t_us[0] == log.ekf.t_us[1]

    @settings(max_examples=40, deadline=None)
    @given(period_ms=st.sampled_from([100, 200]), spread=st.floats(0.0, 0.45), seed=st.integers(0, 2**32 - 1))
    @example(period_ms=200, spread=0.0, seed=0)
    def test_bins_end_on_the_anchor_grid(self, noisy_logs, period_ms, spread, seed):
        # estimator times after the first moved by up to ±45% of their 200 ms step: the bins
        # still end at t0 + k·period, and the states are the estimator's interpolated there
        log = noisy_logs[1].crop(0, 20_000_000)
        offsets = np.round(np.random.default_rng(seed).uniform(-spread, spread, len(log.ekf)) * 200_000)
        offsets[0] = 0
        log = replace(log, ekf=EkfStream(log.ekf.t_us + offsets.astype(np.int64), log.ekf.values))
        t = log.ekf.t_us
        edges = [int(t[0]) + period_ms * 1000]
        while edges[-1] + period_ms * 1000 <= t[-1]:
            edges.append(edges[-1] + period_ms * 1000)
        series = unify_rates(log, period_ms)
        assert series.t_us.tolist() == edges
        assembler = FeatureAssembler(t[0])
        for name in ("imu", "baro", "mag"):
            assembler.add(name, getattr(log, name).t_us, getattr(log, name).values)
        rows, empty = assembler.close(edges)
        assert np.array_equal(series.features, rows)
        assert (series.baro_carried, series.mag_carried) == (empty["baro"].sum(), empty["mag"].sum())
        for got, values in ((series.state_pos, log.ekf.pos_ned), (series.state_vel, log.ekf.vel_ned)):
            want = np.column_stack([np.interp(edges, t, values[:, c]) for c in range(3)])
            assert got.tobytes() == want.tobytes()
            i = np.searchsorted(t, edges, side="right") - 1  # the hand interpolation, to rounding
            j = np.minimum(i + 1, len(t) - 1)
            frac = ((edges - t[i]) / np.maximum(t[j] - t[i], 1))[:, None]
            np.testing.assert_allclose(got, values[i] + frac * (values[j] - values[i]), rtol=1e-12, atol=1e-9)
        assert np.array_equal(series.labels, np.diff(np.hstack([series.state_pos, series.state_vel]), axis=0))
        if spread == 0 and period_ms == 200:  # on the grid: the estimator samples, bit for bit
            assert np.array_equal(series.t_us, t[1:])
            assert series.state_pos.tobytes() == log.ekf.pos_ned[1:].tobytes()
            assert series.state_vel.tobytes() == log.ekf.vel_ned[1:].tobytes()

    def test_period_defaults_to_the_median_estimator_step(self, noisy_logs):
        log = noisy_logs[0].crop(0, 20_000_000)
        t_us = log.ekf.t_us[::2] + np.where(np.arange(len(log.ekf.t_us[::2])) > 0, 1_400, 0)  # 400 ms steps, one 401.4
        slow = replace(log, ekf=EkfStream(t_us, log.ekf.values[::2]))
        series = unify_rates(slow)
        assert set(np.diff(series.t_us)) == {400_000}
        assert series.t_us[0] == slow.ekf.t_us[0] + 400_000

    def test_on_grid_states_keep_negative_zero(self):
        log = _constant_log()
        values = log.ekf.values.copy()
        values[:, 4:] = -0.0  # velocity and position
        log = replace(log, ekf=EkfStream(log.ekf.t_us, values))
        series = unify_rates(log)
        assert series.state_pos.tobytes() == log.ekf.pos_ned[1:].tobytes()
        assert series.state_vel.tobytes() == log.ekf.vel_ned[1:].tobytes()
        assert np.signbit(series.state_vel).all()

    @pytest.mark.parametrize("period_ms", [0, -200, 1_200])
    def test_period_must_fit(self, period_ms):
        with pytest.raises(DataError, match="at least 1 ms"):
            unify_rates(_constant_log(), period_ms)

    def test_sub_millisecond_estimator_steps_have_no_period(self):
        log = _constant_log()
        with pytest.raises(DataError, match="0 ms bin period"):
            unify_rates(replace(log, ekf=EkfStream(log.ekf.t_us // 500, log.ekf.values)))


class TestDifference:
    """The differencing oracle of criterion 3, against hand values."""

    def test_constant_sequence(self):
        assert np.all(difference(np.ones((10, 3))) == 0.0)

    def test_hand_oracle(self):
        np.testing.assert_array_equal(difference(np.array([1.0, 4.0, 9.0])), [3.0, 5.0])

    def test_length_shrinks_by_one(self, rng):
        x = rng.standard_normal((17, 6))
        assert difference(x).shape == (16, 6)

    def test_too_short(self):
        with pytest.raises(ValueError):
            difference(np.array([1.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31))
    def test_cumsum_inverse(self, n, seed):
        x = np.random.default_rng(seed).standard_normal((n, 4))
        rebuilt = np.vstack([x[0], x[0] + np.cumsum(difference(x), axis=0)])
        np.testing.assert_allclose(rebuilt, x, atol=1e-12)


def _trim(log, trim=Trim()):
    """The log cropped to its flight span, as cleanup crops an accepted log."""
    return log.crop(*flight_span(log.ekf, trim))


def _span_by_loop(ekf, vel_thresh_mps, hold_s):
    """The run-scanning loop flight_span replaced, kept as its reference."""
    moving = np.linalg.norm(ekf.vel_ned, axis=1) > vel_thresh_mps
    dt_med = float(np.median(np.diff(ekf.t_us))) * 1e-6 if len(ekf) > 1 else 0.2
    hold_n = max(1, int(round(hold_s / max(dt_med, 1e-6))))
    runs, i = [], 0
    while i < len(moving):
        j = i
        while j < len(moving) and moving[j]:
            j += 1
        if j - i >= hold_n:
            runs.append((i, j - 1))
        i = max(j, i + 1)
    return (int(ekf.t_us[runs[0][0]]), int(ekf.t_us[runs[-1][1]])) if runs else None


class TestTrim:
    @settings(max_examples=200, deadline=None)
    @given(moving=st.lists(st.booleans(), min_size=1, max_size=40), hold_s=st.sampled_from([0.0, 0.2, 0.5, 1.0, 3.0]))
    def test_flight_span_matches_loop(self, moving, hold_s):
        values = np.zeros((len(moving), 10))
        values[:, 0] = 1.0  # unit quaternion
        values[moving, 4:6] = 0.4  # 0.57 m/s north-east while moving, at rest otherwise
        ekf = EkfStream(np.arange(len(moving), dtype=np.int64) * 200_000, values)
        assert flight_span(ekf, Trim(0.5, hold_s)) == _span_by_loop(ekf, 0.5, hold_s)

    def test_trim_matches_generator_truth(self):
        cfg = SynthConfig(duration_s=60.0, profile="circle", seed=2, ground_time_s=30.0, ground_drift_mps=0.1)
        log = generate_flight(cfg)
        trimmed = _trim(log)
        assert abs(trimmed.ekf.t_us[0] * 1e-6 - 30.0) < 2.0
        assert abs(trimmed.ekf.t_us[-1] * 1e-6 - 90.0) < 2.0

    def test_all_airborne_unchanged(self):
        log = generate_flight(SynthConfig(duration_s=40.0, profile="circle", seed=1))
        # warp means the first/last samples are at rest; crop those edges off first
        core = log.crop(5_000_000, 35_000_000)
        trimmed = _trim(core, Trim(vel_thresh_mps=0.1))
        assert np.array_equal(trimmed.ekf.t_us, core.ekf.t_us)
        assert np.array_equal(trimmed.imu.t_us, core.imu.t_us)

    def test_long_ground_segment_removed(self):
        cfg = SynthConfig(duration_s=1200.0, profile="survey_lawnmower", seed=0, ground_time_s=300.0,
                          ground_drift_mps=0.08)
        log = generate_flight(cfg)
        trimmed = _trim(log)
        assert abs((trimmed.ekf.t_us[-1] - trimmed.ekf.t_us[0]) * 1e-6 - 1200.0) < 30.0

    def test_no_takeoff(self):
        log = generate_flight(SynthConfig(duration_s=30.0, profile="hover", seed=0, ground_drift_mps=0.05))
        assert flight_span(log.ekf) is None


@pytest.fixture(scope="module")
def airborne_log():
    """A flight cleanup accepts; the defect cases below each break one invariant of it."""
    return generate_flight(SynthConfig(duration_s=90.0, profile="circle", seed=4))


def _empty_mag(log):
    return replace(log, mag=MagStream(log.mag.t_us[:0], log.mag.values[:0]))


def _repeated_baro_timestamp(log):
    t = log.baro.t_us.copy()
    t[5] = t[4]
    return replace(log, baro=BaroStream(t, log.baro.values))


def _nan_accel(log):
    imu = ImuStream(log.imu.t_us, log.imu.values)
    imu.accel[10, 0] = np.nan
    return replace(log, imu=imu)


def _non_unit_quat(log):
    ekf = EkfStream(log.ekf.t_us, log.ekf.values)
    ekf.quat[3] *= 0.5
    return replace(log, ekf=ekf)


def _mag_after_the_rest(log):
    # the magnetometer starts after every other stream has ended
    shift = log.ekf.t_us[-1] + 1_000_000 - log.mag.t_us[0]
    return replace(log, mag=MagStream(log.mag.t_us + shift, log.mag.values))


DEFECTS = {
    "empty_stream": _empty_mag,
    "repeated_timestamp": _repeated_baro_timestamp,
    "nan": _nan_accel,
    "non_unit_quaternion": _non_unit_quat,
    "non_overlap": _mag_after_the_rest,
}


def _mag_gap(log):
    # a 1.25 s magnetometer gap: the reader loads it, cleanup's 1 s limit rejects it
    m = log.mag
    t_mid = m.t_us[len(m) // 2]
    keep = (m.t_us <= t_mid) | (m.t_us >= t_mid + 1_250_000)
    return replace(log, mag=MagStream(m.t_us[keep], m.values[keep]))


# every log the verdict-equivalence test writes to disk and judges both ways
VERDICT_CASES = {
    **DEFECTS,
    "gap": _mag_gap,
    "clean": lambda log: log,
    "hover": lambda _: generate_flight(SynthConfig(duration_s=90.0, profile="hover", seed=4, ground_drift_mps=0.05)),
    "short": lambda _: generate_flight(SynthConfig(duration_s=30.0, profile="circle", seed=4)),
}


def _write_unchecked(log, path, monkeypatch):
    """write_flight_log without its invariant check, so defective logs reach the disk."""
    with monkeypatch.context() as m:
        m.setattr(FlightLog, "check", lambda self: None)
        write_flight_log(log, path)


class TestCleanup:
    def test_clean_flight_accepted(self):
        log = generate_flight(SynthConfig(duration_s=90.0, profile="survey_lawnmower", seed=4))
        verdict = detect_corrupted(log)
        assert verdict.accepted
        assert verdict.trimmed is not None

    def test_never_leaves_ground_rejected(self):
        log = generate_flight(SynthConfig(duration_s=90.0, profile="hover", seed=4, ground_drift_mps=0.05))
        verdict = detect_corrupted(log)
        assert not verdict.accepted
        assert verdict.reasons == ["no_takeoff"]

    def test_too_short_rejected(self):
        log = generate_flight(SynthConfig(duration_s=30.0, profile="circle", seed=4))
        verdict = detect_corrupted(log, Cleanup(min_duration_s=60.0))
        assert not verdict.accepted
        assert verdict.reasons == ["too_short"]

    def test_validation_defect_rejected(self):
        log = generate_flight(SynthConfig(duration_s=90.0, profile="circle", seed=4))
        log.imu.accel[10, 0] = np.nan
        verdict = detect_corrupted(log)
        assert verdict.reasons == ["validation_defects"]

    @pytest.mark.parametrize("defect", list(DEFECTS.values()), ids=list(DEFECTS))
    def test_defect_fails_check_and_cleanup(self, airborne_log, defect):
        log = defect(airborne_log)
        with pytest.raises(ValidationError):
            log.check()
        assert detect_corrupted(log).reasons == ["validation_defects"]

    def test_gap_read_but_rejected_by_cleanup(self, airborne_log, tmp_path):
        # the reader applies no gap limit; cleanup's 1 s limit rejects a 1.25 s magnetometer gap
        assert detect_corrupted(airborne_log).accepted
        write_flight_log(_mag_gap(airborne_log), tmp_path / "log")
        log = read_flight_log(tmp_path / "log")
        assert np.diff(log.mag.t_us).max() >= 1_250_000
        assert detect_corrupted(log).reasons == ["validation_defects"]

    def test_cleanup_shrinks_corpus(self):
        logs = [generate_flight(SynthConfig(duration_s=70.0, profile="circle", seed=i)) for i in range(2)]
        logs.append(generate_flight(SynthConfig(duration_s=70.0, profile="hover", seed=9, ground_drift_mps=0.05)))
        verdicts = [detect_corrupted(l) for l in logs]
        accepted = sum(v.accepted for v in verdicts)
        assert accepted <= len(logs)
        assert accepted == 2

    @pytest.mark.parametrize("case", list(VERDICT_CASES))
    def test_clean_log_matches_detect_corrupted(self, airborne_log, tmp_path, monkeypatch, case):
        # clean_log reads the files lazily; detect_corrupted judges the whole log in memory
        log = VERDICT_CASES[case](airborne_log)
        _write_unchecked(log, tmp_path / "log", monkeypatch)
        on_disk = clean_log(tmp_path / "log", log.log_id)
        try:
            in_memory = detect_corrupted(read_flight_log(tmp_path / "log"))
        except ValidationError:  # the reader's own check refuses a defective log; judge the one written
            assert case in DEFECTS
            in_memory = detect_corrupted(log)
        assert on_disk.to_dict() == in_memory.to_dict()
        if on_disk.reasons == ["validation_defects"]:
            assert on_disk.post_trim_duration_s is None
        assert on_disk.accepted == (case == "clean")
        if on_disk.accepted:
            for name, stream in on_disk.trimmed.streams():
                other = getattr(in_memory.trimmed, name)
                assert np.array_equal(stream.t_us, other.t_us) and np.array_equal(stream.values, other.values)

    @pytest.mark.parametrize("imu", ["missing", "garbage"])
    @pytest.mark.parametrize("case, reason", [("hover", "no_takeoff"), ("short", "too_short")])
    def test_rejected_on_estimator_before_imu_is_read(self, tmp_path, monkeypatch, imu, case, reason):
        # the verdict stops at the estimator, so a bad imu.csv is never opened and never decides the reason
        write_flight_log(VERDICT_CASES[case](None), tmp_path / "log")
        imu_csv = tmp_path / "log" / "imu.csv"
        if imu == "missing":
            imu_csv.unlink()
        else:
            imu_csv.write_bytes(b"\xff not a table\n")
        opened, read_table = [], flightlog.read_table

        def spy(path, header):
            opened.append(path.name)
            return read_table(path, header)

        monkeypatch.setattr(flightlog, "read_table", spy)
        verdict = clean_log(tmp_path / "log", case)
        assert verdict.reasons == [reason]
        assert opened == ["ekf.csv"]

    def test_huge_hold_time_finds_no_takeoff(self, airborne_log):
        assert detect_corrupted(airborne_log, Cleanup(trim=Trim(hold_s=1e308))).reasons == ["no_takeoff"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("option", ["max_gap_s", "min_duration_s", "vel_thresh_mps", "hold_s"])
    def test_bad_option_is_config_error(self, option, value):
        # the declaration checks each option, top-level or in the trim, before any log is read
        with pytest.raises(ConfigError, match=option):
            Cleanup(**{option: value}) if option in ("max_gap_s", "min_duration_s") else Cleanup(trim={option: value})


class TestWeights:
    def test_hand_oracle(self):
        labels = np.array([[2.0, 0.5], [-2.0, -0.5]])
        np.testing.assert_allclose(compute_signal_weights(labels), [0.5, 2.0])

    def test_unit_means_give_unit_weights(self):
        labels = np.tile([1.0, -1.0, 1.0, -1.0, 1.0, -1.0], (8, 1))
        np.testing.assert_allclose(compute_signal_weights(labels), 1.0)

    def test_zero_signal_clamped(self):
        labels = np.zeros((5, 2))
        np.testing.assert_allclose(compute_signal_weights(labels), 1e6)

    def test_duplication_invariance(self, rng):
        labels = rng.standard_normal((40, 6))
        w1 = compute_signal_weights(labels)
        w2 = compute_signal_weights(np.vstack([labels, labels]))
        np.testing.assert_allclose(w1, w2)

    def test_scaling_law(self, rng):
        labels = rng.standard_normal((40, 6)) + 0.5
        w1 = compute_signal_weights(labels)
        scaled = labels.copy()
        scaled[:, 2] *= 4.0
        w2 = compute_signal_weights(scaled)
        assert w2[2] == pytest.approx(w1[2] / 4.0)


class TestWindows:
    def _series(self, n_labels=40, window=None):
        log = generate_flight(SynthConfig(duration_s=max(10.0, (n_labels + 2) * 0.2), profile="circle", seed=0))
        return unify_rates(log)

    def test_window_counts(self, noisy_logs):
        series = unify_rates(noisy_logs[0])
        n_labels = len(series.labels)
        ds = build_dataset([series], window=50, stride=1)
        assert len(ds) == n_labels - 50 + 1
        ds3 = build_dataset([series], window=50, stride=3)
        assert len(ds3) == (n_labels - 50) // 3 + 1
        assert ds3.windows.flags.c_contiguous and ds3.windows.dtype == np.float32

    def test_boundary_single_window(self, noisy_logs):
        series = unify_rates(noisy_logs[0])
        n_labels = len(series.labels)
        ds = build_dataset([series], window=n_labels, stride=1)
        assert len(ds) == 1
        np.testing.assert_array_equal(ds.labels[0], series.labels[-1].astype(np.float32))

    def test_adjacent_labels_consecutive(self, noisy_logs):
        series = unify_rates(noisy_logs[0])
        ds = build_dataset([series], window=30, stride=1)
        np.testing.assert_array_equal(ds.labels[:10], series.labels[29:39].astype(np.float32))
        # stride-1 windows overlap by window-1 rows
        np.testing.assert_array_equal(ds.windows[1][:-1], ds.windows[0][1:])

    def test_too_short(self, noisy_logs):
        series = unify_rates(noisy_logs[0])
        with pytest.raises(DataError):
            build_dataset([series], window=len(series.labels) + 1)

    def test_one_row_series_too_short(self, noisy_logs):
        # one row, no label and no row step: the length check comes before the corpus period
        s = unify_rates(noisy_logs[0])
        one = UnifiedSeries(s.t_us[:1], s.features[:1], s.labels[:0], s.state_pos[:1], s.state_vel[:1], log_id="one")
        with pytest.raises(DataError, match="one: series too short: 0 labels"):
            build_dataset([one, one], window=1)

    def test_normalization_applied(self, noisy_logs):
        series = unify_rates(noisy_logs[0])
        ds = build_dataset([series], window=20)
        flat = ds.windows.reshape(-1, 11)
        assert np.abs(flat.mean(axis=0)).max() < 0.5
        norm = ds.normalization
        expected = ((series.features[:20].astype(np.float32) - norm.mean) / norm.std).astype(np.float32)
        np.testing.assert_array_equal(ds.windows[0], expected)

    def test_windows_file_round_trip(self, tmp_path, noisy_logs):
        series = [unify_rates(l) for l in noisy_logs[:2]]
        ds = build_dataset(series, window=25, stride=2)
        save_windows(ds, tmp_path / "w.bin")
        back = load_windows(tmp_path / "w.bin")
        assert np.array_equal(back.windows, ds.windows)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.weights, ds.weights)
        assert np.array_equal(back.normalization.mean, ds.normalization.mean)
        assert back.window_size == 25 and back.stride == 2
        assert back.source_logs == ds.source_logs

    def test_period_from_series_survives_round_trip(self, tmp_path, noisy_logs):
        series = unify_rates(noisy_logs[0])
        fast = replace(series, t_us=series.t_us[0] + 100_000 * np.arange(len(series)))  # 10 Hz rows
        ds = build_dataset([fast], window=25, stride=3)
        assert ds.period_ms == 100
        save_windows(ds, tmp_path / "a.bin", provenance={"period_ms": 200, "stride": 1, "seed": 4})
        save_windows(load_windows(tmp_path / "a.bin"), tmp_path / "b.bin")
        back = load_windows(tmp_path / "b.bin")
        assert (back.period_ms, back.stride, back.source_logs) == (100, 3, ds.source_logs)

    def test_series_of_different_periods_refused(self, mixed_rate_logs):
        series = [unify_rates(log) for log in mixed_rate_logs]
        assert [int(s.t_us[1] - s.t_us[0]) for s in series] == [200_000, 200_000, 100_000]
        assert build_dataset(series[:2], window=25).period_ms == 200
        assert build_dataset(series[2:], window=25).period_ms == 100
        ids = [s.log_id for s in series]
        with pytest.raises(DataError, match=f"{ids[0]} is binned at 200 ms but {ids[2]} at 100 ms"):
            build_dataset(series, window=25)
        with pytest.raises(DataError, match=f"{ids[2]} is binned at 100 ms but {ids[1]} at 200 ms"):
            build_dataset(series[::-1], window=25)

    def test_sub_millisecond_rows_have_no_period(self, noisy_logs):
        series = unify_rates(noisy_logs[0])
        with pytest.raises(DataError, match="at least 1 ms"):
            build_dataset([replace(series, t_us=400 * np.arange(len(series)))], window=25)

    @pytest.mark.parametrize(
        "sidecar",
        ["{not json", "[]", '{"stride": "x"}', '{"source_logs": 5}', '{"period_ms": "x"}', None,
         '{"stride": 1, "source_logs": []}'],
        ids=["not_json", "not_an_object", "bad_stride", "bad_source_logs", "bad_period_ms", "missing", "no_period_ms"],
    )
    def test_malformed_sidecar(self, tmp_path, noisy_logs, sidecar):
        save_windows(build_dataset([unify_rates(noisy_logs[0])], window=25), tmp_path / "w.bin")
        if sidecar is None:
            (tmp_path / "w.json").unlink()
        else:
            (tmp_path / "w.json").write_text(sidecar, encoding="utf-8")
        with pytest.raises(DataError, match="w.json"):
            load_windows(tmp_path / "w.bin")

    def test_windows_file_truncation(self, tmp_path, noisy_logs):
        series = [unify_rates(noisy_logs[0])]
        ds = build_dataset(series, window=25)
        save_windows(ds, tmp_path / "w.bin")
        data = (tmp_path / "w.bin").read_bytes()
        (tmp_path / "w.bin").write_bytes(data[:-13])
        with pytest.raises(DataError, match="payload"):
            load_windows(tmp_path / "w.bin")


class TestSplit:
    def _manifest(self, n):
        entries = [LogEntry(f"log{i:03d}", f"log{i:03d}", 60.0, "circle") for i in range(n)]
        return DatasetManifest(root=None, logs=entries)

    def test_paper_scale_split(self):
        train, val = split_dataset(self._manifest(548), val_fraction=0.151, seed=0)
        assert len(train) == 465 and len(val) == 83

    def test_deterministic(self):
        m = self._manifest(20)
        a = split_dataset(m, 0.25, seed=3)
        b = split_dataset(m, 0.25, seed=3)
        assert [e.log_id for e in a[0]] == [e.log_id for e in b[0]]
        assert [e.log_id for e in a[1]] == [e.log_id for e in b[1]]

    def test_partition_property(self):
        m = self._manifest(17)
        train, val = split_dataset(m, 0.3, seed=1)
        train_ids = {e.log_id for e in train}
        val_ids = {e.log_id for e in val}
        assert train_ids | val_ids == {e.log_id for e in m.logs}
        assert not (train_ids & val_ids)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            split_dataset(self._manifest(10), 1.5, seed=0)

    def test_whole_flight_granularity(self, noisy_logs):
        series = [unify_rates(l) for l in noisy_logs]
        train_ds = build_dataset(series[:2], window=20)
        val_ds = build_dataset(series[2:], window=20, normalization=train_ds.normalization, weights=train_ds.weights)
        assert not (set(train_ds.source_logs) & set(val_ds.source_logs))


def test_bin_mean_matches_unify_accumulation(rng):
    # one bin of 23 inertial samples: its mean is their arrival-order sum over the count
    values = rng.standard_normal((23, 6))
    t = np.arange(1, 24, dtype=np.int64) * 8000
    series = unify_rates(
        _log_from_arrays(
            t, values[:, :3], values[:, 3:],
            t, np.zeros(23), np.zeros(23),
            t, np.zeros((23, 3)),
            np.array([0, 200000], dtype=np.int64), np.zeros((2, 3)), np.zeros((2, 3)),
        )
    )
    sums = np.array([np.bincount(np.zeros(23, dtype=np.intp), weights=values[:, c])[0] for c in range(6)])
    np.testing.assert_array_equal(series.features[0, :6], sums / 23)


def test_normalization_guard():
    with pytest.raises(ConfigError):
        Normalization(mean=np.zeros(3), std=np.array([1.0, 0.0, 1.0]))
