from dataclasses import replace

import numpy as np
import pytest

from navrnn.flightlog import EkfStream
from navrnn.preprocess import build_dataset, unify_rates
from navrnn.rnn import NetworkConfig, init_params, load_checkpoint, save_checkpoint
from navrnn.synth import NoiseConfig, SynthConfig, generate_flight
from navrnn.train import TrainConfig, fit


@pytest.fixture(scope="session")
def noisy_logs():
    """Three short noisy flights shared across test modules."""
    noise = NoiseConfig.low_cost()
    profiles = ["circle", "survey_lawnmower", "waypoint_polyline"]
    return [
        generate_flight(SynthConfig(duration_s=70.0, profile=p, seed=10 + i, noise=noise))
        for i, p in enumerate(profiles)
    ]


@pytest.fixture(scope="session")
def mixed_rate_logs():
    """Three 90 s circles whose estimators tick at 5, 5 and 10 Hz: the third's is given midpoints."""
    logs = [generate_flight(SynthConfig(duration_s=90.0, profile="circle", seed=40 + i)) for i in range(3)]
    t, v = logs[2].ekf.t_us, logs[2].ekf.values
    t_mid, v_mid = np.empty(2 * len(t) - 1, dtype=np.int64), np.empty((2 * len(t) - 1, v.shape[1]))
    t_mid[0::2], t_mid[1::2] = t, (t[:-1] + t[1:]) // 2
    v_mid[0::2], v_mid[1::2] = v, (v[:-1] + v[1:]) / 2
    v_mid[:, :4] /= np.linalg.norm(v_mid[:, :4], axis=1, keepdims=True)  # unit quaternions
    logs[2] = replace(logs[2], ekf=EkfStream(t_mid, v_mid))
    return logs


@pytest.fixture(scope="session")
def small_ckpt(tmp_path_factory, noisy_logs):
    """A quickly trained checkpoint (window 20) plus a held-out flight."""
    window = 20
    train_series = [unify_rates(l) for l in noisy_logs[:2]]
    ds = build_dataset(train_series, window=window, stride=2)
    cfg = NetworkConfig(recurrent_layers=1, hidden_size=24, input_size=11, output_size=6)
    params, report = fit(ds, None, TrainConfig(epochs=6, batch_size=128, shuffle_seed=0), init_params(cfg, seed=0))
    meta = {
        "window": window,
        "period_ms": 200,
        "feature_mean": [float(v) for v in ds.normalization.mean],
        "feature_std": [float(v) for v in ds.normalization.std],
        "loss_weights": [float(v) for v in ds.weights],
    }
    path = tmp_path_factory.mktemp("ckpt") / "model.navc"
    save_checkpoint(params, cfg, meta, path)
    ckpt = load_checkpoint(path)
    return {"ckpt": ckpt, "path": path, "window": window, "val_log": noisy_logs[2], "report": report}


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
