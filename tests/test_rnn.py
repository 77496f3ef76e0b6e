import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from navrnn import rnn
from navrnn.cli import main
from navrnn.errors import CheckpointError, ConfigError, DataError
from navrnn.preprocess import build_dataset, unify_rates
from navrnn.rnn import (
    LOCKSTEP_ROWS,
    AdamState,
    Buffers,
    LayerParams,
    LossSpec,
    NetworkConfig,
    Rolling,
    adam_step,
    backward,
    forward,
    init_params,
    load_checkpoint,
    loss,
    predict,
    save_checkpoint,
)


# ---------------------------------------------------------------------------
# single-sample cell steps: the reference the batched forward is checked
# against, written with scipy's expit so it shares no code with it


def lstm_cell_step(x, h, c, layer: LayerParams):
    """One LSTM step: gate order i, f, g, o; gates sigmoid, candidate and output tanh."""
    hs = len(h)
    z = layer.wx @ np.asarray(x) + layer.wh @ h + layer.b
    i = expit(z[:hs])
    f = expit(z[hs : 2 * hs])
    g = np.tanh(z[2 * hs : 3 * hs])
    o = expit(z[3 * hs :])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def _flatten(params):
    return np.concatenate([a.ravel() for _, a in params.arrays()])


def _fd_max_rel_err(seed, unit_weights=False, layers=1, hidden=8, w=5, batch=3, buffers=None):
    cfg = NetworkConfig(recurrent_layers=layers, hidden_size=hidden, input_size=11, output_size=6)
    params = init_params(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1000)
    x = rng.standard_normal((batch, w, 11))
    y = rng.standard_normal((batch, 6))
    spec = LossSpec(weights=np.ones(6) if unit_weights else rng.uniform(0.5, 2.0, 6))
    _, tape = forward(params, x, buffers=buffers)
    g_ana = _flatten(backward(tape, y, spec))
    eps = 1e-6
    g_num = np.empty_like(g_ana)
    k = 0
    for _, arr in params.arrays():
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss(forward(params, x, buffers=buffers)[0], y, spec)
            flat[i] = orig - eps
            lm = loss(forward(params, x, buffers=buffers)[0], y, spec)
            flat[i] = orig
            g_num[k] = (lp - lm) / (2.0 * eps)
            k += 1
    return float(np.max(np.abs(g_ana - g_num) / np.maximum(np.abs(g_ana) + np.abs(g_num), 1e-8)))


class TestInit:
    def test_deterministic(self):
        cfg = NetworkConfig(recurrent_layers=2, hidden_size=16)
        a = init_params(cfg, seed=5)
        b = init_params(cfg, seed=5)
        for (_, x), (_, y) in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_forget_gate_bias(self):
        cfg = NetworkConfig(recurrent_layers=2, hidden_size=8)
        params = init_params(cfg, seed=0)
        for layer in params.layers:
            assert np.all(layer.b[8:16] == 1.0)
            assert np.all(layer.b[:8] == 0.0)
            assert np.all(layer.b[16:] == 0.0)

    def test_only_lstm_cell(self):
        assert NetworkConfig(cell="lstm").cell == "lstm"
        for cell in ("gru", "vanilla", "LSTM"):
            with pytest.raises(ConfigError, match="unknown cell"):
                NetworkConfig(cell=cell)

    def test_shapes(self):
        cfg = NetworkConfig(recurrent_layers=1, hidden_size=200, input_size=11, output_size=6)
        params = init_params(cfg, seed=0)
        assert params.layers[0].wx.shape == (800, 11)
        assert params.layers[0].wh.shape == (800, 200)
        assert params.dense.w.shape == (6, 200)

    def test_recurrent_kernel_orthogonal(self):
        cfg = NetworkConfig(recurrent_layers=1, hidden_size=12)
        params = init_params(cfg, seed=1, dtype=np.float64)
        block = params.layers[0].wh[:12]
        np.testing.assert_allclose(block @ block.T, np.eye(12), atol=1e-10)


class TestCellSteps:
    def test_zero_params_zero_state(self):
        layer = type("L", (), {})()
        cfg = NetworkConfig(recurrent_layers=1, hidden_size=4, input_size=3)
        params = init_params(cfg, seed=0, dtype=np.float64)
        lp = params.layers[0]
        lp.wx[:] = 0.0
        lp.wh[:] = 0.0
        lp.b[:] = 0.0
        h, c = lstm_cell_step(np.zeros(3), np.zeros(4), np.zeros(4), lp)
        assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_scalar_hand_oracle(self):
        # single unit, hand-set parameters, evaluated against explicit algebra
        wx = np.array([[0.5], [-0.3], [0.8], [0.2]])
        wh = np.array([[0.1], [0.4], [-0.2], [0.3]])
        b = np.array([0.05, 1.0, -0.1, 0.2])
        lp = LayerParams(wx, wh, b)
        x, h0, c0 = np.array([0.7]), np.array([0.25]), np.array([-0.4])
        i = expit(0.5 * 0.7 + 0.1 * 0.25 + 0.05)
        f = expit(-0.3 * 0.7 + 0.4 * 0.25 + 1.0)
        g = np.tanh(0.8 * 0.7 - 0.2 * 0.25 - 0.1)
        o = expit(0.2 * 0.7 + 0.3 * 0.25 + 0.2)
        c1 = f * (-0.4) + i * g
        h1 = o * np.tanh(c1)
        h, c = lstm_cell_step(x, h0, c0, lp)
        assert h[0] == pytest.approx(h1, rel=1e-14)
        assert c[0] == pytest.approx(c1, rel=1e-14)

    def test_tanh_output_bounded(self, rng):
        cfg = NetworkConfig(recurrent_layers=1, hidden_size=32)
        params = init_params(cfg, seed=3, dtype=np.float64)
        h = np.zeros(32)
        c = np.zeros(32)
        for _ in range(200):
            h, c = lstm_cell_step(rng.standard_normal(11) * 5, h, c, params.layers[0])
            assert np.all(np.abs(h) < 1.0)

    def test_cell_matches_batched_forward(self, rng):
        cfg = NetworkConfig(recurrent_layers=1, hidden_size=6, input_size=4)
        params = init_params(cfg, seed=2, dtype=np.float64)
        x = rng.standard_normal((7, 4))
        h = np.zeros(6)
        c = np.zeros(6)
        for t in range(7):
            h, c = lstm_cell_step(x[t], h, c, params.layers[0])
        y_loop = params.dense.w @ h + params.dense.b
        y_fwd, _ = forward(params, x[None])
        np.testing.assert_allclose(y_fwd[0], y_loop, atol=1e-12)

    @pytest.mark.parametrize("activation", ["tanh"])
    def test_lstm_batched_forward_matches_oracle(self, rng, activation):
        cfg = NetworkConfig(recurrent_layers=2, hidden_size=7, input_size=4, input_activation=activation)
        params = init_params(cfg, seed=6, dtype=np.float64)
        x = rng.standard_normal((5, 9, 4)) * 2.0
        y_loop = []
        for window in x:
            seq = window
            for layer in params.layers:
                h = np.zeros(7)
                c = np.zeros(7)
                out = []
                for t in range(len(seq)):
                    h, c = lstm_cell_step(seq[t], h, c, layer)
                    out.append(h)
                seq = np.array(out)
            y_loop.append(params.dense.w @ h + params.dense.b)
        y_fwd, _ = forward(params, x)
        np.testing.assert_allclose(y_fwd, np.array(y_loop), rtol=0, atol=1e-12)


class TestForward:
    def test_zero_window_zero_bias_gives_zero(self):
        cfg = NetworkConfig(recurrent_layers=2, hidden_size=8)
        params = init_params(cfg, seed=0, dtype=np.float64)
        for layer in params.layers:
            layer.b[:] = 0.0
        y, _ = forward(params, np.zeros((1, 10, 11)))
        np.testing.assert_array_equal(y, 0.0)

    def test_order_sensitivity(self, rng):
        cfg = NetworkConfig(recurrent_layers=1, hidden_size=16)
        params = init_params(cfg, seed=1)
        x = rng.standard_normal((30, 11)).astype(np.float32)
        y1, _ = forward(params, x[None])
        swapped = x.copy()
        swapped[[5, 20]] = swapped[[20, 5]]
        y2, _ = forward(params, swapped[None])
        assert not np.array_equal(y1, y2)

    def test_batch_rows_identical_for_identical_windows(self, rng):
        cfg = NetworkConfig(recurrent_layers=1, hidden_size=16)
        params = init_params(cfg, seed=1)
        x = rng.standard_normal((5, 11)).astype(np.float32)
        batch = np.broadcast_to(x, (8, 5, 11)).copy()
        y, _ = forward(params, batch)
        for row in y[1:]:
            assert np.array_equal(row, y[0])

    def test_shape_mismatch(self):
        cfg = NetworkConfig(recurrent_layers=1, hidden_size=4, input_size=11)
        params = init_params(cfg, seed=0)
        with pytest.raises(DataError):
            forward(params, np.zeros((1, 5, 7)))

    def test_predict_matches_forward_chunking(self, rng, monkeypatch):
        cfg = NetworkConfig(recurrent_layers=2, hidden_size=8)
        params = init_params(cfg, seed=0)
        x = rng.standard_normal((10, 6, 11)).astype(np.float32)
        monkeypatch.setattr(rnn, "LOCKSTEP_ROWS", 4)
        got = predict(params, x)  # blocks of 4, 4 and 2 windows, the last with 2 spare slots
        assert got.shape == (10, 6) and got.dtype == np.float32
        assert got.tobytes() == np.concatenate([_pushed(params, window, 6) for window in x]).tobytes()
        ref = np.concatenate([forward(params, x[start : start + 4])[0] for start in (0, 4, 8)])
        # the fused [Wx | Wh] GEMM sums in another order: equal to rounding, relative to the output scale
        assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))


class TestRolling:
    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("activation", ["tanh"])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("window", [1, 5, 50])
    def test_matches_per_window_forward(self, rng, dtype, rtol, activation, layers, window):
        cfg = NetworkConfig(recurrent_layers=layers, hidden_size=16, input_activation=activation)
        params = init_params(cfg, seed=4, dtype=dtype)
        rows = rng.standard_normal((window + 23, 11)).astype(dtype)
        rolling = Rolling(params, window)
        out = [rolling.push(row) for row in rows]
        assert all(y is None for y in out[: window - 1])
        got = np.array(out[window - 1 :])
        assert got.shape == (len(rows) - window + 1, 6) and got.dtype == dtype
        ref = np.array([forward(params, rows[j : j + window][None])[0][0] for j in range(len(got))])
        # the fused [Wx | Wh] GEMM sums in another order: equal to rounding, relative to the output scale
        assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


def _pushed(params, rows, window):
    """What `Rolling.push` returns for rows, from the first completed window on."""
    rolling = Rolling(params, window)
    return np.array([rolling.push(row) for row in rows][window - 1 :])


def _stride_view(rows, window, stride=1):
    """The [m, window, in] windows of rows at a stride, as a view: what eval and `build_dataset` window."""
    return np.lib.stride_tricks.sliding_window_view(rows, window, axis=0)[::stride].transpose(0, 2, 1)


class TestLockstep:
    """`predict` advances its windows in lockstep, the slots of one `Rolling`, and gives `push`'s bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("squash", ["tanh", "relu", "sigmoid"])
    @pytest.mark.parametrize("layers", [1, 2, 4])
    @pytest.mark.parametrize("window", [1, 2, 5, 50])
    def test_bitwise_equal_to_rolling(self, rng, dtype, squash, layers, window):
        # the rows squashed three ways: signed and bounded (tanh), non-negative with exact zeros (relu), in (0, 1)
        f = {"tanh": np.tanh, "relu": lambda x: np.maximum(x, 0.0), "sigmoid": expit}[squash]
        params = init_params(NetworkConfig(recurrent_layers=layers, hidden_size=16), seed=4, dtype=dtype)
        # one window, two, and a block of windows one short of, at and one past LOCKSTEP_ROWS
        for n in (window, window + 1, window + LOCKSTEP_ROWS - 2, window + LOCKSTEP_ROWS - 1, window + LOCKSTEP_ROWS):
            rows = f(rng.standard_normal((n, 11))).astype(np.float32)
            got, ref = predict(params, _stride_view(rows, window)), _pushed(params, rows, window)
            assert got.shape == ref.shape == (n - window + 1, 6) and got.dtype == dtype
            assert got.tobytes() == ref.tobytes(), f"{n} rows"

    def test_bitwise_equal_at_paper_shape(self, rng):
        params = init_params(NetworkConfig(recurrent_layers=4, hidden_size=200), seed=1)
        rows = rng.standard_normal((203, 11)).astype(np.float32)
        assert predict(params, _stride_view(rows, 200)).tobytes() == _pushed(params, rows, 200).tobytes()

    @pytest.mark.parametrize("window", [1, 20])
    def test_dataset_windows_bitwise_equal_to_rolling(self, noisy_logs, window, monkeypatch):
        # stride-4 windows as training's validation set holds them: copied, C-contiguous float32
        ds = build_dataset([unify_rates(log) for log in noisy_logs[:2]], window=window, stride=4)
        params = init_params(NetworkConfig(recurrent_layers=2, hidden_size=16), seed=2)
        ref = np.concatenate([_pushed(params, w, window) for w in ds.windows])
        for block in (1, 7, LOCKSTEP_ROWS):  # the last restores the module's value
            monkeypatch.setattr(rnn, "LOCKSTEP_ROWS", block)
            assert predict(params, ds.windows).tobytes() == ref.tobytes(), block
        rows = ds.normalization.apply(unify_rates(noisy_logs[0]).features)  # and the strided view of one flight
        assert predict(params, _stride_view(rows, window, 4)).tobytes() == _pushed(params, rows, window)[::4].tobytes()

    @pytest.mark.parametrize("dtype, hidden", [(np.float32, 16), (np.float32, 64), (np.float32, 200),
                                               (np.float64, 16), (np.float64, 64)])
    @pytest.mark.parametrize("first_layer", [True, False])
    def test_blas_gemm_row_bits_do_not_depend_on_row_count(self, rng, dtype, hidden, first_layer):
        # predict's bit identity with Rolling rests on this: the fused GEMM of a state's [input | h]
        # columns gives a row the same bits whatever the row count (2 or more) and the row's place.
        # Not in float64 at h = 200: OpenBLAS's small-matrix kernel takes 2 or 3 rows there.
        k, n = (11 if first_layer else hidden) + hidden, 4 * hidden
        state = rng.standard_normal((LOCKSTEP_ROWS + 3, k + 5)).astype(dtype)
        wt = rng.standard_normal((k, n)).astype(dtype)
        full = np.matmul(state[:, 3 : 3 + k], wt)
        for m in (2, 3, 7, 50, 200, LOCKSTEP_ROWS):
            for at in (0, 1, len(state) - m):
                part = np.matmul(state[at : at + m, 3 : 3 + k], wt, out=np.empty((m, n), dtype))
                assert part.tobytes() == full[at : at + m].tobytes(), (
                    f"BLAS gives a [{k}, {n}] GEMM row other bits at {m} rows from row {at}: predict no longer "
                    "reproduces Rolling bit for bit")

    def test_no_windows_and_wrong_width(self, rng):
        params = init_params(NetworkConfig(recurrent_layers=1, hidden_size=8), seed=0)
        assert predict(params, np.zeros((0, 5, 11))).shape == (0, 6)
        with pytest.raises(DataError):
            predict(params, rng.standard_normal((3, 5, 7)))
        with pytest.raises(DataError):
            predict(params, rng.standard_normal((5, 11)))


class TestLoss:
    def test_zero_error(self):
        y = np.arange(6.0)
        assert loss(y, y, LossSpec(weights=np.ones(6))) == 0.0

    def test_weighted_hand_oracle(self):
        y_hat = np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0])
        y = np.zeros(6)
        spec = LossSpec(weights=[1.0, 0.5, 1.0, 1.0, 1.0, 1.0])
        assert loss(y_hat, y, spec) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_batch_loss_is_mean(self, rng):
        y_hat = rng.standard_normal((8, 6))
        y = rng.standard_normal((8, 6))
        spec = LossSpec(weights=np.ones(6))
        per = [loss(y_hat[i], y[i], spec) for i in range(8)]
        assert loss(y_hat, y, spec) == pytest.approx(np.mean(per), rel=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ConfigError):
            LossSpec(weights=[1, float("nan"), 1, 1, 1, 1])
        with pytest.raises(ConfigError):
            LossSpec(weights=[1, -1, 1, 1, 1, 1])


class TestBackward:
    def test_gradcheck_cells(self):
        assert _fd_max_rel_err(seed=0) < 1e-4

    @pytest.mark.parametrize("unit_weights", [True], ids=["mae"])
    def test_gradcheck_losses(self, unit_weights):
        assert _fd_max_rel_err(seed=1, unit_weights=unit_weights) < 1e-4

    def test_gradcheck_two_layers(self):
        assert _fd_max_rel_err(seed=2, unit_weights=True, layers=2, hidden=6, w=4) < 1e-4

    def test_gradcheck_through_one_buffer_set(self):
        # criterion 1's shape (1x8, window 5, batch 3), then the two-layer check above for the
        # input gradient; every forward, taped or not, draws on the same set
        bufs = Buffers()
        errs = [_fd_max_rel_err(seed, buffers=bufs) for seed in range(3)]
        errs.append(_fd_max_rel_err(2, True, layers=2, hidden=6, w=4, buffers=bufs))
        assert max(errs) < 1e-4

    def test_zero_error_zero_gradients(self):
        cfg = NetworkConfig(recurrent_layers=1, hidden_size=8)
        params = init_params(cfg, seed=0, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((2, 5, 11))
        y_hat, tape = forward(params, x)
        grads = backward(tape, y_hat.copy(), LossSpec(weights=np.ones(6)))
        assert np.all(_flatten(grads) == 0.0)

    def test_weight_doubling_doubles_gradient(self):
        cfg = NetworkConfig(recurrent_layers=1, hidden_size=8)
        params = init_params(cfg, seed=3, dtype=np.float64)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5, 11))
        y = rng.standard_normal((3, 6))
        w1 = np.ones(6)
        w2 = np.ones(6)
        w2[2] = 2.0
        # backward consumes its tape, so each gradient gets its own forward
        g1 = backward(forward(params, x)[1], y, LossSpec(weights=w1))
        g2 = backward(forward(params, x)[1], y, LossSpec(weights=w2))
        # only the dense row feeding signal 2 doubles
        np.testing.assert_allclose(g2.dense.w[2], 2.0 * g1.dense.w[2], rtol=1e-12)
        np.testing.assert_allclose(g2.dense.w[0], g1.dense.w[0], rtol=1e-12)
        # doubling every weight doubles every gradient, layers included, exactly (scaling by 2 is exact)
        g_all = backward(forward(params, x)[1], y, LossSpec(weights=2.0 * w1))
        for (name, g), (_, ref) in zip(g_all.arrays(), g1.arrays()):
            np.testing.assert_array_equal(g, 2.0 * ref, err_msg=name)

    def test_second_backward_on_a_tape_raises(self):
        params = init_params(NetworkConfig(recurrent_layers=2, hidden_size=8), seed=0)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((3, 5, 11)), rng.standard_normal((3, 6))
        spec = LossSpec(weights=np.ones(6))
        _, tape = forward(params, x)
        backward(tape, y, spec)
        with pytest.raises(RuntimeError, match="consumed"):
            backward(tape, y, spec)


class TestBuffers:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", ["tanh"])
    def test_reused_set_matches_fresh_bitwise(self, activation, dtype):
        # the batch grows, then shrinks to a partial batch and to one window
        params = init_params(NetworkConfig(recurrent_layers=3, hidden_size=12, input_activation=activation), 4, dtype)
        spec = LossSpec(weights=np.arange(1.0, 7.0))
        rng = np.random.default_rng(5)
        bufs = Buffers()
        for batch in (5, 256, 237, 1):
            x = rng.standard_normal((batch, 7, 11)).astype(dtype)
            y = rng.standard_normal((batch, 6)).astype(dtype)
            y_fresh, tape_fresh = forward(params, x)
            g_fresh = backward(tape_fresh, y, spec)
            y_buf, tape = forward(params, x, buffers=bufs)
            assert tape.layer_tapes[0].h.shape == (7, batch, 12)
            assert all(lt.a.flags.c_contiguous and lt.c.flags.c_contiguous for lt in tape.layer_tapes)
            assert y_buf.tobytes() == y_fresh.tobytes()
            for (name, g), (_, ref) in zip(backward(tape, y, spec).arrays(), g_fresh.arrays()):
                assert g.dtype == ref.dtype and g.tobytes() == ref.tobytes(), name

    def test_next_forward_reuses_the_tape_memory(self, rng):
        params = init_params(NetworkConfig(recurrent_layers=2, hidden_size=8), seed=0)
        bufs = Buffers()
        _, first = forward(params, rng.standard_normal((4, 6, 11)), buffers=bufs)
        _, second = forward(params, rng.standard_normal((3, 6, 11)), buffers=bufs)
        _, fresh = forward(params, rng.standard_normal((3, 6, 11)))
        for a, b, c in zip(first.layer_tapes, second.layer_tapes, fresh.layer_tapes):
            assert np.shares_memory(a.a, b.a) and np.shares_memory(a.h, b.h) and np.shares_memory(a.c, b.c)
            assert not np.shares_memory(b.a, c.a)


class TestAdam:
    def _scalar_params(self, value=1.0):
        from navrnn.rnn import DenseParams, LayerParams, NetworkParams

        return NetworkParams(
            layers=[LayerParams(np.array([[value]]), np.array([[0.0]]), np.array([0.0]))],
            dense=DenseParams(np.array([[0.0]]), np.array([0.0])),
        )

    def test_zero_gradient_no_change(self):
        params = self._scalar_params()
        grads = self._scalar_params(0.0)
        for _, g in grads.arrays():
            g[:] = 0.0
        out, state = adam_step(params, grads, AdamState.zeros_like(params), lr=0.1)
        for (_, a), (_, b) in zip(out.arrays(), params.arrays()):
            assert np.array_equal(a, b)
        assert state.step == 1

    def test_first_step_closed_form(self):
        params = self._scalar_params(1.0)
        grads = self._scalar_params(0.0)
        arrays = [a for _, a in grads.arrays()]
        arrays[0][0, 0] = 1.0
        out, _ = adam_step(params, grads, AdamState.zeros_like(params), lr=0.1)
        expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
        assert out.layers[0].wx[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_determinism(self, rng):
        cfg = NetworkConfig(recurrent_layers=1, hidden_size=4)
        params = init_params(cfg, seed=0)
        grads = init_params(cfg, seed=1)
        s0 = AdamState.zeros_like(params)
        a1, s1 = adam_step(params, grads, s0, lr=0.01)
        a2, s2 = adam_step(params, grads, s0, lr=0.01)
        for (_, x), (_, y) in zip(a1.arrays(), a2.arrays()):
            assert np.array_equal(x, y)
        assert s1.step == s2.step == 1

    def test_inputs_not_mutated(self):
        cfg = NetworkConfig(recurrent_layers=1, hidden_size=4)
        params = init_params(cfg, seed=0)
        before = _flatten(params).copy()
        grads = init_params(cfg, seed=1)
        adam_step(params, grads, AdamState.zeros_like(params), lr=0.5)
        assert np.array_equal(_flatten(params), before)


class TestCheckpoint:
    def _make(self, tmp_path, dtype=np.float32):
        cfg = NetworkConfig(recurrent_layers=2, hidden_size=10)
        params = init_params(cfg, seed=0, dtype=dtype)
        meta = {
            "window": 15,
            "period_ms": 200,
            "feature_mean": [0.0] * 11,
            "feature_std": [1.0] * 11,
            "loss_weights": [1.0] * 6,
        }
        path = tmp_path / "m.navc"
        save_checkpoint(params, cfg, meta, path)
        return params, cfg, meta, path

    def test_round_trip_bitwise_predictions(self, tmp_path, rng):
        params, cfg, meta, path = self._make(tmp_path)
        ckpt = load_checkpoint(path)
        x = rng.standard_normal((4, 15, 11)).astype(np.float32)
        y0, _ = forward(params, x)
        y1, _ = forward(ckpt.params, x)
        assert np.array_equal(y0, y1)
        assert ckpt.config == cfg
        assert ckpt.meta["window"] == 15

    def test_header_config_pins_format(self, tmp_path):
        _, cfg, _, path = self._make(tmp_path)
        data = path.read_bytes()
        (blob_len,) = struct.unpack("<I", data[8:12])
        assert json.loads(data[12 : 12 + blob_len])["config"] == {
            "recurrent_layers": 2,
            "hidden_size": 10,
            "input_size": 11,
            "output_size": 6,
            "cell": "lstm",
            "input_activation": "tanh",
        }

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param({"cell": "gru"}, id="cell"),
            pytest.param({"input_activation": "softplus"}, id="input_activation"),
            pytest.param({"input_activation": "relu"}, id="relu"),
            pytest.param({"input_activation": "sigmoid"}, id="sigmoid"),
            pytest.param({"hidden_size": 0}, id="size"),
            pytest.param({"recurrent_layers": 1.0}, id="float_layers"),
            pytest.param({"hidden_size": True}, id="bool_size"),
        ],
    )
    def test_header_config_rejected_by_network_config(self, tmp_path, capsys, config):
        _, _, _, path = self._make(tmp_path)
        self._rewrite_header(path, lambda h: {**h, "config": {**h["config"], **config}})
        with pytest.raises(CheckpointError, match="bad config"):
            load_checkpoint(path)
        (tmp_path / "eval.json").write_text(json.dumps({"checkpoint": str(path), "dataset": str(tmp_path)}))
        assert main(["eval", "--config", str(tmp_path / "eval.json"), "--out", str(tmp_path / "out")]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, shape",
        [
            pytest.param("layer0.b", [2, 20], id="layer0.b"),
            pytest.param("layer0.wh", [10, 40], id="layer0.wh"),
            pytest.param("dense.b", [2, 3], id="dense.b"),
        ],
    )
    def test_every_array_shape_checked(self, tmp_path, name, shape):
        # the element count is unchanged, so only the shape check can catch it
        _, _, _, path = self._make(tmp_path)

        def reshape(h):
            desc = next(d for d in h["arrays"] if d["name"] == name)
            assert np.prod(desc["shape"]) == np.prod(shape)
            desc["shape"] = shape
            return h

        self._rewrite_header(path, reshape)
        with pytest.raises(CheckpointError, match=f"{name} has shape"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        _, _, _, path = self._make(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        _, _, _, path = self._make(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda h: h["arrays"][0].pop("name"), id="no_name"),
            pytest.param(lambda h: h["arrays"][0].pop("shape"), id="no_shape"),
            pytest.param(lambda h: h["arrays"][0].update(shape=[-1, 4]), id="negative_shape"),
            pytest.param(lambda h: h.update(arrays=5), id="arrays_not_a_list"),
        ],
    )
    def test_malformed_array_descriptor(self, tmp_path, mutate):
        _, _, _, path = self._make(tmp_path)
        self._rewrite_header(path, lambda h: mutate(h) or h)
        with pytest.raises(CheckpointError, match="array"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "rebuild",
        [
            pytest.param(lambda h: [], id="header_not_an_object"),
            pytest.param(lambda h: {**h, "meta": 5}, id="meta_not_an_object"),
        ],
    )
    def test_malformed_header(self, tmp_path, rebuild):
        _, _, _, path = self._make(tmp_path)
        self._rewrite_header(path, rebuild)
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    @staticmethod
    def _rewrite_header(path, rebuild):
        data = path.read_bytes()
        version, blob_len = struct.unpack("<2I", data[4:12])
        header = rebuild(json.loads(data[12 : 12 + blob_len]))
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:4] + struct.pack("<2I", version, len(blob)) + blob + data[12 + blob_len :])

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param({"recurrent_layers": 3}, id="more_layers"),
            pytest.param({"hidden_size": 12}, id="hidden_size"),
            pytest.param({"output_size": 3}, id="output_size"),
        ],
    )
    def test_save_refuses_params_of_another_layout(self, tmp_path, change):
        params, cfg, meta, _ = self._make(tmp_path)
        with pytest.raises(CheckpointError, match="has shape"):
            save_checkpoint(params, replace(cfg, **change), meta, tmp_path / "other.navc")
        assert not (tmp_path / "other.navc").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("window", 0), ("period_ms", 2.5), ("period_ms", None), ("feature_std", [float("nan")] * 11),
         ("loss_weights", [1.0] * 5)],
        ids=["zero_window", "float_period_ms", "no_period_ms", "nan_feature_std", "short_loss_weights"],
    )
    def test_save_refuses_meta_load_rejects(self, tmp_path, key, value):
        params, cfg, meta, path = self._make(tmp_path)
        bad = {k: v for k, v in meta.items() if k != key} if value is None else {**meta, key: value}  # None: no key
        match = f"meta missing '{key}'" if value is None else f"meta {key}"
        self._rewrite_header(path, lambda h: {**h, "meta": bad})
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match=match):
            save_checkpoint(params, cfg, bad, tmp_path / "bad.navc")
        assert not (tmp_path / "bad.navc").exists()

    def test_save_takes_float_subclasses(self, tmp_path):
        # np.float64 is written as a JSON number, which load_checkpoint reads back as a float
        params, cfg, meta, path = self._make(tmp_path)
        save_checkpoint(params, cfg, {**meta, "feature_std": list(np.full(11, 2.0))}, path)
        assert load_checkpoint(path).meta["feature_std"] == [2.0] * 11

    def test_missing_normalization_meta(self, tmp_path):
        cfg = NetworkConfig(recurrent_layers=1, hidden_size=4)
        params = init_params(cfg, seed=0)
        with pytest.raises(CheckpointError, match="feature_mean"):
            save_checkpoint(params, cfg, {"window": 5, "period_ms": 200}, tmp_path / "bad.navc")
