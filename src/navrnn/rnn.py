"""Recurrent network core: forward pass, backpropagation through time,
weighted-MAE loss, Adam, and checkpoint serialization.

The architecture is a stack of LSTM layers followed by a single linear
layer that maps the final hidden state to the six state increments. Gate
activations are sigmoid; the candidate and the output activation are tanh.
Gradients are derived by hand for this fixed architecture and verified
against finite differences in the test suite. All math runs at one declared
precision.

Every sigmoid is ½ + ½·tanh(z/2). An LSTM step activates its [B, 4h] gate
block (columns i, f, g, o) with one tanh and then `*s + off` (0.5/0.5 on
the sigmoid columns, 1/0 on g); the ½ inside the tanh is folded into the
weights once per call, which is exact. The block is activated in place in
the input-projection buffer, which is the tape's `a` [w, B, 4h]; `c` (the
cell state) and `h` are [w, B, h], and backward recomputes tanh(c) one step
at a time and writes its gradients over `a` and `c`. Work arrays come from
a `Buffers` set, reused batch to batch.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CheckpointError, ConfigError, DataError, check_fields, finite_vector
from .flightlog import read_binary, split_payload, write_binary

CHECKPOINT_MAGIC = b"NAVC"
CHECKPOINT_VERSION = 1
CHECKPOINT_HEAD = "<2I"  # version, length of the JSON header that follows
LOCKSTEP_ROWS = 512  # most windows `predict` advances at once: its `Rolling` stays under 20 MB at 4×200


@dataclass
class NetworkConfig:
    recurrent_layers: int = 4
    hidden_size: int = 200
    input_size: int = 11
    output_size: int = 6
    cell: str = "lstm"  # the only cell; kept because it is a key of the NAVC header
    input_activation: str = "tanh"  # the only candidate activation; kept because it is a key of the NAVC header

    def __post_init__(self):
        check_fields(self, recurrent_layers=1, hidden_size=1, input_size=1, output_size=1)
        if self.cell != "lstm":
            raise ConfigError(f"unknown cell {self.cell!r}; only 'lstm' is supported")
        if self.input_activation != "tanh":
            raise ConfigError(f"unknown activation {self.input_activation!r}; only 'tanh' is supported")


@dataclass
class LayerParams:
    wx: np.ndarray  # [4h, in]
    wh: np.ndarray  # [4h, h]
    b: np.ndarray  # [4h]


@dataclass
class DenseParams:
    w: np.ndarray  # [out, h]
    b: np.ndarray  # [out]


@dataclass
class NetworkParams:
    layers: list[LayerParams]
    dense: DenseParams
    cell = "lstm"  # not a field: perfbench's tracer keys network shapes on params.cell

    def arrays(self):
        """(name, array) pairs in canonical serialization order."""
        for i, layer in enumerate(self.layers):
            yield f"layer{i}.wx", layer.wx
            yield f"layer{i}.wh", layer.wh
            yield f"layer{i}.b", layer.b
        yield "dense.w", self.dense.w
        yield "dense.b", self.dense.b

    def copy(self) -> "NetworkParams":
        layers = [LayerParams(l.wx.copy(), l.wh.copy(), l.b.copy()) for l in self.layers]
        return NetworkParams(layers, DenseParams(self.dense.w.copy(), self.dense.b.copy()))

    @property
    def dtype(self):
        return self.layers[0].wx.dtype

    @property
    def hidden_size(self) -> int:
        return self.layers[0].wh.shape[1]

    @property
    def input_size(self) -> int:
        return self.layers[0].wx.shape[1]

    @property
    def output_size(self) -> int:
        return self.dense.w.shape[0]


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def init_params(cfg: NetworkConfig, seed: int, dtype=np.float32) -> NetworkParams:
    """Deterministic initialization.

    Input kernels are Glorot-uniform over the full gate block, recurrent
    kernels are per-gate orthogonal, biases are zero except the forget gate
    which starts at 1.
    """
    rng = np.random.default_rng(seed)
    layers = []
    in_size = cfg.input_size
    h = cfg.hidden_size
    for _ in range(cfg.recurrent_layers):
        limit = np.sqrt(6.0 / (in_size + 4 * h))
        wx = rng.uniform(-limit, limit, size=(4 * h, in_size))
        wh = np.vstack([_orthogonal(rng, h) for _ in range(4)])
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0  # forget gate
        layers.append(LayerParams(wx.astype(dtype), wh.astype(dtype), b.astype(dtype)))
        in_size = h
    limit = np.sqrt(6.0 / (h + cfg.output_size))
    dense = DenseParams(
        rng.uniform(-limit, limit, size=(cfg.output_size, h)).astype(dtype),
        np.zeros(cfg.output_size, dtype=dtype),
    )
    return NetworkParams(layers=layers, dense=dense)


# ---------------------------------------------------------------------------
# batched forward


class Buffers(dict):
    """Named work arrays that training's forward and backward reuse from batch to batch.

    Each name owns one flat byte buffer, grown on demand and never shrunk; an array is carved from its
    front, so every batch size gets a contiguous view. A tape made from a set is valid until the next
    forward on that set; backward writes its gradients into the tape and its step scratch into the set.
    """

    def take(self, name: str, shape: tuple, dtype) -> np.ndarray:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if name not in self or self[name].size < nbytes:
            self[name] = np.empty(nbytes, dtype=np.uint8)
        return self[name][:nbytes].view(dtype).reshape(shape)


@dataclass
class _LayerTape:
    inputs: np.ndarray  # [w, B, in]
    h: np.ndarray  # [w, B, hidden]
    a: np.ndarray  # [w, B, 4*hidden] activated gate block i, f, g, o
    c: np.ndarray  # [w, B, hidden] cell state


@dataclass
class Tape:
    """Per-step activations retained by forward for one backward, which overwrites them:
    gate gradients go into `a` and input gradients into `c`, so a second backward raises."""

    params: NetworkParams
    layer_tapes: list[_LayerTape]
    y_hat: np.ndarray  # [B, out]
    buffers: Buffers  # the set the tape lives in; backward takes its scratch from it
    consumed: bool = False  # set by backward


def _gate_scale(hs: int, dt, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Scale s (½ on the sigmoid columns i, f, o, 1 on the tanh g) and offset 1 - s of the gate block, tiled to
    [rows, 4h] operands of the cell step (numpy broadcasts a [4h] row at half speed)."""
    s = np.full((rows, 4 * hs), 0.5, dtype=dt)
    s[:, 2 * hs : 3 * hs] = 1.0
    return s, 1.0 - s


def _cell_step(s, off, a, c, c_out, h_out, ig, ca):
    """The LSTM step of `forward` and `Rolling`: activates the [B, 4h] pre-activations `a` (z/2 on sigmoid
    columns) in place, then c_out = f·c + i·g, h_out = o·tanh(c_out); ig, ca are [B, h] scratch. Returns (h, c)."""
    i, f, g, o = (a[:, k * ig.shape[1] : (k + 1) * ig.shape[1]] for k in range(4))
    np.tanh(a, out=a)
    a *= s
    a += off
    c = np.multiply(f, c, out=c_out)
    c += np.multiply(i, g, out=ig)
    return np.multiply(o, np.tanh(c, out=ca), out=h_out), c


def forward(params: NetworkParams, window: np.ndarray, buffers: Buffers | None = None):
    """Run a batch of windows [B, w, input_size] through the network.

    Features must already be normalized. Initial recurrent state is zero for
    every window. Returns (y_hat [B, out], tape), the tape `backward` reads.
    Work arrays come from `buffers`, or from a fresh set without it. This is
    training's pass; inference without a tape is `predict`.
    """
    x = np.asarray(window, dtype=params.dtype)
    if x.ndim != 3 or x.shape[2] != params.input_size:
        raise DataError(f"window batch shape {x.shape} is not [B, w, {params.input_size}]")
    B, w, _ = x.shape
    hs, dt = params.hidden_size, params.dtype
    bufs = Buffers() if buffers is None else buffers
    # time-major input to each layer
    seq = bufs.take("x", (w, B, x.shape[2]), dt)  # [w, B, in]
    np.copyto(seq, np.swapaxes(x, 0, 1))
    layer_tapes: list[_LayerTape] = []
    s, off = _gate_scale(hs, dt, B)
    zh, ig, ca = bufs.take("zh", (B, 4 * hs), dt), bufs.take("ig", (B, hs), dt), bufs.take("ca", (B, hs), dt)

    for li, layer in enumerate(params.layers):
        # pre-activation z/2 on the sigmoid columns (exact)
        wx, wh, b = layer.wx * s[0, :, None], layer.wh * s[0, :, None], np.tile(layer.b * s[0], (B, 1))
        pre = bufs.take(f"a{li}", (w, B, 4 * hs), dt)  # [w, B, 4h]
        np.matmul(seq.reshape(w * B, -1), wx.T, out=pre.reshape(w * B, -1))
        H, C = bufs.take(f"h{li}", (w, B, hs), dt), bufs.take(f"c{li}", (w, B, hs), dt)
        h, c = hc = bufs.take("hc", (2, B, hs), dt)  # zero initial state
        hc.fill(0.0)
        for t in range(w):
            a = pre[t]
            a += b  # per step, while the step's block is in cache
            a += np.matmul(h, wh.T, out=zh)
            h, c = _cell_step(s, off, a, c, C[t], H[t], ig, ca)
        layer_tapes.append(_LayerTape(inputs=seq, h=H, a=pre, c=C))
        seq = H

    y = h @ params.dense.w.T + params.dense.b
    return y, Tape(params, layer_tapes, y_hat=y, buffers=bufs)


class Rolling:
    """Stride-1 inference over a stream of rows: window j covers rows j..j+w-1
    from a zero state, so row r is step r-j of the (up to) w windows in flight.

    Their states are one [w, in + L·h] matrix laid out [x | h_0 | h_1 | ...]
    and a [L, w, h] cell array; window j owns slot j mod w, zeroed as it
    starts. Per layer a step (`_advance`, shared with `predict`) runs one GEMM of the layer's
    [input | h] columns against its fused [Wx | Wh]; the cell step writes h into the columns the
    next layer reads. The same rows give the same bits whoever pushes them, and `predict` gives
    them too; `forward` agrees to rounding only (the fused GEMM sums in another order)."""

    def __init__(self, params: NetworkParams, window: int):
        hs, n_in, dt = params.hidden_size, params.input_size, params.dtype
        self.params, self.window, self.rows = params, window, 0
        self.s, self.off = _gate_scale(hs, dt, window)
        # per layer: the state columns [lo, hi) of its [input | h], its fused [in_l + h, 4h] weights (C-ordered:
        # GEMM ~20% faster), its full [w, 4h] bias
        self.layers = [(n_in + (li - 1) * hs if li else 0, n_in + (li + 1) * hs,
                        np.ascontiguousarray(np.hstack([l.wx, l.wh]).T * self.s[0]),
                        np.tile(l.b * self.s[0], (window, 1)))
                       for li, l in enumerate(params.layers)]
        self.state = np.zeros((window, n_in + len(params.layers) * hs), dtype=dt)
        self.cells = np.zeros((len(params.layers), window, hs), dtype=dt)
        self.z, (self.ig, self.ca) = np.empty((window, 4 * hs), dt), np.empty((2, window, hs), dt)

    def _advance(self, x: np.ndarray, n: int | None = None) -> None:  # one step of slots [:n] on x: [in], or [n, in]
        X, hs = self.state, self.params.hidden_size
        X[:n, : self.params.input_size] = x
        for (lo, hi, wt, b), c in zip(self.layers, self.cells):
            z = np.matmul(X[:, lo:hi], wt, out=self.z)
            z += b
            _cell_step(self.s, self.off, z, c, c, X[:, hi - hs : hi], self.ig, self.ca)

    def push(self, row: np.ndarray) -> np.ndarray | None:
        """Advance every window in flight by one normalized row [input_size]; return
        the output [out] of the window it completes (None until the first one)."""
        X, p, hs = self.state, self.params, self.params.hidden_size
        slot = self.rows % self.window  # the window that starts at this row
        X[slot, p.input_size :], self.cells[:, slot] = 0.0, 0.0
        self._advance(row)
        self.rows += 1  # then the slot of window rows - w is complete
        return None if self.rows < self.window else X[self.rows % self.window, -hs:] @ p.dense.w.T + p.dense.b


def predict(params: NetworkParams, windows: np.ndarray) -> np.ndarray:
    """Outputs [m, out] of windows [m, w, in], each run from a zero state: the one forward-only path.

    Up to LOCKSTEP_ROWS windows, the slots of one `Rolling`, take their w steps together (`_advance`), in equal
    blocks; the last block's spare slots read zeros. Each output is the 1-D `h @ W.T + b` of `Rolling.push`, so
    a window gives `push`'s bits. That needs BLAS to give a GEMM row the same bits at any row count of 2 or more
    (OpenBLAS does in float32, the checkpoints' dtype), so a block has 2 slots or more, and 1 at w = 1 as
    `Rolling` has. A strided view (a flight's stride-1 windows) is read step by step, never copied whole.
    """
    x = np.asarray(windows)
    if x.ndim != 3 or x.shape[2] != params.input_size:
        raise DataError(f"window batch shape {x.shape} is not [B, w, {params.input_size}]")
    (m, w, _), hs = x.shape, params.hidden_size
    out = np.empty((m, params.output_size), dtype=params.dtype)
    g = 1 if w == 1 else max(-(-m // max(-(-m // LOCKSTEP_ROWS), 1)), 2)  # 1 row would go to gemv
    block = Rolling(params, g)
    for start in range(0, m, g):
        n = min(g, m - start)
        block.state[:], block.cells[:] = 0.0, 0.0  # a zero state, and zero input in the spare slots
        for t in range(w):
            block._advance(x[start : start + n, t], n)
        for j, h in enumerate(block.state[:n, -hs:]):
            out[start + j] = h @ params.dense.w.T + params.dense.b
    return out


# ---------------------------------------------------------------------------
# loss


@dataclass
class LossSpec:
    """The weighted MAE: one finite positive weight per output signal (all
    ones for the plain MAE)."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = finite_vector(self.weights, "loss weights")
        if np.any(self.weights <= 0):
            raise ConfigError("loss weights must be positive")


def loss(y_hat: np.ndarray, y: np.ndarray, spec: LossSpec) -> float:
    """Per-sample loss averaged over the batch (if one is given)."""
    e = np.asarray(y_hat).astype(np.float64) - np.asarray(y).astype(np.float64)
    per = np.sum(np.abs(e) * spec.weights, axis=-1) / e.shape[-1]
    return float(np.mean(per))


def loss_grad(y_hat: np.ndarray, y: np.ndarray, spec: LossSpec) -> np.ndarray:
    """Gradient of loss() w.r.t. y_hat; |e| subgradient at 0 taken as 0."""
    y_hat = np.asarray(y_hat)
    e = y_hat.astype(np.float64) - np.asarray(y, dtype=np.float64)
    batch = e.shape[0] if e.ndim == 2 else 1
    d = np.sign(e) * spec.weights / e.shape[-1]
    return (d / batch).astype(y_hat.dtype)


# ---------------------------------------------------------------------------
# backward (BPTT)


def backward(tape: Tape, y: np.ndarray, spec: LossSpec) -> NetworkParams:
    """Exact gradients of the batch loss w.r.t. every parameter; consumes the tape (see `Tape`)."""
    if tape.consumed:
        raise RuntimeError("backward already consumed this tape; run forward again")
    tape.consumed = True
    params = tape.params
    dy = loss_grad(tape.y_hat, y, spec)  # [B, out]

    hs, dt = params.hidden_size, params.dtype
    gi, gf, gg, go = (slice(k * hs, (k + 1) * hs) for k in range(4))  # gate columns
    g_dense_w = dy.T @ tape.layer_tapes[-1].h[-1]
    g_dense_b = dy.sum(axis=0)
    d_ext_final = dy @ params.dense.w  # [B, h]

    grads_layers: list[LayerParams | None] = [None] * len(params.layers)
    d_ext: np.ndarray | None = None  # [w, B, h] gradient w.r.t. this layer's output sequence
    w, B, _ = tape.layer_tapes[0].h.shape
    bufs = tape.buffers
    up, sg = bufs.take("up_sg", (2, B, 4 * hs), dt)  # upstream gradient of each gate; σ' of the block
    ca, dh, dc = step = bufs.take("step", (3, B, hs), dt)  # tanh(c); gradients w.r.t. h and c

    for li in range(len(params.layers) - 1, -1, -1):
        layer, lt = params.layers[li], tape.layer_tapes[li]
        A, C = lt.a, lt.c
        step.fill(0.0)
        for t in range(w - 1, -1, -1):
            if d_ext is not None:
                dh += d_ext[t]
            elif t == w - 1:
                dh += d_ext_final
            a = A[t]
            np.tanh(C[t], out=ca)
            dc += (1.0 - ca * ca) * a[:, go] * dh
            np.multiply(dc, a[:, gg], out=up[:, gi])
            np.multiply(dc, C[t - 1] if t > 0 else 0.0, out=up[:, gf])
            np.multiply(dc, a[:, gi], out=up[:, gg])
            np.multiply(dh, ca, out=up[:, go])
            dc *= a[:, gf]
            # σ' = a(1 - a) on the whole block, then tanh' = 1 - g² on the candidate
            np.subtract(1.0, a, out=sg)
            sg *= a
            sg[:, gg] = 1.0 - a[:, gg] * a[:, gg]
            np.multiply(sg, up, out=a)  # step t's gate gradient replaces its gates, read for the last time
            np.matmul(a, layer.wh, out=dh)
        flat_dgx = A.reshape(w * B, -1)
        g_wx = flat_dgx.T @ lt.inputs.reshape(w * B, -1)
        # the state before step 0 is zero, so step 0 adds nothing to g_wh
        g_wh = flat_dgx[B:].T @ lt.h[:-1].reshape((w - 1) * B, hs)
        g_b = flat_dgx.sum(axis=0)
        grads_layers[li] = LayerParams(g_wx, g_wh, g_b)
        if li > 0:  # gradient w.r.t. this layer's input sequence feeds the layer below; C is dead now
            d_ext = np.matmul(flat_dgx, layer.wx, out=C.reshape(w * B, hs)).reshape(w, B, hs)

    return NetworkParams(grads_layers, DenseParams(g_dense_w.astype(dt), g_dense_b.astype(dt)))


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: NetworkParams) -> "AdamState":
        arrays = [a for _, a in params.arrays()]
        return cls(m=[np.zeros_like(a) for a in arrays], v=[np.zeros_like(a) for a in arrays])


def adam_step(
    params: NetworkParams,
    grads: NetworkParams,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[NetworkParams, AdamState]:
    """Standard bias-corrected Adam update; pure, returns new values."""
    t = state.step + 1
    new_params = params.copy()
    new_m, new_v = [], []
    c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t
    for (_, p), (_, g), m, v in zip(new_params.arrays(), grads.arrays(), state.m, state.v):
        g = g.astype(p.dtype)
        m_new = beta1 * m + (1.0 - beta1) * g
        v_new = beta2 * v + (1.0 - beta2) * (g * g)
        p -= lr * (m_new / c1) / (np.sqrt(v_new / c2) + eps)
        new_m.append(m_new)
        new_v.append(v_new)
    return new_params, AdamState(m=new_m, v=new_v, step=t)


# ---------------------------------------------------------------------------
# checkpoints


class Checkpoint(NamedTuple):
    params: NetworkParams
    config: NetworkConfig
    meta: dict


def checkpoint_layout(cfg: NetworkConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every array a NAVC file of cfg holds, in `NetworkParams.arrays()` order."""
    h, layout = cfg.hidden_size, []
    for i in range(cfg.recurrent_layers):
        layout += [(f"layer{i}.wx", (4 * h, cfg.input_size if i == 0 else h)), (f"layer{i}.wh", (4 * h, h)),
                   (f"layer{i}.b", (4 * h,))]
    return layout + [("dense.w", (cfg.output_size, h)), ("dense.b", (cfg.output_size,))]


def _check_arrays(arrays, cfg: NetworkConfig, path) -> list[dict]:
    """cfg's layout as a header's 'arrays' entries; raise CheckpointError
    naming the first of arrays (entries as a header holds them) that differs."""
    want = [{"name": name, "shape": list(shape)} for name, shape in checkpoint_layout(cfg)]
    if not isinstance(arrays, list):
        raise CheckpointError(f"{path}: 'arrays' is not a list")
    for i, (got, expected) in enumerate(itertools.zip_longest(arrays, want, fillvalue={})):
        if got != expected:
            got = got if isinstance(got, dict) else {}
            raise CheckpointError(f"{path}: array {i}: {got.get('name')} has shape {got.get('shape')}, "
                                  f"expected {expected.get('name')} with shape {expected.get('shape')}")
    return want


def _check_meta(meta: dict, cfg: NetworkConfig, path) -> None:
    """Raise CheckpointError unless meta holds what inference reads: a
    positive int window and period_ms, input_size finite feature means and
    positive stds, and output_size positive loss weights."""
    for key in ("window", "period_ms", "feature_mean", "feature_std", "loss_weights"):
        if key not in meta:
            raise CheckpointError(f"{path}: meta missing {key!r}")
    for key in ("window", "period_ms"):
        if type(meta[key]) is not int or meta[key] < 1:
            raise CheckpointError(f"{path}: meta {key} must be a positive integer, got {meta[key]!r}")
    for key, size, positive in (
        ("feature_mean", cfg.input_size, False),
        ("feature_std", cfg.input_size, True),
        ("loss_weights", cfg.output_size, True),
    ):
        value = meta[key]
        # a float subclass such as np.float64 is written as a JSON number; a bool is not a number
        numbers = isinstance(value, list) and len(value) == size and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        with np.errstate(over="ignore"):  # a value beyond float32 becomes inf and fails below
            arr = np.array(value if numbers else [np.nan], dtype=np.float32)  # the precision inference uses
        if not np.all(np.isfinite(arr)) or (positive and not np.all(arr > 0)):
            kind = "finite positive" if positive else "finite"
            raise CheckpointError(f"{path}: meta {key} must be {size} {kind} numbers")


def save_checkpoint(params: NetworkParams, cfg: NetworkConfig, meta: dict, path: str | Path) -> None:
    """Serialize params + config + meta; raise CheckpointError, writing
    nothing, for what `load_checkpoint` would refuse.

    Params must have cfg's array layout, and meta must carry
    what inference reads (the window, the bin period, the feature normalization
    and the loss weights, see `_check_meta`), so inference is self-contained.
    Arrays are stored as little-endian float32 (the training precision), so the
    round trip is bit exact for float32 parameters.
    """
    arrays = _check_arrays([{"name": n, "shape": list(a.shape)} for n, a in params.arrays()], cfg, path)
    _check_meta(meta, cfg, path)
    blob = json.dumps({"config": asdict(cfg), "meta": meta, "arrays": arrays}, sort_keys=True).encode("utf-8")
    head = struct.pack(CHECKPOINT_HEAD, CHECKPOINT_VERSION, len(blob)) + blob
    write_binary(path, CHECKPOINT_MAGIC, head, (a for _, a in params.arrays()))


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    (blob_len,), rest = read_binary(path, CHECKPOINT_MAGIC, CHECKPOINT_HEAD, CHECKPOINT_VERSION, CheckpointError)
    if len(rest) < blob_len:
        raise CheckpointError(f"{path}: truncated JSON header")
    try:
        header = json.loads(bytes(rest[:blob_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc

    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: 'meta' is not a JSON object")
    try:
        cfg = NetworkConfig(**header["config"])
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: bad config ({exc})") from exc
    _check_meta(meta, cfg, path)
    _check_arrays(header.get("arrays", []), cfg, path)
    arrays = split_payload(path, rest[blob_len:], checkpoint_layout(cfg), CheckpointError)
    n = cfg.recurrent_layers
    layers = [LayerParams(arrays[f"layer{i}.wx"], arrays[f"layer{i}.wh"], arrays[f"layer{i}.b"]) for i in range(n)]
    return Checkpoint(NetworkParams(layers, DenseParams(arrays["dense.w"], arrays["dense.b"])), cfg, meta)
