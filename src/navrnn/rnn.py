"""Recurrent network core: forward pass, backpropagation through time,
weighted-MAE loss, Adam, and checkpoint serialization.

The architecture is a stack of LSTM layers followed by a single linear
layer that maps the final hidden state to the six state increments. Gate
activations are sigmoid; the input activation is configurable (tanh
default). Gradients are derived by hand for this fixed architecture and
verified against finite differences in the test suite. All math runs at one
declared precision.

Every sigmoid is ½ + ½·tanh(z/2). An LSTM step activates its [B, 4h] gate
block (columns i, f, g, o) with one tanh and then `*s + off` (0.5/0.5 on
sigmoid columns, 1/0 on a tanh g; a relu g is taken before the tanh); the ½
inside the tanh is folded into the weights once per call, which is exact.
The block is activated in place in the input-projection buffer, which is
the tape's `a` [w, B, 4h]; `c`, `ca` (the cell state and its activation)
and `h` are [w, B, h].
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CheckpointError, ConfigError, DataError

ACTIVATIONS = ("tanh", "relu", "sigmoid")

CHECKPOINT_MAGIC = b"NAVC"
CHECKPOINT_VERSION = 1


@dataclass
class NetworkConfig:
    recurrent_layers: int = 4
    hidden_size: int = 200
    input_size: int = 11
    output_size: int = 6
    cell: str = "lstm"  # the only cell; kept because it is a key of the NAVC header
    input_activation: str = "tanh"
    # the recurrent (gate) activation is fixed to sigmoid

    def __post_init__(self):
        if min(self.recurrent_layers, self.hidden_size, self.input_size, self.output_size) < 1:
            raise ConfigError("network sizes must be positive")
        if self.cell != "lstm":
            raise ConfigError(f"unknown cell {self.cell!r}; only 'lstm' is supported")
        if self.input_activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.input_activation!r}")


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as ½ + ½·tanh(x/2): one tanh, no overflow, in [0, 1]."""
    y = np.multiply(x, 0.5, out=out)
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


def _act(name: str, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if name == "tanh":
        return np.tanh(x, out=out)
    if name == "relu":
        return np.maximum(x, 0.0, out=out)
    return sigmoid(x, out=out)


def _act_deriv_from_value(name: str, y: np.ndarray) -> np.ndarray:
    """Derivative of the activation expressed through its output value."""
    if name == "tanh":
        return 1.0 - y * y
    if name == "relu":
        return (y > 0.0).astype(y.dtype)
    return y * (1.0 - y)


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
    input_activation: str = "tanh"
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
        return NetworkParams(
            layers=[LayerParams(l.wx.copy(), l.wh.copy(), l.b.copy()) for l in self.layers],
            dense=DenseParams(self.dense.w.copy(), self.dense.b.copy()),
            input_activation=self.input_activation,
        )

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
    return NetworkParams(layers=layers, dense=dense, input_activation=cfg.input_activation)


# ---------------------------------------------------------------------------
# batched forward


@dataclass
class _LayerTape:
    inputs: np.ndarray  # [w, B, in]
    h: np.ndarray  # [w, B, hidden]
    a: np.ndarray  # [w, B, 4*hidden] activated gate block i, f, g, o
    c: np.ndarray  # [w, B, hidden] cell state
    ca: np.ndarray  # [w, B, hidden] activated cell state


@dataclass
class Tape:
    """Per-step activations retained by forward for backpropagation."""

    params: NetworkParams
    layer_tapes: list[_LayerTape]
    h_final: np.ndarray  # [B, hidden]
    y_hat: np.ndarray  # [B, out]
    batched_input: bool = True


def forward(params: NetworkParams, window: np.ndarray, want_tape: bool = True):
    """Run a window (or batch of windows) through the network.

    Input shape [w, input_size] or [B, w, input_size]; features must already
    be normalized. Initial recurrent state is zero for every window. Returns
    (y_hat, tape); tape is None when want_tape is False.
    """
    x = np.asarray(window, dtype=params.dtype)
    batched = x.ndim == 3
    if not batched:
        x = x[None]
    if x.ndim != 3 or x.shape[2] != params.input_size:
        raise DataError(f"window shape {np.asarray(window).shape} does not match input size {params.input_size}")
    B, w, _ = x.shape
    hs = params.hidden_size
    act_name = params.input_activation
    # time-major input to each layer
    seq = np.ascontiguousarray(np.swapaxes(x, 0, 1))  # [w, B, in]
    layer_tapes: list[_LayerTape] = []
    gi, gf, gg, go = (slice(k * hs, (k + 1) * hs) for k in range(4))  # gate columns
    s = np.full(4 * hs, 0.5, dtype=params.dtype)  # ½ on sigmoid columns, 1 on a tanh/relu g
    s[gg] = 0.5 if act_name == "sigmoid" else 1.0
    off = 1.0 - s

    for layer in params.layers:
        # pre-activation z/2 on the sigmoid columns (exact)
        wx, wh, b = layer.wx * s[:, None], layer.wh * s[:, None], layer.b * s
        pre = (seq.reshape(w * B, -1) @ wx.T).reshape(w, B, -1)  # [w, B, 4h]
        pre += b
        h = np.zeros((B, hs), dtype=params.dtype)
        c = np.zeros((B, hs), dtype=params.dtype)
        H = np.empty((w, B, hs), dtype=params.dtype)
        C = np.empty_like(H)
        CA = np.empty_like(H)
        zh = np.empty((B, 4 * hs), dtype=params.dtype)
        ig = np.empty_like(c)
        for t in range(w):
            a = pre[t]
            a += np.matmul(h, wh.T, out=zh)
            if act_name == "relu":
                np.maximum(a[:, gg], 0.0, out=ig)
            np.tanh(a, out=a)
            a *= s
            a += off
            if act_name == "relu":
                a[:, gg] = ig
            c = np.multiply(a[:, gf], c, out=C[t])
            c += np.multiply(a[:, gi], a[:, gg], out=ig)
            h = np.multiply(a[:, go], _act(act_name, c, out=CA[t]), out=H[t])
        if want_tape:
            layer_tapes.append(_LayerTape(inputs=seq, h=H, a=pre, c=C, ca=CA))
        seq = H

    y = h @ params.dense.w.T + params.dense.b
    tape = None
    if want_tape:
        tape = Tape(params=params, layer_tapes=layer_tapes, h_final=h, y_hat=y, batched_input=batched)
    return (y if batched else y[0]), tape


def predict(params: NetworkParams, windows: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Tape-free forward over many windows, in fixed-size chunks.

    Chunking changes BLAS blocking, so outputs are reproducible only for a
    fixed batch_size; use batch_size=1 to match streaming inference bit for
    bit.
    """
    windows = np.asarray(windows)
    out = np.empty((len(windows), params.output_size), dtype=params.dtype)
    for start in range(0, len(windows), batch_size):
        chunk = windows[start : start + batch_size]
        y, _ = forward(params, chunk, want_tape=False)
        out[start : start + len(chunk)] = y
    return out


# ---------------------------------------------------------------------------
# loss


@dataclass
class LossSpec:
    kind: str = "weighted_mae"
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("mae", "weighted_mae"):
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if self.kind == "weighted_mae":
            if self.weights is None:
                raise ConfigError("weighted_mae requires weights")
            if np.any(self.weights <= 0):
                raise ConfigError("loss weights must be positive")


def _per_signal_weights(spec: LossSpec):
    return spec.weights if spec.kind == "weighted_mae" else 1.0


def loss(y_hat: np.ndarray, y: np.ndarray, spec: LossSpec) -> float:
    """Per-sample loss averaged over the batch (if one is given)."""
    e = np.asarray(y_hat).astype(np.float64) - np.asarray(y).astype(np.float64)
    per = np.sum(np.abs(e) * _per_signal_weights(spec), axis=-1) / e.shape[-1]
    return float(np.mean(per))


def loss_grad(y_hat: np.ndarray, y: np.ndarray, spec: LossSpec) -> np.ndarray:
    """Gradient of loss() w.r.t. y_hat; |e| subgradient at 0 taken as 0."""
    y_hat = np.asarray(y_hat)
    e = y_hat.astype(np.float64) - np.asarray(y, dtype=np.float64)
    batch = e.shape[0] if e.ndim == 2 else 1
    d = np.sign(e) * _per_signal_weights(spec) / e.shape[-1]
    return (d / batch).astype(y_hat.dtype)


# ---------------------------------------------------------------------------
# backward (BPTT)


def backward(tape: Tape, y: np.ndarray, spec: LossSpec) -> NetworkParams:
    """Exact gradients of the batch loss w.r.t. every parameter."""
    params = tape.params
    y = np.asarray(y)
    if not tape.batched_input:
        y = y[None]
    dy = loss_grad(tape.y_hat, y, spec)  # [B, out]

    act_name = params.input_activation
    hs = params.hidden_size
    gi, gf, gg, go = (slice(k * hs, (k + 1) * hs) for k in range(4))  # gate columns
    g_dense_w = dy.T @ tape.h_final
    g_dense_b = dy.sum(axis=0)
    d_ext_final = dy @ params.dense.w  # [B, h]

    grads_layers: list[LayerParams | None] = [None] * len(params.layers)
    d_ext: np.ndarray | None = None  # [w, B, h] gradient w.r.t. this layer's output sequence
    w, B, _ = tape.layer_tapes[0].h.shape
    # gradients w.r.t. the gate pre-activations, one buffer for every layer
    dgx = np.empty((w, B, 4 * hs), dtype=params.dtype)

    for li in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[li]
        lt = tape.layer_tapes[li]
        A, C, CA = lt.a, lt.c, lt.ca
        dh = np.zeros((B, hs), dtype=params.dtype)
        dc = np.zeros_like(dh)
        up = np.empty((B, 4 * hs), dtype=params.dtype)  # upstream gradient of each gate
        for t in range(w - 1, -1, -1):
            if d_ext is not None:
                dh += d_ext[t]
            elif t == w - 1:
                dh += d_ext_final
            dgates = dgx[t]
            a = A[t]
            dc += _act_deriv_from_value(act_name, CA[t]) * a[:, go] * dh
            np.multiply(dc, a[:, gg], out=up[:, gi])
            np.multiply(dc, C[t - 1] if t > 0 else 0.0, out=up[:, gf])
            np.multiply(dc, a[:, gi], out=up[:, gg])
            np.multiply(dh, CA[t], out=up[:, go])
            # σ' = a(1 - a) on the whole block, then the candidate's own derivative
            np.subtract(1.0, a, out=dgates)
            dgates *= a
            if act_name != "sigmoid":
                dgates[:, gg] = _act_deriv_from_value(act_name, a[:, gg])
            dgates *= up
            dc *= a[:, gf]
            np.matmul(dgates, layer.wh, out=dh)
        flat_x = lt.inputs.reshape(w * B, -1)
        flat_dgx = dgx.reshape(w * B, -1)
        g_wx = flat_dgx.T @ flat_x
        # the state before step 0 is zero, so step 0 adds nothing to g_wh
        g_wh = flat_dgx[B:].T @ lt.h[:-1].reshape((w - 1) * B, hs)
        g_b = flat_dgx.sum(axis=0)
        grads_layers[li] = LayerParams(g_wx, g_wh, g_b)
        if li > 0:  # gradient w.r.t. this layer's input sequence feeds the layer below
            d_ext = (flat_dgx @ layer.wx).reshape(w, B, -1)

    return NetworkParams(
        layers=grads_layers,
        dense=DenseParams(g_dense_w.astype(params.dtype), g_dense_b.astype(params.dtype)),
        input_activation=params.input_activation,
    )


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
    new_m = []
    new_v = []
    p_arrays = [a for _, a in new_params.arrays()]
    g_arrays = [a for _, a in grads.arrays()]
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for p, g, m, v in zip(p_arrays, g_arrays, state.m, state.v):
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


REQUIRED_META = ("window", "feature_mean", "feature_std", "loss_weights")


def save_checkpoint(params: NetworkParams, cfg: NetworkConfig, meta: dict, path: str | Path) -> None:
    """Serialize params + config + meta.

    Arrays are stored as little-endian float32 (the training precision), so
    the round trip is bit exact for float32 parameters. meta must carry the
    window, the feature normalization and the loss weights; inference is
    self-contained.
    """
    for key in REQUIRED_META:
        if key not in meta:
            raise CheckpointError(f"meta missing required key {key!r}")
    arrays = [(name, np.ascontiguousarray(a, dtype="<f4")) for name, a in params.arrays()]
    header = {
        "config": asdict(cfg),
        "meta": meta,
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<2I", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(a.tobytes())


def _valid_array_desc(desc) -> bool:
    """A NAVC array entry: a str name and a list of non-negative int dims."""
    if not isinstance(desc, dict) or not isinstance(desc.get("name"), str):
        return False
    shape = desc.get("shape")
    return isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)


def _check_meta(meta: dict, cfg: NetworkConfig, path: Path) -> None:
    """Raise CheckpointError unless meta holds what inference reads: a
    positive int window and period_ms (when present), input_size finite
    feature means and positive stds, and output_size positive loss weights."""
    for key in ("window", "period_ms"):
        value = meta.get(key, 1)  # window is in REQUIRED_META; period_ms may be absent
        if type(value) is not int or value < 1:
            raise CheckpointError(f"{path}: meta {key} must be a positive integer, got {value!r}")
    for key, size, positive in (
        ("feature_mean", cfg.input_size, False),
        ("feature_std", cfg.input_size, True),
        ("loss_weights", cfg.output_size, True),
    ):
        value = meta[key]
        numbers = isinstance(value, list) and len(value) == size and all(type(v) in (int, float) for v in value)
        with np.errstate(over="ignore"):  # a value beyond float32 becomes inf and fails below
            arr = np.array(value if numbers else [np.nan], dtype=np.float32)  # the precision inference uses
        if not np.all(np.isfinite(arr)) or (positive and not np.all(arr > 0)):
            kind = "finite positive" if positive else "finite"
            raise CheckpointError(f"{path}: meta {key} must be {size} {kind} numbers")


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"missing checkpoint: {path}")
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        head = fh.read(8)
        if len(head) != 8:
            raise CheckpointError(f"{path}: truncated header")
        version, blob_len = struct.unpack("<2I", head)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        blob = fh.read(blob_len)
        if len(blob) != blob_len:
            raise CheckpointError(f"{path}: truncated JSON header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
        payload = fh.read()

    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: 'meta' is not a JSON object")
    for key in REQUIRED_META:
        if key not in meta:
            raise CheckpointError(f"{path}: meta missing {key!r}; refusing to load")
    try:
        cfg = NetworkConfig(**header["config"])
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: bad config ({exc})") from exc
    _check_meta(meta, cfg, path)

    arrays = {}
    offset = 0
    descs = header.get("arrays", [])
    if not isinstance(descs, list) or not all(map(_valid_array_desc, descs)):
        raise CheckpointError(f"{path}: malformed 'arrays' header")
    for desc in descs:
        shape = tuple(desc["shape"])
        count = int(np.prod(shape))
        nbytes = 4 * count
        if offset + nbytes > len(payload):
            raise CheckpointError(f"{path}: truncated array data for {desc['name']}")
        arrays[desc["name"]] = np.frombuffer(payload, dtype="<f4", count=count, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} trailing bytes")

    h, n = cfg.hidden_size, cfg.recurrent_layers
    expected = {}
    for i in range(n):
        expected[f"layer{i}.wx"] = (4 * h, cfg.input_size if i == 0 else h)
        expected[f"layer{i}.wh"] = (4 * h, h)
        expected[f"layer{i}.b"] = (4 * h,)
    expected["dense.w"] = (cfg.output_size, h)
    expected["dense.b"] = (cfg.output_size,)
    for name, shape in expected.items():
        if name not in arrays:
            raise CheckpointError(f"{path}: missing array {name!r}")
        if arrays[name].shape != shape:
            raise CheckpointError(f"{path}: {name} has shape {arrays[name].shape}, expected {shape}")
    params = NetworkParams(
        layers=[LayerParams(arrays[f"layer{i}.wx"], arrays[f"layer{i}.wh"], arrays[f"layer{i}.b"]) for i in range(n)],
        dense=DenseParams(arrays["dense.w"], arrays["dense.b"]),
        input_activation=cfg.input_activation,
    )
    return Checkpoint(params=params, config=cfg, meta=meta)
