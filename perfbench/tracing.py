"""Spans around navrnn's layers, recorded from outside the package.

`Tracer.installed()` replaces the public functions each layer exposes (and
a few methods) with wrappers that record one span per call: name, start,
end, parent span, and the group id of the operation, flight or batch being
worked on. A function is replaced in every navrnn module that holds it, so
`from .rnn import forward` call sites are covered as well. Spans stay in
memory; the caller writes them out when the run ends.

`layer_metrics` folds the spans of one run into the per-layer metrics named
in PER_LAYER. Times and counts are per operation of the workload (one
training epoch, one flight evaluation, one closed-loop stream pass); the
synthesis, CSV writing, windowing and NAVW writing of the set-up are per
set-up repetition.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name); "Class.method" patches the class attribute
TARGETS = (
    ("navrnn.flightlog", "read_flight_log", "flightlog.read"),
    ("navrnn.flightlog", "write_flight_log", "flightlog.write"),
    ("navrnn.synth", "generate_flight", "synth.generate"),
    ("navrnn.preprocess", "detect_corrupted", "preprocess.cleanup"),
    ("navrnn.preprocess", "unify_rates", "preprocess.unify"),
    ("navrnn.preprocess", "build_dataset", "preprocess.window"),
    ("navrnn.preprocess", "save_windows", "preprocess.save"),
    ("navrnn.preprocess", "load_windows", "preprocess.load"),
    ("navrnn.rnn", "forward", "rnn.forward"),
    ("navrnn.rnn", "backward", "rnn.backward"),
    ("navrnn.rnn", "loss", "rnn.loss"),
    ("navrnn.rnn", "adam_step", "rnn.adam"),
    ("navrnn.rnn", "predict", "rnn.predict"),
    ("navrnn.train", "fit", "train.fit"),
    # the validation pass has no public entry point of its own
    ("navrnn.train", "_dataset_loss", "train.val"),
    ("navrnn.deadreckon", "dead_reckon", "deadreckon.dead_reckon"),
    ("navrnn.evaluate", "evaluate_flight", "evaluate.evaluate_flight"),
    ("navrnn.evaluate", "baseline_flight_metrics", "evaluate.baseline"),
    ("navrnn.evaluate", "aggregate_metrics", "evaluate.aggregate"),
    ("navrnn.evaluate", "write_summary_csv", "evaluate.write"),
    ("navrnn.evaluate", "FlightMetrics.save", "evaluate.write"),
    ("navrnn.evaluate", "FlightMetrics.write_path_compare", "evaluate.write"),
    ("navrnn.cli", "main", "cli.main"),
    ("navrnn.stream", "run_stream", "stream.run_stream"),
)

# wrapped only while the open-loop replay runs: one span per sensor sample
PUT_TARGET = ("navrnn.stream", "SensorQueue.put", "stream.put")

# name -> unit; BENCHMARK.json lists the same names
PER_LAYER = {
    "flightlog.read_s": "s",
    "flightlog.read_mb_per_s": "MB/s",
    "synth.generate_s": "s",
    "flightlog.write_s": "s",
    "preprocess.cleanup_s": "s",
    "preprocess.unify_s": "s",
    "preprocess.window_s": "s",
    "preprocess.window_bytes": "B",
    "preprocess.save_s": "s",
    "preprocess.navw_bytes": "B",
    "preprocess.load_s": "s",
    "rnn.forward_s": "s",
    "rnn.backward_s": "s",
    "rnn.loss_s": "s",
    "rnn.adam_s": "s",
    "rnn.forward_gflops_per_s": "GFLOP/s",
    "rnn.backward_gflops_per_s": "GFLOP/s",
    "rnn.predict_s": "s",
    "rnn.forward_b1_s": "s",
    "rnn.paper_forward_s": "s",
    "rnn.paper_backward_s": "s",
    "train.val_s": "s",
    "train.self_s": "s",
    "deadreckon.dead_reckon_s": "s",
    "deadreckon.us_per_imu_sample": "us",
    "evaluate.self_s": "s",
    "cli.self_s": "s",
    "stream.closed.harness_s": "s",
    "stream.open.latency_p99_ms": "ms",
    "stream.open.compute_p50_ms": "ms",
    "stream.open.wait_p50_ms": "ms",
    "stream.open.generator_late_p99_ms": "ms",
    "stream.open.spawn_ms": "ms",
    "preprocess.rejected.no_takeoff": "count",
    "preprocess.rejected.too_short": "count",
    "preprocess.rejected.validation_defects": "count",
    "preprocess.carried_bins": "count",
    "rnn.forward_calls": "count",
    "train.batches": "count",
    "stream.drops.imu": "count",
    "stream.drops.baro": "count",
    "stream.drops.mag": "count",
    "stream.carried_imu": "count",
    "trace.overhead_pct": "%",
}


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "group", "extra")

    def __init__(self, sid, name, start, end, parent, group, extra):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.group = group
        self.extra = extra

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent, self.group, self.extra]


# ---------------------------------------------------------------------------
# what each wrapper keeps besides the times


def _csv_bytes(args, kwargs, result):
    root = Path(args[0])
    return sum(os.path.getsize(root / f"{s}.csv") for s in ("imu", "baro", "mag", "ekf"))


def _verdict(args, kwargs, result):
    return list(result.reasons)


def _carried(args, kwargs, result):
    return result.baro_carried + result.mag_carried


def _window_bytes(args, kwargs, result):
    return result.windows.nbytes + result.labels.nbytes


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _forward_shape(args, kwargs, result):
    params, x = args[0], np.asarray(args[1])
    want_tape = kwargs.get("want_tape", args[2] if len(args) > 2 else True)
    batch = x.shape[0] if x.ndim == 3 else 0  # 0 marks an unbatched window
    return (batch, x.shape[-2], _net_dims(params), bool(want_tape))


def _backward_shape(args, kwargs, result):
    tape = args[0]
    w, batch, _ = tape.layer_tapes[0].h.shape
    return (batch, w, _net_dims(tape.params), True)


def _net_dims(params):
    return (len(params.layers), params.hidden_size, params.input_size, params.output_size, params.cell)


def _imu_samples(args, kwargs, result):
    return len(result) - 1


def _sample_time(args, kwargs, result):
    item = args[1]
    return int(item[0]) if isinstance(item, tuple) else None


EXTRAS = {
    "flightlog.read": _csv_bytes,
    "preprocess.cleanup": _verdict,
    "preprocess.unify": _carried,
    "preprocess.window": _window_bytes,
    "preprocess.save": _file_bytes,
    "rnn.forward": _forward_shape,
    "rnn.backward": _backward_shape,
    "deadreckon.dead_reckon": _imu_samples,
    "stream.put": _sample_time,
}


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.group = ""
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        extra_fn = EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            group = tracer.group
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = extra_fn(args, kwargs, result) if extra_fn else None
            tracer.spans.append(Span(sid, name, start, end, parent, group, extra))
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded, e.g. the benchmark's own checks."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        undo = []
        try:
            for module_name, attr, name in targets:
                undo.extend(_patch(module_name, attr, lambda fn, n=name: self.wrap(fn, n)))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _patch(module_name: str, attr: str, make_wrapper) -> list:
    """Replace attr in its module (or class) and in every navrnn module holding it."""
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(module, cls_name)
        original = owner.__dict__[meth]
        setattr(owner, meth, make_wrapper(original))
        return [(owner, meth, original)]
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "navrnn" or mod_name.startswith("navrnn.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                undo.append((mod, key, original))
    return undo


# ---------------------------------------------------------------------------
# folding spans into metrics


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time covered by its child spans.

    Children of one span run in its thread one after another, so their
    durations do not overlap and can be summed.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.sid: s.duration - child_time.get(s.sid, 0.0) for s in spans}


def lstm_flops(extra, backward: bool) -> float:
    """GEMM floating-point operations of one forward or backward call, from shapes.

    Counts 2*m*n*k per matrix product and ignores element-wise work, so it
    is an operation count computed from shapes, not a measurement.
    """
    batch, w, (layers, hs, n_in, n_out, cell), _ = extra
    batch = max(batch, 1)
    gates = {"lstm": 4, "gru": 3, "vanilla": 1}[cell] * hs
    rows = w * batch
    flops = 0.0
    for li in range(layers):
        layer_in = n_in if li == 0 else hs
        if backward:
            # dh through wh, the wh and wx gradients, the input gradient
            flops += 2.0 * rows * gates * (2 * hs + 2 * layer_in)
        else:
            # input projection and recurrent product
            flops += 2.0 * rows * gates * (layer_in + hs)
    flops += 2.0 * batch * hs * n_out * (2 if backward else 1)
    return flops


def _total(spans, name) -> float:
    return float(sum(s.duration for s in spans if s.name == name))


def setup_metrics(spans, reps: int) -> dict[str, float]:
    """Set-up layers, per set-up repetition."""
    return {
        "synth.generate_s": _total(spans, "synth.generate") / reps,
        "flightlog.write_s": _total(spans, "flightlog.write") / reps,
        "preprocess.window_s": _total(spans, "preprocess.window") / reps,
        "preprocess.window_bytes": sum(s.extra for s in spans if s.name == "preprocess.window") / reps,
        "preprocess.save_s": _total(spans, "preprocess.save") / reps,
        "preprocess.navw_bytes": sum(s.extra for s in spans if s.name == "preprocess.save") / reps,
    }


def layer_metrics(load_spans, spans, ops: int) -> dict[str, float]:
    """Per-layer metrics from the load spans and the spans of `ops` traced operations."""
    m = {name: 0.0 for name in PER_LAYER}
    m["preprocess.load_s"] = _total(load_spans, "preprocess.load")
    if not ops:
        return m

    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def per_op(name):
        return _total(spans, name) / ops

    reads = by_name.get("flightlog.read", [])
    m["flightlog.read_s"] = per_op("flightlog.read")
    read_time = sum(s.duration for s in reads)
    if read_time > 0:
        m["flightlog.read_mb_per_s"] = sum(s.extra for s in reads) / 1e6 / read_time
    for key, name in (
        ("preprocess.cleanup_s", "preprocess.cleanup"),
        ("preprocess.unify_s", "preprocess.unify"),
        ("rnn.backward_s", "rnn.backward"),
        ("rnn.loss_s", "rnn.loss"),
        ("rnn.adam_s", "rnn.adam"),
        ("rnn.predict_s", "rnn.predict"),
        ("train.val_s", "train.val"),
        ("deadreckon.dead_reckon_s", "deadreckon.dead_reckon"),
    ):
        m[key] = per_op(name)
    for s in by_name.get("preprocess.cleanup", []):
        for reason in s.extra:
            key = f"preprocess.rejected.{reason}"
            if key in m:
                m[key] += 1.0 / ops
    m["preprocess.carried_bins"] = sum(s.extra for s in by_name.get("preprocess.unify", [])) / ops

    forwards = by_name.get("rnn.forward", [])
    taped = [s for s in forwards if s.extra[3]]
    b1 = [s for s in forwards if s.extra[0] == 0]
    m["rnn.forward_calls"] = len(forwards) / ops
    m["rnn.forward_s"] = sum(s.duration for s in taped) / ops
    m["rnn.forward_b1_s"] = sum(s.duration for s in b1) / ops
    if taped:
        m["rnn.forward_gflops_per_s"] = sum(lstm_flops(s.extra, False) for s in taped) / 1e9 / sum(
            s.duration for s in taped
        )
    backwards = by_name.get("rnn.backward", [])
    if backwards:
        m["rnn.backward_gflops_per_s"] = sum(lstm_flops(s.extra, True) for s in backwards) / 1e9 / sum(
            s.duration for s in backwards
        )
    m["train.batches"] = len(backwards) / ops
    m["train.self_s"] = sum(selfs[s.sid] for s in by_name.get("train.fit", [])) / ops

    dr = by_name.get("deadreckon.dead_reckon", [])
    samples = sum(s.extra for s in dr)
    if samples:
        m["deadreckon.us_per_imu_sample"] = sum(s.duration for s in dr) / samples * 1e6
    m["evaluate.self_s"] = sum(selfs[s.sid] for s in spans if s.name.startswith("evaluate.")) / ops
    m["cli.self_s"] = sum(selfs[s.sid] for s in by_name.get("cli.main", [])) / ops
    m["stream.closed.harness_s"] = sum(selfs[s.sid] for s in by_name.get("stream.run_stream", [])) / ops
    return m
