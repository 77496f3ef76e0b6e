"""Independent references for the benchmark's output checks.

Every check returns a list of problems; an empty list means the output is
correct. A workload counts an operation as failed when its check reports
any problem, so these checks feed `failed` and the error ratio.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from navrnn import preprocess

NAVW_HEADER = struct.Struct("<4s5I")


class Tally:
    """Operations attempted and failed, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            del self.problems[5:]

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# windows: counts, contents and the NAVW container


def read_navw(path) -> dict:
    """Parse a NAVW v1 file without the package's reader."""
    raw = Path(path).read_bytes()
    magic, version, m, w, f, lab = NAVW_HEADER.unpack_from(raw, 0)
    arr = np.frombuffer(raw, dtype="<f4", offset=NAVW_HEADER.size)
    sizes = {"windows": m * w * f, "labels": m * lab, "weights": lab, "mean": f, "std": f}
    if magic != b"NAVW" or len(arr) != sum(sizes.values()):
        raise ValueError(f"{path}: not a NAVW v1 file of the size its header states")
    out = {"version": version}
    offset = 0
    for key, size in sizes.items():
        out[key] = arr[offset : offset + size]
        offset += size
    out["windows"] = out["windows"].reshape(m, w, f)
    out["labels"] = out["labels"].reshape(m, lab)
    return out


def reference_norm(features: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature z-score statistics of a corpus, stored as float32."""
    stacked = np.vstack(features)
    mean = np.mean(stacked, axis=0).astype(np.float32)
    std = np.maximum(np.std(stacked, axis=0), 1e-6).astype(np.float32)
    return mean, std


def expected_windows(features: np.ndarray, labels: np.ndarray, mean, std, window: int, stride: int):
    """Views of the normalised row slices and end-of-window labels of one flight."""
    rows = (features.astype(np.float32) - mean) / std
    views = sliding_window_view(rows, window, axis=0)[: len(labels) - window + 1 : stride]
    return np.swapaxes(views, 1, 2), labels[window - 1 :: stride].astype(np.float32)


def check_windows(parsed: dict, series: list, mean, std, window: int, stride: int) -> list[str]:
    """Windows equal the normalised row slices of each flight, in flight order."""
    problems = []
    expected_count = sum((len(s.labels) - window) // stride + 1 for s in series)
    windows, labels = parsed["windows"], parsed["labels"]
    if len(windows) != expected_count:
        return [f"{len(windows)} windows, expected {expected_count}"]
    if not (np.array_equal(parsed["mean"], mean) and np.array_equal(parsed["std"], std)):
        problems.append("stored normalisation differs from the training corpus statistics")
    start = 0
    for s in series:
        ref_w, ref_l = expected_windows(s.features, s.labels, mean, std, window, stride)
        stop = start + len(ref_w)
        if not np.array_equal(windows[start:stop], ref_w):
            bad = int(np.argmax([not np.array_equal(a, b) for a, b in zip(windows[start:stop], ref_w)]))
            problems.append(f"{s.log_id}: window {start + bad} is not the normalised row slice")
        if not np.array_equal(labels[start:stop], ref_l):
            problems.append(f"{s.log_id}: labels are not the end-of-window increments")
        start = stop
    return problems


def check_navw_round_trip(path: Path, parsed: dict) -> list[str]:
    """Loading and saving again gives the same arrays and the same bytes."""
    ds = preprocess.load_windows(path)
    same = (
        np.array_equal(ds.windows, parsed["windows"])
        and np.array_equal(ds.labels, parsed["labels"])
        and np.array_equal(ds.weights, parsed["weights"])
    )
    copy = path.with_name(path.stem + "_roundtrip.bin")
    preprocess.save_windows(ds, copy)
    exact = copy.read_bytes() == path.read_bytes()
    copy.unlink()
    return [] if same and exact else [f"{path.name} does not round-trip exactly"]


def check_navw(path: Path, series: list, train_series: list, window: int, stride: int) -> list[str]:
    """A NAVW file holds the windows of series, normalised with the training corpus."""
    mean, std = reference_norm([s.features for s in train_series])
    parsed = read_navw(path)
    return check_windows(parsed, series, mean, std, window, stride) + check_navw_round_trip(path, parsed)


# ---------------------------------------------------------------------------
# train


def check_epochs(train_loss: list[float], val_loss: list[float]) -> list[list[str]]:
    """Per epoch: finite losses; the last epoch's training loss is below the first's."""
    out = []
    last = len(train_loss) - 1
    for k, (tl, vl) in enumerate(zip(train_loss, val_loss)):
        problems = []
        if not (math.isfinite(tl) and math.isfinite(vl)):
            problems.append(f"epoch {k}: non-finite loss {tl} / {vl}")
        elif k == last and k > 0 and not tl < train_loss[0]:
            problems.append(f"final loss {tl} not below the first epoch's {train_loss[0]}")
        out.append(problems)
    return out


# ---------------------------------------------------------------------------
# eval


def brute_force_metrics(path_compare: Path) -> dict:
    """MPE, TN-MPE and MVE recomputed row by row from the written path arrays."""
    with open(path_compare, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    t = [int(r[0]) for r in rows]
    vals = [[float(v) for v in r[1:]] for r in rows]

    def max_dist(a, b):
        return max(math.sqrt(sum((v[a + j] - v[b + j]) ** 2 for j in range(3))) for v in vals)

    mpe = max_dist(3, 0)
    duration_min = (t[-1] - t[0]) * 1e-6 / 60.0
    return {"mpe_m": mpe, "tn_mpe_m_per_min": mpe / duration_min, "mve_mps": max_dist(9, 6)}


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def check_eval(out: Path, rc: int, log_id: str, max_dr_mpe_m: float | None = None) -> list[str]:
    """Summary and per-flight metrics agree with the brute-force recomputation."""
    if rc != 0:
        return [f"eval exited {rc}"]
    problems = []
    ref = brute_force_metrics(out / f"path_compare_{log_id}.csv")
    per_flight = json.loads((out / "metrics" / f"{log_id}.json").read_text())
    summary = json.loads((out / "summary.json").read_text())["nn"]
    with open(out / "summary.csv", newline="") as fh:
        table = {r["log_id"]: r for r in csv.DictReader(fh)}
    row = table.get(log_id)
    if row is None or len(table) != 1:
        return [f"summary.csv rows {sorted(table)}, expected only {log_id}"]
    for key, value in ref.items():
        if not _close(per_flight[key], value, 1e-9):
            problems.append(f"{log_id}: {key} {per_flight[key]} != brute force {value}")
        if not _close(summary[key]["median"], value, 1e-9):
            problems.append(f"{log_id}: summary.json {key} {summary[key]['median']} != brute force {value}")
        if not _close(float(row[f"nn_{key}"]), value, 5e-6):
            problems.append(f"{log_id}: summary.csv {key} {row[f'nn_{key}']} != brute force {value}")
    if max_dr_mpe_m is not None and not float(row["deadreckon_mpe_m"]) < max_dr_mpe_m:
        problems.append(f"{log_id}: noise-free dead reckoning drifted {row['deadreckon_mpe_m']} m")
    return problems


def check_rejected(log_id: str, verdict, reason: str) -> list[str]:
    """Cleanup rejects a designed log, for the reason it was designed to give."""
    if verdict.accepted or reason not in verdict.reasons:
        return [f"{log_id}: cleanup gave accepted={verdict.accepted} {verdict.reasons}, expected {reason}"]
    return []


# ---------------------------------------------------------------------------
# stream


def check_closed_loop(predictions: list, offline: np.ndarray) -> list[str]:
    """Bitwise equal to offline batch-1 prediction, with no sample dropped."""
    online = np.array([p.increment for p in predictions], dtype=np.float64)
    problems = []
    if len(online) < len(offline):
        problems.append(f"{len(online)} online predictions for {len(offline)} offline ones")
    n = min(len(online), len(offline))
    if not np.array_equal(online[:n], offline[:n].astype(np.float64)):
        problems.append("online predictions differ from offline batch-1 prediction")
    if predictions and predictions[-1].dropped_samples:
        problems.append(f"{predictions[-1].dropped_samples} samples dropped")
    return problems


def check_open_loop(predictions: list, offline: np.ndarray, drops: dict, producers_done: bool) -> list[str]:
    """Every bin predicted, finite outputs, no drops, producers finished."""
    problems = []
    if len(predictions) < len(offline):
        problems.append(f"{len(predictions)} open-loop predictions for {len(offline)} bins")
    if not all(np.all(np.isfinite(p.increment)) for p in predictions):
        problems.append("non-finite open-loop prediction")
    dropped = {k: v for k, v in drops.items() if v}
    if dropped:
        problems.append(f"samples dropped: {dropped}")
    if not producers_done:
        problems.append("a replay producer did not finish")
    return problems
