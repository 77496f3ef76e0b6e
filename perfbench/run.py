"""navrnn benchmark: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload {train,eval,stream} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
src/ directory. A run builds the workload's inputs from the seed three times
(setup_s is the median, plus the time the timed process spends loading
them), checks what the set-up built, then runs the timed phase in a child
process, whose peak resident memory is read from outside with getrusage.
Every operation's output is checked against an independent reference; an
operation whose check fails counts in `failed`.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones: setup_s, peak_rss_mb, items_per_s (windows, flights or
closed-loop predictions, all of a run's items over all of its timed
operations) and latency_p50_ms (the median per training epoch, per
evaluated flight, or per open-loop prediction from its due time). The 99th
percentile and the sample count are in the run record; the stream's p99
also is a per-layer metric, since on a shared 2-core VM it moves with every
stall of the host. With --trace 1 they are the per-layer metrics of
tracing.PER_LAYER, from a run whose timed phase is traced for one half and
untraced for the other. The line before it holds the run's metadata, and a
record of the run (with the spans of a traced run) is written under
.perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
CHILD_DEADLINE_S = 170.0
WORKLOADS = ("train", "eval", "stream")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small flights and corpora, for the benchmark's tests")
    p.add_argument("--measure", metavar="DIR", help=argparse.SUPPRESS)  # child: timed phase on DIR
    return p.parse_args(argv)


def import_navrnn():
    """Import navrnn from this checkout's src/, or exit 2 when it has none."""
    src = ROOT / "src"
    if not (src / "navrnn" / "__init__.py").is_file():
        print(f"perfbench: no navrnn package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import navrnn

    if Path(navrnn.__file__).resolve().parent != (src / "navrnn").resolve():
        print(f"perfbench: navrnn imported from {navrnn.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return navrnn


def run_child(cmd: list[str], timeout_s: float) -> tuple[int, float]:
    """Run cmd to completion; returns its exit code and peak RSS in MB.

    The peak is that of the largest child reaped so far, so cmd must be the
    first child process this one starts.
    """
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        rc = -9
    return rc, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # KiB on Linux


def metadata(args, navrnn) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    commit = "unknown"
    if shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "commit": commit,
        "navrnn": getattr(navrnn, "__version__", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def child_main(args) -> int:
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    size = workloads.TINY if args.tiny else workloads.FULL
    root = Path(args.measure)
    summary = workloads.measure(args.workload, root, args.seed, size, args.seconds, tracer)
    if tracer:
        summary["spans"] = [s.to_list() for s in tracer.spans]
    (root / "result.json").write_text(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    navrnn = import_navrnn()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.measure:
        return child_main(args)

    import workloads
    from checks import Tally
    from tracing import PER_LAYER, Tracer, setup_metrics

    started = time.monotonic()
    size = workloads.TINY if args.tiny else workloads.FULL
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    try:
        setup_s = []
        for rep in range(SETUP_REPS):
            inputs = work / f"setup{rep}"
            inputs.mkdir(parents=True)
            t0 = time.perf_counter()
            with workloads.traced(tracer, f"setup{rep}"):
                workloads.SETUP[args.workload](inputs, args.seed, size)
            setup_s.append(time.perf_counter() - t0)
            if rep:
                shutil.rmtree(work / f"setup{rep - 1}")

        check = workloads.CHECK_INPUTS.get(args.workload)
        inputs_tally = check(inputs, args.seed, size) if check else Tally()

        cmd = [sys.executable, str(Path(__file__).resolve()), "--measure", str(inputs)]
        cmd += ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        rc, peak_rss_mb = run_child(cmd, CHILD_DEADLINE_S - (time.monotonic() - started))
        if rc != 0:
            print(f"perfbench: timed phase exited with {rc}", file=sys.stderr)
            return 1
        summary = json.loads((inputs / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        layers = summary.pop("layers")
        layers.update(setup_metrics(tracer.spans, SETUP_REPS))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s) + summary["load_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "items_per_s": {"value": summary["items_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": summary["latency_p50_ms"], "unit": "ms"},
        }

    summary["problems"] += inputs_tally.problems
    attempted = summary["attempted"] = summary["attempted"] + inputs_tally.attempted
    failed = summary["failed"] = summary["failed"] + inputs_tally.failed
    summary["error_ratio"] = failed / attempted
    record = {
        "meta": metadata(args, navrnn),
        "setup_reps_s": setup_s,
        **{k: v for k, v in summary.items() if k != "spans"},
    }
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = dict(record, metrics=metrics)
    if tracer:
        full["spans"] = {"setup": [s.to_list() for s in tracer.spans], "timed": summary.get("spans", [])}
    (runs / f"{stem}.json").write_text(json.dumps(full))
    print(json.dumps({"perfbench": record}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
