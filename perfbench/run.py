"""pmtk benchmark: one workload, one process, one closed-loop caller.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_b8_64 --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from ``--seed``, runs operations back to back
for ``--seconds`` and checks each operation's output. Prints a report (the
machine, every metric by name with its unit, the failure count) and, as the
last line, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` gives the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics, from operations traced in the same process and
alternated with untraced ones, which also gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train_b8_64", "train_b2_128", "infer_b1_64", "denoise_512")
SETUP_PROBES = 3

# BLAS threads and pmtk's precision and debug mode are part of the workload
# definition; they are pinned before numpy and pmtk are imported.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["PMTK_PRECISION"] = "f32"
os.environ["PMTK_DEBUG"] = "0"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def machine() -> dict:
    import numpy as np
    from pmtk import precision

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "precision": precision.precision(),
    }


def setup_seconds(argv: list) -> list:
    """Process start to ready-for-the-first-timed-operation, in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, __file__, *argv, "--setup-probe"],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


def percentile(values: list, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def measure(wl, seconds: float, traced: bool) -> dict:
    """Closed loop for ``seconds``; when traced, alternate untraced and traced ops."""
    from harness import OpTrace, run_op

    stats = {"attempted": 0, "failed": 0}
    plain, traced_ops, traces = [], [], []
    start = perf_counter()
    while True:
        timing = run_op(wl, None, stats)
        if timing is not None:
            plain.append(timing)
        if traced:
            trace = OpTrace()
            timing = run_op(wl, trace, stats)
            if timing is not None:
                traced_ops.append(timing)
                traces.append(trace)
        if perf_counter() - start >= seconds:
            break
    stats["wall"] = perf_counter() - start
    stats.update(plain=plain, traced=traced_ops, traces=traces)
    return stats


def end_to_end(stats: dict, images_per_op: int, setup: list) -> dict:
    op_ms = [t["op"] * 1e3 for t in stats["plain"]]
    ok = stats["attempted"] - stats["failed"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "latency_ms_p90": (percentile(op_ms, 90), "ms"),
        "images_per_s": (ok * images_per_op / stats["wall"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def traced_metrics(stats: dict, setup_trace: dict) -> dict:
    from harness import per_layer

    plain_ms = [t["op"] * 1e3 for t in stats["plain"]]
    traced_ms = [t["op"] * 1e3 for t in stats["traced"]]
    values = per_layer(stats["traces"], traced_ms)
    values.update(setup_trace)
    values["model.step.fwd_ms"] = statistics.median([t.get("fwd", 0.0) * 1e3 for t in stats["plain"]])
    values["model.step.bwd_ms"] = statistics.median([t.get("bwd", 0.0) * 1e3 for t in stats["plain"]])
    values["trace.untraced_ms_p50"] = statistics.median(plain_ms)
    values["trace.traced_ms_p50"] = statistics.median(traced_ms)
    values["trace.overhead_ms"] = values["trace.traced_ms_p50"] - values["trace.untraced_ms_p50"]
    units = {"calls": "count", "records": "count", "out_mb": "MB"}
    return {k: (v, units.get(k.rpartition(".")[2], "ms")) for k, v in values.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "pmtk" / "__init__.py").is_file():
        print(f"perfbench: no pmtk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.setup_probe:
            harness.setup(args.workload, args.seed, Path(tmp))
            print("ready", flush=True)
            return 0
        setup = [] if args.trace else setup_seconds(argv)
        setup_trace: dict = {}
        wl = harness.setup(args.workload, args.seed, Path(tmp), setup_trace)
        guard = "ok"
        if args.trace:
            try:
                if isinstance(wl, harness.Denoise):
                    wl.check_traced_matches_cli()
                else:
                    harness.check_staged_forward(wl.model, wl.guard_images())
            except harness.CheckFailed as exc:
                guard = str(exc)
        stats = measure(wl, args.seconds, bool(args.trace))

    if args.trace:
        metrics = traced_metrics(stats, setup_trace)
    else:
        metrics = end_to_end(stats, wl.images_per_op, setup)
    attempted, failed = stats["attempted"], stats["failed"]

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# machine {json.dumps(machine())}")
    if not args.trace:
        print(f"# setup probes {' '.join(f'{s:.4f}' for s in setup)} s")
        ops = len(stats["plain"])
        print(f"# {ops} timed operations, {ops - int(0.9 * ops)} beyond p90")
        # medians are reported, not gated: see README.md
        for part in ("op", "fwd", "bwd"):
            if part in stats["plain"][0]:
                ms = statistics.median([t[part] * 1e3 for t in stats["plain"]])
                print(f"{'latency' if part == 'op' else part}_ms_p50 {ms:.6g} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    if "first_failure" in stats:
        print(f"# first failure: {stats['first_failure']}")
    if isinstance(wl, harness.Denoise):
        print(f"# flat_variance rose on {wl.flat_variance_rose} of {wl.checked} checked outputs")
    if guard != "ok":
        print(f"# drift guard failed: {guard}")
    print(json.dumps({
        "correct": failed == 0 and guard == "ok",
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
