"""cmpchess benchmark: one workload, one process, one JSON result.

Usage, from the repository root:

    python3 perfbench/run.py --workload search-material --seed 1 \
        --seconds 30 --trace 0

Workloads are defined in `workloads.py` and chosen as `RATIONALE.md`
explains. The metric names, units and bounds are those of
`BENCHMARK.json` at the repository root.

With `--trace 0` the run sets up the workload several times (median set-up
time), warms up, then runs closed-loop steps for `--seconds` (and at least
until the latency percentiles have ten samples beyond them) and reports the
end-to-end metrics. With `--trace 1` it instead alternates untraced and
traced runs of the workload's signature pass for `--seconds` and reports
the per-layer metrics plus the tracing overhead (traced minus untraced
time of the same pass).

Every step's output is checked; `attempted` and `failed` in the result
count those checks, and a signature count that does not repeat when the
work is run again is a failure. The last stdout line is the result; the
line before it holds run metadata, the exact-count signature and the
workload's metrics under their own names.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# One closed-loop caller: BLAS gets one thread too, which keeps a run on a
# shared machine steady.
BLAS_THREADS = "1"
# set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS
# have been spent on it, so that a quick set-up still gets a steady median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
MIN_SAMPLES = 100  # p90 needs ten samples beyond it


def _limit_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _blas_metadata() -> dict:
    import ctypes

    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # older numpy: no mode=, other layout
        vendor = "unknown"
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": vendor, "blas_threads": threads,
            "blas_threads_requested": int(BLAS_THREADS)}


def _metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np

    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            **_blas_metadata()}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _signature(steps) -> dict:
    """Exact counts of a pass; lists are folded into short hashes."""
    from workloads import merge

    out = {}
    for key, value in merge(s.signature for s in steps).items():
        if isinstance(value, list):
            text = json.dumps(value, separators=(",", ":"))
            out[key] = hashlib.sha256(text.encode()).hexdigest()[:16]
        else:
            out[key] = value
    return out


def _signature_changes(workload: str, seed: int, signature: dict):
    """Fields that differ from the recorded signature for this seed, or
    None when no signature was recorded for it."""
    with open(BENCH_DIR / "reference_signatures.json") as f:
        recorded = json.load(f).get(workload, {}).get(str(seed))
    if recorded is None:
        return None
    keys = set(recorded) | set(signature)
    return sum(recorded.get(k) != signature.get(k) for k in keys)


def _percentile_ms(samples, q: int) -> float:
    """The q-th percentile; asked for only when ten samples lie beyond."""
    return statistics.quantiles(samples, n=100)[q - 1] * 1000.0


def timed_run(wl, state, seconds: float) -> tuple:
    """Closed-loop steps for `seconds` and at least MIN_SAMPLES latencies."""
    wl.warm_up(state)
    steps = []
    latencies: list = []
    began = time.perf_counter()
    while (len(steps) < wl.PASS_STEPS or len(latencies) < MIN_SAMPLES
           or time.perf_counter() - began < seconds):
        step = wl.step(state, len(steps))
        steps.append(step)
        latencies.extend(step.latencies)
    attempted = sum(s.attempted for s in steps)
    failed = sum(s.failed for s in steps)
    again_attempted, again_failed = wl.recheck(state, steps)
    busy = sum(s.busy_s for s in steps)
    metrics = {
        "call_ms_p50": statistics.median(latencies) * 1000.0,
        "call_ms_p90": _percentile_ms(latencies, 90),
        "work_per_s": sum(s.units for s in steps) / busy,
    }
    extra = {"steps": len(steps), "samples": len(latencies),
             "window_s": time.perf_counter() - began,
             "window_nodes": sum(s.signature.get("nodes", 0) for s in steps),
             "busy_s": busy,
             "recheck_attempted": again_attempted,
             "recheck_failed": again_failed}
    return (metrics, steps, attempted + again_attempted,
            failed + again_failed, extra)


def traced_run(wl, state, seconds: float) -> tuple:
    """Alternate untraced and traced signature passes for `seconds`.

    A new pair of passes starts only if it should end within `seconds`,
    so a workload with a long pass does not run far over its time. Where
    the passes use the learned comparator, one more pass, untimed,
    samples its pairs for `inference.fastpath_flips`.
    """
    import layer_metrics
    from spans import Tracer

    tracer = Tracer()
    wl.warm_up(state)
    plain, traced, snapshots = [], [], []
    first = None
    attempted = failed = 0
    began = time.perf_counter()
    pair_s = 0.0
    while not traced or time.perf_counter() - began + pair_s < seconds:
        pair_began = time.perf_counter()
        for with_spans in (False, True):
            tracer.reset()
            probe = layer_metrics.install(tracer) if with_spans else None
            try:
                steps = [wl.step(state, i) for i in range(wl.PASS_STEPS)]
            finally:
                tracer.restore()
            attempted += sum(s.attempted for s in steps) + 1
            failed += sum(s.failed for s in steps)
            sig = _signature(steps)
            if first is None:
                first = sig
            failed += sig != first
            (traced if with_spans else plain).append(
                (sum(s.busy_s for s in steps),
                 sum(sum(s.latencies) for s in steps)))
            if with_spans:
                snapshots.append((dict(tracer.calls), dict(tracer.self_s),
                                  probe, steps))
        pair_s = time.perf_counter() - pair_began
    pairs: list = []
    if snapshots[0][0].get("inference.learned"):
        steps, pairs = layer_metrics.sample_learned_pairs(
            lambda: [wl.step(state, i) for i in range(wl.PASS_STEPS)])
        attempted += sum(s.attempted for s in steps) + 1
        failed += sum(s.failed for s in steps) + (_signature(steps) != first)
    metrics, mismatched = layer_metrics.metrics(snapshots, plain, traced,
                                                pairs)
    failed += mismatched
    extra = {"passes": len(traced),
             "untraced_pass_s": [busy for busy, _ in plain],
             "traced_pass_s": [busy for busy, _ in traced]}
    return metrics, snapshots[0][3], attempted, failed, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _limit_blas_threads()
    source = ROOT / "src"
    if not (source / "cmpchess").is_dir():
        print(f"no program to benchmark: {source / 'cmpchess'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    wl = workloads.WORKLOADS[args.workload]

    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        setup_times: list = []
        workdir = None
        while (len(setup_times) < SETUP_REPEATS
               or sum(setup_times) < SETUP_SECONDS):
            if workdir is not None:  # only the last set-up's files are used
                shutil.rmtree(workdir)
            workdir = scratch / f"setup{len(setup_times)}"
            workdir.mkdir()
            began = time.perf_counter()
            state = wl.setup(workdir, args.seed)
            setup_times.append(time.perf_counter() - began)
        run = traced_run if args.trace else timed_run
        metrics, steps, attempted, failed, extra = run(wl, state, args.seconds)
    finally:
        shutil.rmtree(scratch)
        try:
            scratch_root.rmdir()
        except OSError:  # another run still holds its own directory here
            pass

    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = _peak_rss_mb()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"metric set differs from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}",
              file=sys.stderr)
        return 2

    signature = _signature(steps[:wl.PASS_STEPS])
    info = {"meta": _metadata(wl.name, args.seed, args.seconds, args.trace),
            "signature": signature,
            "signature_changes": _signature_changes(wl.name, args.seed,
                                                    signature),
            "setup_s_each": setup_times, **extra}
    if not args.trace:
        info["named"] = wl.named_metrics(metrics, steps)
        info["named"]["failed_ops"] = f"{failed}/{attempted}"
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
