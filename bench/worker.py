"""One benchmark process: set up a workload, run it closed-loop, check it.

Started by run.py, which times it from process start to the READY line it
prints once set-up is done. With --setup-only it exits there. Otherwise it
runs whole rounds of the workload's operations, one at a time, until
--seconds have passed, checks every result, and prints one JSON line.
With --trace 1, odd rounds run with the tracer installed and even rounds
without, so the per-layer metrics and the tracing overhead come from the
same process and the same stretch of time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_S = 0.15


def _import_program():
    """Import stagedwell from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import stagedwell

    origin = Path(stagedwell.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"stagedwell imported from {origin}, not from {ROOT / 'src'}")


def _environment() -> dict:
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run(args) -> dict:
    from hostspeed import KINDS, HostProbe
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return {}

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    clock = time.perf_counter
    probe = HostProbe()
    min_rounds = 2 if tracer else 1
    errors: list[str] = []
    attempted = failed = work = rounds = 0
    segments: list[_Segment] = []
    speeds = [probe.run()]
    segment = _Segment(clock(), tracing=False)
    t_start = segment.start
    deadline = t_start + args.seconds

    def close_segment() -> _Segment:
        """Close the segment timed since the last probe, probe, open the next."""
        segment.seconds = clock() - segment.start
        if segment.tracing:
            segment.taken = tracer.take()
        segments.append(segment)
        speeds.append(probe.run())
        return _Segment(clock(), segment.tracing)

    while True:
        tracing = tracer is not None and rounds % 2 == 1
        if tracing:
            tracer.install()
        segment.tracing = tracing
        for op in workload.round_ops(rounds):
            if tracing:
                tracer.op = attempted
            attempted += 1
            segment.ops += 1
            t0 = clock()
            try:
                result = op.run()
            except Exception as exc:  # an operation failed: count it, keep running
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{op.key} failed: {type(exc).__name__}: {exc}")
                    traceback.print_exc(file=sys.stderr)
                continue
            segment.latencies.append((clock() - t0, op.kind))
            segment.work += op.work
            work += op.work
            workload.record(op, result)
            # Traced runs probe after every operation, so that each
            # operation's spans are scaled by the speed of its own kind.
            if tracer is not None or clock() - segment.start >= PROBE_EVERY_S:
                segment = close_segment()
        if tracing:
            tracer.uninstall()
        rounds += 1
        if clock() >= deadline and rounds >= min_rounds:
            close_segment()
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Rescale each segment by the host speed at its two ends, per kind.
    raw_latencies: list[float] = []
    latencies: list[float] = []  # rescaled to the reference speed
    spent = {False: [0.0, 0.0, 0, 0], True: [0.0, 0.0, 0, 0]}  # traced? -> [raw s, rescaled s, work, ops]
    for i, seg in enumerate(segments):
        speed = {kind: (speeds[i][kind] + speeds[i + 1][kind]) / 2.0 for kind in KINDS}
        scaled = [lat * speed[kind] for lat, kind in seg.latencies]
        between = seg.seconds - sum(lat for lat, _ in seg.latencies)
        totals = spent[seg.tracing]
        totals[0] += seg.seconds
        totals[1] += sum(scaled) + between * speed["interp"]
        totals[2] += seg.work
        totals[3] += seg.ops
        raw_latencies += [lat for lat, _ in seg.latencies]
        latencies += scaled
        if seg.taken is not None:
            kind = seg.latencies[0][1] if seg.latencies else "interp"
            tracer.add_scaled(seg.taken, speed[kind])

    check_errors = workload.check()
    errors += check_errors[:20]
    raw_s = spent[False][0] + spent[True][0]
    raw = {
        "work_per_s": work / raw_s,
        "op_p50_ms": statistics.median(raw_latencies) * 1e3,
        "op_p90_ms": _p90(raw_latencies) * 1e3,
        "probes": len(speeds),
    }
    for kind in KINDS:
        readings = [p[kind] for p in speeds]
        raw[f"host_speed_{kind}"] = [min(readings), statistics.median(readings), max(readings)]
    if tracer is not None:
        (_, plain_s, plain_work, _), (_, traced_s, traced_work, traced_ops) = spent[False], spent[True]
        overhead = ((plain_work / plain_s) / (traced_work / traced_s) - 1.0) * 100.0
        metrics = tracer.layer_metrics(n_ops=traced_ops, overhead_pct=overhead)
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        metrics = {
            "work_per_s": {"value": work / spent[False][1], "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": _p90(latencies) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {
        "correct": not check_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": errors,
        "rounds": rounds,
        "work_unit": workload.work_unit,
        "timed_s": raw_s,
        "raw": raw,
        "inputs": workload.describe(),
        "environment": _environment(),
    }


class _Segment:
    """Operations timed between two host-speed probes."""

    def __init__(self, start: float, tracing: bool):
        self.start = start
        self.tracing = tracing
        self.seconds = 0.0
        self.work = 0
        self.ops = 0
        self.latencies: list[tuple[float, str]] = []  # (seconds, kind)
        self.taken = None  # span time, for traced segments


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans (JSON lines)")
    args = parser.parse_args(argv)
    _import_program()
    result = run(args)
    if result:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
