"""Benchmark of stagedwell: four closed-loop workloads, one process each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

A run starts bench/worker.py several times for set-up only, timing each
from process launch to the worker's READY line; the median is `setup_s`.
One more worker then runs the workload for --seconds: one operation in
flight at a time, BLAS pinned to one thread. It checks every result
against closed forms computed apart from stagedwell. Every timing is
rescaled to a reference host speed measured by bench/hostspeed.py. The last line printed is one
JSON object holding `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A fuller record, with the Python, numpy and BLAS versions and the CPU
count, goes to bench/results/.

--smoke runs every workload for one round untraced and two rounds traced,
with every check, and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("cli_exact", "long_horizon", "env_sweep", "monte_carlo")
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# The parent times the host probe with numpy too, so it is pinned before
# anything imports numpy.
os.environ.update({name: "1" for name in ONE_THREAD})


class WorkerFailed(RuntimeError):
    pass


def _run_worker(worker_args: list[str], deadline: float) -> tuple[float, str]:
    """Start one worker; return (seconds from launch to READY, rest of its stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *worker_args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        status = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or status != 0:
        raise WorkerFailed(f"worker {' '.join(worker_args)} exited with status {status}")
    return setup_s, rest


def _setup_samples(base: list[str], n: int, deadline: float) -> tuple[list[float], list[float]]:
    """n set-up times, raw and rescaled by probes run just before and after each."""
    from hostspeed import HostProbe

    probe = HostProbe()
    raw, scaled = [], []
    speed = probe.run()
    for _ in range(n):
        seconds = _run_worker(base + ["--setup-only"], deadline)[0]
        after = probe.run()
        raw.append(seconds)
        scaled.append(seconds * (speed["interp"] + after["interp"]) / 2.0)
        speed = after
    return raw, scaled


def measure(workload: str, seed: int, seconds: int, trace: int, setup_samples: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    raw_setups, setups = _setup_samples(base, setup_samples, deadline)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{trace}"
    spans = ["--spans", f"{stem}.spans.jsonl"] if trace else []
    out = _run_worker(base + spans, deadline)[1]
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"worker for {workload} printed no result")
    detail = json.loads(lines[-1])
    metrics = detail["metrics"]
    if not trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    result = {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        **result, "setup_samples_s": setups, "raw_setup_samples_s": raw_setups,
        **{k: detail[k] for k in ("errors", "raw", "rounds", "work_unit", "timed_s", "inputs", "environment")},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    for error in detail["errors"]:
        print(f"{workload}: {error}", file=sys.stderr)
    return result


def smoke() -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            result = measure(workload, seed=0, seconds=0, trace=trace, setup_samples=1 - trace)
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} trace={trace}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print("smoke " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=_nonneg_int, default=0)
    parser.add_argument("--seconds", type=_nonneg_int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short run of every workload, all checks")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stagedwell").is_dir():
        print(f"error: no stagedwell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        setup_samples = 0 if args.trace else SETUP_SAMPLES
        result = measure(args.workload, args.seed, args.seconds, args.trace, setup_samples)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
