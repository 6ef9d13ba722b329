"""absix benchmark: closed-loop, one-client request workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 25 --trace 0

One request is ``absix.cli.main([...])`` on an atlas file in
``perfbench/inputs``, in this single-threaded process.  Requests are served in
whole rounds (every pool atlas once, in seeded order) after one warm-up
round, for as many rounds as fit in ``--seconds``, and for at least 100
requests in an untraced run, so that ten or more samples lie beyond the p90
even when the machine runs slow.  A request counts only if
its exit code and stdout sha256 equal the frozen values; the others are
``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced (see ``tracing.py``) and prints the per-layer
metrics, the tracing overhead on median latency, and the failed share; its
spans go to ``perfbench/out/``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from harness import (
    BENCH_DIR,
    ROOT,
    WORKLOADS,
    Rounds,
    at_reference_speed,
    calibrate,
    import_absix,
    load_manifest,
    percentile,
    request_key,
    serve,
)
from tracing import PER_LAYER_UNITS, Tracer

# Set-up is timed in this process and in this many fresh ones; the median counts.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# An untraced run serves whole rounds until it has measured at least this many.
MIN_REQUESTS = 100


def setup(workload: str):
    """Import absix and load the workload's inputs; return (cli, manifest, seconds).

    The seconds are rescaled to the reference speed.
    """
    before = calibrate()
    start = time.perf_counter()
    cli = import_absix()
    manifest = load_manifest()
    for path in manifest["workloads"][workload]["atlases"]:
        cli.read_atlas(path)
    seconds = time.perf_counter() - start
    return cli, manifest, at_reference_speed(seconds, before, calibrate())


def probe_setup(workload: str) -> float:
    """Time set-up in a fresh interpreter, so that import cost is paid again."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


class Phase:
    """Requests served in one measured stretch."""

    def __init__(self):
        self.latencies: list = []  # at the reference speed
        self.wall: list = []  # as measured
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.digests: dict = {}


def run_phase(cli, rounds: Rounds, expected: dict, seconds: float,
              max_rounds=None, tracer=None, min_requests: int = 0) -> Phase:
    """Serve whole rounds until the next one would end past ``seconds``.

    At least one round is served, and rounds go on past ``seconds`` until
    ``min_requests`` requests are served.
    """
    phase = Phase()
    start = time.perf_counter()
    last_round = 0.0
    done = 0
    before = calibrate()
    while done == 0 or phase.attempted < min_requests or (
            time.perf_counter() - start + last_round <= seconds
            and (max_rounds is None or done < max_rounds)):
        round_start = time.perf_counter()
        for argv in rounds.next():
            if tracer is not None:
                tracer.begin_request()
            code, digest, dt = serve(cli, argv)
            if tracer is not None:
                tracer.end_request()
            after = calibrate()
            phase.latencies.append(at_reference_speed(dt, before, after))
            phase.wall.append(dt)
            before = after
            key = request_key(argv)
            want = expected.get(key)
            phase.attempted += 1
            if want is None or code != want["exit"] or digest != want["sha256"]:
                phase.failed += 1
            phase.digests[key] = digest
        last_round = time.perf_counter() - round_start
        done += 1
    phase.elapsed = time.perf_counter() - start
    return phase


def failed_frac(phases) -> float:
    return sum(p.failed for p in phases) / sum(p.attempted for p in phases)


def end_to_end(phase: Phase, setup_samples: list) -> dict:
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        # One client in a closed loop: requests per second of service time.
        "throughput_rps": (len(phase.latencies) / sum(phase.latencies), "1/s"),
        "latency_p50_ms": (percentile(phase.latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(phase.latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up and print the seconds")
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # atlas paths, and so the report bytes, are root-relative

    if args.setup_probe:
        print(setup(args.workload)[2])
        return 0

    setup_samples = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    cli, manifest, own_setup = setup(args.workload)
    setup_samples.append(own_setup)
    expected = manifest["expected"]
    rounds = Rounds(manifest, args.workload, args.seed)
    warmup = run_phase(cli, rounds, expected, 0, max_rounds=1)

    if args.trace == 0:
        phase = run_phase(cli, rounds, expected, args.seconds, min_requests=MIN_REQUESTS)
        metrics = end_to_end(phase, setup_samples)
        phases = [warmup, phase]
    else:
        plain = run_phase(cli, rounds, expected, args.seconds / 2)
        with Tracer() as tracer:
            traced = run_phase(cli, rounds, expected, args.seconds / 2, tracer=tracer)
        phases = [warmup, plain, traced]
        summary = tracer.summary()
        metrics = {name: (summary[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        base = percentile(plain.latencies, 50)
        metrics["trace.overhead_frac"] = (
            (percentile(traced.latencies, 50) - base) / base, "frac")
        metrics["ops_failed_frac"] = (failed_frac(phases), "frac")
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    measured = phases[-1]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(measured.wall)} requests in {measured.elapsed:.2f} s "
          f"(warm-up {warmup.attempted}), {failed}/{attempted} failed; as measured: "
          f"p50 {percentile(measured.wall, 50) * 1e3:.2f} ms, "
          f"{len(measured.wall) / sum(measured.wall):.3f} requests per busy second")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
