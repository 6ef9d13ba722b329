"""Self-check of the benchmark harness.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

from harness import ROOT, VALIDATE_EVERY, Rounds, load_manifest  # noqa: E402
from run import MIN_REQUESTS, failed_frac, run_phase, setup  # noqa: E402
from tracing import Tracer  # noqa: E402


def _bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_named_metric_is_emitted_with_its_unit():
    spec = _bench_spec()
    pool = len(load_manifest()["workloads"]["sweep_small"]["atlases"])
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run("sweep_small", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        if trace == 0:  # one warm-up round, then the measured requests
            assert result["attempted"] - pool >= MIN_REQUESTS
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in spec[section]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_short_phase_serves_min_requests_in_whole_rounds(monkeypatch):
    monkeypatch.chdir(ROOT)
    cli, manifest, _ = setup("ambient_wide")
    pool = len(manifest["workloads"]["ambient_wide"]["atlases"])
    phase = run_phase(cli, Rounds(manifest, "ambient_wide", 0), manifest["expected"], 0,
                      min_requests=pool + 1)
    assert phase.attempted == len(phase.latencies) == 2 * pool
    assert phase.failed == 0


def test_request_mix_deals_the_weighted_kinds_exactly():
    manifest = load_manifest()
    spec = manifest["workloads"]["request_mix"]
    rounds = Rounds(manifest, "request_mix", 7)
    requests = [argv for _ in range(2 * VALIDATE_EVERY) for argv in rounds.next()]
    validated = [argv[1] for argv in requests if argv[0] == "validate"]
    assert sorted(validated) == sorted(2 * spec["atlases"])
    deck = sum(spec["weights"])
    computed = [argv for argv in requests if argv[0] == "compute"][:deck]
    assert len(computed) == deck
    for kind, weight in zip(spec["kinds"], spec["weights"]):
        assert sum(argv[2:] == kind[2:] for argv in computed) == weight
    # As in the README's examples: one computed request in four asks for
    # JSON, and one in four for --degree.
    assert 4 * sum("json" in argv for argv in computed) == deck
    assert 4 * sum("--degree" in argv for argv in computed) == deck


def test_one_corrupted_digest_makes_failed_share_positive(monkeypatch):
    monkeypatch.chdir(ROOT)
    cli, manifest, _ = setup("ambient_wide")
    expected = dict(manifest["expected"])
    victim = next(k for k in expected if k.startswith("compute ")
                  and manifest["workloads"]["ambient_wide"]["atlases"][0] in k)
    expected[victim] = dict(expected[victim], sha256="0" * 64)
    phase = run_phase(cli, Rounds(manifest, "ambient_wide", 0), expected, 0, max_rounds=1)
    assert phase.failed == 1
    assert failed_frac([phase]) == 1 / phase.attempted


def test_traced_and_untraced_runs_print_identical_digests(monkeypatch):
    monkeypatch.chdir(ROOT)
    cli, manifest, _ = setup("request_mix")
    expected = manifest["expected"]
    plain = run_phase(cli, Rounds(manifest, "request_mix", 5), expected, 0, max_rounds=1)
    with Tracer() as tracer:
        traced = run_phase(cli, Rounds(manifest, "request_mix", 5), expected, 0,
                           max_rounds=1, tracer=tracer)
    assert tracer.requests == traced.attempted
    assert plain.failed == traced.failed == 0
    assert traced.digests == plain.digests
    assert not hasattr(cli.main, "__wrapped__")  # originals are restored
