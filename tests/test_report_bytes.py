"""Every frozen ``--what all`` request of the benchmark prints the same bytes.

The requests, exit codes and stdout sha256 digests are read from
``perfbench/inputs/manifest.json``; the request model (argv templates, keys,
capture and hashing) is the benchmark's own ``perfbench/harness.py``.
Nothing is written under ``perfbench/``.
"""

import json
import pathlib
import runpy

import absix.cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
WORKLOADS = ("sweep_small", "ambient_wide", "boundary_deep")


def _requests():
    manifest = json.loads((BENCH / "inputs" / "manifest.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        (kind,) = manifest["workloads"][workload]["kinds"]
        assert "--what" in kind and kind[kind.index("--what") + 1] == "all"
        for atlas in manifest["workloads"][workload]["atlases"]:
            yield workload, kind, atlas, manifest["expected"]


def test_every_frozen_what_all_request_prints_the_frozen_bytes(monkeypatch):
    # run_path compiles the source in memory: nothing is written under perfbench/.
    harness = runpy.run_path(str(BENCH / "harness.py"))
    monkeypatch.chdir(ROOT)  # atlas paths, and so the report bytes, are root-relative
    counts, mismatches = {}, []
    for workload, kind, atlas, expected in _requests():
        argv = harness["kind_argv"](kind, atlas)
        want = expected[harness["request_key"](argv)]
        code, digest, _ = harness["serve"](absix.cli, argv)
        counts[workload] = counts.get(workload, 0) + 1
        if (code, digest) != (want["exit"], want["sha256"]):
            mismatches.append(" ".join(argv))
    assert counts == {"sweep_small": 31, "ambient_wide": 5, "boundary_deep": 13}
    assert mismatches == []
