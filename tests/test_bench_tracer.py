"""The benchmark's tracer patches absix functions by name; those names must
resolve, and a traced round of every workload must give a full summary.

``perfbench/tracing.py`` divides by the calls of some spans (``qmat.inverse``,
``wss.gysin_complex``, ``wss.restriction_complex``, ``atlas.validate``), so a
workload whose requests stop calling one of them makes ``--trace 1`` exit
with an error; so does a traced ``Class.method`` that its class inherits
instead of defining.  Nothing is written under ``perfbench/``.
"""

import importlib
import json
import math
import pathlib
import runpy

import pytest

import absix.cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACING = BENCH / "tracing.py"
# run_path compiles the source in memory: nothing is written under perfbench/.
HARNESS = runpy.run_path(str(BENCH / "harness.py"))


def test_every_traced_function_still_resolves():
    traced = runpy.run_path(str(TRACING))["TRACED"]
    assert traced
    for span, module, attr in traced:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), (span, module, attr)
            owner = getattr(owner, part)
        assert callable(owner), (span, module, attr)


@pytest.mark.parametrize("workload", HARNESS["WORKLOADS"])
def test_a_traced_round_serves_correctly_and_summarizes(workload, monkeypatch):
    tracing = runpy.run_path(str(TRACING))
    manifest = json.loads((BENCH / "inputs" / "manifest.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(BENCH.parent)  # atlas paths, and so the report bytes, are root-relative
    wrong = []
    with tracing["Tracer"]() as tracer:
        for argv in HARNESS["Rounds"](manifest, workload, 0).next():
            tracer.begin_request()
            code, digest, _ = HARNESS["serve"](absix.cli, argv)
            tracer.end_request()
            want = manifest["expected"][HARNESS["request_key"](argv)]
            if (code, digest) != (want["exit"], want["sha256"]):
                wrong.append(argv)
    assert wrong == []
    try:
        summary = tracer.summary()
    except ZeroDivisionError:
        pytest.fail(f"{workload}: the traced round never calls a span the summary divides by")
    assert set(summary) == set(tracing["PER_LAYER_UNITS"])
    assert all(math.isfinite(v) for v in summary.values()), summary
