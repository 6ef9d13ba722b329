"""The benchmark's tracer patches absix functions by name; those names must resolve."""

import importlib
import pathlib
import runpy

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_still_resolves():
    # run_path compiles the source in memory: nothing is written under perfbench/.
    traced = runpy.run_path(str(TRACING))["TRACED"]
    assert traced
    for span, module, attr in traced:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), (span, module, attr)
            owner = getattr(owner, part)
        assert callable(owner), (span, module, attr)
