"""Every frozen request of the benchmark prints the same bytes.

The requests, exit codes and stdout sha256 digests are read from
``perfbench/inputs/manifest.json``; the request model (argv templates, keys,
capture and hashing) is the benchmark's own ``perfbench/harness.py``.  All
1072 requests are served: the ``--what all`` reports of three workloads, and
``request_mix``'s ``validate`` requests and its selective ``--what``,
``--format json`` and ``--degree`` requests on every atlas of its pool.
Nothing is written under ``perfbench/``.

The corpus atlases among the benchmark's inputs are frozen copies of the
builders' output; each builder still gives its file's atlas and
``atlasHash``.
"""

import json
import pathlib
import runpy

import pytest

import absix.cli
from absix.atlas import read_atlas
from absix.corpus import ALIASES, builtin, corpus_names

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _requests(manifest):
    for workload, spec in manifest["workloads"].items():
        kinds = spec["kinds"] + ([spec["validate"]] if "validate" in spec else [])
        for kind in kinds:
            for atlas in spec["atlases"]:
                yield workload, kind, atlas


def test_every_frozen_request_prints_the_frozen_bytes(monkeypatch):
    manifest = json.loads((BENCH / "inputs" / "manifest.json").read_text(encoding="utf-8"))
    expected = manifest["expected"]
    # run_path compiles the source in memory: nothing is written under perfbench/.
    harness = runpy.run_path(str(BENCH / "harness.py"))
    monkeypatch.chdir(ROOT)  # atlas paths, and so the report bytes, are root-relative
    counts, served, mismatches = {}, set(), []
    for workload, kind, atlas in _requests(manifest):
        argv = harness["kind_argv"](kind, atlas)
        key = harness["request_key"](argv)
        want = expected[key]
        code, digest, _ = harness["serve"](absix.cli, argv)
        counts[workload] = counts.get(workload, 0) + 1
        served.add(key)
        if (code, digest) != (want["exit"], want["sha256"]):
            mismatches.append(key)
    # request_mix: 33 validate requests and 30 compute kinds on each of 33 atlases.
    assert counts == {"sweep_small": 31, "ambient_wide": 5, "boundary_deep": 13,
                      "request_mix": 33 + 30 * 33}
    assert served == set(expected) and len(served) == 1072
    assert mismatches == []


_FROZEN_CORPUS = (
    [(name, {}, name) for name in corpus_names() + sorted(ALIASES)]
    + [("points_in_proper", {"points": k}, f"points_in_proper-p{k}") for k in range(4, 9)]
    + [("pn_minus_hyperplane", {"n": k}, f"pn_minus_hyperplane-n{k}") for k in range(4, 9)]
)


@pytest.mark.parametrize("name, params, stem", _FROZEN_CORPUS,
                         ids=[stem for _, _, stem in _FROZEN_CORPUS])
def test_the_corpus_builds_its_frozen_atlas(name, params, stem):
    built = builtin(name, **params)
    frozen = read_atlas(str(BENCH / "inputs" / f"{stem}.atlas.json"))
    assert built == frozen
    assert absix.cli.atlas_hash(built) == absix.cli.atlas_hash(frozen)
