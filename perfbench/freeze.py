"""Write the benchmark's frozen inputs: pool atlases and expected digests.

Run from the repository root::

    python3 perfbench/freeze.py

It rebuilds every pool atlas from ``absix.builtin`` and, read-only, from
``tests/synth.py`` (``kunneth``, ``random_atlas``, ``random_boundary_atlas``)
at fixed seeds, writes each with ``absix.dumps_atlas`` under
``perfbench/inputs/``, then serves every (atlas, request kind) pair once and
records its exit code and stdout sha256 in ``perfbench/inputs/manifest.json``.
The files are checked in, so later changes to the corpus or to
``tests/synth.py`` do not move the benchmark.  Re-run it only when the
report bytes change on purpose (a version bump alone changes every digest,
because the report prints ``absix <version>``), and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
from random import Random

from harness import BENCH_DIR, MANIFEST, ROOT, import_absix, kind_argv, request_key, serve

INPUTS = os.path.join(BENCH_DIR, "inputs")
INPUTS_REL = os.path.relpath(INPUTS, ROOT)

# Atlases whose total Betti count over all strata is at most this take
# 1-250 ms per report on a 2-core x86 box; larger random ones take up to 1 s.
SMALL_SIZE = 32
# Random products for boundary_deep stay cheaper (under about 100 ms), so
# that a 25 s run still serves well over 100 requests.
SMALL_PRODUCT_SIZE = 24

COMPUTE_ALL_JSON = ["compute", "{atlas}", "--what", "all", "--format", "json"]
COMPUTE_ALL_TEXT = ["compute", "{atlas}", "--what", "all"]
VALIDATE = ["validate", "{atlas}"]
# request_mix kinds and weights.  Of the four ``compute`` lines on an atlas in
# the README's command-line examples, one asks for JSON and one for
# ``--degree``; the five selective ``--what`` values are equally likely.
FORMAT_WEIGHTS = (("text", 3), ("json", 1))
DEGREE_WEIGHTS = (([], 6), (["--degree", "1"], 1), (["--degree", "2"], 1))
MIX_KINDS = [
    (["compute", "{atlas}", "--what", what, "--format", fmt] + degree, fw * dw)
    for what in ("cohomology", "absic", "boundary", "ihplus", "criteria")
    for fmt, fw in FORMAT_WEIGHTS
    for degree, dw in DEGREE_WEIGHTS
]


def _size(a) -> int:
    return sum(a.stratum(s).dim_at(k)
               for s in a.declared_subsets() for k in range(2 * a.e(s) + 1))


def build_pools(absix, synth) -> dict:
    """name -> atlas for every pool, in a fixed order."""
    from absix.corpus import ALIASES, corpus_names

    builtin, kunneth = absix.builtin, synth.kunneth
    sweep = {n: builtin(n) for n in corpus_names() + sorted(ALIASES)}
    sweep.update({f"pn_minus_hyperplane-n{n}": builtin("pn_minus_hyperplane", n=n)
                  for n in range(4, 9)})
    rng = Random(1100)  # criterion 11's seed and generator
    i = 0
    while len(sweep) < 31:
        a = synth.random_atlas(rng)
        if _size(a) <= SMALL_SIZE:
            sweep[f"random-1100-{i:02d}"] = a
        i += 1

    ambient = {f"points_in_proper-p{p}": builtin("points_in_proper", points=p)
               for p in range(4, 9)}

    deep = {
        "kunneth-gm-gm": kunneth(builtin("gm"), builtin("gm")),
        "kunneth-a1-gm_times_a1": kunneth(builtin("a1"), builtin("gm_times_a1")),
        "kunneth-gm-gm_times_a1": kunneth(builtin("gm"), builtin("gm_times_a1")),
        "kunneth-surface_resolution-gm": kunneth(builtin("surface_resolution"), builtin("gm")),
    }
    rng = Random(2600)
    i = 0
    while len(deep) < 13:
        a = kunneth(synth.random_boundary_atlas(rng, 1, rng.randint(1, 2)),
                    synth.random_boundary_atlas(rng, 1, rng.randint(1, 2)))
        # Keep small products on which the weight criteria fail, so the
        # dichotomy and the extra absolute_ic runs happen.
        if _size(a) <= SMALL_PRODUCT_SIZE and not absix.weight_criteria(a).verdict:
            deep[f"kunneth-random-2600-{i:02d}"] = a
        i += 1
    return {"sweep_small": sweep, "ambient_wide": ambient, "boundary_deep": deep}


def main() -> int:
    os.chdir(ROOT)
    cli = import_absix()
    import absix

    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import synth

    pools = build_pools(absix, synth)
    os.makedirs(INPUTS, exist_ok=True)
    paths = {}
    for pool in pools.values():
        for name, a in pool.items():
            paths[name] = f"{INPUTS_REL}/{name}.atlas.json"
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(absix.dumps_atlas(a))

    sweep = [paths[n] for n in pools["sweep_small"]]
    workloads = {
        "sweep_small": {"atlases": sweep, "kinds": [COMPUTE_ALL_JSON]},
        "ambient_wide": {"atlases": [paths[n] for n in pools["ambient_wide"]],
                         "kinds": [COMPUTE_ALL_TEXT]},
        "boundary_deep": {"atlases": [paths[n] for n in pools["boundary_deep"]],
                          "kinds": [COMPUTE_ALL_TEXT]},
        "request_mix": {
            "atlases": sweep + [paths["points_in_proper-p5"], paths["kunneth-gm-gm"]],
            "kinds": [kind for kind, _ in MIX_KINDS],
            "weights": [weight for _, weight in MIX_KINDS],
            "validate": VALIDATE,
        },
    }

    expected = {}
    for spec in workloads.values():
        kinds = spec["kinds"] + ([spec["validate"]] if "validate" in spec else [])
        for atlas in spec["atlases"]:
            for kind in kinds:
                argv = kind_argv(kind, atlas)
                key = request_key(argv)
                if key in expected:
                    continue
                code, digest, _ = serve(cli, argv)
                if code != 0:
                    raise SystemExit(f"request failed at freeze time: {key} -> {code}")
                expected[key] = {"exit": code, "sha256": digest}

    manifest = {"engine": f"absix {absix.__version__}",
                "workloads": workloads, "expected": expected}
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(paths)} atlases and {len(expected)} digests to {INPUTS_REL}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
