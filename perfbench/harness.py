"""Request model shared by the benchmark, the input generator and the self-check.

A request is one in-process call of ``absix.cli.main(argv)`` on an atlas
file, exactly what ``absix compute FILE`` or ``absix validate FILE`` does.
Its stdout is captured and hashed; the request counts as served only when
its exit code and stdout sha256 equal the values frozen in
``inputs/manifest.json``.

Paths in argv are relative to the repository root, because the report
prints the atlas path as the atlas name and so enters the digest.  Callers
run with the repository root as working directory.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
MANIFEST = os.path.join(BENCH_DIR, "inputs", "manifest.json")

WORKLOADS = ("sweep_small", "ambient_wide", "boundary_deep", "request_mix")

# About the median time of ``calibrate`` on the 2-core x86 box where the
# baseline was recorded.  Reported times are rescaled to this speed.
REFERENCE_CALIBRATION_S = 0.0005

# request_mix: each atlas is validated once in this many rounds and computed
# in the others, so every run holds the same share of cheap requests.  One
# of the five atlas requests in the README's command-line examples is a
# ``validate``.
VALIDATE_EVERY = 5


def import_absix():
    """Import ``absix.cli`` from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import absix.cli

    where = os.path.dirname(os.path.abspath(absix.cli.__file__))
    if os.path.dirname(where) != src:
        raise ImportError(f"absix was imported from {where}, not from {src}")
    return absix.cli


def load_manifest(path: str = MANIFEST) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def request_key(argv) -> str:
    return " ".join(argv)


def kind_argv(kind, atlas: str) -> list:
    """A request kind is an argv template; ``{atlas}`` marks the file."""
    return [atlas if part == "{atlas}" else part for part in kind]


def serve(cli, argv) -> tuple:
    """Run one request; return (exit code or None, stdout sha256, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed request, not a harness error
        code = None
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return code, digest, seconds


class Rounds:
    """Seeded request order: each round visits every pool atlas exactly once.

    Whole rounds keep the mix of atlases identical between seeds, so that the
    seed moves only the order (and, in ``request_mix``, which atlas gets which
    request kind).  Kinds are dealt from a shuffled deck that holds each kind
    as often as its weight, so every stretch of ``sum(weights)`` computed
    requests holds the weighted mix exactly.
    """

    def __init__(self, manifest: dict, workload: str, seed: int):
        spec = manifest["workloads"][workload]
        self.atlases = list(spec["atlases"])
        self.kinds = [list(k) for k in spec["kinds"]]
        self.weights = spec.get("weights", [1] * len(self.kinds))
        self.validate = spec.get("validate")
        self.rng = random.Random(f"{workload}:{seed}")
        self.cycle = self.rng.sample(self.atlases, len(self.atlases))
        self.count = 0
        self.deck: list = []

    def deal(self) -> list:
        if not self.deck:
            self.deck = [k for k, w in zip(self.kinds, self.weights) for _ in range(w)]
            self.rng.shuffle(self.deck)
        return self.deck.pop()

    def next(self) -> list:
        atlases = self.atlases[:]
        self.rng.shuffle(atlases)
        if self.validate is None:
            requests = [kind_argv(self.kinds[0], a) for a in atlases]
        else:
            phase = self.count % VALIDATE_EVERY
            checked = set(self.cycle[phase::VALIDATE_EVERY])
            requests = [kind_argv(self.validate if a in checked else self.deal(), a)
                        for a in atlases]
        self.count += 1
        return requests


_THREE_SEVENTHS = Fraction(3, 7)


def calibrate() -> float:
    """Seconds this interpreter takes for a fixed kernel of Fraction and dict work.

    On a shared machine the speed of one core drifts by up to 2x over a few
    seconds.  Timing this kernel next to each request measures that drift,
    and ``at_reference_speed`` divides it out.  The best of three short
    repetitions, with the collector off, ignores interrupts and collections
    of the requests' garbage.  The kernel is part of the benchmark's
    definition: changing it changes every reported time.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            acc = Fraction(0)
            for i in range(1, 70):
                acc += Fraction(i % 7 - 3, i % 5 + 1) * _THREE_SEVENTHS
            table = {}
            for i in range(500):
                table[(i, i % 13)] = i
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Rescale a time measured between two calibrations to the reference speed."""
    return seconds * REFERENCE_CALIBRATION_S * 2 / (before + after)


def percentile(samples, q: int) -> float:
    """The q-th percentile, interpolated (``statistics.quantiles`` inclusive)."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
