"""Künneth powers at scale: the full report keeps its bytes and its speed.

``gm^5`` (243 strata) and ``gm^6`` (729 strata), built with
``synth.kunneth``, run through ``absix compute --what all``.  The ``gm^5``
digest was recorded before the sparse integer elimination landed and the
``gm^6`` digest before differentials were placed from the nonzeros of their
summand blocks, so each pins the report bytes across that change.  The time
bounds are generous: on one 2-core x86 container ``gm^5`` takes well under a
second and ``gm^6`` about two.
"""

import hashlib
import time

from absix.atlas import dumps_atlas
from absix.cli import main
from absix.corpus import builtin

from synth import kunneth

GM5_SHA256 = "1035371eb591c60bca636091216e573309358a28890e4fb294e6584b3d00c691"
GM6_SHA256 = "e9b88dcce3018eea87560460fc9fda46492dd83812f329cecb255e69916a1798"


def _gm_power_report(k: int, tmp_path, monkeypatch, capsys) -> tuple:
    """sha256 of ``compute gmK.atlas.json --what all`` and its seconds."""
    gm = builtin("gm")
    a = gm
    for _ in range(k - 1):
        a = kunneth(a, gm)
    assert len(a.strata) == 3 ** k
    (tmp_path / f"gm{k}.atlas.json").write_text(dumps_atlas(a), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the report names the atlas by its path
    start = time.perf_counter()
    code = main(["compute", f"gm{k}.atlas.json", "--what", "all"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return hashlib.sha256(out.encode("utf-8")).hexdigest(), elapsed


def test_gm_to_the_fifth_report_is_pinned_and_fast(tmp_path, monkeypatch, capsys):
    digest, elapsed = _gm_power_report(5, tmp_path, monkeypatch, capsys)
    assert digest == GM5_SHA256
    assert elapsed < 10, elapsed


def test_gm_to_the_sixth_report_is_pinned_and_fast(tmp_path, monkeypatch, capsys):
    digest, elapsed = _gm_power_report(6, tmp_path, monkeypatch, capsys)
    assert digest == GM6_SHA256
    assert elapsed < 30, elapsed
