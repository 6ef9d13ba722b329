"""A Künneth power at scale: the full report keeps its bytes and its speed.

``gm^5`` (243 strata, built with ``synth.kunneth``) runs through
``absix compute --what all``.  The digest was recorded before the sparse
integer elimination landed, so it pins the report bytes across that change;
the time bound is generous (the run takes well under a second on one core).
"""

import hashlib
import time

from absix.atlas import dumps_atlas
from absix.cli import main
from absix.corpus import builtin

from synth import kunneth

GM5_SHA256 = "1035371eb591c60bca636091216e573309358a28890e4fb294e6584b3d00c691"


def test_gm_to_the_fifth_report_is_pinned_and_fast(tmp_path, monkeypatch, capsys):
    gm = builtin("gm")
    a = gm
    for _ in range(4):
        a = kunneth(a, gm)
    assert len(a.strata) == 3 ** 5
    (tmp_path / "gm5.atlas.json").write_text(dumps_atlas(a), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the report names the atlas by its path
    start = time.perf_counter()
    code = main(["compute", "gm5.atlas.json", "--what", "all"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GM5_SHA256
    assert elapsed < 10, elapsed
