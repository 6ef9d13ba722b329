"""Per-layer tracing of absix from outside the package.

``Tracer`` replaces each traced function by a wrapper that records a span
(name, start, end, parent, request) and, for a few functions, counts work
at the call boundary.  A function is replaced under every name that binds
it in any loaded ``absix`` module (``absix.plus.gysin_complex`` as well as
``absix.wss.gysin_complex``), and methods are replaced on their class.
Leaving the ``with`` block restores every original, so untraced code runs
unchanged.  No file of the package is modified.

Spans are kept in flat in-memory arrays for the whole run and written out
by ``write`` at the end.  Counting done at a boundary (matrix entry sizes,
nonzero products) is timed and charged to no layer, so it shows only in the
tracing overhead.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

# (span name, module, attribute); an attribute "Class.method" is patched on the class.
TRACED = (
    ("cli.main", "absix.cli", "main"),
    ("cli.build_report", "absix.cli", "build_report"),
    ("cli.render", "absix.cli", "report_json"),
    ("cli.render", "absix.cli", "report_text"),
    ("cli.atlas_hash", "absix.cli", "atlas_hash"),
    ("atlas.read", "absix.atlas", "read_atlas"),
    ("atlas.validate", "absix.atlas", "validate_atlas"),
    ("wss.gysin_complex", "absix.wss", "gysin_complex"),
    ("wss.restriction_complex", "absix.wss", "restriction_complex"),
    ("wss.grW", "absix.wss", "grW"),
    ("wss.grW_c", "absix.wss", "grW_c"),
    ("wss.u_map", "absix.wss", "u_map"),
    ("wss.lowest_weight_compact", "absix.wss", "lowest_weight_compact"),
    ("absic.absolute_ic", "absix.absic", "absolute_ic"),
    ("absic.boundary_cohomology", "absix.absic", "boundary_cohomology"),
    ("absic.plain_table", "absix.absic", "plain_table"),
    ("absic.compact_table", "absix.absic", "compact_table"),
    ("absic.direct_factor_check", "absix.absic", "direct_factor_check"),
    ("plus.weight_criteria", "absix.plus", "weight_criteria"),
    ("plus.ih_one_point", "absix.plus", "ih_one_point"),
    ("plus.compare_candidates", "absix.plus", "compare_candidates"),
    ("plus.plus_dichotomy", "absix.plus", "plus_dichotomy"),
    ("plus.intersection_matrix", "absix.plus", "intersection_matrix"),
    ("factor.ch_factorization", "absix.factor", "ch_factorization"),
    ("factor.versal_embed", "absix.factor", "versal_embed"),
    ("factor.idempotent_kernel", "absix.factor", "idempotent_kernel"),
    ("hodgecore.from_full_matrix", "absix.hodgecore", "PureMorphism.from_full_matrix"),
    ("hodgecore.compose", "absix.hodgecore", "PureMorphism.compose"),
    ("qmat.matmul", "absix.qmat", "Matrix.__mul__"),
    ("qmat.inverse", "absix.qmat", "inverse"),
    ("qmat.adjoint_pushforward", "absix.qmat", "adjoint_pushforward"),
    ("qmat.rref", "absix.qmat", "rref"),
    ("qmat.rank", "absix.qmat", "rank"),
    ("qmat.kernel_basis", "absix.qmat", "kernel_basis"),
    ("qmat.image_basis", "absix.qmat", "image_basis"),
    ("qmat.cokernel_projection", "absix.qmat", "cokernel_projection"),
    ("qmat.solve", "absix.qmat", "solve"),
    ("qmat.left_inverse", "absix.qmat", "left_inverse"),
    ("qmat.right_inverse", "absix.qmat", "right_inverse"),
)

LAYERS = ("cli", "atlas", "wss", "absic", "plus", "factor", "hodgecore", "qmat")

# Per-layer metrics: name -> unit.  Times and counts are per traced request;
# "_s" times are inclusive, "<layer>.self_s" excludes the layer's child spans
# of other functions.  matmul_ops and matmul_nonzero_ops are computed from
# operand shapes and zero patterns, not measured.
PER_LAYER_UNITS = {
    "cli.main_s": "s/req",
    "cli.build_report_s": "s/req",
    "cli.render_s": "s/req",
    "cli.atlas_hash_s": "s/req",
    "cli.self_s": "s/req",
    "atlas.read_s": "s/req",
    "atlas.validate_s": "s/req",
    "atlas.validate_calls": "calls/req",
    "atlas.validate_hit_ratio": "ratio",
    "atlas.self_s": "s/req",
    "wss.gysin_complex_calls": "calls/req",
    "wss.gysin_complex_s": "s/req",
    "wss.gysin_complex_useful_ratio": "ratio",
    "wss.restriction_complex_calls": "calls/req",
    "wss.restriction_complex_useful_ratio": "ratio",
    "wss.grW_calls": "calls/req",
    "wss.grW_s": "s/req",
    "wss.u_map_s": "s/req",
    "wss.self_s": "s/req",
    "absic.absolute_ic_calls": "calls/req",
    "absic.absolute_ic_s": "s/req",
    "absic.boundary_cohomology_calls": "calls/req",
    "absic.boundary_cohomology_s": "s/req",
    "absic.self_s": "s/req",
    "plus.weight_criteria_s": "s/req",
    "plus.ih_one_point_s": "s/req",
    "plus.compare_candidates_s": "s/req",
    "plus.plus_dichotomy_s": "s/req",
    "plus.self_s": "s/req",
    "factor.ch_factorization_calls": "calls/req",
    "factor.ch_factorization_s": "s/req",
    "factor.self_s": "s/req",
    "hodgecore.from_full_matrix_calls": "calls/req",
    "hodgecore.from_full_matrix_s": "s/req",
    "hodgecore.compose_calls": "calls/req",
    "hodgecore.self_s": "s/req",
    "qmat.inverse_calls": "calls/req",
    "qmat.inverse_useful_ratio": "ratio",
    "qmat.inverse_s": "s/req",
    "qmat.adjoint_pushforward_calls": "calls/req",
    "qmat.rref_calls": "calls/req",
    "qmat.rref_s": "s/req",
    "qmat.rank_calls": "calls/req",
    "qmat.matmul_calls": "calls/req",
    "qmat.matmul_s": "s/req",
    "qmat.matmul_ops": "computed_ops/req",
    "qmat.matmul_nonzero_ops": "computed_ops/req",
    "qmat.max_dim": "entries",
    "qmat.max_entry_bits": "bits",
    "qmat.self_s": "s/req",
}

# Distinct-argument counting: span name -> key of one call's arguments.
# Atlases are keyed by identity: each request builds its own atlas object.
_DISTINCT_KEYS = {
    "wss.gysin_complex": lambda args: (id(args[0]), args[1]),
    "wss.restriction_complex": lambda args: (id(args[0]), args[1]),
    "qmat.inverse": lambda args: args[0],
}


def _entry_bits(m) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in m.entries() for x in row), default=0)


class Tracer:
    """Records spans and boundary counts while active (``with Tracer() as t``)."""

    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.outermost = array("b")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")  # boundary-counting time inside the span
        self._ids: dict = {}
        self._stack: list = []
        self._open_by_name: list = []
        self._restore: list = []
        self._distinct: dict = {}
        self._reports: set = set()
        self.requests = 0
        self.counts = {"atlas.validate_hits": 0, "qmat.matmul_ops": 0,
                       "qmat.matmul_nonzero_ops": 0, "qmat.max_dim": 0,
                       "qmat.max_entry_bits": 0}
        self.distinct = {name: 0 for name in _DISTINCT_KEYS}

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        for span, module, attr in TRACED:
            self._patch(span, sys.modules[module], attr)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    def _patch(self, span: str, module, attr: str):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            is_classmethod = isinstance(raw, classmethod)
            wrapper = self._wrap(span, raw.__func__ if is_classmethod else raw)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, classmethod(wrapper) if is_classmethod else wrapper)
            return
        original = getattr(module, attr)
        wrapper = self._wrap(span, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "absix" or name.startswith("absix.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _wrap(self, span: str, fn):
        nid = self._ids.get(span)
        if nid is None:
            nid = self._ids[span] = len(self.names)
            self.names.append(span)
            self._open_by_name.append(0)
        probe = {
            "atlas.validate": self._probe_validate,
            "qmat.matmul": self._probe_matmul,
            "qmat.inverse": self._probe_matrix_kernel,
            "qmat.rref": self._probe_matrix_kernel,
            "qmat.rank": self._probe_matrix_kernel,
        }.get(span)
        distinct = _DISTINCT_KEYS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i, nid)
            if distinct is not None or probe is not None:
                t = perf_counter()
                if distinct is not None:
                    self._distinct.setdefault(span, set()).add(distinct(args))
                if probe is not None:
                    probe(args, out)
                if self._stack:
                    self.excluded[self._stack[-1]] += perf_counter() - t
            return out

        return wrapper

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.requests)
        self.outermost.append(self._open_by_name[nid] == 0)
        self._open_by_name[nid] += 1
        self.end.append(0.0)
        self.excluded.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int, nid: int):
        self.end[i] = perf_counter()
        self._stack.pop()
        self._open_by_name[nid] -= 1

    # -- boundary counts ---------------------------------------------------

    def _probe_validate(self, args, out):
        # validate_atlas returns the report it cached on the atlas; a second
        # call on the same atlas is a hit.
        self.counts["atlas.validate_hits"] += int(id(out) in self._reports)
        self._reports.add(id(out))

    def _note_matrix(self, m):
        c = self.counts
        c["qmat.max_dim"] = max(c["qmat.max_dim"], m.rows, m.cols)
        c["qmat.max_entry_bits"] = max(c["qmat.max_entry_bits"], _entry_bits(m))

    def _probe_matmul(self, args, out):
        if out is NotImplemented:
            return
        a, b = args
        c = self.counts
        c["qmat.matmul_ops"] += a.rows * a.cols * b.cols
        col_nnz = [0] * a.cols
        for row in a.entries():
            for k, x in enumerate(row):
                if x:
                    col_nnz[k] += 1
        c["qmat.matmul_nonzero_ops"] += sum(
            n * sum(1 for x in row if x) for n, row in zip(col_nnz, b.entries()))
        for m in (a, b, out):
            self._note_matrix(m)

    def _probe_matrix_kernel(self, args, out):
        self._note_matrix(args[0])
        if isinstance(out, tuple):  # rref returns (R, pivots)
            out = out[0]
        if out is not None and not isinstance(out, int):
            self._note_matrix(out)

    # -- requests ----------------------------------------------------------

    def begin_request(self):
        self._distinct = {}
        self._reports = set()

    def end_request(self):
        for span, keys in self._distinct.items():
            self.distinct[span] += len(keys)
        self.requests += 1

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics over the traced requests, keyed as PER_LAYER_UNITS."""
        n = self.requests
        # Spans are stored in opening order, so children follow their parent
        # and one backward pass can total the counting time under each span.
        under = list(self.excluded)
        for i in range(len(self.name) - 1, -1, -1):
            if self.parent[i] >= 0:
                under[self.parent[i]] += under[i]
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        child = [0.0] * len(self.name)
        for i, nid in enumerate(self.name):
            dur = self.end[i] - self.start[i] - under[i]
            calls[nid] += 1
            if self.outermost[i]:
                inclusive[nid] += dur
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur
        layer_of = [name.split(".")[0] for name in self.names]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, nid in enumerate(self.name):
            own = self.end[i] - self.start[i] - under[i] - child[i]
            layer_self[layer_of[nid]] += own

        def span_calls(span):
            return calls[self._ids[span]]

        out = {}
        for metric in PER_LAYER_UNITS:
            layer, _, stat = metric.partition(".")
            if stat == "self_s":
                value = layer_self[layer] / n
            elif stat.endswith("_useful_ratio"):
                span = f"{layer}.{stat[:-len('_useful_ratio')]}"
                value = self.distinct[span] / span_calls(span)
            elif stat.endswith("_calls"):
                value = span_calls(f"{layer}.{stat[:-len('_calls')]}") / n
            elif stat.endswith("_s"):
                value = inclusive[self._ids[f"{layer}.{stat[:-2]}"]] / n
            elif metric == "atlas.validate_hit_ratio":
                value = self.counts["atlas.validate_hits"] / span_calls("atlas.validate")
            elif metric in ("qmat.max_dim", "qmat.max_entry_bits"):
                value = self.counts[metric]
            else:
                value = self.counts[metric] / n
            out[metric] = value
        return out

    def write(self, path: str):
        """Write every span as gzip'd JSON lines: a header, then one span per line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["request", "name", "parent", "start", "end"]}))
            fh.write("\n")
            for i in range(len(self.name)):
                fh.write(f"[{self.request[i]},{self.name[i]},{self.parent[i]},"
                         f"{self.start[i]!r},{self.end[i]!r}]\n")
