"""Command-line front end: validate atlases, compute tables, list the corpus.

Usage (installed as ``absix``)::

    absix validate FILE
    absix compute FILE_OR_@NAME [--what WHAT] [--format text|json] [--degree N]
    absix corpus

``compute`` accepts either a path to an atlas JSON file or ``@name`` /
``@name(param=value, ...)`` referring to a built-in corpus atlas.  Each table
is collected from its degree-n pieces, so ``--degree N`` computes degree N
alone; the criteria, comparison and dichotomy always cover every degree.
Output is deterministic: identical inputs produce identical bytes.  Exit
codes, mapped from the error classes in ``main`` alone: 0 on success, 1 on a
domain error (invalid atlas, violated precondition), 2 on I/O or parse
errors, 3 when an internal invariant fails (a bug in absix).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from typing import Optional

from . import __version__
from .absic import absic_at, all_degrees, boundary_at, boundary_degrees, tabulate
from .atlas import StratumAtlas, dump_atlas, read_atlas, require_valid, validate_atlas
from .errors import AbsixError, InternalError, InvalidAtlas, ParseError, PreconditionViolated
from .hodgecore import CohomologyTable
from .plus import (
    ComparisonReport,
    CriteriaReport,
    DichotomyResult,
    compare_candidates,
    ih_plus_at,
    plus_dichotomy,
    weight_criteria,
)
from .record import Record
from .wss import grW, grW_c

# kind -> (title, the degree-n piece, the degrees the table spans)
_TABLES = {
    "plain": ("H^n(X), weight-graded", grW, all_degrees),
    "compactSupport": ("H^n_c(X), weight-graded", grW_c, all_degrees),
    "absoluteIC": ("absolute intersection cohomology H^n_!*(X)", absic_at, all_degrees),
    "boundary": ("boundary cohomology bH^n(X)", boundary_at, boundary_degrees),
    "onePointIC": ("IH^n of the one-point compactification", ih_plus_at, all_degrees),
}

_WHAT_TABLES = {
    "cohomology": ("plain", "compactSupport"),
    "absic": ("absoluteIC",),
    "boundary": ("boundary",),
    "ihplus": ("onePointIC",),
    "criteria": (),
    "all": ("plain", "compactSupport", "absoluteIC", "boundary", "onePointIC"),
}


def atlas_hash(a: StratumAtlas) -> str:
    """Stable content hash of the canonical atlas serialization."""
    canonical = json.dumps(dump_atlas(a), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Report(Record):
    """The parts of one atlas's report that a ``--what`` selection renders.

    ``criteria``, ``comparison`` and ``dichotomy`` are None when not asked for.
    """

    __slots__ = _fields = ("atlasName", "tables", "criteria", "comparison", "dichotomy",
                           "provenance")


def build_report(a: StratumAtlas, name: str, what: str,
                 degree: Optional[int] = None) -> Report:
    """Compute exactly the parts of the report that ``what`` renders.

    Each table is collected from its degree-n pieces over the degrees it
    spans, or at ``degree`` alone when one is given.  The criteria, the
    comparison and the dichotomy always cover every degree.
    """
    require_valid(a)
    if what == "ihplus" and not a.connected:
        raise PreconditionViolated("the one-point table needs a connected X")
    tables = {}
    for kind in _WHAT_TABLES[what]:
        _, piece, span = _TABLES[kind]
        if kind != "onePointIC" or a.connected:
            degrees = tuple(n for n in span(a) if degree is None or n == degree)
            tables[kind] = tabulate(a, kind, piece, degrees)
    criteria = weight_criteria(a) if what in ("criteria", "all") else None
    comparison = compare_candidates(a) if what == "all" and a.connected else None
    dichotomy = None
    if criteria is not None and not criteria.verdict and a.connected:
        dichotomy = plus_dichotomy(a)
    return Report(
        atlasName=name,
        tables=tables,
        criteria=criteria,
        comparison=comparison,
        dichotomy=dichotomy,
        provenance={"engine": f"absix {__version__}", "atlasHash": atlas_hash(a)},
    )


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------

def _table_json(t: CohomologyTable) -> dict:
    degrees = {
        str(n): {str(w): {f"{p},{q}": k for (p, q), k in obj.hodge_numbers().items()}
                 for w, obj in t.degree(n).pieces}
        for n in t.degrees()
    }
    return {"kind": t.kind, "byDegree": degrees}


def _criteria_json(c: CriteriaReport) -> dict:
    return {
        "cond2": c.cond2,
        "cond3": c.cond3,
        "cond6": c.cond6,
        "cond7": c.cond7,
        "verdict": c.verdict,
        "cond2ByDegree": [[n, ok] for n, ok in c.cond2_by_degree],
        "cond3ByDegree": [[n, ok] for n, ok in c.cond3_by_degree],
        "injectivityRange": [[n, ok] for n, ok in c.injectivityRange],
        "injectivityRoute": c.injectivityRoute,
        "lefschetz": None if c.lefschetz is None
        else [[n, ok] for n, ok in c.lefschetz],
    }


def _comparison_json(c: ComparisonReport) -> dict:
    return {
        "matchesPlus": c.matchesPlus,
        "matchesY": c.matchesY,
        "plusMismatchDegrees": list(c.plusMismatchDegrees),
        "yMismatchDegrees": list(c.yMismatchDegrees),
    }


def _dichotomy_json(d: DichotomyResult) -> dict:
    return {
        "mode": d.mode,
        "horn": d.horn,
        "degrees": list(d.degrees),
        "boundaryNonzero": d.boundary_nonzero,
        "detail": d.detail,
    }


def report_json(report: Report) -> dict:
    doc = {
        "schema": 1,
        "atlasName": report.atlasName,
        "provenance": report.provenance,
    }
    if report.tables:
        doc["tables"] = {t: _table_json(x) for t, x in report.tables.items()}
    if report.criteria is not None:
        doc["criteria"] = _criteria_json(report.criteria)
    if report.dichotomy is not None:
        doc["dichotomy"] = _dichotomy_json(report.dichotomy)
    if report.comparison is not None:
        doc["comparison"] = _comparison_json(report.comparison)
    return doc


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def _render_table(kind: str, t: CohomologyTable) -> list:
    lines = [f"{_TABLES[kind][0]} [{kind}]"]
    degrees = t.degrees()
    if not degrees:
        lines.append("  (zero)")
        return lines
    weights = sorted({w for n in degrees for w in t.degree(n).weights()})
    width = max(4, *(len(str(w)) for w in weights)) + 1
    head = "   n\\w |" + "".join(str(w).rjust(width) for w in weights)
    lines.append(head)
    lines.append("  " + "-" * (len(head) - 2))
    for n in degrees:
        mg = t.degree(n)
        cells = []
        for w in weights:
            dim = mg.piece(w).dim
            cells.append((str(dim) if dim else ".").rjust(width))
        lines.append(f"  {str(n).rjust(4)} |" + "".join(cells))
    lines.append("  hodge numbers:")
    for n in degrees:
        for w, obj in t.degree(n).pieces:
            parts = " + ".join(
                f"{k}x({p},{q})" for (p, q), k in obj.hodge_numbers().items()
            )
            lines.append(f"    n={n} w={w}: {parts}")
    return lines


def _fails(rows) -> list:
    return [n for n, ok in rows if not ok]


def _render_criteria(c: CriteriaReport) -> list:
    lines = ["weight criteria:"]

    def verdict_line(label, ok, rows):
        failing = _fails(rows)
        suffix = "" if ok else f" (fails at degrees {', '.join(map(str, failing))})"
        lines.append(f"  {label}: {str(ok).lower()}{suffix}")

    verdict_line("cond2 (boundary weights <= n for n <= d-1)", c.cond2, c.cond2_by_degree)
    verdict_line("cond3 (boundary weights >= n+1 for n >= d)", c.cond3, c.cond3_by_degree)
    lines.append(f"  cond6 (H^n pure for n <= d-1): {str(c.cond6).lower()}")
    lines.append(f"  cond7 (H^n_c pure for n >= d+1): {str(c.cond7).lower()}")
    if c.injectivityRange:
        rng = " ".join(f"{n}:{str(ok).lower()}" for n, ok in c.injectivityRange)
        lines.append(f"  injectivity range [{c.injectivityRoute}]: {rng}")
    if c.lefschetz is not None:
        rng = " ".join(f"{n}:{str(ok).lower()}" for n, ok in c.lefschetz)
        lines.append(f"  lefschetz route (single smooth boundary): {rng}")
    lines.append(f"  verdict: {str(c.verdict).lower()}")
    return lines


def _render_comparison(c: ComparisonReport) -> list:
    lines = ["candidate comparison:"]
    plus = str(c.matchesPlus).lower()
    if c.plusMismatchDegrees:
        plus += f" (mismatch degrees: {', '.join(map(str, c.plusMismatchDegrees))})"
    y = str(c.matchesY).lower()
    if c.yMismatchDegrees:
        y += f" (mismatch degrees: {', '.join(map(str, c.yMismatchDegrees))})"
    lines.append(f"  matchesPlus: {plus}")
    lines.append(f"  matchesY: {y}")
    return lines


def report_text(report: Report) -> str:
    lines = [
        f"atlas: {report.atlasName}",
        f"engine: {report.provenance['engine']}  "
        f"hash: {report.provenance['atlasHash']}",
    ]
    for t, x in report.tables.items():
        lines.append("")
        lines.extend(_render_table(t, x))
    if report.criteria is not None:
        lines.append("")
        lines.extend(_render_criteria(report.criteria))
    if report.dichotomy is not None:
        lines.append("")
        lines.append("dichotomy:")
        lines.append(f"  mode: {report.dichotomy.mode}")
        lines.append(f"  horn: ({report.dichotomy.horn})")
        lines.append(f"  degrees: {', '.join(map(str, report.dichotomy.degrees))}")
        lines.append(f"  {report.dichotomy.detail}")
    if report.comparison is not None:
        lines.append("")
        lines.extend(_render_comparison(report.comparison))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Target resolution and subcommands
# ---------------------------------------------------------------------------

_CORPUS_REF = re.compile(r"^@([A-Za-z0-9_]+)(?:\((.*)\))?$")
_INTEGER = re.compile(r"-?[0-9]+")


def resolve_target(target: str) -> tuple:
    """Turn a CLI target (path or @name(...)) into (atlas, display name).

    A corpus target's display name is built from the parsed parameters,
    ``name`` or ``name(k=v,...)`` with sorted keys, so every spelling of one
    atlas gives one report.
    """
    m = _CORPUS_REF.match(target)
    if m:
        name, raw = m.group(1), m.group(2)
        params = {}
        if raw:
            for chunk in raw.split(","):
                chunk = chunk.strip()
                if not chunk:
                    continue
                if "=" not in chunk:
                    raise ParseError(target, f"expected param=value, got {chunk!r}")
                key, val = (s.strip() for s in chunk.split("=", 1))
                if key in params:
                    raise ParseError(target, f"parameter {key!r} given twice")
                try:
                    if not _INTEGER.fullmatch(val):
                        raise ValueError
                    params[key] = int(val)
                except ValueError:  # outside -?[0-9]+, or past the digit limit
                    raise ParseError(
                        target, f"parameter {key!r} must be an integer, got {val!r}"
                    ) from None
        shown = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        from .corpus import builtin  # imported here: a file target never needs it
        try:
            return builtin(name, **params), f"{name}({shown})" if shown else name
        except ValueError as exc:
            raise ParseError(target, str(exc)) from None
    return read_atlas(target), target


def cmd_validate(path: str) -> int:
    try:
        a = read_atlas(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 2
    report = validate_atlas(a)
    if report.ok:
        print("atlas valid")
        return 0
    for finding in report.findings:
        print(str(finding))
    return 1


def cmd_compute(target: str, what: str, fmt: str, degree: Optional[int]) -> int:
    try:
        a, name = resolve_target(target)
    except OSError as exc:
        print(f"cannot read {target}: {exc}", file=sys.stderr)
        return 2
    report = build_report(a, name, what, degree)
    if fmt == "json":
        print(json.dumps(report_json(report), indent=2, sort_keys=True))
    else:
        print(report_text(report), end="")
    return 0


def cmd_corpus() -> int:
    from .corpus import CATALOGUE
    for item in CATALOGUE:
        params = f"({item.parameters})" if item.parameters else ""
        print(f"{item.name}{params}  --  {item.summary}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every ``main``."""
    parser = argparse.ArgumentParser(
        prog="absix",
        description="Weight-graded cohomology tables for complements of "
        "normal-crossing divisors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check an atlas file")
    p_validate.add_argument("path")

    p_compute = sub.add_parser("compute", help="compute cohomology tables")
    p_compute.add_argument("target", help="atlas file, or @name / @name(n=2)")
    p_compute.add_argument(
        "--what",
        choices=sorted(_WHAT_TABLES),
        default="all",
    )
    p_compute.add_argument("--format", choices=("text", "json"), default="text")
    p_compute.add_argument("--degree", type=int, default=None)

    sub.add_parser("corpus", help="list built-in atlases")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.path)
        if args.command == "compute":
            return cmd_compute(args.target, args.what, args.format, args.degree)
        return cmd_corpus()
    except ParseError as exc:
        print(f"parse error at {exc.location}: {exc.message}", file=sys.stderr)
        return 2
    except InvalidAtlas as exc:
        print(f"invalid atlas: {exc}", file=sys.stderr)
        return 1
    except AbsixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error (a bug in absix): {exc}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
