"""Command-line surface: inspect, classify, verify-paper.

Exit codes: 0 success (clean verify), 1 verify found non-allowlisted
mismatches, 2 inspect hit a shape-invalid candidate, 64 usage error,
70 resource guard.  Output is deterministic; rationals are rendered as
"p/q" strings, never as decimals.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .classify import (
    ReconciliationReport,
    SearchConfig,
    enumerate_level,
    evaluate_simple,
    verify_paper,
)
from .errors import HodgeRepError, ResourceLimitError, ShapeError
from .hodgecore import GradingElement, eigenspace_dims, level
from .products import FactorSpec, ProductTuple, combine
from .repweights import DEFAULT_MAX_DIM
from .rootdata import RANK_BOUNDS, LieType

EXIT_OK = 0
EXIT_VERIFY_MISMATCH = 1
EXIT_SHAPE_INVALID = 2
EXIT_USAGE = 64
EXIT_RESOURCE = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _max_dim(text: str) -> int:
    """--max-dim: a positive integer; 0 or less would reject every system."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def record_of(t) -> dict:
    """Flat, schema-stable serialization of a classified tuple."""
    if isinstance(t, ProductTuple):
        return {
            "algebra": "x".join(str(f.lie_type) for f in t.factors),
            "E": [list(f.E.support) for f in t.factors],
            "mu": [list(f.mu) for f in t.factors],
            "c": _frac_str(t.c),
            "span": t.span,
            "level": t.level,
            "reality": t.reality,
            "hodge": list(t.hodge.dims),
            "real_form": "+".join(d.label() for d in t.real_forms),
            "canonical": t.is_canonical,
        }
    return {
        "algebra": str(t.algebra),
        "E": list(t.E.support),
        "mu": list(t.mu),
        "c": _frac_str(t.c),
        "span": t.span,
        "level": t.level,
        "reality": t.reality,
        "hodge": list(t.hodge.dims),
        "real_form": t.real_form.label(),
        "canonical": t.is_canonical,
    }


_FIELDS = ["algebra", "E", "mu", "c", "span", "level", "reality",
           "hodge", "real_form", "canonical"]


def _emit_records(records: List[dict], fmt: str, out) -> None:
    if fmt == "json":
        json.dump(records, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        out.write(",".join(_FIELDS) + "\n")
        for rec in records:
            row = []
            for f in _FIELDS:
                v = rec[f]
                if isinstance(v, list):
                    v = ";".join(
                        ",".join(str(x) for x in e) if isinstance(e, list) else str(e)
                        for e in v)
                row.append(f'"{v}"' if "," in str(v) else str(v))
            out.write(",".join(row) + "\n")
    else:  # markdown
        out.write("| " + " | ".join(_FIELDS) + " |\n")
        out.write("|" + "---|" * len(_FIELDS) + "\n")
        for rec in records:
            cells = []
            for f in _FIELDS:
                v = rec[f]
                if isinstance(v, list):
                    v = str(v).replace(" ", "")
                cells.append(str(v))
            out.write("| " + " | ".join(cells) + " |\n")


def _parse_families(text: str):
    fams = frozenset(x.strip().upper() for x in text.split(",") if x.strip())
    bad = fams - set(RANK_BOUNDS)
    if bad:
        raise ValueError(f"unknown families: {','.join(sorted(bad))}")
    return fams


def _parse_factor_lists(algebra: str, e_text: str, mu_text: str):
    """Parse "A1xD4", "1x1", "1x1,0,0,0" into per-factor specs."""
    types = [LieType.parse(x) for x in algebra.split("x")]
    e_parts = e_text.split("x")
    mu_parts = mu_text.split("x")
    if not len(types) == len(e_parts) == len(mu_parts):
        raise ValueError(
            f"algebra has {len(types)} factor(s) but --E has {len(e_parts)} "
            f"and --mu has {len(mu_parts)}")
    factors = []
    for t, ep, mp in zip(types, e_parts, mu_parts):
        nodes = [int(x) for x in ep.split(",") if x.strip()]
        mu = tuple(int(x) for x in mp.split(",") if x.strip())
        if len(mu) != t.rank:
            raise ValueError(f"--mu for {t} needs {t.rank} coefficients, got {len(mu)}")
        if any(c < 0 for c in mu) or not any(mu):
            raise ValueError(f"--mu for {t} must be dominant and nonzero")
        factors.append(FactorSpec(t, GradingElement.from_nodes(t.rank, nodes), mu))
    return factors


def _cmd_inspect(args) -> int:
    factors = _parse_factor_lists(args.algebra, args.E, args.mu)
    out = sys.stdout
    target = args.level

    if len(factors) == 1:
        f = factors[0]
        span = level(f.lie_type, f.mu, f.E)
        decomp = eigenspace_dims(f.lie_type, f.mu, f.E, max_dim=args.max_dim)
        out.write(f"algebra:    {f.lie_type}\n")
        out.write(f"E:          {f.E}\n")
        out.write(f"mu:         {','.join(str(c) for c in f.mu)}\n")
        out.write(f"(mu+mu*)(E): {span}\n")
        out.write("eigenspaces of E_ss on U (raw eigenvalues):\n")
        for ev, d in decomp.levels:
            out.write(f"  {_frac_str(ev):>8}  dim {d}\n")
        got = evaluate_simple(f.lie_type, f.E, f.mu, target, max_dim=args.max_dim)
        if got is None:
            out.write(f"result:     not a level-{target} Hodge representation "
                      "(shape-invalid)\n")
            return EXIT_SHAPE_INVALID
        rec = record_of(got)
    else:
        try:
            p = combine(factors, max_dim=args.max_dim)
        except ShapeError as exc:
            out.write(f"result:     shape-invalid product: {exc}\n")
            return EXIT_SHAPE_INVALID
        for f in p.factors:
            d = eigenspace_dims(f.lie_type, f.mu, f.E, max_dim=args.max_dim)
            out.write(f"factor {f.lie_type} {f.E}: levels "
                      + " ".join(f"{_frac_str(ev)}:{dim}" for ev, dim in d.levels)
                      + "\n")
        rec = record_of(p)

    for key in _FIELDS:
        out.write(f"{key}: {rec[key]}\n")
    return EXIT_OK


def _cmd_classify(args) -> int:
    cfg = SearchConfig(
        max_rank=args.max_rank,
        level=args.level,
        families=_parse_families(args.families),
        include_products=args.products,
        dedupe_automorphisms=args.dedupe,
        max_dim=args.max_dim,
    )
    records = [record_of(t) for t in enumerate_level(cfg)]
    _emit_records(records, args.format, sys.stdout)
    return EXIT_OK


def _report_rows(report: ReconciliationReport) -> List[dict]:
    rows = []
    for row in sorted(report.rows, key=lambda r: (r.table, r.item)):
        entry = {
            "table": row.table,
            "item": row.item,
            "status": row.status,
            "allowlisted": row.allowlisted,
            "instances": row.n_instances,
            "diffs": [],
        }
        for inst in row.failing():
            entry["diffs"].append({
                "candidate": inst.instance.describe(),
                "fields": [
                    {"field": f, "paper": e, "computed": g} for f, e, g in inst.diffs
                ],
            })
        if row.allowlist_reason:
            entry["reason"] = row.allowlist_reason
        rows.append(entry)
    return rows


def _emit_report(report: ReconciliationReport, fmt: str, out) -> None:
    rows = _report_rows(report)
    if fmt == "json":
        payload = {
            "scope": report.scope,
            "max_rank": report.max_rank,
            "ok": report.ok,
            "rows": rows,
            "computed_only": [record_of(t) for t in report.computed_only],
            "notes": report.notes,
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
        return
    if fmt == "markdown":
        out.write(f"# Reconciliation: scope={report.scope}, max_rank={report.max_rank}\n\n")
        out.write("| table | item | status | allowlisted | instances | diffs |\n")
        out.write("|---|---|---|---|---|---|\n")
        for r in rows:
            diffs = "; ".join(
                f"{d['candidate']}: " + ", ".join(
                    f"{x['field']} paper={x['paper']} computed={x['computed']}"
                    for x in d["fields"])
                for d in r["diffs"]) or "-"
            out.write(f"| {r['table']} | {r['item']} | {r['status']} | "
                      f"{r['allowlisted']} | {r['instances']} | {diffs} |\n")
        if report.computed_only:
            out.write("\n## Computed tuples not covered by any printed row\n\n")
            _emit_records([record_of(t) for t in report.computed_only], "markdown", out)
        for note in report.notes:
            out.write(f"\nNote: {note}\n")
        out.write(f"\nresult: {'clean' if report.ok else 'MISMATCHES OUTSIDE ALLOWLIST'}\n")
        return
    # csv
    out.write("table,item,status,allowlisted,instances,diffs\n")
    for r in rows:
        diffs = "; ".join(
            f"{d['candidate']}: " + ", ".join(
                f"{x['field']} paper={x['paper']} computed={x['computed']}"
                for x in d["fields"])
            for d in r["diffs"])
        out.write(f"{r['table']},{r['item']},{r['status']},{r['allowlisted']},"
                  f"{r['instances']},\"{diffs}\"\n")


def _cmd_verify(args) -> int:
    report = verify_paper(
        scope=args.scope,
        max_rank=args.max_rank,
        expected_path=args.expected_file,
        max_dim=args.max_dim,
    )
    _emit_report(report, args.format, sys.stdout)
    clean = (not report.mismatches) if args.strict else report.ok
    return EXIT_OK if clean else EXIT_VERIFY_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hodgerep",
        description="Enumerate and verify weight-1 and CY3-type Hodge representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="classify a single (algebra, E, mu) candidate")
    p.add_argument("algebra", help='e.g. "C3", or "A1xD4" for a product')
    p.add_argument("--E", required=True,
                   help='painted nodes, 1-based, e.g. "3" or "1,3"; per-factor with "x"')
    p.add_argument("--mu", required=True,
                   help='fundamental coefficients, e.g. "0,0,1"; per-factor with "x"')
    p.add_argument("--level", type=int, choices=(1, 3), default=3,
                   help="target Hodge level for the assembled vector (default 3)")
    p.add_argument("--max-dim", type=_max_dim, default=DEFAULT_MAX_DIM)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("classify", help="enumerate all tuples in a search window")
    p.add_argument("--level", type=int, choices=(1, 3), required=True)
    p.add_argument("--families", default="A,B,C,D,E,F,G")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--products", action="store_true")
    p.add_argument("--dedupe", action="store_true",
                   help="keep only canonical representatives under diagram automorphisms")
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    p.add_argument("--max-dim", type=_max_dim, default=DEFAULT_MAX_DIM)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify-paper", help="reconcile against the embedded tables")
    p.add_argument("--scope", default="all",
                   help="thm2.1, prop3.1, prop3.3, prop3.5, prop3.7, prop3.9, prop3.11 or all")
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="markdown")
    p.add_argument("--expected-file", default=None,
                   help="override the packaged expected-results file")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on any mismatch, allowlisted or not")
    p.add_argument("--max-dim", type=_max_dim, default=DEFAULT_MAX_DIM)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, HodgeRepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
