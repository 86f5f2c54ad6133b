"""Command-line surface: inspect, classify, verify-paper.

Exit codes: 0 success (clean verify), 1 verify found non-allowlisted
mismatches, 2 inspect hit a shape-invalid candidate (a simple one writes
the rule's reason to stderr, a product to stdout), 64 usage error,
70 resource guard: `inspect --max-dim` on a ladder that builds a weight
system.  The sweeps build none, so `classify` and `verify-paper` take no
size guard.  Output is deterministic; rationals are rendered as "p/q"
strings, never as decimals.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .classify import ReconciliationReport, SearchConfig, enumerate_level, verify_paper
from .errors import HodgeRepError, ResourceLimitError, ShapeError
from .products import SummaryTable, assemble_summaries
from .repweights import DEFAULT_MAX_DIM
from .rootdata import LieType, _node_mask

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


def record_of(t) -> dict:
    """Flat, schema-stable serialization of a classified tuple; E and mu
    are flat lists for one factor and per-factor lists for a product."""
    one = len(t.factors) == 1
    E = [list(f.E.support) for f in t.factors]
    mu = [list(f.mu) for f in t.factors]
    return {
        "algebra": "x".join(str(f.lie_type) for f in t.factors),
        "E": E[0] if one else E,
        "mu": mu[0] if one else mu,
        "c": str(t.c),
        "span": t.span,
        "level": t.level,
        "reality": t.reality,
        "hodge": list(t.hodge.dims),
        "real_form": "+".join(t.real_forms),
        "canonical": t.is_canonical,
    }


_FIELDS = ["algebra", "E", "mu", "c", "span", "level", "reality",
           "hodge", "real_form", "canonical"]


def _write_table(out, fmt: str, header: Sequence[str], rows) -> None:
    """A csv or markdown table of rendered cells."""
    lead, sep, tail = ("", ",", "") if fmt == "csv" else ("| ", " | ", " |")
    out.write(f"{lead}{sep.join(header)}{tail}\n")
    if fmt == "markdown":
        out.write("|" + "---|" * len(header) + "\n")
    for cells in rows:
        out.write(f"{lead}{sep.join(cells)}{tail}\n")


def _cell(v, fmt: str) -> str:
    """One record field as a csv or markdown cell."""
    if isinstance(v, list):
        if fmt == "markdown":
            return str(v).replace(" ", "")
        v = ";".join(",".join(str(x) for x in e) if isinstance(e, list) else str(e)
                     for e in v)
    v = str(v)
    return f'"{v}"' if fmt == "csv" and "," in v else v


def _emit_records(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        json.dump(records, out, indent=2)
        out.write("\n")
    else:
        _write_table(out, fmt, _FIELDS, ([_cell(rec[f], fmt) for f in _FIELDS]
                                         for rec in records))


def _csv_ints(flag: str, t: LieType, text: str) -> list[int]:
    """One factor's comma-separated integers; an empty field is an error,
    not a field to skip."""
    fields = text.split(",")
    if not all(x.strip() for x in fields):
        raise ValueError(f"{flag} for {t} has an empty field: {text!r}")
    return [int(x) for x in fields]


def _parse_factor_lists(algebra: str, e_text: str, mu_text: str):
    """Parse "A1xD4", "1x1", "1x1,0,0,0" into (type, E nodes, mu) keys."""
    types = [LieType.parse(x) for x in algebra.split("x")]
    e_parts = e_text.split("x")
    mu_parts = mu_text.split("x")
    if not len(types) == len(e_parts) == len(mu_parts):
        raise ValueError(
            f"algebra has {len(types)} factor(s) but --E has {len(e_parts)} "
            f"and --mu has {len(mu_parts)}")
    factors = []
    for t, ep, mp in zip(types, e_parts, mu_parts):
        nodes = _csv_ints("--E", t, ep)
        mu = tuple(_csv_ints("--mu", t, mp))
        if len(mu) != t.rank:
            raise ValueError(f"--mu for {t} needs {t.rank} coefficients, got {len(mu)}")
        if any(c < 0 for c in mu) or not any(mu):
            raise ValueError(f"--mu for {t} must be dominant and nonzero")
        _node_mask(t.rank, nodes)   # the node errors, in the order given
        factors.append((t, tuple(sorted(nodes)), mu))
    return factors


def _cmd_inspect(args) -> int:
    factors = _parse_factor_lists(args.algebra, args.E, args.mu)
    out = sys.stdout
    target = args.level
    simple = len(factors) == 1
    if target == 1 and not simple:
        raise ValueError("--level 1 needs one factor: factor levels add, "
                         "so no product has level 1")
    try:
        summaries = SummaryTable().summarise(factors)
        if simple:
            s = summaries[0]
            # the only ladder that can take the orbit route: it is built
            # before the rule runs, so the size guard runs before any output
            f, decomp = s.factor, s.eigen(args.max_dim)
            out.write(f"algebra:    {f.lie_type}\n")
            out.write(f"E:          {f.E}\n")
            out.write(f"mu:         {','.join(str(c) for c in f.mu)}\n")
            out.write(f"(mu+mu*)(E): {s.span}\n")
            out.write("eigenspaces of E_ss on U (raw eigenvalues):\n")
            for ev, d in decomp.levels:
                out.write(f"  {str(ev):>8}  dim {d}\n")
        got = assemble_summaries(summaries, target)
    except ShapeError as exc:
        if simple:
            out.write(f"result:     not a level-{target} Hodge representation (shape-invalid)\n")
            print(f"reason: {exc}", file=sys.stderr)
        else:
            out.write(f"result:     shape-invalid product: {exc}\n")
        return EXIT_SHAPE_INVALID
    if not simple:
        for s in summaries:
            f = s.factor
            out.write(f"factor {f.lie_type} {f.E}: levels "
                      + " ".join(f"{ev}:{dim}" for ev, dim in s.eigen().levels)
                      + "\n")
    rec = record_of(got)
    for key in _FIELDS:
        out.write(f"{key}: {rec[key]}\n")
    return EXIT_OK


def _cmd_classify(args) -> int:
    cfg = SearchConfig(
        max_rank=args.max_rank,
        level=args.level,
        # SearchConfig rejects an unknown family
        families=frozenset(x.strip().upper() for x in args.families.split(",") if x.strip()),
        include_products=args.products,
    )
    records = [record_of(t) for t in enumerate_level(cfg)
               if t.is_canonical or not args.dedupe]
    _emit_records(records, args.format, sys.stdout)
    return EXIT_OK


def _report_rows(report: ReconciliationReport) -> list[dict]:
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


def _diff_text(row: dict) -> str:
    """One report row's failing instances with their differing fields."""
    return "; ".join(
        f"{d['candidate']}: " + ", ".join(
            f"{x['field']} paper={x['paper']} computed={x['computed']}"
            for x in d["fields"])
        for d in row["diffs"])


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
    markdown = fmt == "markdown"
    if markdown:
        out.write(f"# Reconciliation: scope={report.scope}, max_rank={report.max_rank}\n\n")
    header = ["table", "item", "status", "allowlisted", "instances", "diffs"]
    _write_table(out, fmt, header, (
        [str(r[f]) for f in header[:-1]]
        + [(_diff_text(r) or "-") if markdown else f'"{_diff_text(r)}"']
        for r in rows))
    if markdown:
        if report.computed_only:
            out.write("\n## Computed tuples not covered by any printed row\n\n")
            _emit_records([record_of(t) for t in report.computed_only], "markdown", out)
        for note in report.notes:
            out.write(f"\nNote: {note}\n")
        out.write(f"\nresult: {'clean' if report.ok else 'MISMATCHES OUTSIDE ALLOWLIST'}\n")


def _cmd_verify(args) -> int:
    report = verify_paper(
        scope=args.scope,
        max_rank=args.max_rank,
        expected_path=args.expected_file,
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
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
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
