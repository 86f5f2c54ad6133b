"""Loader for the embedded expected-results tables.

The file data/expected_tables.json carries one record per table row, with
per-row parameter ranges (r, i, r1, r2) and exact expressions for the
printed center charge, Hodge vector, reality type and real-form label.
Expressions are evaluated over Fraction-valued bindings so that division
never leaves exact arithmetic.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import comb
from typing import Dict, List, Optional, Tuple

from .errors import InvalidTypeError
from .rootdata import RANK_BOUNDS, LieType

EXPECTED_FORMAT = "hodgerep-expected/1"

_ALL_TABLES = ("thm2.1", "prop3.1", "prop3.3", "prop3.5",
               "prop3.7", "prop3.9", "prop3.11")


def _binom(n, k) -> int:
    return comb(int(n), int(k))


def _eval(expr, bindings: Dict[str, Fraction], where: str, name: str, convert):
    """convert(value of a row expression), or ValueError naming the row
    (`where`) and field (`name`) when it cannot be evaluated or converted."""
    env = {"Q": Fraction, "binom": _binom}
    env.update(bindings)
    try:
        return convert(eval(expr, {"__builtins__": {}}, env))
    except (NameError, SyntaxError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: cannot evaluate {name} expression {expr!r} "
                         f"({type(exc).__name__}: {exc})") from None


def _eval_int(expr, bindings, where: str, name: str) -> int:
    val = _eval(expr, bindings, where, name, Fraction)
    if val.denominator != 1:
        raise ValueError(f"{where}: {name} expression {expr!r} not integral under {bindings}")
    return int(val)


def _render_label(template: Optional[str], bindings, where: str) -> Optional[str]:
    if template is None:
        return None
    return re.sub(r"\{([^}]+)\}",
                  lambda m: str(_eval_int(m.group(1), bindings, where, "real_form")),
                  template)


@dataclass(frozen=True)
class ExpectedInstance:
    """One printed table row at one concrete parameter binding."""

    table: str
    item: int
    bindings: Dict[str, int]
    factors: Tuple[Tuple[LieType, Tuple[int, ...], Tuple[int, ...]], ...]
    c: Fraction
    h: Tuple[int, ...]
    reality: str
    real_forms: Optional[Tuple[Optional[str], ...]]
    paper_label: Optional[str]
    notes: Optional[str]

    @property
    def is_product(self) -> bool:
        return len(self.factors) > 1

    @property
    def key(self):
        """Order-independent identity of the candidate this row names."""
        return tuple(sorted(
            (t.family, t.rank, nodes, mu) for t, nodes, mu in self.factors
        ))

    def describe(self) -> str:
        parts = []
        for t, nodes, mu in self.factors:
            e = "+".join(f"A{n}" for n in nodes)
            parts.append(f"({t}, {e}, mu={list(mu)})")
        binds = ",".join(f"{k}={v}" for k, v in self.bindings.items())
        return f"{self.table} item {self.item} [{binds}] " + " x ".join(parts)


@dataclass
class ExpectedTables:
    raw: dict
    path_note: str = ""

    @property
    def tables(self) -> dict:
        return self.raw["tables"]

    @property
    def allowlist(self) -> List[dict]:
        return self.raw.get("allowlist", [])

    def allowlisted(self, table: str, item: int) -> Optional[dict]:
        for entry in self.allowlist:
            if entry["table"] == table and entry["item"] == item:
                return entry
        return None

    def table_names(self, scope: str) -> Tuple[str, ...]:
        if scope == "all":
            missing = [n for n in _ALL_TABLES if n not in self.tables]
            if missing:
                raise ValueError(f"{self.path_note} lacks tables {', '.join(missing)}")
            return _ALL_TABLES
        if scope not in self.tables:
            raise ValueError(
                f"unknown scope {scope!r}; expected one of {', '.join(_ALL_TABLES)} or 'all'"
            )
        return (scope,)

    def level_of(self, table: str) -> int:
        return self.tables[table]["level"]


def load_expected(path: Optional[str] = None) -> ExpectedTables:
    """Load the expected-results file, by default the packaged copy."""
    if path is None:
        text = resources.files("hodgerep").joinpath(
            "data/expected_tables.json").read_text(encoding="utf-8")
        note = "packaged data/expected_tables.json"
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        note = path
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{note}: not valid JSON: {exc}") from None
    fmt = raw.get("format") if isinstance(raw, dict) else None
    if fmt != EXPECTED_FORMAT:
        raise ValueError(
            f"expected-results file {note} has format {fmt!r}, need {EXPECTED_FORMAT!r}"
        )
    for name, table in _field(raw, "tables", note, dict, "a dict").items():
        where = f"{note}: table {name}"
        _field(_dict(table, where), "items", where, list, "a list")
        lv = _field(table, "level", where, int, "an integer")
        if type(lv) is not int or lv not in (1, 3):
            raise ValueError(f"{where}: level must be 1 or 3, got {lv!r}")
        span = table.get("span", lv)
        if type(span) is not int or not 1 <= span <= lv:
            raise ValueError(f"{where}: span must be an integer in 1..{lv}, got {span!r}")
        if "pattern" in table:
            pattern = table["pattern"]
            if lv != 3 or not isinstance(pattern, list) or not 2 <= len(pattern) <= 3 \
                    or not all(type(x) is int and x >= 1 for x in pattern):
                raise ValueError(f"{where}: pattern must be a list of 2 or 3 positive "
                                 f"integers on a level-3 table, got {pattern!r}")
    allowlist = raw.get("allowlist", [])
    if not isinstance(allowlist, list):
        raise ValueError(f"{note}: allowlist must be a list, got {allowlist!r}")
    for pos, entry in enumerate(allowlist, 1):
        where = f"{note}: allowlist entry {pos}"
        _field(_dict(entry, where), "table", where, str, "a string")
        _field(entry, "item", where, int, "an integer")
        _field(entry, "reason", where, str, "a string")
    return ExpectedTables(raw=raw, path_note=note)


def _param_bindings(params: dict, max_rank: int, where: str) -> List[Dict[str, int]]:
    """Expand the declared parameter ranges into concrete bindings."""
    names = list(params)
    out: List[Dict[str, int]] = []

    def rec(idx: int, acc: Dict[str, int]):
        if idx == len(names):
            out.append(dict(acc))
            return
        name = names[idx]
        spec = params[name]
        frac_acc = {k: Fraction(v) for k, v in acc.items()}
        lo = _eval_int(str(spec.get("min", 1)), frac_acc, where, "params")
        hi_spec = spec.get("max")
        if hi_spec is None:
            hi = max_rank
        else:
            hi = min(_eval_int(str(hi_spec), frac_acc, where, "params"), max_rank)
        for val in range(lo, hi + 1):
            acc[name] = val
            rec(idx + 1, acc)
        acc.pop(name, None)

    rec(0, {})
    return out


def _check_shapes(item: dict, where: str) -> None:
    """`factors` must be a list of 1 to 3 dicts and `real_form`, when
    present, a string or a list of strings or nulls; `params` must map names
    to dicts; `cases`, when present, must be a list of dicts, each with a
    `when`."""
    factors = _field(item, "factors", where, list, "a list")
    if not 1 <= len(factors) <= 3 or not all(isinstance(f, dict) for f in factors):
        raise ValueError(f"{where}: factors must be a list of 1 to 3 dicts, "
                         f"got {factors!r}")
    rf = item.get("real_form")
    if not all(x is None or isinstance(x, str)
               for x in (rf if isinstance(rf, list) else [rf])):
        raise ValueError(f"{where}: real_form must be a string or a list of "
                         f"strings, got {rf!r}")
    params = item.get("params", {})
    if not isinstance(params, dict) or \
            not all(isinstance(spec, dict) for spec in params.values()):
        raise ValueError(f"{where}: params must be a dict of dicts, got {params!r}")
    cases = item.get("cases", [])
    if not isinstance(cases, list) or \
            not all(isinstance(case, dict) and "when" in case for case in cases):
        raise ValueError(f"{where}: cases must be a list of dicts, each with a "
                         f"'when', got {cases!r}")


def _dict(row, where: str) -> dict:
    """row, which must be a dict."""
    if not isinstance(row, dict):
        raise ValueError(f"{where}: must be a dict, got {row!r}")
    return row


def _field(row: dict, name: str, where: str, kind: type, what: str):
    """row[name], which must be present and a `kind`."""
    if name not in row:
        raise ValueError(f"{where}: missing field {name!r}")
    if not isinstance(row[name], kind):
        raise ValueError(f"{where}: {name} must be {what}, got {row[name]!r}")
    return row[name]


def _node(expr, rank: int, bindings, where: str, name: str) -> int:
    """A 1-based node index from a row's E or mu field, within 1..rank."""
    if not isinstance(expr, (str, int)):
        raise ValueError(f"{where}: {name} node must be a string or an integer, "
                         f"got {expr!r}")
    node = _eval_int(str(expr), bindings, where, name)
    if not 1 <= node <= rank:
        raise ValueError(f"{where}: {name} node {node} outside 1..{rank}")
    return node


def _resolve_case(item: dict, fbind: Dict[str, Fraction], where: str
                  ) -> Tuple[str, List[str]]:
    """Pick the (reality, h) pair whose guard holds under the binding."""
    row = item
    if "cases" in item:
        row = next((case for case in item["cases"]
                    if _eval(case["when"], fbind, where, "cases.when", bool)), None)
        if row is None:
            raise ValueError(f"{where}: no case guard matched")
    return (_field(row, "reality", where, str, "a string"),
            _field(row, "h", where, list, "a list"))


def instantiate(table_name: str, tables: ExpectedTables, max_rank: int
                ) -> Dict[int, List[ExpectedInstance]]:
    """All concrete instances of every row of one table, keyed by item.

    A malformed row raises ValueError naming the table, the item and the
    field.
    """
    table = tables.tables[table_name]
    out: Dict[int, List[ExpectedInstance]] = {}
    for pos, item in enumerate(table["items"], 1):
        row = f"{table_name} row {pos}"
        number = _field(_dict(item, row), "item", row, int, "an integer")
        where = f"{table_name} item {number}"
        _check_shapes(item, where)
        if table["level"] == 1 and len(item["factors"]) > 1:
            raise ValueError(f"{where}: factors must be one factor on a level-1 table "
                             f"(factor levels add, so no product has level 1), got "
                             f"{len(item['factors'])}")
        instances: List[ExpectedInstance] = []
        for binding in _param_bindings(item.get("params", {}), max_rank, where):
            fbind = {k: Fraction(v) for k, v in binding.items()}
            if "exclude" in item and _eval(item["exclude"], fbind, where, "exclude", bool):
                continue
            factors = []
            valid = True
            for fac in item["factors"]:
                rank = _eval_int(str(_field(fac, "rank", where, (str, int),
                                            "a string or an integer")),
                                 fbind, where, "rank")
                family = _field(fac, "family", where, str, "a string")
                if family not in RANK_BOUNDS:
                    raise ValueError(f"{where}: family must be one of "
                                     f"{', '.join(RANK_BOUNDS)}, got {family!r}")
                try:
                    lt = LieType(family, rank)
                except InvalidTypeError:
                    valid = False
                    break
                nodes = tuple(sorted(_node(n, rank, fbind, where, "E")
                                     for n in _field(fac, "E", where, list, "a list")))
                if not nodes or len(set(nodes)) < len(nodes):
                    raise ValueError(f"{where}: E must name one or more distinct nodes, "
                                     f"got {list(nodes)}")
                mu, seen = [0] * rank, set()
                for pair in _field(fac, "mu", where, list, "a list"):
                    if not (isinstance(pair, list) and len(pair) == 2):
                        raise ValueError(f"{where}: mu entry must be a [node, coeff] "
                                         f"pair, got {pair!r}")
                    node = _node(pair[0], rank, fbind, where, "mu")
                    if node in seen:
                        raise ValueError(f"{where}: mu node {node} repeated")
                    seen.add(node)
                    mu[node - 1] = _eval_int(str(pair[1]), fbind, where, "mu")
                if min(mu) < 0 or not any(mu):
                    raise ValueError(f"{where}: mu must be dominant and nonzero, got {mu}")
                factors.append((lt, nodes, tuple(mu)))
            if not valid:
                continue
            reality, h_exprs = _resolve_case(item, fbind, where)
            rf = item.get("real_form")
            if rf is not None and not isinstance(rf, list):
                rf = [rf]
            instances.append(ExpectedInstance(
                table=table_name,
                item=number,
                bindings=binding,
                factors=tuple(factors),
                c=_eval(_field(item, "c", where, str, "a string"), fbind, where, "c",
                        Fraction),
                h=tuple(_eval_int(e, fbind, where, "h") for e in h_exprs),
                reality=reality,
                real_forms=None if rf is None else tuple(
                    _render_label(x, fbind, where) for x in rf),
                paper_label=item.get("paper_label"),
                notes=item.get("notes"),
            ))
        out[number] = instances
    return out
