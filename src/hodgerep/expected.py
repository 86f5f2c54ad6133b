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
from .rootdata import LieType

EXPECTED_FORMAT = "hodgerep-expected/1"

_ALL_TABLES = ("thm2.1", "prop3.1", "prop3.3", "prop3.5",
               "prop3.7", "prop3.9", "prop3.11")


def _binom(n, k) -> int:
    return comb(int(n), int(k))


def _eval(expr, bindings: Dict[str, Fraction]):
    env = {"Q": Fraction, "binom": _binom}
    env.update(bindings)
    return eval(expr, {"__builtins__": {}}, env)  # data shipped with the package


def _eval_int(expr, bindings) -> int:
    val = Fraction(_eval(expr, bindings))
    if val.denominator != 1:
        raise ValueError(f"expression {expr!r} not integral under {bindings}")
    return int(val)


def _render_label(template: Optional[str], bindings) -> Optional[str]:
    if template is None:
        return None
    return re.sub(r"\{([^}]+)\}",
                  lambda m: str(_eval_int(m.group(1), bindings)), template)


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
    raw = json.loads(text)
    fmt = raw.get("format")
    if fmt != EXPECTED_FORMAT:
        raise ValueError(
            f"expected-results file {note} has format {fmt!r}, need {EXPECTED_FORMAT!r}"
        )
    return ExpectedTables(raw=raw, path_note=note)


def _param_bindings(params: dict, max_rank: int) -> List[Dict[str, int]]:
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
        lo = _eval_int(str(spec.get("min", 1)), frac_acc)
        hi_spec = spec.get("max")
        if hi_spec is None:
            hi = max_rank
        else:
            hi = min(_eval_int(str(hi_spec), frac_acc), max_rank)
        for val in range(lo, hi + 1):
            acc[name] = val
            rec(idx + 1, acc)
        acc.pop(name, None)

    rec(0, {})
    return out


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
    node = _eval_int(str(expr), bindings)
    if not 1 <= node <= rank:
        raise ValueError(f"{where}: {name} node {node} outside 1..{rank}")
    return node


def _resolve_case(item: dict, fbind: Dict[str, Fraction], where: str
                  ) -> Tuple[str, List[str]]:
    """Pick the (reality, h) pair whose guard holds under the binding."""
    row = item
    if "cases" in item:
        row = next((case for case in item["cases"] if bool(_eval(case["when"], fbind))),
                   None)
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
    for item in table["items"]:
        where = f"{table_name} item {item.get('item')}"
        instances: List[ExpectedInstance] = []
        for binding in _param_bindings(item.get("params", {}), max_rank):
            fbind = {k: Fraction(v) for k, v in binding.items()}
            if "exclude" in item and bool(_eval(item["exclude"], fbind)):
                continue
            factors = []
            valid = True
            for fac in item["factors"]:
                rank = _eval_int(str(fac["rank"]), fbind)
                family = _field(fac, "family", where, str, "a string")
                try:
                    lt = LieType(family, rank)
                except InvalidTypeError:
                    valid = False
                    break
                nodes = tuple(sorted(_node(n, rank, fbind, where, "E")
                                     for n in _field(fac, "E", where, list, "a list")))
                mu = [0] * rank
                for node_expr, coeff_expr in _field(fac, "mu", where, list, "a list"):
                    mu[_node(node_expr, rank, fbind, where, "mu") - 1] = \
                        _eval_int(str(coeff_expr), fbind)
                factors.append((lt, nodes, tuple(mu)))
            if not valid:
                continue
            reality, h_exprs = _resolve_case(item, fbind, where)
            rf = item.get("real_form")
            if rf is not None and not isinstance(rf, list):
                rf = [rf]
            instances.append(ExpectedInstance(
                table=table_name,
                item=item["item"],
                bindings=binding,
                factors=tuple(factors),
                c=Fraction(_eval(_field(item, "c", where, str, "a string"), fbind)),
                h=tuple(_eval_int(e, fbind) for e in h_exprs),
                reality=reality,
                real_forms=None if rf is None else tuple(
                    _render_label(x, fbind) for x in rf),
                paper_label=item.get("paper_label"),
                notes=item.get("notes"),
            ))
        out[item["item"]] = instances
    return out
