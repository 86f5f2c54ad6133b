"""Loader and compiler for the expected-results tables.

The file data/expected_tables.json carries one record per table row, with
per-row parameter ranges (r, i, r1, r2) and exact expressions for each
factor and for the printed center charge, Hodge vector, reality type and
real-form label.  `instantiate` checks each record against `_FIELDS` and
builds each expression once, before any binding, from its parse tree into
a function of columns: given each parameter's values at a row's bindings,
it gives the expression's value at each, so a row runs each expression
once over all its bindings; no expression runs as code.  `and`, `or` and
comparison chains run their right operand only at the bindings their left
operand leaves open, as Python's short circuit does at one binding, and a
binding that puts a rank outside its family's bounds is dropped before any
other field runs there.  Each distinct text is parsed and built once per
call and set of parameter names, and nothing built is kept past it.
The row grammar is the nodes `_build` knows: int constants, the row's
parameters, the operators in `_OPS`, `and`, `or`, and calls of `Q`
(Fraction) and `binom` with positional arguments.  `/` is exact, and a
`**` exponent or a `binom` argument that is not an integer is an error.
"""
from __future__ import annotations

import ast
import json
import operator
import os
import re
from collections import namedtuple
from fractions import Fraction
from functools import partial, reduce
from math import comb

from .errors import InvalidTypeError
from .rootdata import RANK_BOUNDS, LieType

EXPECTED_FORMAT = "hodgerep-expected/1"

_ALL_TABLES = ("thm2.1", "prop3.1", "prop3.3", "prop3.5",
               "prop3.7", "prop3.9", "prop3.11")

_WHAT = {str: "a string", int: "an integer", list: "a list", dict: "a dict",
         type(None): "null"}


def _is(*types):
    """A field check for exactly these JSON types: a JSON true or false is
    a bool, which is no integer here."""
    return lambda value: type(value) in types, " or ".join(_WHAT[t] for t in types)


# record kind -> field -> (required, (check, what it asks for), ...); a
# field with no check is known, and checked elsewhere or read by nothing
_FIELDS = {
    "file": {"format": (False,), "description": (False,), "tables": (True, _is(dict)),
             "allowlist": (False, _is(list))},
    "table": {"items": (True, _is(list)), "level": (True,),
              "span": (False,), "pattern": (False,)},
    "allowlist entry": {"table": (True, _is(str)), "item": (True, _is(int)),
                        "reason": (True, _is(str)), "computed_h": (False,)},
    # a row without cases is its own one case, and is checked as a case
    "item": {"item": (True, _is(int)),
             "factors": (True, _is(list), (lambda v: 1 <= len(v) <= 3 and all(
                 isinstance(f, dict) for f in v), "a list of 1 to 3 dicts")),
             "params": (False, (lambda v: isinstance(v, dict) and all(
                 isinstance(spec, dict) for spec in v.values()), "a dict of dicts")),
             "cases": (False, (lambda v: isinstance(v, list) and all(
                 isinstance(case, dict) and "when" in case for case in v),
                 "a list of dicts, each with a 'when'")),
             "reality": (False,), "h": (False,), "c": (True, _is(str)),
             "real_form": (False, (lambda v: all(
                 x is None or isinstance(x, str) for x in (v if isinstance(v, list) else [v])),
                 "a string or a list of strings")),
             "notes": (False,), "paper_label": (False,), "equiv": (False,)},
    "factor": {"family": (True, _is(str), (lambda v: v in RANK_BOUNDS,
                                           f"one of {', '.join(RANK_BOUNDS)}")),
               "rank": (True, _is(str, int)), "E": (True, _is(list)), "mu": (True, _is(list))},
    "case": {"when": (False, _is(str)), "reality": (True, _is(str)), "h": (True, _is(list))},
    "param": {"min": (False, _is(str, int)), "max": (False, _is(str, int, type(None)))},
}


def _check(record, kind: str, where: str) -> dict:
    """`record`, which must be a dict holding every required field of
    `kind`, each passing its checks in order, and no other field."""
    if not isinstance(record, dict):
        raise ValueError(f"{where}: must be a dict, got {record!r}")
    fields = _FIELDS[kind]
    for key, (required, *checks) in fields.items():
        if required and key not in record:
            raise ValueError(f"{where}: missing field {key!r}")
        for ok, what in checks if key in record else ():
            if not ok(record[key]):
                raise ValueError(f"{where}: {key} must be {what}, got {record[key]!r}")
    unknown = [key for key in record if key not in fields]
    if unknown:
        raise ValueError(f"{where}: unknown field {unknown[0]!r}; known fields are "
                         f"{', '.join(fields)}")
    return record


def _integer(value, what: str) -> int:
    """`value` as an int; ValueError if it is not integral."""
    if value.denominator != 1:
        raise ValueError(f"{what} {value} is not an integer")
    return int(value)


def _div(a, b):
    """a / b, exactly: an int when both are ints and b divides a, else a
    Fraction."""
    if type(a) is int and type(b) is int and b:
        return Fraction(a, b) if a % b else a // b
    return Fraction(a) / b


def _pow(a, b):
    """a ** b for an integral b: an int for an int a and b >= 0, else a
    Fraction."""
    exponent = _integer(b, "exponent")
    return a ** exponent if type(a) is int and exponent >= 0 else Fraction(a) ** exponent


def _take(columns: dict, rows: list[int], n: int) -> dict:
    """`columns`, of n rows each, cut down to `rows`."""
    return columns if len(rows) == n else {
        name: [column[k] for k in rows] for name, column in columns.items()}


def _once(evaluate, columns: dict, n: int) -> list:
    """A built subtree that reads no name, as a `partial` of this: it runs
    on one row, and its value is repeated; on no rows it does not run."""
    return evaluate(columns, 1) * n if n else []


def _map(op, *operands):
    """`op` of the operands' values, row by row; `_once` if no operand
    reads a name, as for a call without arguments."""
    def evaluate(columns, n):
        return list(map(op, *[f(columns, n) for f in operands])) if operands else [op()]
    return partial(_once, evaluate) if all(type(f) is partial for f in operands) else evaluate


def _join(opens, left, right):
    """`and` or `or` of two built operands, as Python runs it on each row:
    the right operand runs only on the rows whose left value `opens` holds
    for, and the other rows keep their left value."""
    def evaluate(columns, n):
        values = list(left(columns, n))
        rows = [k for k, value in enumerate(values) if opens(value)]
        for k, value in zip(rows, right(_take(columns, rows, n), len(rows))):
            values[k] = value
        return values
    return partial(_once, evaluate) if type(left) is type(right) is partial else evaluate


# the row grammar: each operator and function it allows, as an exact operation
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: _div, ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod, ast.Pow: _pow,
        ast.USub: operator.neg, ast.UAdd: operator.pos, ast.Not: operator.not_,
        ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
        ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
        ast.In: lambda a, b: a in b, ast.NotIn: lambda a, b: a not in b}
_CALLS = {"Q": Fraction, "binom": lambda n, k: comb(_integer(n, "binom argument"),
                                                    _integer(k, "binom argument"))}
_JOIN = {ast.And: partial(_join, bool), ast.Or: partial(_join, operator.not_)}


def _build(node, names: list[str], after_in: bool = False):
    """The expression `node` as a function (columns, n) -> its values at n
    bindings, where `columns` maps each of `names` to its n values; a
    subtree that reads no name runs `_once`.  NameError for any other
    name; ValueError for a node outside the row grammar, and for a tuple
    anywhere but after `in` or `not in`."""
    kind = type(node)
    if (kind is ast.Tuple) != after_in:
        raise ValueError(f"{ast.unparse(node)!r}: a tuple must follow 'in' or "
                         f"'not in', and only there")
    if kind is ast.Tuple:
        return _map(lambda *items: items, *[_build(item, names) for item in node.elts])
    if kind is ast.Constant and type(node.value) is int:
        return partial(_once, lambda columns, n, value=node.value: [value])
    if kind is ast.Name:
        if node.id not in names:
            raise NameError(f"name {node.id!r} is not defined")
        return lambda columns, n, name=node.id: columns[name]
    if kind is ast.BinOp and type(node.op) in _OPS:
        return _map(_OPS[type(node.op)], _build(node.left, names), _build(node.right, names))
    if kind is ast.UnaryOp and type(node.op) in _OPS:
        return _map(_OPS[type(node.op)], _build(node.operand, names))
    if kind is ast.BoolOp:
        return reduce(_JOIN[type(node.op)], [_build(value, names) for value in node.values])
    if kind is ast.Compare and all(type(op) in _OPS for op in node.ops):
        terms = [_build(node.left, names)] + [
            _build(right, names, type(op) in (ast.In, ast.NotIn))
            for op, right in zip(node.ops, node.comparators)]
        # a < b < c is a < b and b < c, so a chain stops at its first false link
        return reduce(_JOIN[ast.And], [_map(_OPS[type(op)], left, right)
                                       for op, left, right in zip(node.ops, terms, terms[1:])])
    if kind is ast.Call and not node.keywords and isinstance(node.func, ast.Name) \
            and node.func.id in _CALLS:
        return _map(_CALLS[node.func.id], *[_build(arg, names) for arg in node.args])
    raise ValueError(f"{ast.unparse(node)!r} is outside the row grammar")


def _compile(entry, names: list[str], where: str, field: str, trees: dict,
             as_type=int):
    """`entry` (a string, or an integer) built once into a function
    (columns, n) -> its values at n bindings, `columns` mapping each of
    `names` to its n values: ints, which must be integral, when `as_type`
    is int; Fractions when it is Fraction; and the values as they are when
    it is None, for a guard, whose truth the row tests.  A value that is
    not integral is reported at the first binding that gives one.  Leading
    blanks are dropped.  `trees` holds the calling `instantiate`'s parse
    trees by text and built functions by (entry, parameter names), so a
    text is parsed only the first time it is met, and built only the first
    time it is met with these names; each site keeps its own checks and
    fault messages."""
    text = str(entry)

    def fault(exc):
        return ValueError(f"{where}: cannot evaluate {field} expression {text!r} "
                          f"({type(exc).__name__}: {exc})")
    source = entry if type(entry) is int else text.lstrip(" \t")
    key = (source, tuple(names))
    evaluate = trees.get(key)
    if evaluate is None:
        try:
            tree = ast.Constant(entry) if type(entry) is int else trees.get(source)
            if tree is None:
                tree = trees[source] = ast.parse(source, "<string>", "eval").body
            evaluate = trees[key] = _build(tree, names)
        except (NameError, SyntaxError, ValueError, RecursionError) as exc:
            raise fault(exc) from None

    def values(columns: dict[str, list[int]], n: int) -> list:
        try:
            vals = evaluate(columns, n)
        except (TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
            raise fault(exc) from None
        if as_type is None:
            return vals
        if as_type is Fraction:
            return [val if type(val) is Fraction else Fraction(val) for val in vals]
        ints = list(map(int, vals))
        if ints != vals:
            k = next(k for k, val in enumerate(vals) if val != ints[k])
            raise ValueError(f"{where}: {field} expression {text!r} not integral under "
                             f"{ {name: column[k] for name, column in columns.items()} }")
        return ints
    return values


class ExpectedInstance(namedtuple("ExpectedInstance", (
        "table item bindings factors c h reality real_forms"))):
    """One printed table row at one concrete parameter binding: factors
    holds a (type, E nodes, mu) triple per factor."""

    __slots__ = ()

    @property
    def is_product(self) -> bool:
        return len(self.factors) > 1

    @property
    def key(self):
        """Order-independent identity of the candidate this row names."""
        return tuple(sorted(self.factors))

    def describe(self) -> str:
        parts = []
        for t, nodes, mu in self.factors:
            e = "+".join(f"A{n}" for n in nodes)
            parts.append(f"({t}, {e}, mu={list(mu)})")
        binds = ",".join(f"{k}={v}" for k, v in self.bindings.items())
        return f"{self.table} item {self.item} [{binds}] " + " x ".join(parts)


class ExpectedTables(namedtuple("ExpectedTables", "raw path_note", defaults=("",))):
    __slots__ = ()

    @property
    def tables(self) -> dict:
        return self.raw["tables"]

    @property
    def allowlist(self) -> list[dict]:
        return self.raw.get("allowlist", [])

    def allowlisted(self, table: str, item: int) -> dict | None:
        for entry in self.allowlist:
            if entry["table"] == table and entry["item"] == item:
                return entry
        return None

    def table_names(self, scope: str) -> tuple[str, ...]:
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


_PACKAGED = os.path.join(os.path.dirname(__file__), "data", "expected_tables.json")


def load_expected(path: str | None = None) -> ExpectedTables:
    """Load the expected-results file, by default the packaged copy, and
    check its tables and its allowlist, each entry of which must name a
    table of the file and an item number of one of its rows; `instantiate`
    checks the rows.

    The packaged copy is read as a plain file beside this module, without
    `importlib.resources` and its imports; a package imported from a zip
    archive is not supported."""
    note = "packaged data/expected_tables.json" if path is None else path
    with open(_PACKAGED if path is None else path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{note}: not valid JSON: {exc}") from None
    fmt = raw.get("format") if isinstance(raw, dict) else None
    if fmt != EXPECTED_FORMAT:
        raise ValueError(
            f"expected-results file {note} has format {fmt!r}, need {EXPECTED_FORMAT!r}"
        )
    for name, table in _check(raw, "file", note)["tables"].items():
        where = f"{note}: table {name}"
        lv = _check(table, "table", where)["level"]
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
    for pos, entry in enumerate(raw.get("allowlist", []), 1):
        where = f"{note}: allowlist entry {pos}"
        name, item = _check(entry, "allowlist entry", where)["table"], entry["item"]
        if name not in raw["tables"]:
            raise ValueError(f"{where}: no table {name!r} in the file")
        if not any(isinstance(row, dict) and row.get("item") == item
                   for row in raw["tables"][name]["items"]):
            raise ValueError(f"{where}: table {name} has no item {item}")
    return ExpectedTables(raw=raw, path_note=note)


def _compile_factor(fac, names: list[str], where: str, trees: dict):
    """One factor, checked and compiled, as two functions of a row's
    columns: one to each binding's LieType, None outside the family's
    bounds, and one, given those, to each binding's (type, nodes, mu)."""
    _check(fac, "factor", where)
    for node in fac["E"]:
        if type(node) not in (str, int):
            raise ValueError(f"{where}: E node must be a string or an integer, "
                             f"got {node!r}")
    for pair in fac["mu"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"{where}: mu entry must be a [node, coeff] pair, got {pair!r}")
    family = fac["family"]
    rank_of = _compile(fac["rank"], names, where, "rank", trees)
    nodes_of = [_compile(node, names, where, "E", trees) for node in fac["E"]]
    mu_of = [(_compile(node, names, where, "mu", trees),
              _compile(coeff, names, where, "mu", trees)) for node, coeff in fac["mu"]]

    def types(columns: dict, n: int) -> list[LieType | None]:
        ranks, known = rank_of(columns, n), {}
        for rank in set(ranks):
            try:
                known[rank] = LieType(family, rank)
            except InvalidTypeError:
                known[rank] = None
        return [known[rank] for rank in ranks]

    def node(at: int, rank: int, field: str) -> int:
        if not 1 <= at <= rank:
            raise ValueError(f"{where}: {field} node {at} outside 1..{rank}")
        return at

    def factors(columns: dict, lie_types: list[LieType]) -> list[tuple]:
        n, out = len(lie_types), []
        e_rows = list(zip(*[node_of(columns, n) for node_of in nodes_of])) or [()] * n
        mu_rows = list(zip(*[zip(node_of(columns, n), coeff_of(columns, n))
                             for node_of, coeff_of in mu_of])) or [()] * n
        for lie_type, e_row, mu_row in zip(lie_types, e_rows, mu_rows):
            nodes = tuple(sorted(node(at, lie_type.rank, "E") for at in e_row))
            if not nodes or len(set(nodes)) < len(nodes):
                raise ValueError(f"{where}: E must name one or more distinct nodes, "
                                 f"got {list(nodes)}")
            weight, seen = [0] * lie_type.rank, set()
            for at, coeff in mu_row:
                if node(at, lie_type.rank, "mu") in seen:
                    raise ValueError(f"{where}: mu node {at} repeated")
                seen.add(at)
                weight[at - 1] = coeff
            if min(weight) < 0 or not any(weight):
                raise ValueError(f"{where}: mu must be dominant and nonzero, got {weight}")
            out.append((lie_type, nodes, tuple(weight)))
        return out
    return types, factors


def _compile_row(table_name: str, level: int, pos: int, item, trees: dict):
    """One row, checked and compiled, with `trees` the calling
    `instantiate`'s parse trees and built functions: its item number, its
    parameter ranges, and a function from the row's bindings to their
    instances that runs each field once over all the bindings it reaches.
    The ranks run first, and the bindings they put outside a family's
    bounds are dropped before any other field runs; then E and mu; then
    each case guard in order, on the bindings no earlier case took, and
    that case's h on those it takes; then c and the real-form labels."""
    number = item.get("item") if isinstance(item, dict) else None
    where = (f"{table_name} item {number}" if type(number) is int
             else f"{table_name} row {pos}")
    _check(item, "item", where)
    if level == 1 and len(item["factors"]) > 1:
        raise ValueError(f"{where}: factors must be one factor on a level-1 table "
                         f"(factor levels add, so no product has level 1), got "
                         f"{len(item['factors'])}")
    names, params = [], []
    for name, spec in item.get("params", {}).items():
        _check(spec, "param", where)
        hi = spec.get("max")
        params.append((name, _compile(spec.get("min", 1), names, where, "params", trees),
                       None if hi is None else _compile(hi, names, where, "params", trees)))
        names.append(name)
    factors_of = [_compile_factor(fac, names, where, trees) for fac in item["factors"]]
    cases = []
    for case in item["cases"] if "cases" in item else [
            {key: item[key] for key in ("reality", "h") if key in item}]:
        _check(case, "case", where)
        cases.append((None if "when" not in case
                      else _compile(case["when"], names, where, "cases.when", trees, None),
                      case["reality"],
                      [_compile(e, names, where, "h", trees) for e in case["h"]]))
    c_of = _compile(item["c"], names, where, "c", trees, Fraction)
    rf = item.get("real_form")
    labels = None if rf is None else [
        None if template is None else [  # text, {expr}, text, ...
            _compile(part, names, where, "real_form", trees) if k % 2 else part
            for k, part in enumerate(re.split(r"\{([^}]+)\}", template))]
        for template in (rf if isinstance(rf, list) else [rf])]

    def instances(bindings: list[dict[str, int]]) -> list[ExpectedInstance]:
        n = len(bindings)
        columns = {name: [binding[name] for binding in bindings] for name in names}
        types = [types_of(columns, n) for types_of, _ in factors_of]
        kept = [k for k, row in enumerate(zip(*types)) if None not in row]
        if len(kept) < n:
            bindings, columns = [bindings[k] for k in kept], _take(columns, kept, n)
            types, n = [[column[k] for k in kept] for column in types], len(kept)
        factors = list(zip(*[factor(columns, lie_types)
                             for (_, factor), lie_types in zip(factors_of, types)]))
        realities, h, open_rows = [None] * n, [()] * n, list(range(n))
        for when, reality, h_of in cases:
            truths = [True] * n if when is None else when(
                _take(columns, open_rows, n), len(open_rows))
            rows = [k for k, truth in zip(open_rows, truths) if truth]
            open_rows = [k for k, truth in zip(open_rows, truths) if not truth]
            at_rows = _take(columns, rows, n)
            values = list(zip(*[entry(at_rows, len(rows)) for entry in h_of])) or [()] * len(rows)
            for k, value in zip(rows, values):
                realities[k], h[k] = reality, value
        if open_rows:
            raise ValueError(f"{where}: no case guard matched")
        c = c_of(columns, n)
        real_forms = [None] * n if labels is None else list(zip(*[
            [None] * n if parts is None else list(map("".join, zip(*[
                [part] * n if isinstance(part, str) else map(str, part(columns, n))
                for part in parts])))
            for parts in labels])) or [()] * n
        return [ExpectedInstance(table_name, number, *fields) for fields
                in zip(bindings, factors, c, h, realities, real_forms)]
    return number, params, instances


def _bindings(params, max_rank: int) -> list[dict[str, int]]:
    """The concrete bindings of a row's declared ranges, in order; each
    range's bounds run once, over the bindings of the names before it."""
    bindings = [{}]
    for depth, (name, lo, hi) in enumerate(params):
        n, columns = len(bindings), {key: [binding[key] for binding in bindings]
                                     for key, _, _ in params[:depth]}
        lows = lo(columns, n)
        tops = [max_rank] * n if hi is None else [min(top, max_rank) for top in hi(columns, n)]
        bindings = [{**binding, name: value} for binding, low, top in zip(bindings, lows, tops)
                    for value in range(low, top + 1)]
    return bindings


def instantiate(table_name: str, tables: ExpectedTables, max_rank: int
                ) -> dict[int, list[ExpectedInstance]]:
    """All concrete instances of every row of one table, keyed by item.

    Every row is checked and compiled before any binding, whatever
    `max_rank` is; a malformed row raises ValueError naming the table, the
    item and the field, and so does a repeated item number.  Each row then
    runs once over all its bindings, and drops those that put a rank
    outside its family's bounds.  Each distinct expression text is parsed
    and built once per call and set of parameter names; what is built dies
    with the call.
    """
    table = tables.tables[table_name]
    trees: dict = {}  # text -> parse tree, (entry, names) -> built function
    rows = [_compile_row(table_name, table["level"], pos, item, trees)
            for pos, item in enumerate(table["items"], 1)]
    out: dict[int, list[ExpectedInstance]] = {}
    for number, params, instances in rows:
        if number in out:
            raise ValueError(f"{table_name} item {number}: item number repeated")
        out[number] = instances(_bindings(params, max_rank))
    return out
