"""Enumeration drivers and reconciliation against the embedded tables.

The search window is complete by construction.  mu + mu* has strictly
positive integer simple-root coordinates: every entry L[i][j] of the level
matrix (row i is omega_i + omega_i* in simple-root coordinates) is at
least 1, which `candidates` checks once per type.  So for a grading
element E of support S each node i adds a fixed
w_i = sum_{j in S} L[i][j] >= |S| per unit of mu_i, and
span = (mu + mu*)(E) = sum_i mu_i w_i.  `candidates` yields every nonzero
dominant mu with span <= level; at level 3 the top eigenspace must be
one-dimensional, so supp(mu) is inside supp(E).  A node i can carry mu
only on a support inside its short list {j : L[i][j] <= level}, so the
supports come from those lists alone.  A candidate is its (type, E nodes,
mu) summary-table key, so no grading element is built here.  A sweep
summarises every candidate into one `products.SummaryTable` and hands the
summaries to `products.product_tuples`, which forms every tuple of one
factor (of one to three with products) that the assembly rule admits and
marks it canonical under the diagram automorphisms when each of its
factors' summaries is, so each distinct factor is canonicalised once.

`verify_paper` enumerates the window of its scope once, first, and looks
every table-row instance up in it by (level, coverage key), the sorted
(type, E nodes, mu) keys of a tuple's factors, which is also the key of a
row instance; only a key the window lacks is assembled, once per run,
and its tuple or rejection serves every instance that names it; each
instance is still compared with it on its own.  The printed rows
are independent input, so this checks the window's completeness on every
run: a row candidate that the rule accepts inside the window but the
enumeration lacks raises ConsistencyError.  The sweeps and the row checks share the run's one
`SummaryTable`, so a factor that recurs within the run is summarised once;
a row check passes the (type, E nodes, mu) factors its instance holds to
it, which builds a grading element only for a new one.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator, Sequence

from .errors import ConsistencyError, ShapeError
from .expected import ExpectedInstance, ExpectedTables, instantiate, load_expected
from .hodgecore import FactorSpec, GradingElement, HodgeTuple, level
from .products import SummaryTable, assemble, assemble_summaries, product_tuples
from .rootdata import RANK_BOUNDS, LieType, Weight, catalogued_types, root_system


# every ladder a sweep admits is the Levi closed form, which builds no
# weight system, so this bounds only a run's time (verify-paper --scope all:
# about 1.4 s cold on a 2-core VM, CPython 3.11)
MAX_RANK = 32


def _check_max_rank(max_rank: int) -> None:
    """ValueError unless 1 <= max_rank <= MAX_RANK."""
    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    if max_rank > MAX_RANK:
        raise ValueError(f"max_rank must be at most {MAX_RANK}, got {max_rank}")


class SearchConfig(namedtuple("SearchConfig", (
        "max_rank level families include_products dedupe_automorphisms"))):
    __slots__ = ()

    def __new__(cls, max_rank: int, level: int,
                families: frozenset[str] = frozenset("ABCDEFG"),
                include_products: bool = False, dedupe_automorphisms: bool = False):
        _check_max_rank(max_rank)
        if level not in (1, 3):
            raise ValueError("level must be 1 or 3")
        if include_products and level != 3:
            raise ValueError("products need level 3: factor levels add, "
                             "so no product has level 1")
        if not families:
            raise ValueError("families must name at least one family")
        unknown = set(families) - set(RANK_BOUNDS)
        if unknown:
            raise ValueError(f"unknown families {sorted(unknown)}")
        return super().__new__(cls, max_rank, level, families, include_products,
                               dedupe_automorphisms)

    def holds(self, types: Sequence[LieType]) -> bool:
        """Does the window hold every level-`level` tuple on factors of these
        types: each type in its families and ranks, and products only when
        it includes them?"""
        return ((len(types) == 1 or self.include_products)
                and all(t.family in self.families and t.rank <= self.max_rank
                        for t in types))


def _types_in_window(families, max_rank) -> list[LieType]:
    """The catalogued types of the families up to max_rank, by family
    (RANK_BOUNDS is in alphabetical order) and then rank."""
    return [t for t in catalogued_types(max_rank) if t.family in families]


# ---------------------------------------------------------------------------
# Factor keys and the B2 = C2 alias

def _factor_keys(factors: Sequence[FactorSpec]):
    """Each factor's (type, E nodes, mu): the summary-table key."""
    return tuple((f.lie_type, f.E.support, f.mu) for f in factors)


def tuple_key(t: HodgeTuple):
    """Sort key: simple tuples first, then products, each by factor keys."""
    return (len(t.factors) > 1,) + _factor_keys(t.factors)


def coverage_key(t: HodgeTuple):
    """Order-independent identity matching ExpectedInstance.key."""
    return tuple(sorted(_factor_keys(t.factors)))


def _b2c2_mirror(factor):
    """Image of one factor key under the B2 = C2 isomorphism (node swap),
    or the key itself on any other type."""
    t, nodes, mu = factor
    if t.rank != 2 or t.family not in "BC":
        return factor
    return (LieType("C" if t.family == "B" else "B", 2),
            tuple(sorted(3 - n for n in nodes)), mu[::-1])


def b2c2_alias_key(key):
    """Coverage key with every B2/C2 factor replaced by its isomorphic image,
    or None when no factor is affected."""
    alias = tuple(sorted(map(_b2c2_mirror, key)))
    return None if alias == key else alias


# ---------------------------------------------------------------------------
# Candidate evaluation

def evaluate_simple(t: LieType, E: GradingElement, mu: Weight,
                    target_level: int) -> HodgeTuple | None:
    """Classify one (algebra, E, mu) candidate, or None when it is not a
    level-`target_level` Hodge representation: `products.assemble` of the
    one factor.  The sweeps take `products.product_tuples` instead."""
    try:
        return assemble([FactorSpec(t, E, tuple(mu))], target_level)
    except ShapeError:
        return None


def _light_subsets(row: Sequence[int], nodes: Sequence[int], budget: int,
                   max_size: int, start: int = 0) -> Iterator[tuple[int, ...]]:
    """The nonempty subsets of nodes[start:] with at most max_size members
    whose entries of `row` sum to at most budget."""
    for k in range(start, len(nodes)):
        j = nodes[k]
        if row[j] <= budget:
            yield (j,)
            if max_size > 1:
                for rest in _light_subsets(row, nodes, budget - row[j], max_size - 1, k + 1):
                    yield (j,) + rest


def _supports(t: LieType, level_matrix, target_level: int
              ) -> list[tuple[tuple[int, ...], list[int]]]:
    """Each 0-based support S on which some node i can carry mu, with those
    nodes i in order, sorted by (size, nodes): the S with
    sum_{j in S} L[i][j] <= target_level, and i in S at level 3.  Every
    entry of L is at least 1, so S lies in i's short list
    {j : L[i][j] <= target_level}; ConsistencyError otherwise."""
    if min(map(min, level_matrix)) < 1:
        raise ConsistencyError(
            f"the level matrix of {t} has an entry below 1; "
            "the level bound would miss candidates")
    users: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(level_matrix):
        short = [j for j, x in enumerate(row) if x <= target_level]
        if target_level == 1:
            found = [(j,) for j in short]
        elif row[i] <= target_level:
            # supp(mu) inside supp(E): i joins at most two more short-list nodes
            rests = _light_subsets(row, [j for j in short if j != i],
                                   target_level - row[i], target_level - 1)
            found = (tuple(sorted((i,) + rest)) for rest in itertools.chain([()], rests))
        else:
            continue
        for S in found:
            users.setdefault(S, []).append(i)
    return sorted(users.items(), key=lambda item: (len(item[0]), item[0]))


def candidates(t: LieType, target_level: int
               ) -> Iterator[tuple[tuple[int, ...], Weight, int]]:
    """Every (E nodes, mu, span) with 1 <= span = (mu + mu*)(E) <=
    target_level on t, E's nodes 1-based and sorted as in a summary-table
    key; at level 3 also supp(mu) inside supp(E).  The nodes run over the
    supports by (size, nodes) and mu over multisets of the nodes that can
    carry it, by size."""
    rank = t.rank
    level_matrix = root_system(t).level_matrix
    for S, nodes in _supports(t, level_matrix, target_level):
        support = tuple(j + 1 for j in S)
        w = {i: sum(level_matrix[i][j] for j in S) for i in nodes}
        # every w_i >= 1, so mu is a multiset of at most target_level nodes
        for size in range(1, target_level + 1):
            for picks in itertools.combinations_with_replacement(nodes, size):
                span = sum(w[i] for i in picks)
                if span <= target_level:
                    yield support, tuple(picks.count(i) for i in range(rank)), span


def enumerate_level(config: SearchConfig,
                    table: SummaryTable | None = None) -> list[HodgeTuple]:
    """All Hodge tuples of the configured level in the search window.

    Output is canonically sorted and deterministic; diagram-automorphism
    duplicates are retained and marked unless dedupe_automorphisms is set.
    Every candidate is summarised by its key into one summary table
    (`table`, or a new one when None), and `products.product_tuples` forms
    the tuples of one to three factors (one without products) from those
    summaries, each marked canonical when each of its factors is.
    """
    table = SummaryTable() if table is None else table
    summaries = table.summarise((t, nodes, mu)
                                for t in _types_in_window(config.families, config.max_rank)
                                for nodes, mu, _ in candidates(t, config.level))
    results = product_tuples(summaries, config.level, 3 if config.include_products else 1)
    if config.dedupe_automorphisms:
        results = [t for t in results if t.is_canonical]
    results.sort(key=tuple_key)
    return results


# ---------------------------------------------------------------------------
# Reconciliation against the embedded tables

class InstanceResult(namedtuple("InstanceResult", "instance status diffs")):
    """One row instance checked: status "match" or "mismatch"."""

    __slots__ = ()

    def __new__(cls, instance: ExpectedInstance, status: str,
                diffs: list[tuple[str, str, str]] | None = None):
        return super().__new__(cls, instance, status, [] if diffs is None else diffs)


class RowResult(namedtuple("RowResult", (
        "table item status allowlisted allowlist_reason instances note"))):
    """One table row: status "match", "mismatch" or "paper_only"."""

    __slots__ = ()

    def __new__(cls, table: str, item: int, status: str, allowlisted: bool,
                allowlist_reason: str | None,
                instances: list[InstanceResult] | None = None, note: str | None = None):
        return super().__new__(cls, table, item, status, allowlisted, allowlist_reason,
                               [] if instances is None else instances, note)

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    def failing(self) -> list[InstanceResult]:
        return [r for r in self.instances if r.status != "match"]


class ReconciliationReport(namedtuple("ReconciliationReport", (
        "scope max_rank matches mismatches paper_only computed_only notes"))):
    __slots__ = ()

    def __new__(cls, scope: str, max_rank: int,
                matches: list[RowResult] | None = None,
                mismatches: list[RowResult] | None = None,
                paper_only: list[RowResult] | None = None,
                computed_only: list[HodgeTuple] | None = None,
                notes: list[str] | None = None):
        return super().__new__(cls, scope, max_rank, *(
            [] if x is None else x
            for x in (matches, mismatches, paper_only, computed_only, notes)))

    @property
    def rows(self) -> list[RowResult]:
        return self.matches + self.mismatches + self.paper_only

    @property
    def ok(self) -> bool:
        """True when every mismatch sits on the known-discrepancy allowlist."""
        return all(r.allowlisted for r in self.mismatches)


def _check_instance(inst: ExpectedInstance, target_level: int,
                    found: dict, window: SearchConfig | None,
                    table: SummaryTable) -> InstanceResult:
    """Compare one row instance with the tuple it names.  `found` maps
    (level, coverage key) to the tuple of every key the window holds,
    `window` being the window enumerated at the instance's level (None
    when nothing was enumerated), and to the tuple or the ShapeError of
    every key a row check has assembled.  A key it lacks is assembled from
    the run's summary `table` and added, so each is assembled once per
    run; the rule's ShapeError gives the rejection text.  ConsistencyError
    when the rule accepts a candidate that the window should hold: the
    level-bound generator missed it."""
    diffs: list[tuple[str, str, str]] = []
    key = (target_level, inst.key)
    got = found.get(key)
    if got is None:
        try:
            got = assemble_summaries(table.summarise(inst.factors), target_level)
        except ShapeError as exc:
            got = exc
        found[key] = got
        if isinstance(got, HodgeTuple) and window is not None \
                and window.holds([t for t, _, _ in inst.factors]):
            raise ConsistencyError(
                f"{inst.describe()}: a valid level-{target_level} tuple that the "
                f"enumerated window (max_rank {window.max_rank}) lacks; the "
                "level-bound generator is incomplete")
    if isinstance(got, ShapeError):
        if inst.is_product:
            diffs.append(("validity", "valid level-3 product", f"rejected: {got}"))
        else:
            diffs.append(("validity", f"valid level-{target_level} tuple", "rejected"))
        return InstanceResult(inst, "mismatch", diffs)

    if tuple(inst.h) != got.hodge.dims:
        diffs.append(("h", str(list(inst.h)), str(list(got.hodge.dims))))
    if inst.c != got.c:
        diffs.append(("c", str(inst.c), str(got.c)))
    if inst.reality != got.reality:
        diffs.append(("reality", inst.reality, got.reality))
    computed_rf = sorted(got.real_forms)
    if inst.real_forms is not None:
        expected_rf = sorted(x for x in inst.real_forms if x is not None)
        if expected_rf and expected_rf != computed_rf:
            diffs.append(("real_form", "+".join(expected_rf), "+".join(computed_rf)))
    status = "match" if not diffs else "mismatch"
    return InstanceResult(inst, status, diffs)


def _factor_pattern(p: HodgeTuple) -> tuple[int, ...]:
    return tuple(sorted(level(f.lie_type, f.mu, f.E) for f in p.factors))


def _scope_window(tables: ExpectedTables, names, max_rank: int):
    """Enumeration configs covering the scope, one per level: the window the
    row instances are looked up in and computed_only is read from."""
    levels = {tables.level_of(n) for n in names}
    configs = []
    for lv in sorted(levels):
        include_products = any(
            tables.level_of(n) == lv and "pattern" in tables.tables[n]
            for n in names)
        configs.append(SearchConfig(
            max_rank=max_rank, level=lv,
            include_products=include_products))
    return configs


def _scope_predicate(tables: ExpectedTables, names):
    """Does a computed tuple fall in the span class of some scoped table?"""
    specs = []
    for n in names:
        meta = tables.tables[n]
        specs.append((tables.level_of(n), meta.get("span"), meta.get("pattern")))

    def accept(t: HodgeTuple) -> bool:
        product = len(t.factors) > 1
        for lv, span, pattern in specs:
            if pattern is not None:
                if product and _factor_pattern(t) == tuple(sorted(pattern)):
                    return True
            elif not product and t.level == lv and span in (None, t.span):
                return True
        return False

    return accept


def verify_paper(scope: str = "all", max_rank: int = 8,
                 expected_path: str | None = None,
                 include_computed_only: bool = True) -> ReconciliationReport:
    """Recompute every embedded table row and bucket the comparisons.

    A row matches when every concrete instantiation (ranks up to max_rank)
    agrees in h, c, reality and real-form name.  Rows whose printed values
    cannot be reproduced land in mismatches with field-level diffs; rows
    with no instantiation in range land in paper_only.  computed_only
    lists canonical enumeration output not covered by any row.

    With include_computed_only the scope's window is enumerated first, and
    each instance takes its tuple from it; only a key the window lacks is
    assembled, and ConsistencyError is raised when the assembly rule
    accepts such a key although the window should hold it.  Without it
    every instance's key is assembled.  Each distinct (level, key) is
    assembled at most once per run.  The sweeps and the assembled instances
    share one summary table per call, so each distinct factor is
    summarised once per run.
    """
    _check_max_rank(max_rank)
    tables = load_expected(expected_path)
    names = tables.table_names(scope)

    # the window is enumerated first, once: the row checks look each
    # instance up in it and computed_only reads it; one summary table
    # serves the sweeps and the row checks
    table = SummaryTable()
    configs: dict[int, SearchConfig] = {}
    enumerated: list[HodgeTuple] = []
    if include_computed_only:
        for cfg in _scope_window(tables, names, max_rank):
            configs[cfg.level] = cfg
            enumerated.extend(enumerate_level(cfg, table))
    found = {(t.level, coverage_key(t)): t for t in enumerated}

    by_status: dict[str, list[RowResult]] = {"match": [], "mismatch": [], "paper_only": []}
    covered_keys = set()
    for name in names:
        target_level = tables.level_of(name)
        window = configs.get(target_level)
        for item, instances in instantiate(name, tables, max_rank).items():
            entry = tables.allowlisted(name, item)
            allowlist = (entry is not None, entry["reason"] if entry else None)
            if not instances:
                by_status["paper_only"].append(RowResult(
                    name, item, "paper_only", *allowlist,
                    note="no instantiation within max_rank"))
                continue
            results = []
            for inst in instances:
                results.append(_check_instance(inst, target_level, found, window, table))
                covered_keys.add(inst.key)
            status = "match" if all(r.status == "match" for r in results) else "mismatch"
            by_status[status].append(RowResult(name, item, status, *allowlist, results))

    computed_only, notes = [], []
    if include_computed_only:
        accept = _scope_predicate(tables, names)
        computed_only = sorted((t for t in enumerated
                                if accept(t) and coverage_key(t) not in covered_keys),
                               key=tuple_key)
        if computed_only:
            notes.append(
                "computed_only entries are sound tuples produced by the "
                "exhaustive search that no embedded row covers."
            )
        for t in computed_only:
            alias = b2c2_alias_key(coverage_key(t))
            if alias is not None and alias in covered_keys:
                notes.append(
                    f"{_key_text(coverage_key(t))} is the B2=C2 alias of the "
                    f"covered row candidate {_key_text(alias)}."
                )
    return ReconciliationReport(scope, max_rank, by_status["match"], by_status["mismatch"],
                                by_status["paper_only"], computed_only, notes)


def _key_text(key) -> str:
    return " x ".join(f"({t}, E={list(nodes)}, mu={list(mu)})" for t, nodes, mu in key)
