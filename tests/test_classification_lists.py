"""The enumeration against two classifications from outside the paper.

Level 1 is Deligne's list of the Hodge representations of weight 1
(P. Deligne, "Variétés de Shimura", Proc. Symp. Pure Math. 33, part 2,
1979, §1.3): a Hermitian grading and a fundamental weight, on the classical
types only.  Level 3 is Gross's list of the tube domains (B. Gross, "A
remark on tube domains", Math. Res. Lett. 1, 1994; R. Friedman and
R. Laza, "Semialgebraic horizontal subvarieties of Calabi-Yau type", Duke
Math. J. 162, 2013): among the level-3 tuples of total span 3, those whose
grading is Hermitian on every factor, each with h^{2,1} the dimension of
its domain, the sum of dim g_1 over the factors.

A grading E on the nodes S is Hermitian when the highest root has depth 1,
i.e. S is one node of highest-root mark 1, and then g = g_-1 + g_0 + g_1.
The lists, the marks and the domain dimensions are written below as data
from those papers and Bourbaki's plates (Bourbaki, "Groupes et algèbres de
Lie", ch. VI, planches I-IX), in Bourbaki's node numbering; none of it is
read from the engine.  The tests read only the records that `classify`
prints.  The same in-process rank-32 runs also pin the exact bytes that
`classify` prints to recorded digests, so a change to any record, to
their order or to their rendering fails here.
"""
import contextlib
import hashlib
import io
import json
from functools import lru_cache

import pytest

from hodgerep.cli import main

# the catalogued simple types: family -> (lowest rank, highest rank or None)
TYPES = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (4, None),
         "E": (6, 8), "F": (4, 4), "G": (2, 2)}

EXCEPTIONAL_MARKS = {("E", 6): (1, 2, 2, 3, 2, 1), ("E", 7): (2, 2, 3, 4, 3, 2, 1),
                     ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2), ("F", 4): (2, 3, 4, 2),
                     ("G", 2): (3, 2)}


def highest_root_marks(family, r):
    """The coefficients of the highest root on the simple roots."""
    if family == "A":
        return (1,) * r
    if family == "B":
        return (1,) + (2,) * (r - 1)
    if family == "C":
        return (2,) * (r - 1) + (1,)
    if family == "D":
        return (1,) + (2,) * (r - 3) + (1, 1)
    return EXCEPTIONAL_MARKS[family, r]


def domain_dim(family, r, s):
    """dim g_1 of the Hermitian grading on node s: the complex dimension
    of the Hermitian symmetric domain."""
    if family == "A":
        return s * (r + 1 - s)
    if family == "B":
        return 2 * r - 1
    if family == "C":
        return r * (r + 1) // 2
    if family == "D":
        return 2 * r - 2 if s == 1 else r * (r - 1) // 2
    return {("E", 6): 16, ("E", 7): 27}[family, r]


def omega(r, i):
    return tuple(int(j == i) for j in range(1, r + 1))


def deligne_pairs(family, r):
    """Deligne's weight-1 (E node, fundamental weight index) pairs."""
    if family == "A":
        return {(s, i) for s in range(1, r + 1) for i in range(1, r + 1)
                if {s, i} & {1, r}}
    if family == "B":
        return {(1, r)}
    if family == "C":
        return {(r, 1)}
    if family == "D" and r == 4:
        return {(s, i) for s in (1, 3, 4) for i in (1, 3, 4) if s != i}
    if family == "D":
        return {(1, r - 1), (1, r), (r - 1, 1), (r, 1)}
    return set()


def deligne_list(max_rank):
    """Deligne's weight-1 list up to max_rank, as factor keys
    (family, rank, E nodes, mu)."""
    return {((family, r, (s,), omega(r, i)),)
            for family, (lo, hi) in TYPES.items()
            for r in range(lo, max_rank + 1 if hi is None else min(hi, max_rank) + 1)
            for s, i in deligne_pairs(family, r)}


def gross_list(max_rank):
    """Gross's tube domains of Calabi-Yau 3-fold type up to max_rank per
    factor, as sorted factor keys: the simple ones, and sl2 x so(2, n)
    with its low-rank forms and the D4 triality images."""
    a1 = ("A", 1, (1,), (1,))
    tubes = {
        (("A", 1, (1,), (3,)),),
        (("A", 5, (3,), omega(5, 3)),),
        (("C", 3, (3,), omega(3, 3)),),
        (("D", 6, (5,), omega(6, 5)),),
        (("D", 6, (6,), omega(6, 6)),),
        (("E", 7, (7,), omega(7, 7)),),
        (a1, ("A", 1, (1,), (2,))),
        (a1, a1, a1),
        (a1, ("A", 3, (2,), omega(3, 2))),
        (a1, ("C", 2, (2,), omega(2, 2))),
        (a1, ("D", 4, (3,), omega(4, 3))),
        (a1, ("D", 4, (4,), omega(4, 4))),
    }
    tubes |= {(a1, ("B", r, (1,), omega(r, 1))) for r in range(2, max_rank + 1)}
    tubes |= {(a1, ("D", r, (1,), omega(r, 1))) for r in range(4, max_rank + 1)}
    return {tuple(sorted(k)) for k in tubes if all(f[1] <= max_rank for f in k)}


@lru_cache(maxsize=None)
def classify_stdout(*args):
    """What `hodgerep classify ARGS --format json` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["classify", *args, "--format", "json"]) == 0
    return out.getvalue()


@lru_cache(maxsize=None)
def classify_records(*args):
    """The JSON records `hodgerep classify ARGS` prints."""
    return json.loads(classify_stdout(*args))


def factor_keys(rec):
    """The sorted (family, rank, E nodes, mu) of a record's factors."""
    labels = rec["algebra"].split("x")
    Es, mus = ([rec["E"]], [rec["mu"]]) if len(labels) == 1 else (rec["E"], rec["mu"])
    return tuple(sorted((label[0], int(label[1:]), tuple(E), tuple(mu))
                        for label, E, mu in zip(labels, Es, mus)))


def is_hermitian(key):
    """Does the grading of every factor give the highest root depth 1?"""
    return all(len(E) == 1 and highest_root_marks(family, r)[E[0] - 1] == 1
               for family, r, E, _ in key)


@pytest.mark.parametrize("max_rank, count", [(16, 565), (32, 2165)])
def test_level1_is_deligne_list(max_rank, count):
    """`classify --level 1` emits exactly Deligne's list: nothing extra,
    nothing missing, each pair once."""
    keys = [factor_keys(rec) for rec in classify_records("--level", "1",
                                                         "--max-rank", str(max_rank))]
    expected = deligne_list(max_rank)
    assert len(keys) == len(set(keys)) == count
    assert sorted(set(keys) - expected) == []
    assert sorted(expected - set(keys)) == []


@pytest.mark.parametrize("max_rank, count", [(8, 24), (16, 40), (32, 72)])
def test_level3_hermitian_span3_is_gross_list(max_rank, count):
    """The span-3 tuples of `classify --level 3 --products` with a
    Hermitian grading are exactly Gross's tube domains, each once, and
    each has h^{2,1} equal to the domain's dimension."""
    tubes = [rec for rec in classify_records("--level", "3", "--products",
                                             "--max-rank", str(max_rank))
             if rec["span"] == 3 and is_hermitian(factor_keys(rec))]
    keys = [factor_keys(rec) for rec in tubes]
    expected = gross_list(max_rank)
    assert len(keys) == len(set(keys)) == count
    assert sorted(set(keys) - expected) == []
    assert sorted(expected - set(keys)) == []
    for rec, key in zip(tubes, keys):
        h21 = sum(domain_dim(family, r, E[0]) for family, r, E, _ in key)
        assert rec["hodge"] == [1, h21, h21, 1], key


# sha256 of the stdout of `classify ARGS --format json`
CLASSIFY_DIGESTS = {
    ("--level", "1", "--max-rank", "32"):
        "245516e70d78dca49024b702b8ea50a2352e3e06599ef423c58b31648d62ac51",
    ("--level", "3", "--products", "--max-rank", "32"):
        "2ec15576e55a853f0148ddd59a9671c2eb5bc2c44fd08b390243ea9ad042a92b",
}


@pytest.mark.parametrize("args", list(CLASSIFY_DIGESTS), ids=["level1", "level3-products"])
def test_rank32_classify_bytes_are_pinned(args):
    """The rank-32 sweeps that the list checks above run print the
    recorded bytes."""
    assert hashlib.sha256(classify_stdout(*args).encode("utf-8")).hexdigest() \
        == CLASSIFY_DIGESTS[args]
