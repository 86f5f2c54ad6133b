"""The engine's record contract: fields in order, repr text, equality and
hashing by the fields, immutability, no instance `__dict__` on any record,
`LieType` ordering and every validation error's type and message.  Every
record is a `collections.namedtuple` subclass.  The repr strings are those
of the engine's former `dataclasses` records, less the fields that could
be derived from others: the report records' statuses, `allowlisted`, the
row `note`, the report's three buckets and `SearchConfig`'s dedupe flag."""
import itertools
import pickle
from fractions import Fraction

import pytest

from hodgerep.classify import InstanceResult, ReconciliationReport, RowResult, SearchConfig
from hodgerep.errors import InvalidTypeError
from hodgerep.expected import ExpectedInstance, ExpectedTables
from hodgerep.hodgecore import (
    EigenDecomp,
    FactorSpec,
    GradingElement,
    HodgeTuple,
    HodgeVector,
)
from hodgerep.repweights import WeightSystem, weight_system
from hodgerep.rootdata import LieType, RootSystemData, root_system

A1 = LieType("A", 1)
A1_DATA = dict(
    lie_type=A1, cartan=((2,),), inverse_num=((1,),), inverse_den=2, level_matrix=((1,),),
    positive_roots=((1,),), positive_roots_fund=((2,),), neighbours=((),), symmetrizer=(1,),
    root_columns=((1,),), node_roots=((0,),), rho_pairings=(1,), root_masks=(1,), duality=(0,))
INSTANCE = dict(table="thm2.1", item=1, bindings={"r": 1}, factors=((A1, (1,), (1,)),),
                c=Fraction(0), h=(1, 1), reality="complex", real_forms=("su(1,1)",))
INSTANCE_RESULT = dict(instance=ExpectedInstance(**INSTANCE), diffs=[("h", "[1, 1]", "[2, 2]")])
WEIGHTS = dict(lie_type=A1, highest=(2,), dimension=3, dominant=(((2,), 1), ((0,), 1)))
ROW = dict(table="thm2.1", item=1, allowlist_reason=None,
           instances=[InstanceResult(**INSTANCE_RESULT)])

INSTANCE_REPR = ("ExpectedInstance(table='thm2.1', item=1, bindings={'r': 1}, "
                 "factors=((LieType(family='A', rank=1), (1,), (1,)),), c=Fraction(0, 1), "
                 "h=(1, 1), reality='complex', real_forms=('su(1,1)',))")
INSTANCE_RESULT_REPR = (f"InstanceResult(instance={INSTANCE_REPR}, "
                        "diffs=[('h', '[1, 1]', '[2, 2]')])")
ROW_REPR = ("RowResult(table='thm2.1', item=1, allowlist_reason=None, "
            f"instances=[{INSTANCE_RESULT_REPR}])")

# (record, fields of a sample, one changed field, repr of the sample); every
# record is frozen, and hashes by its fields unless one holds a list or dict
RECORDS = [
    (LieType, dict(family="A", rank=2), dict(rank=3), "LieType(family='A', rank=2)"),
    (RootSystemData, A1_DATA, dict(node_roots=((),)),
     "RootSystemData(lie_type=LieType(family='A', rank=1), cartan=((2,),), "
     "inverse_num=((1,),), inverse_den=2, level_matrix=((1,),), positive_roots=((1,),), "
     "positive_roots_fund=((2,),), neighbours=((),), symmetrizer=(1,), "
     "root_columns=((1,),), node_roots=((0,),), rho_pairings=(1,), root_masks=(1,), "
     "duality=(0,))"),
    (WeightSystem, WEIGHTS, dict(dimension=4),
     "WeightSystem(lie_type=LieType(family='A', rank=1), highest=(2,), dimension=3, "
     "dominant=(((2,), 1), ((0,), 1)))"),
    (GradingElement, dict(coeffs=(1, 0)), dict(coeffs=(0, 1)),
     "GradingElement(coeffs=(1, 0))"),
    (EigenDecomp, dict(top=Fraction(1, 2), dims=(1, 1)), dict(dims=(1, 2)),
     "EigenDecomp(top=Fraction(1, 2), dims=(1, 1))"),
    (HodgeVector, dict(dims=(1, 2, 2, 1)), dict(dims=(1, 3, 3, 1)),
     "HodgeVector(dims=(1, 2, 2, 1))"),
    (FactorSpec, dict(lie_type=LieType("A", 2), E=GradingElement((1, 0)), mu=(1, 0)),
     dict(mu=(0, 1)),
     "FactorSpec(lie_type=LieType(family='A', rank=2), E=GradingElement(coeffs=(1, 0)), "
     "mu=(1, 0))"),
    (HodgeTuple, dict(factors=(FactorSpec(A1, GradingElement((1,)), (1,)),), span=1, level=1,
                      reality="real", c=Fraction(0), hodge=HodgeVector((1, 1)),
                      real_forms=("su(1,1)",), is_canonical=True),
     dict(is_canonical=False),
     "HodgeTuple(factors=(FactorSpec(lie_type=LieType(family='A', rank=1), "
     "E=GradingElement(coeffs=(1,)), mu=(1,)),), span=1, level=1, reality='real', "
     "c=Fraction(0, 1), hodge=HodgeVector(dims=(1, 1)), "
     "real_forms=('su(1,1)',), is_canonical=True)"),
    (SearchConfig, dict(max_rank=8, level=3, families=frozenset("A")), dict(level=1),
     "SearchConfig(max_rank=8, level=3, families=frozenset({'A'}), include_products=False)"),
    (InstanceResult, INSTANCE_RESULT, dict(diffs=[]), INSTANCE_RESULT_REPR),
    (RowResult, ROW, dict(allowlist_reason="x"), ROW_REPR),
    (ReconciliationReport, dict(scope="thm2.1", max_rank=1, rows=[RowResult(**ROW)]),
     dict(max_rank=2),
     f"ReconciliationReport(scope='thm2.1', max_rank=1, rows=[{ROW_REPR}], "
     "computed_only=[], notes=[])"),
    (ExpectedInstance, INSTANCE, dict(c=Fraction(1, 2)), INSTANCE_REPR),
    (ExpectedTables, dict(raw={"tables": {}}, path_note="x.json"), dict(path_note="y.json"),
     "ExpectedTables(raw={'tables': {}}, path_note='x.json')"),
]


@pytest.mark.parametrize("record,fields,change,text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(record, fields, change, text):
    assert issubclass(record, tuple) and record._fields
    sample = record(**fields)
    assert repr(sample) == text
    assert not hasattr(sample, "__dict__")
    assert record(*fields.values()) == sample and not sample != record(**fields)
    assert pickle.loads(pickle.dumps(sample)) == sample
    changed = record(**dict(fields, **change))
    assert changed != sample and not changed == sample
    name = next(iter(fields))
    if any(isinstance(value, (list, dict)) for value in fields.values()):
        with pytest.raises(TypeError, match="unhashable"):
            hash(sample)
    else:
        assert hash(record(**fields)) == hash(sample)
    with pytest.raises(AttributeError):
        setattr(sample, name, fields[name])
    assert repr(sample) == text


def test_report_defaults_are_fresh_lists():
    first, second = ReconciliationReport("all", 8), ReconciliationReport("all", 8)
    assert all(a == [] and a is not b for a, b in zip(first[2:], second[2:]))


def test_records_equal_the_engine_built_ones():
    assert root_system(A1) == RootSystemData(**A1_DATA)
    assert weight_system(A1, (2,)) == WeightSystem(**WEIGHTS)


def test_str_where_defined():
    assert str(LieType("A", 2)) == "A2"
    assert str(GradingElement((1, 0, 1))) == "A1+A3"


def test_lie_type_order():
    types = [LieType("G", 2), LieType("A", 10), LieType("A", 2), LieType("B", 3)]
    assert [str(t) for t in sorted(types)] == ["A2", "A10", "B3", "G2"]
    assert LieType("A", 2) < LieType("A", 10) < LieType("B", 2)


def test_grading_element_support_stays_out_of_the_contract():
    """`support` is the record's second field, but it follows from coeffs:
    the constructor, the repr and pickling take coeffs alone.  As a tuple
    the record equals its plain (coeffs, support) and orders by it."""
    E = GradingElement((1, 0, 1))
    assert E.support == (1, 3) and E == ((1, 0, 1), (1, 3))
    assert repr(E) == "GradingElement(coeffs=(1, 0, 1))"
    assert E.__getnewargs__() == ((1, 0, 1),)
    assert GradingElement((0, 1, 1)) < E
    with pytest.raises(AttributeError):
        E.support = (1,)
    with pytest.raises(TypeError):
        GradingElement((1, 0, 1), (1, 3))


def test_grading_element_from_nodes_is_the_constructor():
    """For every nonempty node set up to rank 4, in every order, from_nodes
    builds the element the constructor builds from its coefficients, with
    the same support, and it survives a pickle round trip."""
    count = 0
    for rank in range(1, 5):
        for size in range(1, rank + 1):
            for nodes in itertools.permutations(range(1, rank + 1), size):
                got = GradingElement.from_nodes(rank, nodes)
                want = GradingElement(tuple(int(j + 1 in nodes) for j in range(rank)))
                assert type(got) is GradingElement and got == want, (rank, nodes)
                assert got.support == want.support == tuple(sorted(nodes))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                    back = pickle.loads(pickle.dumps(got, protocol))
                    assert type(back) is GradingElement and back == got
                count += 1
    assert count == 1 + 4 + 15 + 64   # ordered node sets at ranks 1 to 4
    with pytest.raises(ValueError, match="^grading element must be nonzero$"):
        GradingElement.from_nodes(3, [])


@pytest.mark.parametrize("make,error,message", [
    (lambda: LieType("E", 9), InvalidTypeError,
     "E9: rank out of bounds for family E (allowed 6..8)"),
    (lambda: LieType("X", 1), InvalidTypeError, "unknown family 'X'"),
    (lambda: GradingElement((0, 2)), ValueError, "grading coefficients must be 0/1, got (0, 2)"),
    (lambda: GradingElement((0, 0)), ValueError, "grading element must be nonzero"),
    (lambda: EigenDecomp(0, (1, 0)), ValueError, "ladder dimensions must be positive, got (1, 0)"),
    (lambda: SearchConfig(8, 2), ValueError, "level must be 1 or 3"),
    (lambda: SearchConfig(40, 3), ValueError, "max_rank must be at most 32, got 40"),
    (lambda: SearchConfig(8, 1, include_products=True), ValueError,
     "products need level 3: factor levels add, so no product has level 1"),
    (lambda: SearchConfig(8, 3, families=frozenset()), ValueError,
     "families must name at least one family"),
    (lambda: SearchConfig(8, 3, families=frozenset("AZ")), ValueError,
     "unknown families ['Z']"),
])
def test_validation_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message
