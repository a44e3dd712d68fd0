"""The value classes' contract: ``repr``, immutability, equality, hashing and
a constructor that takes the fields by position or by name, each once.

Error messages embed a record's ``repr``, so its text is pinned literally,
one value of each kind.  Equality is checked against the JSON form, which
names every field of a trace.
"""

from __future__ import annotations

import itertools
import random
import re

import pytest

from gen import random_descriptor, random_trace
from handlenu.catalog import CatalogEntry, CatalogReport, Certification, CheckItem
from handlenu.homology import (
    ConnectedSum,
    Explicit,
    HomologyVector,
    Product,
    Sphere,
    Surface,
    descriptor_to_json,
)
from handlenu.nu import Bound, NuEvaluation
from handlenu.obstruction import (
    DecompositionGraph,
    HandleBudget,
    InterfaceBound,
    RefutationVerdict,
)
from handlenu.trace import (
    Declared,
    Dim3One,
    Dim3Three,
    Dim3Two,
    Dim3Zero,
    HandleRecord,
    NonSeparating,
    OrderedHandleDecomposition,
    Separating,
    ValidationReport,
    Violation,
    trace_from_json,
    trace_to_json,
)
from handlenu.union import GlueSpec, InequalityReport

SMALL = OrderedHandleDecomposition(3, (), (HandleRecord(0, Dim3Zero()),))
SMALL_REPR = (
    "OrderedHandleDecomposition(m=3, base=(), "
    "handles=(HandleRecord(index=0, attachment=Dim3Zero()),))"
)

REPRS = [
    (HomologyVector(2, (1, 0, 1)), "HomologyVector(dim=2, betti=(1, 0, 1))"),
    (Sphere(2), "Sphere(n=2)"),
    (Surface(1), "Surface(genus=1)"),
    (Product(Sphere(1), Surface(2)), "Product(left=Sphere(n=1), right=Surface(genus=2))"),
    (
        ConnectedSum((Surface(1), Surface(1))),
        "ConnectedSum(parts=(Surface(genus=1), Surface(genus=1)))",
    ),
    (
        Explicit(3, HomologyVector(3, (1, 0, 0, 1)), "L(5,1)"),
        "Explicit(dim=3, homology=HomologyVector(dim=3, betti=(1, 0, 0, 1)), label='L(5,1)')",
    ),
    (Dim3Zero(), "Dim3Zero()"),
    (Dim3One("h:1", "h:1"), "Dim3One(a='h:1', b='h:1')"),
    (NonSeparating(), "NonSeparating()"),
    (Separating(1, 2), "Separating(g1=1, g2=2)"),
    (Dim3Two("h:2", Separating(0, 1)), "Dim3Two(anchor='h:2', curve=Separating(g1=0, g2=1))"),
    (Dim3Three("h:1"), "Dim3Three(anchor='h:1')"),
    (
        Declared((Sphere(2), Surface(1))),
        "Declared(components=(Sphere(n=2), Surface(genus=1)))",
    ),
    (
        HandleRecord(1, Dim3One("base:0", "h:1")),
        "HandleRecord(index=1, attachment=Dim3One(a='base:0', b='h:1'))",
    ),
    (SMALL, SMALL_REPR),
    (Violation(2, "dangling anchor"), "Violation(mu=2, message='dangling anchor')"),
    (
        ValidationReport((Violation(1, "bad"),), ("note",)),
        "ValidationReport(violations=(Violation(mu=1, message='bad'),), warnings=('note',))",
    ),
    (
        NuEvaluation((0, 2), 1, 2, 1, "h:1"),
        "NuEvaluation(e_values=(0, 2), mu_start=1, nu=2, argmax_mu=1, argmax_component='h:1')",
    ),
    (
        Bound(2, 4, True, 3, ("base floor",)),
        "Bound(lower=2, upper=4, exhaustive=True, enumerated=3, lower_reasons=('base floor',))",
    ),
    (GlueSpec((("h:2", "base:0"),)), "GlueSpec(pairs=(('h:2', 'base:0'),))"),
    (
        InequalityReport(2, 2, 2, 2, True, "first-prefix", ("step",), SMALL),
        "InequalityReport(lhs=2, rhs=2, nu_first=2, nu_second=2, holds=True, "
        f"case='first-prefix', steps=('step',), composite={SMALL_REPR})",
    ),
    (
        DecompositionGraph((3, 3), ((0, 1, 1),), 4, (2, 5)),
        "DecompositionGraph(boundary_counts=(3, 3), interfaces=((0, 1, 1),), z=4, "
        "handle_costs=(2, 5))",
    ),
    (InterfaceBound(1, 1, True), "InterfaceBound(rho=1, floor=1, holds=True)"),
    (HandleBudget(5, 1, 2), "HandleBudget(h_max=5, l=1, z=2)"),
    (
        RefutationVerdict(True, 2, 10),
        "RefutationVerdict(decomposable_possible=True, max_pieces=2, max_handles=10)",
    ),
    (Certification(2, 2, "manifold"), "Certification(lower=2, upper=2, scope='manifold')"),
    (
        CatalogEntry("ball", (("empty", SMALL),), Certification(2, 2, "manifold"), 0),
        f"CatalogEntry(name='ball', traces=(('empty', {SMALL_REPR}),), "
        "certified=Certification(lower=2, upper=2, scope='manifold'), heegaard_genus=0, "
        "heegaard_asserted=False)",
    ),
    (
        CheckItem("ball", "validate[empty]", True, "clean replay"),
        "CheckItem(entry='ball', check='validate[empty]', ok=True, detail='clean replay')",
    ),
    (
        CatalogReport((CheckItem("ball", "nu", False, "2 != 3"),)),
        "CatalogReport(items=(CheckItem(entry='ball', check='nu', ok=False, detail='2 != 3'),))",
    ),
]
VALUES = [value for value, _ in REPRS]
IDS = [type(value).__name__ for value in VALUES]


def test_every_value_class_is_pinned_once():
    assert len(set(IDS)) == len(IDS) == 29


@pytest.mark.parametrize("value, text", REPRS, ids=IDS)
def test_repr_names_every_field(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, text", REPRS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, text):
    first = re.match(r"\w+\((\w+)=", text)
    name = first.group(1) if first else "anything"
    with pytest.raises(AttributeError):
        setattr(value, name, 0)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.new_attribute = 0


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_each_value_equals_its_replacement_and_hashes_alike(value):
    copy = value.replace()
    assert copy == value and copy is not value
    assert hash(copy) == hash(value)
    assert repr(copy) == repr(value)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_as_dict_names_the_fields_in_order_and_rebuilds_the_value(value):
    fields = value.as_dict()
    assert list(fields) == list(value._fields)
    assert type(value)(**fields) == value
    args = list(fields.values())
    assert type(value)(*args) == value
    with pytest.raises(TypeError):
        type(value)(*args, None)
    with pytest.raises(TypeError):
        type(value)(*args, nothing=None)
    if args:
        with pytest.raises(TypeError):
            type(value)(*args, **{value._fields[0]: args[0]})


def test_replace_changes_only_the_named_fields():
    record = HandleRecord(1, Dim3Zero())
    assert record.replace(index=2) == HandleRecord(2, Dim3Zero())
    assert Explicit(2, HomologyVector(2, (1, 0, 1))).replace(label="x").label == "x"
    with pytest.raises(TypeError):
        record.replace(nothing=1)
    with pytest.raises(TypeError):
        Sphere(2).replace(n=2.0)


def test_different_kinds_are_unequal():
    assert Dim3Zero() != NonSeparating()
    assert Dim3Zero() == Dim3Zero() and hash(Dim3Zero()) == hash(Dim3Zero())
    assert Sphere(2) != Surface(0)
    assert Dim3Three("h:1") != Dim3Two("h:1", NonSeparating())
    assert InterfaceBound(1, 1, True) != (1, 1, True)
    assert Sphere(2) != (0, 2)
    assert Violation(1, "x") != CheckItem("1", "x", True, "")


def pool(rng: random.Random):
    """Small traces, their JSON round trips and small descriptors, so that
    equal values are common and rarely the same object."""
    traces = [random_trace(rng, max_handles=2) for _ in range(60)]
    traces += [trace_from_json(trace_to_json(t)) for t in traces[:20]]
    descs = [random_descriptor(rng, depth=1) for _ in range(60)]
    return [(t, trace_to_json(t)) for t in traces] + [
        (d, descriptor_to_json(d)) for d in descs
    ]


@pytest.mark.parametrize("seed", range(3))
def test_equality_is_equality_of_the_json_form(seed):
    values = pool(random.Random(seed))
    equal_pairs = 0
    for (a, ja), (b, jb) in itertools.combinations(values, 2):
        same = type(a) is type(b) and ja == jb
        assert (a == b) is same, (a, b)
        assert (a != b) is not same
        if same:
            equal_pairs += 1
            assert hash(a) == hash(b)
    assert equal_pairs > 20


def product_chain(depth: int, last: int = 1):
    """``depth`` nested products with a point, whose Betti numbers stay those
    of ``S^last`` (a chain of circles would double its total at every level)."""
    desc = Sphere(last)
    for _ in range(depth):
        desc = Product(Explicit(0, HomologyVector(0, (1,)), "point"), desc)
    return desc


def test_deep_descriptors_compare_and_hash():
    a, b, c = product_chain(900), product_chain(900), product_chain(900, last=2)
    assert a == b and a is not b
    assert a != c
    assert hash(a) == hash(b)
    assert hash(product_chain(5000)) == hash(product_chain(5000))
