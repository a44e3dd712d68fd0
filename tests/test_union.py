import random
import re

import pytest

from handlenu.catalog import solid_torus_trace, sphere_trace
from handlenu.homology import Explicit, HomologyVector, Product, Sphere, Surface
from handlenu.nu import nu_of_ordering
from handlenu.trace import (
    Declared,
    Dim3One,
    Dim3Two,
    Dim3Zero,
    HandleRecord,
    NonSeparating,
    OrderedHandleDecomposition,
    TraceError,
    dualize,
)
from handlenu.union import GlueError, GlueSpec, check_key_inequality, compose
from gen import DEFECTS, descriptors, random_composable_pair, states, with_defect


def torus_glue():
    return GlueSpec((("h:2", "base:0"),))


def test_compose_two_solid_tori_closes_up():
    first = solid_torus_trace()
    second = dualize(first)
    composite = compose(first, second, torus_glue())
    assert composite.base == ()
    assert composite.delta == 4
    assert [descriptors(s) for s in states(composite)] == [
        (), (Sphere(2),), (Surface(1),), (Sphere(2),), ()
    ]
    assert nu_of_ordering(composite).nu == 4


def test_compose_glues_along_an_interface_deeper_than_c_comparison_reaches():
    interface = Sphere(2)
    for _ in range(3000):
        interface = Product(Explicit(0, HomologyVector(0, (1,)), "pt"), interface)
    first = OrderedHandleDecomposition(3, (), (HandleRecord(0, Declared((interface,))),))
    second = OrderedHandleDecomposition(3, (interface,), (HandleRecord(3, Declared(())),))
    composite = compose(first, second, GlueSpec((("h:1/0", "base:0"),)))
    assert composite.base == () and composite.delta == 2
    with pytest.raises(GlueError, match="descriptor mismatch"):
        compose(first, second.replace(base=(Product(interface, Sphere(1)),)),
                GlueSpec((("h:1/0", "base:0"),)))


def test_compose_preserves_handle_count():
    rng = random.Random(8301)
    for _ in range(30):
        dm, dn, glue = random_composable_pair(rng)
        composite = compose(dm, dn, glue)
        assert composite.delta == dm.delta + dn.delta


def test_compose_with_collar_is_identity_on_states():
    first = solid_torus_trace()
    collar = OrderedHandleDecomposition(3, (Surface(1),), ())
    composite = compose(first, collar, torus_glue())
    assert [descriptors(s) for s in states(composite)] == [
        descriptors(s) for s in states(first)
    ]
    report = check_key_inequality(first, collar, torus_glue())
    assert report.holds
    assert report.case == "first-prefix"
    assert report.lhs == nu_of_ordering(first).nu


def test_compose_prefix_and_suffix_reproduce_the_parts():
    rng = random.Random(8302)
    for _ in range(30):
        dm, dn, glue = random_composable_pair(rng)
        alpha = dm.delta
        whole = states(compose(dm, dn, glue))
        m_states = states(dm)
        n_states = states(dn)
        glued = {a for a, _ in glue.pairs}
        remainder = sorted(
            (desc for c, desc in m_states[-1] if c not in glued),
            key=repr,
        )
        b_descs = sorted(
            (dn.base[i] for i in range(len(dn.base))
             if f"base:{i}" not in {b for _, b in glue.pairs}),
            key=repr,
        )
        for mu in range(alpha + 1):
            expect = sorted(list(descriptors(m_states[mu])) + list(b_descs), key=repr)
            assert sorted(descriptors(whole[mu]), key=repr) == expect
        for j in range(dn.delta + 1):
            expect = sorted(list(descriptors(n_states[j])) + list(remainder), key=repr)
            assert sorted(descriptors(whole[alpha + j]), key=repr) == expect


def test_compose_rejects_descriptor_mismatch():
    first = solid_torus_trace()
    wrong = OrderedHandleDecomposition(3, (Surface(2),), ())
    with pytest.raises(GlueError):
        compose(first, wrong, torus_glue())


def test_compose_rejects_unknown_ids():
    first = solid_torus_trace()
    second = dualize(first)
    with pytest.raises(GlueError):
        compose(first, second, GlueSpec((("h:9", "base:0"),)))
    with pytest.raises(GlueError):
        compose(first, second, GlueSpec((("h:2", "base:7"),)))


def test_unknown_glue_id_lists_the_final_components_in_id_order():
    # Twelve spheres, then a tube merging h:1 and h:2: the final ids run past h:9.
    first = OrderedHandleDecomposition(3, (), tuple(
        [HandleRecord(0, Dim3Zero())] * 12 + [HandleRecord(1, Dim3One("h:1", "h:2"))]
    ))
    final = [f"h:{j}" for j in range(3, 14)]
    message = f"first part has no final boundary component 'h:1'; components: {final}"
    with pytest.raises(GlueError, match=f"^{re.escape(message)}$"):
        compose(first, OrderedHandleDecomposition(3, (Sphere(2),), ()),
                GlueSpec((("h:1", "base:0"),)))


def test_glue_spec_must_be_injective():
    with pytest.raises(GlueError):
        GlueSpec((("h:1", "base:0"), ("h:1", "base:1")))
    with pytest.raises(GlueError):
        GlueSpec(())


@pytest.mark.parametrize("pair", [(1, "base:0"), ("h:2", None), (b"h:2", "base:0")])
def test_glue_spec_refuses_non_string_ids(pair):
    with pytest.raises(GlueError, match="glue ids must be strings"):
        GlueSpec((pair,))


def test_compose_keeps_unglued_remainder():
    # First part ends with two boundary spheres; glue only one of them.
    first = OrderedHandleDecomposition(
        3, (), (HandleRecord(0, Dim3Zero()), HandleRecord(0, Dim3Zero()))
    )
    second = OrderedHandleDecomposition(
        3,
        (Sphere(2),),
        (HandleRecord(1, Dim3One("base:0", "base:0")),),
    )
    composite = compose(first, second, GlueSpec((("h:1", "base:0"),)))
    final = states(composite)[-1]
    assert sorted(descriptors(final), key=repr) == [Sphere(2), Surface(1)]


def test_compose_rewrites_declared_suffix():
    first = OrderedHandleDecomposition(
        3, (), (HandleRecord(0, Dim3Zero()), HandleRecord(0, Dim3Zero()))
    )
    piece = Explicit(2, HomologyVector(2, (1, 2, 1)), "declared torus")
    second = OrderedHandleDecomposition(
        3, (Sphere(2),), (HandleRecord(2, Declared((piece,))),)
    )
    composite = compose(first, second, GlueSpec((("h:1", "base:0"),)))
    final = states(composite)[-1]
    # The declared list replaces the glued sphere but carries the remainder along.
    assert sorted(descriptors(final), key=repr) == sorted([piece, Sphere(2)], key=repr)


def test_compose_declared_first_part_carries_the_unglued_base():
    # The first part's declared record restates only its own boundary; the
    # second part's unglued genus-two base component must stay free through
    # it, under an id the second part's anchor is rewritten to.
    first = OrderedHandleDecomposition(
        3, (), (HandleRecord(0, Dim3Zero()), HandleRecord(2, Declared((Sphere(2),))))
    )
    second = OrderedHandleDecomposition(
        3,
        (Sphere(2), Surface(2)),
        (HandleRecord(2, Dim3Two("base:1", NonSeparating())),),
    )
    glue = GlueSpec((("h:2/0", "base:0"),))
    composite = compose(first, second, glue)
    assert composite.handles[1].attachment == Declared((Sphere(2), Surface(2)))
    assert composite.handles[2].attachment == Dim3Two("h:2/1", NonSeparating())
    assert [sorted(descriptors(s), key=repr) for s in states(composite)] == [
        [Surface(2)],
        [Sphere(2), Surface(2)],
        [Sphere(2), Surface(2)],
        [Sphere(2), Surface(1)],
    ]
    report = check_key_inequality(first, second, glue)
    assert report.holds and report.case == "base-component" and report.lhs == 6


def test_compose_prefix_and_suffix_reproduce_parts_with_declared_records():
    rng = random.Random(8305)
    for _ in range(100):
        dm, dn, glue = random_composable_pair(rng, declared=0.25)
        alpha = dm.delta
        whole = states(compose(dm, dn, glue))
        m_states, n_states = states(dm), states(dn)
        glued_first = {a for a, _ in glue.pairs}
        glued_second = {b for _, b in glue.pairs}
        remainder = [desc for c, desc in m_states[-1] if c not in glued_first]
        kept = [d for i, d in enumerate(dn.base) if f"base:{i}" not in glued_second]
        for mu in range(alpha + 1):
            expect = list(descriptors(m_states[mu])) + kept
            assert sorted(descriptors(whole[mu]), key=repr) == sorted(expect, key=repr)
        for j in range(dn.delta + 1):
            expect = list(descriptors(n_states[j])) + remainder
            assert sorted(descriptors(whole[alpha + j]), key=repr) == sorted(expect, key=repr)


def test_inequality_base_component_case():
    # A high-genus preserved base component of the second part dominates.
    first = solid_torus_trace()
    second = OrderedHandleDecomposition(3, (Surface(3), Surface(1)), ())
    glue = GlueSpec((("h:2", "base:1"),))
    report = check_key_inequality(first, second, glue)
    assert report.holds
    assert report.case == "base-component"
    assert report.lhs == 8 and report.nu_second == 8


def test_inequality_second_suffix_case():
    first = OrderedHandleDecomposition(3, (), (HandleRecord(0, Dim3Zero()),))
    second = OrderedHandleDecomposition(
        3,
        (Sphere(2),),
        (
            HandleRecord(1, Dim3One("base:0", "base:0")),
            HandleRecord(1, Dim3One("h:1", "h:1")),
        ),
    )
    report = check_key_inequality(first, second, GlueSpec((("h:1", "base:0"),)))
    assert report.holds
    assert report.case == "second-suffix"
    assert report.lhs == 6


def test_inequality_on_random_pairs():
    rng = random.Random(8303)
    for _ in range(60):
        dm, dn, glue = random_composable_pair(rng)
        report = check_key_inequality(dm, dn, glue)
        assert report.holds, report.steps


def test_inequality_on_random_pairs_with_declared_records():
    rng = random.Random(8304)
    declared_parts = {"first": 0, "second": 0}
    for _ in range(200):
        dm, dn, glue = random_composable_pair(rng, declared=0.25)
        for name, part in (("first", dm), ("second", dn)):
            declared_parts[name] += any(isinstance(h.attachment, Declared) for h in part.handles)
        report = check_key_inequality(dm, dn, glue)
        assert report.holds, report.steps
        assert report.lhs == nu_of_ordering(report.composite).nu
    assert min(declared_parts.values()) >= 20, declared_parts


def test_chain_three_parts():
    # Solid torus, a torus collar, then the dual solid torus: still the
    # genus-one closed pattern, now built in three stages.
    first = solid_torus_trace()
    collar = OrderedHandleDecomposition(3, (Surface(1),), ())
    last = dualize(first)
    # Gluing through the handle-free collar leaves the final boundary id at h:2.
    composite = compose(compose(first, collar, torus_glue()), last, torus_glue())
    assert composite == compose(first, last, torus_glue())
    assert [nu_of_ordering(part).nu for part in (first, collar, last)] == [4, 4, 4]
    assert nu_of_ordering(composite).nu == 4
    assert composite.delta == 4


@pytest.mark.parametrize("defect", DEFECTS)
def test_union_checks_refuse_an_invalid_part(defect):
    first, second = solid_torus_trace(), dualize(solid_torus_trace())
    bad_first, mu_first = with_defect(first, defect)
    bad_second, mu_second = with_defect(second, defect)
    with pytest.raises(TraceError, match=rf"^first part is invalid \(prefix {mu_first}\): "):
        check_key_inequality(bad_first, second, torus_glue())
    with pytest.raises(TraceError, match=rf"^second part is invalid \(prefix {mu_second}\): "):
        check_key_inequality(first, bad_second, torus_glue())


def test_sphere_union_strict_drop_numbers():
    first = solid_torus_trace()
    second = dualize(first)
    report = check_key_inequality(first, second, torus_glue())
    assert report.lhs == 4 == report.rhs
    # The closed-up union is a sphere, whose own certificate is 2: the
    # ordering-level number and the manifold-level number stay distinct.
    assert nu_of_ordering(sphere_trace(3)).nu == 2 < report.lhs
