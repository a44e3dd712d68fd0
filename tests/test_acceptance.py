"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value here is exact (integer invariants); run with ``-s`` to
see the per-criterion lines.
"""

import random
import time

from handlenu.catalog import (
    circle_times_genus_two_half_trace,
    doubled_disc_bundle_trace,
    handlebody_trace,
    lookup,
    solid_torus_trace,
    sphere_trace,
)
from handlenu.homology import Product, Sphere, Surface, betti, total_betti
from handlenu.nu import heegaard_upper, nu_of_ordering, search_min_nu
from handlenu.obstruction import HandleBudget, pieces_ceiling, refute
from handlenu.trace import dualize, validate
from handlenu.union import GlueSpec, check_key_inequality
from chain_oracle import chain_betti
from gen import (
    descriptors,
    iter_linear_extensions,
    random_composable_pair,
    random_descriptor,
    random_trace,
    reorder,
    states,
)

from test_homology import FIXTURES


def report(number, ok, text):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_spheres_pin_the_invariant_at_two():
    results = {}
    for m in (3, 4, 5, 6):
        bound = search_min_nu(sphere_trace(m))
        results[m] = (bound.lower, bound.upper, bound.exhaustive)
    ok = all(results[m] == (2, 2, True) for m in results)
    report(1, ok, f"two-handle sphere traces give exhaustive [2, 2] for m=3..6: {results}")


def test_criterion_02_solid_torus_both_presentations():
    primary = solid_torus_trace()
    dual = dualize(primary)
    b1, b2 = search_min_nu(primary), search_min_nu(dual)
    ok = (
        (b1.lower, b1.upper, b1.exhaustive) == (4, 4, True)
        and (b2.lower, b2.upper, b2.exhaustive) == (4, 4, True)
    )
    report(2, ok, (
        "solid torus reaches 4 both ways: handles-first "
        f"[{b1.lower}, {b1.upper}] and collar-first [{b2.lower}, {b2.upper}]"
    ))


def test_criterion_03_union_of_solid_tori_shows_the_strict_drop():
    primary = solid_torus_trace()
    dual = dualize(primary)
    check = check_key_inequality(primary, dual, GlueSpec((("h:2", "base:0"),)))
    closed = check.composite
    certified = lookup("s3").certified
    ok = (
        check.holds
        and check.lhs == 4
        and not closed.base
        and not states(closed)[-1]
        and certified is not None
        and certified.upper == 2
        and certified.upper < check.lhs
    )
    report(3, ok, (
        f"gluing two solid tori closes up with ordering value {check.lhs}; the sphere "
        f"certificate stays {certified.upper}, exhibiting {certified.upper} < {check.lhs}"
    ))


def test_criterion_04_genus_one_pattern_under_every_order():
    trace = lookup("lens").traces[0][1]
    orders = list(iter_linear_extensions(trace))
    values = [nu_of_ordering(reorder(trace, order)).nu for order in orders]
    ok = 1 <= len(orders) <= 24 and all(v == 4 for v in values)
    report(4, ok, (
        f"all {len(orders)} admissible orders of the 4-handle genus-one trace give 4"
    ))


def test_criterion_05_circle_times_genus_two():
    half = circle_times_genus_two_half_trace()
    sequence = [descriptors(s) for s in states(half)[1:]]
    expected = [
        (Sphere(2),), (Surface(1),), (Surface(2),),
        (Surface(3),), (Surface(2),), (Surface(1),),
    ]
    value = nu_of_ordering(half).nu
    dual = dualize(half)
    dual_ok = validate(dual).ok
    reversed_ok = [descriptors(s) for s in states(dual)] == [
        descriptors(s) for s in states(half)
    ][::-1]
    entry = lookup("s1xsigma2")
    cap = heegaard_upper(entry.heegaard_genus)
    ok = (
        sequence == expected
        and value == 8
        and dual_ok
        and reversed_ok
        and value < cap == 12
    )
    report(5, ok, (
        "six-handle trace walks S^2, T^2, Sigma_2, Sigma_3, Sigma_2, T^2 with peak "
        f"{value}; dual replays it backwards; {value} < 2*5+2 = {cap}"
    ))


def test_criterion_06_doubled_disc_bundle_stays_at_two():
    trace = doubled_disc_bundle_trace(1)
    evaluation = nu_of_ordering(trace)
    middles = [desc for s in states(trace)[1:-1] for _, desc in s]
    ok = (
        evaluation.nu == 2
        and len(middles) == 3
        and all(total_betti(desc) == 2 for desc in middles)
        and all(betti(desc).dim == 3 for desc in middles)
    )
    report(6, ok, (
        "declared 4-handle double gives value 2 while every middle boundary is a "
        "rational homology sphere of total Betti 2"
    ))


def test_criterion_07_unbounded_family():
    values = {n: nu_of_ordering(handlebody_trace(n)).nu for n in range(1, 11)}
    ok = all(values[n] == 2 + 2 * n for n in values)
    report(7, ok, f"one 0-handle plus n 1-handles yields 2 + 2n for n = 1..10: {values}")


def test_criterion_08_union_inequality_property_suite():
    rng = random.Random(20260810)
    start = time.monotonic()
    failures = []
    for i in range(200):
        dm, dn, glue = random_composable_pair(rng, max_handles=6)
        result = check_key_inequality(dm, dn, glue)
        if not result.holds:
            failures.append((i, result.lhs, result.rhs))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    report(8, ok, (
        f"200 random composable pairs all satisfy the union inequality "
        f"in {elapsed:.2f}s; failures: {failures}"
    ))


def test_criterion_09_piece_counting_algebra():
    checked = 0
    algebra_ok = True
    for w in range(1, 21):
        for z in range(0, 21):
            rho_min = max(0, -((-(3 * w - z)) // 2))
            for rho in range(rho_min, rho_min + 30):
                l = rho - w + 1
                if l < 0:
                    continue
                checked += 1
                if w > 2 * l + z - 2:
                    algebra_ok = False
    budget = HandleBudget(h_max=5, l=1, z=2)
    boundary_ok = (
        not refute(budget, 11).decomposable_possible
        and refute(budget, 10).decomposable_possible
        and pieces_ceiling(1, 2) == 2
    )
    ok = algebra_ok and boundary_ok and checked > 0
    report(9, ok, (
        f"interface floor and rank floor imply the piece ceiling on {checked} "
        "integer triples; handle budget flips exactly between 10 and 11"
    ))


def test_criterion_10_parity_of_surface_traces():
    rng = random.Random(20260811)
    ok = True
    for _ in range(500):
        evaluation = nu_of_ordering(random_trace(rng, max_handles=6))
        if evaluation.nu % 2 or any(e % 2 for e in evaluation.e_values):
            ok = False
            break
    report(10, ok, "500 random surface-calculus traces have even e values throughout")


def test_criterion_11_homology_engine():
    fixtures_ok = all(
        chain_betti(make()) == betti(symbolic) for make, symbolic in FIXTURES
    )
    rng = random.Random(20260812)
    identities_ok = True
    from handlenu.homology import ConnectedSum, dimension

    for _ in range(100):
        a, b = random_descriptor(rng), random_descriptor(rng)
        if betti(Product(a, b)) != betti(Product(b, a)):
            identities_ok = False
        n = dimension(a)
        if n >= 2 and betti(ConnectedSum((a, Sphere(n)))) != betti(a):
            identities_ok = False
        if not betti(a).palindromic:
            identities_ok = False
    ok = fixtures_ok and identities_ok
    report(11, ok, (
        "cell fixtures match symbolic Betti data exactly; product and "
        "connected-sum identities hold on 100 random pairs"
    ))
