import random

import pytest

from handlenu.catalog import (
    circle_times_genus_two_half_trace,
    doubled_disc_bundle_trace,
    genus_one_trace,
    handlebody_trace,
    solid_torus_trace,
    sphere_times_circle_trace,
    sphere_trace,
)
from handlenu.homology import Sphere, Surface
from handlenu.nu import heegaard_upper, lower_bound_rules, nu_of_ordering, search_min_nu
from handlenu.trace import (
    Dim3One,
    Dim3Three,
    Dim3Zero,
    HandleRecord,
    OrderedHandleDecomposition,
    dualize,
    final_boundary,
)
from gen import iter_linear_extensions, random_trace, reorder, states


def e_0(*base):
    return nu_of_ordering(OrderedHandleDecomposition(3, base, ())).e_values[0]


def test_e_mu_values():
    assert e_0(Surface(1)) == 4
    assert e_0() == 0
    assert e_0(Sphere(2), Surface(3)) == 8


def test_nu_of_two_handle_sphere():
    assert nu_of_ordering(sphere_trace(3)).nu == 2


def test_nu_of_genus_one_pattern():
    evaluation = nu_of_ordering(genus_one_trace())
    assert evaluation.nu == 4
    assert evaluation.e_values == (0, 2, 4, 2, 0)
    assert evaluation.argmax_mu == 2
    assert evaluation.argmax_component == "h:2"


def test_nu_of_six_handle_half():
    assert nu_of_ordering(circle_times_genus_two_half_trace()).nu == 8


def test_nu_of_doubled_disc_bundle():
    assert nu_of_ordering(doubled_disc_bundle_trace(1)).nu == 2


def test_mu_zero_counts_only_with_base():
    # The collar over a torus shows the torus immediately.
    collar = OrderedHandleDecomposition(3, (Surface(1),), ())
    assert nu_of_ordering(collar).nu == 4
    dual = dualize(solid_torus_trace())
    evaluation = nu_of_ordering(dual)
    assert evaluation.nu == 4 and evaluation.argmax_mu == 0
    # Without a base the empty initial state is not considered.
    assert nu_of_ordering(sphere_trace(3)).e_values[0] == 0
    assert nu_of_ordering(sphere_trace(3)).mu_start == 1


def test_nu_is_max_of_considered_e_values():
    rng = random.Random(8201)
    for _ in range(40):
        d = random_trace(rng)
        evaluation = nu_of_ordering(d)
        assert all(evaluation.nu >= e for e in evaluation.e_values[evaluation.mu_start:])


def test_linear_extensions_of_chain_are_unique():
    assert list(iter_linear_extensions(genus_one_trace())) == [(1, 2, 3, 4)]
    assert list(iter_linear_extensions(solid_torus_trace())) == [(1, 2)]


def test_linear_extensions_of_independent_pairs():
    d = OrderedHandleDecomposition(
        3,
        (),
        (
            HandleRecord(0, Dim3Zero()),
            HandleRecord(0, Dim3Zero()),
            HandleRecord(3, Dim3Three("h:1")),
            HandleRecord(3, Dim3Three("h:2")),
        ),
    )
    orders = list(iter_linear_extensions(d))
    assert len(orders) == 6
    assert orders[0] == (1, 2, 3, 4)  # lexicographically first
    assert all(o.index(1) < o.index(3) and o.index(2) < o.index(4) for o in orders)
    for order in orders:
        assert nu_of_ordering(reorder(d, order)).nu == 2


def test_declared_handles_pin_the_order():
    assert list(iter_linear_extensions(sphere_trace(5))) == [(1, 2)]
    assert list(iter_linear_extensions(sphere_times_circle_trace(4))) == [(1, 2, 3, 4)]


def test_search_solid_torus_both_presentations():
    for d in (solid_torus_trace(), dualize(solid_torus_trace())):
        bound = search_min_nu(d)
        assert (bound.lower, bound.upper) == (4, 4)
        assert bound.exhaustive and bound.enumerated == 1


def test_search_sphere_made_with_a_merge():
    # Two 0-handles, one connecting 1-handle, one cap: a sphere presentation
    # that contains a 1-handle yet never leaves total Betti 2.
    d = OrderedHandleDecomposition(
        3,
        (),
        (
            HandleRecord(0, Dim3Zero()),
            HandleRecord(0, Dim3Zero()),
            HandleRecord(1, Dim3One("h:1", "h:2")),
            HandleRecord(3, Dim3Three("h:3")),
        ),
    )
    bound = search_min_nu(d)
    assert (bound.lower, bound.upper) == (2, 2)
    assert bound.exhaustive and bound.enumerated == 2


def test_search_budget_cutoff():
    d = OrderedHandleDecomposition(
        3,
        (),
        tuple(
            [HandleRecord(0, Dim3Zero()) for _ in range(3)]
            + [HandleRecord(3, Dim3Three(f"h:{j}")) for j in (1, 2, 3)]
        ),
    )
    full = search_min_nu(d)
    assert full.exhaustive and full.enumerated == 90 and full.upper == 2
    cut = search_min_nu(d, budget=10)
    assert not cut.exhaustive and cut.enumerated == 10 and cut.upper == 2
    with pytest.raises(ValueError):
        search_min_nu(d, budget=0)


def test_search_witness_replays_to_its_value():
    rng = random.Random(8202)
    for _ in range(25):
        d = random_trace(rng, max_handles=5)
        bound = search_min_nu(d, budget=200)
        # The witness is the given order.
        assert nu_of_ordering(d).nu == bound.upper


def test_search_is_reorder_invariant():
    d = OrderedHandleDecomposition(
        3,
        (),
        (
            HandleRecord(0, Dim3Zero()),
            HandleRecord(0, Dim3Zero()),
            HandleRecord(3, Dim3Three("h:1")),
            HandleRecord(3, Dim3Three("h:2")),
        ),
    )
    base = search_min_nu(d)
    for order in iter_linear_extensions(d):
        other = search_min_nu(reorder(d, order))
        assert (other.lower, other.upper, other.enumerated) == (
            base.lower, base.upper, base.enumerated,
        )


def floor(d):
    return lower_bound_rules(d, final_boundary(d))[0]


def test_lower_bound_rules_examples():
    assert floor(genus_one_trace()) == 4
    assert floor(sphere_trace(5)) == 2
    assert floor(solid_torus_trace()) == 4


def test_declared_components_floor_the_search():
    bound = search_min_nu(sphere_times_circle_trace(4))
    assert (bound.lower, bound.upper) == (4, 4)


def test_parity_on_random_traces():
    rng = random.Random(8203)
    for _ in range(60):
        evaluation = nu_of_ordering(random_trace(rng))
        assert evaluation.nu % 2 == 0
        assert all(e % 2 == 0 for e in evaluation.e_values)


def test_heegaard_upper():
    assert heegaard_upper(1) == 4
    assert heegaard_upper(5) == 12
    assert heegaard_upper(0) == 2
    with pytest.raises(ValueError):
        heegaard_upper(-1)


@pytest.mark.parametrize("genus", [1.5, 1.0, True, "1", None])
def test_heegaard_upper_refuses_a_non_integer_genus(genus):
    with pytest.raises(TypeError, match="'genus' must be an integer"):
        heegaard_upper(genus)


def test_dual_consistency_on_closed_traces():
    rng = random.Random(8204)
    closed = [genus_one_trace(), sphere_trace(3)]
    while len(closed) < 12:
        d = random_trace(rng, allow_base=False)
        if not states(d)[-1]:
            closed.append(d)
    for d in closed:
        assert nu_of_ordering(dualize(d)).nu == nu_of_ordering(d).nu


def test_search_handle_free_collar():
    collar = OrderedHandleDecomposition(3, (Surface(2),), ())
    bound = search_min_nu(collar)
    assert bound.upper == 6 and bound.enumerated == 1 and bound.exhaustive


def test_handlebody_family_values():
    for n in range(1, 11):
        evaluation = nu_of_ordering(handlebody_trace(n))
        assert evaluation.nu == 2 + 2 * n
