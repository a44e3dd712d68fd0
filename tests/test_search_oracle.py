"""The ordering search against the searches it replaced.

``brute_force_search`` is the old loop kept as an oracle: enumerate the
admissible orderings, reorder, replay and evaluate every one.
``joint_search`` (in ``joint_search.py``) is the order-ideal search that
minimized over the whole dependency poset's lattice, before the search read
its value off one walk and counted each connected part's orderings on its
own.  The search must return the same ``Bound`` as both, field by field,
with and without a budget, and both oracles must find their best value
first at the given order ``1..delta``, the witness ``nu search`` reports.
"""

import functools
import math
import random

from hypothesis import given, seed, settings, strategies as st

from handlenu.homology import total_betti
from handlenu.nu import Bound, lower_bound_rules, nu_of_ordering, search_min_nu
from handlenu.trace import (
    Declared,
    Dim3One,
    Dim3Three,
    Dim3Two,
    Dim3Zero,
    HandleRecord,
    NonSeparating,
    OrderedHandleDecomposition,
)
from gen import count_steps, iter_linear_extensions, multi_part_trace, random_trace, reorder, states
from ideal_count import dependencies, parts
from joint_search import joint_search


def brute_force_search(d: OrderedHandleDecomposition, budget: int | None = None,
                       evaluate=None, orders=None) -> Bound:
    """``evaluate(order)`` may memoize ``nu_of_ordering(reorder(d, order)).nu``,
    and ``orders`` may list ``iter_linear_extensions(d)``, when one trace is
    searched under many budgets."""
    if evaluate is None:
        evaluate = lambda order: nu_of_ordering(reorder(d, order)).nu
    final = dict(states(d)[-1])
    best = None
    best_order = None
    enumerated = 0
    exhaustive = True
    for order in iter_linear_extensions(d) if orders is None else orders:
        if budget is not None and enumerated >= budget:
            exhaustive = False
            break
        enumerated += 1
        value = evaluate(order)
        if best is None or value < best:
            best = value
            best_order = order
    assert best_order == tuple(range(1, d.delta + 1))
    lower, reasons = lower_bound_rules(d, final)
    return Bound(
        lower=lower,
        upper=best,
        exhaustive=exhaustive,
        enumerated=enumerated,
        lower_reasons=reasons,
    )


def assert_same_bound(got: Bound, want: Bound) -> None:
    assert got.lower == want.lower
    assert got.upper == want.upper
    assert got.exhaustive == want.exhaustive
    assert got.enumerated == want.enumerated
    assert got.lower_reasons == want.lower_reasons
    assert got == want


def genus_one_chains(count: int) -> OrderedHandleDecomposition:
    """``count`` independent chains 0-, 1-, 2-, 3-handle, each a genus-one splitting."""
    handles = []
    for _ in range(count):
        a = len(handles) + 1
        handles += [
            HandleRecord(0, Dim3Zero()),
            HandleRecord(1, Dim3One(f"h:{a}", f"h:{a}")),
            HandleRecord(2, Dim3Two(f"h:{a + 1}", NonSeparating())),
            HandleRecord(3, Dim3Three(f"h:{a + 2}")),
        ]
    return OrderedHandleDecomposition(3, (), tuple(handles))


def test_ideal_search_matches_oracle_on_seeded_traces():
    rng = random.Random(9301)
    declared_seen = 0
    for k in range(400):
        d = random_trace(rng, max_handles=7, declared=0.15 if k % 2 else 0.0)
        declared_seen += any(isinstance(h.attachment, Declared) for h in d.handles)
        assert_same_bound(search_min_nu(d), brute_force_search(d))
    assert declared_seen >= 50


def test_ideal_search_matches_oracle_on_every_budget():
    rng = random.Random(9302)
    for k in range(120):
        d = random_trace(rng, max_handles=6, declared=0.15 if k % 3 == 0 else 0.0)
        total = sum(1 for _ in iter_linear_extensions(d))
        evaluate = functools.cache(lambda order: nu_of_ordering(reorder(d, order)).nu)
        for budget in range(1, total + 2):
            assert_same_bound(search_min_nu(d, budget), brute_force_search(d, budget, evaluate))


@seed(9303)
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    declared=st.sampled_from([0.0, 0.25]),
    budget=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
)
def test_ideal_search_matches_oracle_hypothesis(rng, declared, budget):
    d = random_trace(rng, max_handles=6, declared=declared)
    assert_same_bound(search_min_nu(d, budget), brute_force_search(d, budget))


def parts_of(d: OrderedHandleDecomposition) -> int:
    return len(parts(dependencies(d)))


def test_factored_search_matches_both_oracles_on_multi_part_traces():
    rng = random.Random(9305)
    multi = declared_seen = 0
    for k in range(400):
        d = multi_part_trace(rng, groups=2 + k % 2, max_handles=7,
                             declared=0.3 if k % 4 == 0 else 0.0)
        multi += parts_of(d) > 1
        if any(isinstance(h.attachment, Declared) for h in d.handles):
            declared_seen += 1
            assert parts_of(d) == 1  # a declared record is pinned to every handle
        want = brute_force_search(d)
        assert_same_bound(joint_search(d), want)
        assert_same_bound(search_min_nu(d), want)
    assert multi >= 300 and declared_seen >= 30


def test_factored_search_matches_both_oracles_on_every_budget():
    rng = random.Random(9306)
    multi = 0
    for k in range(400):
        d = multi_part_trace(rng, groups=2 + k % 2, max_handles=5,
                             declared=0.3 if k % 4 == 0 else 0.0)
        multi += parts_of(d) > 1
        orders = list(iter_linear_extensions(d))
        evaluate = functools.cache(lambda order: nu_of_ordering(reorder(d, order)).nu)
        for budget in range(1, len(orders) + 1):
            want = brute_force_search(d, budget, evaluate, orders)
            assert_same_bound(joint_search(d, budget), want)
            assert_same_bound(search_min_nu(d, budget), want)
    assert multi >= 300


@seed(9307)
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    groups=st.integers(min_value=2, max_value=4),
    declared=st.sampled_from([0.0, 0.3]),
    budget=st.one_of(st.none(), st.integers(min_value=1, max_value=60)),
)
def test_factored_search_matches_both_oracles_hypothesis(rng, groups, declared, budget):
    d = multi_part_trace(rng, groups=groups, max_handles=7, declared=declared)
    want = brute_force_search(d, budget)
    assert_same_bound(joint_search(d, budget), want)
    assert_same_bound(search_min_nu(d, budget), want)


def test_forty_independent_zero_handles_search_in_one_step_each(monkeypatch):
    # 2^40 joint ideals, but 40 parts of 2 ideals each.
    calls = count_steps(monkeypatch)
    d = OrderedHandleDecomposition(3, (), tuple(HandleRecord(0, Dim3Zero()) for _ in range(40)))
    bound = search_min_nu(d)
    assert bound.exhaustive and bound.enumerated == math.factorial(40)
    assert bound.upper == 2
    assert calls == [f"h:{j}" for j in range(1, 41)]


def test_ten_genus_chains_search_in_one_step_each(monkeypatch):
    # 5^10 joint ideals, but 10 parts of 5 ideals each.
    calls = count_steps(monkeypatch)
    bound = search_min_nu(genus_one_chains(10))
    assert bound.exhaustive and bound.enumerated == math.factorial(40) // math.factorial(4) ** 10
    assert (bound.lower, bound.upper) == (4, 4)
    assert calls == [f"h:{j}" for j in range(1, 41)]


def test_search_pinned_by_declared_records():
    d = random_trace(random.Random(9304), max_handles=6, declared=1.0)
    assert list(iter_linear_extensions(d)) == [tuple(range(1, d.delta + 1))]
    assert_same_bound(search_min_nu(d), brute_force_search(d))


def test_four_chains_search_is_exhaustive():
    # 16! / (4!)^4 orderings, far too many to replay one by one; the ideal
    # lattice has only 5^4 elements.
    bound = search_min_nu(genus_one_chains(4))
    assert bound.exhaustive and bound.enumerated == 63063000
    assert (bound.lower, bound.upper) == (4, 4)


def test_wide_budget_search_needs_no_recursion():
    # 1,500 independent 0-handles: far deeper than Python's recursion limit.
    d = OrderedHandleDecomposition(3, (), tuple(HandleRecord(0, Dim3Zero()) for _ in range(1500)))
    bound = search_min_nu(d, budget=1)
    assert bound.enumerated == 1 and bound.exhaustive is False
    # Without a base every component shows at some prefix mu >= 1, so the
    # value is the largest total Betti number of any component, here one per
    # 0-handle sphere.
    components = {c: desc for state in states(d) for c, desc in state}
    assert len(components) == 1500
    assert max(total_betti(desc) for desc in components.values()) == bound.upper == 2
