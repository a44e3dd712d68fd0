"""The ordering count against the ideal walk it replaced.

``ideal_count`` (in ``ideal_count.py``) is the count ``nu._search`` made
before it cut the order at ``Declared`` records and used hook lengths on
forest-shaped parts: every connected part walked its order-ideal lattice with
masks over global positions.  ``search_min_nu`` must report the same
``enumerated`` and ``exhaustive`` under every budget.  The cost is pinned by
counting what reaches the remaining walk, ``nu._count_ideals``: forest parts
and ``Declared`` cuts never do, and a part that does is walked over its own
handles only.
"""

from __future__ import annotations

from contextlib import contextmanager
import math
import random
from unittest import mock

from hypothesis import given, seed, settings, strategies as st
import pytest

import handlenu.nu as nu
from handlenu.homology import Sphere, Surface
from handlenu.nu import search_min_nu
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
    id_sort_key,
)
from gen import multi_part_trace, random_trace
from ideal_count import anchors_of, ideal_count


@contextmanager
def walked_parts():
    """Record the size of each part that reaches the ideal walk."""
    sizes: list[int] = []
    walk = nu._count_ideals

    def recording(need, cap):
        sizes.append(len(need))
        return walk(need, cap)

    with mock.patch.object(nu, "_count_ideals", recording):
        yield sizes


@contextmanager
def no_walk():
    def refuse(need, cap):
        raise AssertionError(f"a part of {len(need)} handles entered the ideal walk")

    with mock.patch.object(nu, "_count_ideals", refuse):
        yield


def non_forest_sizes(d: OrderedHandleDecomposition) -> list[int]:
    """Sizes of the connected parts of the anchor poset, between ``Declared``
    records, in which some handle anchors two earlier handles and some handle
    is anchored by two later ones; read without ``nu``."""
    earlier: dict[int, set[int]] = {}
    last_cut = 0
    for j, handle in enumerate(d.handles, start=1):
        if isinstance(handle.attachment, Declared):
            last_cut = j
        events = {id_sort_key(a)[1] for a in anchors_of(handle) if a.startswith("h:")}
        earlier[j] = {i for i in events if i > last_cut}
    later = {j: sum(j in deps for deps in earlier.values()) for j in earlier}
    neighbours = {j: set(deps) for j, deps in earlier.items()}
    for j, deps in earlier.items():
        for i in deps:
            neighbours[i].add(j)
    seen: set[int] = set()
    sizes = []
    for j in earlier:
        if j in seen:
            continue
        part, todo = set(), [j]
        while todo:
            k = todo.pop()
            if k not in part:
                part.add(k)
                todo.extend(neighbours[k])
        seen |= part
        if any(len(earlier[k]) > 1 for k in part) and any(later[k] > 1 for k in part):
            sizes.append(len(part))
    return sorted(sizes)


def assert_counts_agree(d: OrderedHandleDecomposition, budget: int | None = None) -> None:
    want = ideal_count(d, None if budget is None else budget + 1)
    exhaustive = budget is None or want <= budget
    bound = search_min_nu(d, budget)
    assert (bound.exhaustive, bound.enumerated) == (exhaustive, want if exhaustive else budget)


def seeded_traces(rng: random.Random, count: int, max_handles: int):
    for k in range(count):
        declared = 0.15 if k % 3 == 0 else 0.0
        if k % 2:
            yield multi_part_trace(rng, groups=2 + k % 3, max_handles=max_handles,
                                   declared=declared)
        else:
            yield random_trace(rng, max_handles=max_handles, declared=declared)


def test_count_matches_the_ideal_walk_on_seeded_traces():
    rng = random.Random(9401)
    declared = walked = forests = 0
    for d in seeded_traces(rng, 1500, max_handles=14):
        with walked_parts() as sizes:
            assert_counts_agree(d)
        assert sorted(sizes) == non_forest_sizes(d)
        declared += any(isinstance(h.attachment, Declared) for h in d.handles)
        walked += bool(sizes)
        forests += d.delta > 1 and not sizes
    assert declared >= 200 and walked >= 100 and forests >= 800, (declared, walked, forests)


def test_count_matches_the_ideal_walk_under_every_budget():
    rng = random.Random(9402)
    shapes = [*seeded_traces(rng, 600, max_handles=9), cross_merges(1)]
    shapes += [n_shape(free) for free in range(4)]
    tried = walked = 0
    for d in shapes:
        total = ideal_count(d)
        if total > 400:
            continue
        tried += 1
        walked += bool(non_forest_sizes(d))
        for budget in range(1, total + 2):
            assert_counts_agree(d, budget)
    assert tried >= 300 and walked >= 15, (tried, walked)


@seed(9403)
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    groups=st.integers(min_value=1, max_value=4),
    declared=st.sampled_from([0.0, 0.2]),
    budget=st.one_of(st.none(), st.integers(min_value=1, max_value=5000)),
)
def test_count_matches_the_ideal_walk_hypothesis(rng, groups, declared, budget):
    d = multi_part_trace(rng, groups=groups, max_handles=12, declared=declared)
    with walked_parts() as sizes:
        assert_counts_agree(d, budget)
    assert sorted(sizes) == non_forest_sizes(d)


def zeros(k: int) -> list[HandleRecord]:
    return [HandleRecord(0, Dim3Zero()) for _ in range(k)]


def merge_chain(k: int) -> OrderedHandleDecomposition:
    """``k`` free 0-handles merged into one sphere by ``k - 1`` 1-handles."""
    handles, last = zeros(k), "h:1"
    for j in range(2, k + 1):
        handles.append(HandleRecord(1, Dim3One(last, f"h:{j}")))
        last = f"h:{len(handles)}"
    return OrderedHandleDecomposition(3, (), tuple(handles))


def declared_after_zeros(k: int) -> OrderedHandleDecomposition:
    spheres = Declared(tuple(Sphere(2) for _ in range(k)))
    return OrderedHandleDecomposition(3, (), (*zeros(k), HandleRecord(0, spheres)))


def cross_merges(copies: int) -> OrderedHandleDecomposition:
    """``copies`` times: split two spheres, then merge their halves crosswise.
    Each copy is a non-forest part of 6 handles with 12 orderings."""
    handles: list[HandleRecord] = []
    for _ in range(copies):
        a = len(handles) + 1
        handles += [
            HandleRecord(0, Dim3Zero()),
            HandleRecord(0, Dim3Zero()),
            HandleRecord(2, Dim3Two(f"h:{a}", Separating(0, 0))),
            HandleRecord(2, Dim3Two(f"h:{a + 1}", Separating(0, 0))),
            HandleRecord(1, Dim3One(f"h:{a + 2}/0", f"h:{a + 3}/0")),
            HandleRecord(1, Dim3One(f"h:{a + 2}/1", f"h:{a + 3}/1")),
        ]
    return OrderedHandleDecomposition(3, (), tuple(handles))


def n_shape(free: int) -> OrderedHandleDecomposition:
    """The smallest non-forest part, 5 orderings of a < c > b < d: b splits the
    base sphere, c merges one half with a's sphere and d caps the other; then
    ``free`` 0-handles."""
    handles = [
        HandleRecord(0, Dim3Zero()),
        HandleRecord(2, Dim3Two("base:0", Separating(0, 0))),
        HandleRecord(1, Dim3One("h:1", "h:2/0")),
        HandleRecord(3, Dim3Three("h:2/1")),
        *zeros(free),
    ]
    return OrderedHandleDecomposition(3, (Sphere(2),), tuple(handles))


def test_the_smallest_non_forest_part_is_walked():
    with walked_parts() as sizes:
        assert search_min_nu(n_shape(2)).enumerated == 5 * 6 * 5
    assert sizes == [4]
    assert non_forest_sizes(n_shape(2)) == [4]


@pytest.mark.parametrize("k", [2, 18, 40])
def test_a_merge_chain_is_counted_in_closed_form(k):
    # A down-forest: 2k - 1 handles over the odd down-set sizes 3, 5, ..., 2k - 1,
    # which leaves 2^(k-1) (k-1)!.
    with no_walk():
        bound = search_min_nu(merge_chain(k), budget=None)
    assert bound.enumerated == 2 ** (k - 1) * math.factorial(k - 1)


@pytest.mark.parametrize("k", [1, 20, 60])
def test_a_declared_record_cuts_the_count(k):
    with no_walk():
        assert search_min_nu(declared_after_zeros(k)).enumerated == math.factorial(k)
        # A second cut after more free handles multiplies its segment's count in.
        d = declared_after_zeros(k)
        d = d.replace(handles=d.handles + tuple(zeros(3)) + (HandleRecord(0, Declared(())),))
        assert search_min_nu(d).enumerated == math.factorial(k) * math.factorial(3)


def test_the_width_shape_is_counted_in_closed_form():
    # 0-handle then a same-foot 1-handle, n times: (2n)! / 2^n.
    n = 3000
    handles = []
    for j in range(1, 2 * n, 2):
        handles += [HandleRecord(0, Dim3Zero()), HandleRecord(1, Dim3One(f"h:{j}", f"h:{j}"))]
    with no_walk():
        bound = search_min_nu(OrderedHandleDecomposition(3, (), tuple(handles)))
    assert bound.enumerated == math.factorial(2 * n) >> n


def test_non_forest_parts_are_walked_over_their_own_handles():
    # The walk sees each 6-handle copy on its own, however many copies and free
    # handles share the trace: its work grows with the copies, not as 2^delta.
    for copies in (1, 5, 40):
        d = cross_merges(copies)
        d = d.replace(handles=d.handles + tuple(zeros(30)))
        with walked_parts() as sizes:
            bound = search_min_nu(d)
        assert sizes == [6] * copies
        n = 6 * copies + 30
        assert bound.enumerated == math.factorial(n) // math.factorial(6) ** copies * 12**copies
    assert_counts_agree(cross_merges(2))


def refusing(name: str):
    def refuse(*args):
        raise AssertionError(f"{name} ran under a budget the bounds decide")

    return refuse


def width_shape(n: int) -> OrderedHandleDecomposition:
    # n free 0-handles, each followed by a 1-handle joining its sphere to itself.
    handles = []
    for j in range(1, 2 * n, 2):
        handles += [HandleRecord(0, Dim3Zero()), HandleRecord(1, Dim3One(f"h:{j}", f"h:{j}"))]
    return OrderedHandleDecomposition(3, (), tuple(handles))


def base_tori(n: int) -> OrderedHandleDecomposition:
    # n 2-handles, each on its own base torus: no 0-handle, yet n! orderings.
    handles = [HandleRecord(2, Dim3Two(f"base:{i}", NonSeparating())) for i in range(n)]
    return OrderedHandleDecomposition(3, (Surface(1),) * n, tuple(handles))


@pytest.mark.parametrize("d", [width_shape(3000), base_tori(3000)], ids=["width", "base-tori"])
def test_a_budget_the_free_handles_exceed_needs_no_dependencies(d):
    # 8 of the 3000 handles that anchor no earlier handle have 8! > 10001 orderings.
    with mock.patch.object(nu, "_dependencies", refusing("_dependencies")):
        bound = search_min_nu(d, budget=10000)
    assert (bound.exhaustive, bound.enumerated) == (False, 10000)


def test_the_free_bound_multiplies_over_declared_segments_and_skips_anchored_handles():
    # Four segments of 3 free 0-handles and a 3-handle capping the first:
    # 4!/2 = 12 orderings each, 12^4 = 20736 in all, of which the free
    # handles alone show 6^4 = 1296.
    handles = []
    for s in range(4):
        handles += [*zeros(3), HandleRecord(3, Dim3Three(f"h:{5 * s + 1}")),
                    HandleRecord(0, Declared(()))]
    d = OrderedHandleDecomposition(3, (), tuple(handles))
    with mock.patch.object(nu, "_dependencies", refusing("_dependencies")):
        assert search_min_nu(d, budget=1000).enumerated == 1000
    for budget in (1295, 1296, 20735, 20736, None):
        assert_counts_agree(d, budget)
    assert search_min_nu(d).enumerated == 20736


def test_a_walked_part_over_the_budget_saturates():
    # Under a budget of 100 each copy's walk stops once its count reaches 101,
    # and the total is still over the budget.
    bound = search_min_nu(cross_merges(5), budget=100)
    assert (bound.exhaustive, bound.enumerated) == (False, 100)
    assert nu._count(cross_merges(1), 5) == 5
    assert nu._count(cross_merges(1), math.inf) == 12
