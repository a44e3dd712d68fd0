"""The boundary-complexity invariant: per-prefix values and ordering search.

For a replayed decomposition, ``e_mu`` is the largest total Betti number of
any single free-boundary component after mu handles, and the ordering value
is the maximum of the ``e_mu``.  The prefix mu = 0 participates exactly when
the base is non-empty: the initial collar already shows the base as free
boundary, and the concatenation argument in the union checker relies on
counting it.  Every value here is read off live-component dicts stepped by
each attachment's ``step`` in one :func:`trace.walk` over the handles; the
ordering search reads its value off that walk and counts orderings without
replaying them, in closed form on forest-shaped parts of the anchor poset and
by a walk over order ideals on the others.  No boundary state is built.

The true invariant of a manifold minimizes over all decompositions and then
maximizes over all bases; neither extreme is computable in general, so
results are reported as :class:`Bound` values whose lower side carries its
justification; the upper side is attained by the given order of the handles.
"""

from __future__ import annotations

import math
from typing import Mapping

from .homology import Descriptor, Record, json_int, palindromic
from .trace import (
    Declared,
    Dim3One,
    Dim3Three,
    Dim3Two,
    NonSeparating,
    OrderedHandleDecomposition,
    walk,
)


class NuEvaluation(Record):
    """Per-prefix values and their maximum for one fixed ordering."""

    __slots__ = _fields = ("e_values", "mu_start", "nu", "argmax_mu", "argmax_component")

    def __init__(
        self, e_values: tuple[int, ...], mu_start: int, nu: int, argmax_mu: int | None,
        argmax_component: str | None,
    ):
        considered = e_values[mu_start:]
        if considered and nu != max(considered):
            raise ValueError("nu must equal the maximum of the considered e values")
        super().__init__(e_values, mu_start, nu, argmax_mu, argmax_component)


def evaluate(
    d: OrderedHandleDecomposition,
) -> tuple[NuEvaluation, dict[str, Descriptor]]:
    """Evaluate one ordering in one walk over its handles; also return the
    final free boundary, by id.

    The walk keeps the live components and a count of them per total Betti
    number, so a prefix costs the components its handle consumed and made,
    not the whole state.  Ties break to the smallest prefix, then the
    smallest component id.  At the prefix where the running maximum first
    reaches ``nu`` every older component is smaller, so the argmax
    component is among those that prefix's handle made, which come in id
    order.
    """
    mu_start = 0 if d.base else 1
    counts: dict[int, int] = {}
    top = 0
    e_values: list[int] = []
    nu, argmax_mu, argmax_component = 0, None, None
    for mu, (gone, made, live) in enumerate(walk(d)):
        for desc in gone.values():
            total = desc.total
            if counts[total] > 1:
                counts[total] -= 1
            else:
                del counts[total]
                if total == top:
                    top = max(counts, default=0)
        for desc in made.values():
            total = desc.total
            counts[total] = counts.get(total, 0) + 1
            if total > top:
                top = total
        e_values.append(top)
        if mu >= mu_start and (argmax_mu is None or top > nu):
            nu, argmax_mu = top, mu
            argmax_component = next((c for c, desc in made.items() if desc.total == top), None)
    return NuEvaluation(tuple(e_values), mu_start, nu, argmax_mu, argmax_component), live


def nu_of_ordering(d: OrderedHandleDecomposition) -> NuEvaluation:
    """Evaluate one ordering; see :func:`evaluate`."""
    return evaluate(d)[0]


def _forces_positive_genus(d: OrderedHandleDecomposition) -> bool:
    # A 1-handle with both feet on one component always creates genus, and a
    # 2-handle only ever attaches to a positive-genus surface (a separating
    # curve on a sphere splits (0, 0) and forces nothing).  Either way some
    # state shows total Betti >= 4 in every admissible order of these handles.
    for h in d.handles:
        att = h.attachment
        if isinstance(att, Dim3One) and att.a == att.b:
            return True
        if isinstance(att, Dim3Two):
            if isinstance(att.curve, NonSeparating) or att.curve.g1 + att.curve.g2 >= 1:
                return True
    return False


def lower_bound_rules(
    d: OrderedHandleDecomposition, final: Mapping[str, Descriptor]
) -> tuple[int, tuple[str, ...]]:
    """Best provable floor for the invariant over the admissible orders of
    ``d``'s handles, and justification strings that say which kind of floor
    fired.

    ``final`` is the free boundary after every handle, from the walk that
    replayed ``d``: the rules read the handles without replaying them, so
    both callers walk the trace first.
    """
    # Declared records are order-pinned (see search_min_nu), so each
    # declared component appears in every admissible ordering.
    pinned = (h.attachment for h in d.handles if isinstance(h.attachment, Declared))
    declared = [desc for att in pinned for desc in att.components]
    declared_floor = max((desc.total for desc in declared), default=0)
    # Besides these and the base, the replay shows only spheres and
    # orientable surfaces (palindromic), made by every handle but a 3-handle
    # or an empty declared record.
    stated = (*d.base, *declared)
    visible = bool(stated) or any(
        not isinstance(h.attachment, (Declared, Dim3Three)) for h in d.handles
    )
    orientable = all(palindromic(desc) for desc in stated)
    closed = not d.base and not final

    floor, reasons = 0, []
    if closed and d.m >= 3 and visible and orientable:
        floor = 2
        reasons.append(
            "closed trace: some prefix shows a closed orientable boundary "
            "component, which has total Betti number at least 2"
        )
    if d.m == 3 and orientable and _forces_positive_genus(d):
        floor = 4
        reasons.append(
            "fixed handles force a positive-genus surface boundary in every "
            "admissible order"
        )
    if declared_floor > floor:
        floor = declared_floor
        reasons.append(
            "an order-pinned declared boundary component has total Betti "
            f"number {declared_floor}"
        )
    return floor, tuple(reasons)


def heegaard_upper(genus: int) -> int:
    """Upper certificate 2g + 2 from a splitting of the stated genus.

    Splitting a closed oriented 3-manifold along a genus-g surface gives a
    decomposition whose intermediate boundaries never exceed that surface,
    so the invariant is at most 2g + 2.  The genus itself is user-asserted.
    """
    if json_int(genus, "genus") < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    return 2 * genus + 2


class Bound(Record):
    """Certified range for the invariant.

    ``lower_reasons`` justify ``lower``; ``upper`` is the value of the
    searched trace in its given order, which is therefore the witness.
    """

    __slots__ = _fields = ("lower", "upper", "exhaustive", "enumerated", "lower_reasons")

    def __init__(
        self, lower: int, upper: int, exhaustive: bool, enumerated: int,
        lower_reasons: tuple[str, ...],
    ):
        if lower > upper:
            raise ValueError(f"inconsistent bound: lower {lower} exceeds upper {upper}")
        super().__init__(lower, upper, exhaustive, enumerated, lower_reasons)


# --- counting admissible orders (see search_min_nu) ------------------------


def _dependencies(d: OrderedHandleDecomposition) -> tuple[list[set[int]], list[int]]:
    """For each handle, by 0-based position, the earlier handles it anchors
    other than a ``Declared`` record (an anchor ``h:j`` or ``h:j/k`` names
    event ``j``); and the positions of those records, which cut the order."""
    deps, cuts = [], []
    for j, handle in enumerate(d.handles):
        att = handle.attachment
        if isinstance(att, Declared):
            cuts.append(j)
        ids = (getattr(att, field) for field in att.anchors)
        events = {int(a[2:].partition("/")[0]) - 1 for a in ids if a.startswith("h:")}
        # The last cut consumed the whole boundary, so only it can be anchored here.
        events.discard(cuts[-1] if cuts else -1)
        deps.append(events)
    return deps, cuts


def _product(factors: list[int]) -> int:
    """Product by balanced splitting, so that large factors meet large ones
    rather than one growing integer meeting each small factor in turn."""
    while len(factors) > 2:
        factors = [math.prod(factors[k : k + 2]) for k in range(0, len(factors), 2)]
    return math.prod(factors)


def _count_ideals(need: list[int], cap: float) -> int:
    """Orderings of one part, saturated at ``cap``, by a memoized walk over its
    order ideals: bit ``k`` places the part's ``k``-th handle, which needs the
    handles in mask ``need[k]``.  An ideal's count sums its children's."""
    full, counts = (1 << len(need)) - 1, {}

    def frame(ideal: int) -> list:
        # [ideal, admissible next ideals, orderings so far]
        free = (k for k in range(len(need)) if not (ideal >> k & 1 or need[k] & ~ideal))
        return [ideal, (ideal | 1 << k for k in free), int(ideal == full)]

    stack = [frame(0)]
    while True:
        top = stack[-1]
        ideal, pending, acc = top
        child = next(pending, None) if acc < cap else None
        if child is None:
            stack.pop()
            acc = counts[ideal] = min(acc, cap)
            if not stack:
                return acc
            stack[-1][2] += acc
        elif child in counts:
            top[2] += counts[child]
        else:
            stack.append(frame(child))


def _free_exceed(d: OrderedHandleDecomposition, cap: float) -> bool:
    """Whether the handles that anchor no earlier handle (0-handles, and those
    anchoring only base components) alone show more than ``cap`` orderings.
    The k of them in one segment between ``Declared`` records are minimal in
    it, so its handles have at least k! orderings: those k first in any
    order, then the rest in one admissible order."""
    bound, k = 1, 0  # the product of each segment's k!, so far
    for handle in d.handles:
        att = handle.attachment
        if type(att) is Declared:
            k = 0
        elif not any(getattr(att, field).startswith("h:") for field in att.anchors):
            k += 1
            bound *= k
            if bound > cap:
                return True
    return False


def _count(d: OrderedHandleDecomposition, cap: float) -> int:
    """Admissible orderings of ``d``'s handles; a count over ``cap`` may read as low as ``cap``."""
    if cap < math.inf and _free_exceed(d, cap):
        return cap
    deps, cuts = _dependencies(d)
    n = len(deps)
    # Union-find over the anchor edges; how many later handles anchor each
    # handle; down- and up-set sizes, exact on parts of the matching forest shape.
    parent, later, down, up = list(range(n)), [0] * n, [1] * n, [1] * n

    def root(j: int) -> int:
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    for j, earlier in enumerate(deps):
        for i in earlier:
            later[i] += 1
            down[j] += down[i]
            parent[root(i)] = j  # j is still a root: only later handles join it
    parts: dict[int, list[int]] = {}
    for j in range(n - 1, -1, -1):
        parts.setdefault(root(j), []).append(j)
        for i in deps[j]:
            up[i] += up[j]

    ends = [-1, *cuts, n]
    numerator = [math.factorial(b - a - 1) for a, b in zip(ends, ends[1:])]
    denominator = []
    for part in parts.values():
        if all(len(deps[j]) < 2 for j in part):
            denominator.extend(map(up.__getitem__, part))
        elif all(later[j] < 2 for j in part):
            denominator.extend(map(down.__getitem__, part))
        else:
            index = {j: k for k, j in enumerate(part)}
            need = [sum(1 << index[i] for i in deps[j]) for j in part]
            numerator.append(_count_ideals(need, cap))
            denominator.append(math.factorial(len(part)))
    num, den = _product(numerator), _product(denominator)
    # Hooks of 2 are common and long division is quadratic: shift the 2s out first.
    twos = (den & -den).bit_length() - 1
    return (num >> twos) // (den >> twos)


def _search(
    d: OrderedHandleDecomposition, budget: int | None = None
) -> tuple[Bound, dict[str, Descriptor]]:
    """:func:`search_min_nu`, and the final free boundary by id, from one walk."""
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be a positive number of orderings, got {budget}")
    # The walk comes first: a broken trace raises its ReplayError there, and a
    # walk that resolves anchor "h:i" at handle j has i < j, as _count assumes.
    evaluation, live = evaluate(d)
    total = _count(d, math.inf if budget is None else budget + 1)
    exhaustive = budget is None or total <= budget

    lower, reasons = lower_bound_rules(d, live)
    return Bound(lower, evaluation.nu, exhaustive, total if exhaustive else budget, reasons), live


def search_min_nu(d: OrderedHandleDecomposition, budget: int | None = None) -> Bound:
    """Minimize the ordering value over admissible orders of the fixed handles.

    Every admissible order has the same value, so one walk of the given
    order finds it.  In a trace that replays, each component id is
    consumed at most once and every attachment reads only the components it
    consumes (a ``Declared`` record, which consumes the whole boundary, is
    pinned between all earlier and all later handles), so each handle
    consumes and makes the same components in every admissible order.  A
    component is live right after the event that made it, and ``e_mu`` is
    the largest single component, so the value is the largest total Betti
    number of any component the handles make, or of the base when it is
    non-empty, whatever the order.  The witness is the given order, the
    lexicographically first admissible one, since a handle anchors only
    earlier handles.

    ``enumerated`` counts the admissible orderings covered, without
    replaying them.  The pinned ``Declared`` records cut the order into
    segments whose counts multiply.  A segment's connected parts interleave
    freely, so its n handles have n! orderings over the product of each
    part's size! / count.  On a forest that quotient is the product of the
    hook lengths (Knuth, TAOCP Vol. 3, 5.1.4, ex. 20): up-set sizes when
    each handle anchors at most one earlier handle of its part, down-set
    sizes when each is anchored by at most one later one.  Other parts keep
    a memoized walk over their order ideals: the count is #P-complete in
    general (Brightwell and Winkler, Order 8, 1991).  ``budget`` caps it, as
    the first ``budget`` orderings in depth-first lexicographic order, and
    ``exhaustive`` reports whether all of them fit.
    """
    return _search(d, budget)[0]
