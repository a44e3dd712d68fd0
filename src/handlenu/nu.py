"""The boundary-complexity invariant: per-prefix values and ordering search.

For a replayed decomposition, ``e_mu`` is the largest total Betti number of
any single free-boundary component after mu handles, and the ordering value
is the maximum of the ``e_mu``.  The prefix mu = 0 participates exactly when
the base is non-empty: the initial collar already shows the base as free
boundary, and the concatenation argument in the union checker relies on
counting it.  Every value here is read off live-component dicts stepped by
:func:`trace.attachment_step`; no boundary state is built.

The true invariant of a manifold minimizes over all decompositions and then
maximizes over all bases; neither extreme is computable in general, so
results are reported as :class:`Bound` values whose lower side carries its
justification and whose upper side carries a replayable witness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math
from typing import Iterator, Sequence

from .homology import Descriptor, json_int, palindromic
from .trace import (
    Declared,
    Dim3One,
    Dim3Three,
    Dim3Two,
    NonSeparating,
    OrderedHandleDecomposition,
    TraceError,
    anchors_of,
    attachment_step,
    id_sort_key,
    reorder,
    replay,
    walk,
)


@dataclass(frozen=True)
class NuEvaluation:
    """Per-prefix values and their maximum for one fixed ordering."""

    e_values: tuple[int, ...]
    mu_start: int
    nu: int
    argmax_mu: int | None
    argmax_component: str | None

    def __post_init__(self):
        considered = self.e_values[self.mu_start:]
        if considered and self.nu != max(considered):
            raise ValueError("nu must equal the maximum of the considered e values")


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


@dataclass(frozen=True)
class LowerBound:
    value: int
    reasons: tuple[str, ...]


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
    m: int,
    *,
    closed: bool = False,
    oriented: bool = True,
    trace: OrderedHandleDecomposition | None = None,
    raw_floor: int = 0,
) -> LowerBound:
    """Best provable floor for the invariant in the given context.

    With a trace supplied, the trace-derived rules apply to reorderings of
    that fixed handle multiset; the justification strings say which kind of
    floor fired.  The rules read the handles without replaying them, so the
    trace must replay; both callers validate or walk it first.  Without a
    trace the caller vouches for the flags.
    """
    raw_floor = json_int(raw_floor, "raw_floor")
    floor = max(0, raw_floor)
    reasons: list[str] = []
    if raw_floor > 0:
        reasons.append(f"caller-supplied floor {raw_floor}")

    visible = True
    orientable_ok = oriented
    evenness_ok = oriented and m == 3
    declared_floor = 0
    if trace is not None:
        # Declared records are order-pinned (see iter_linear_extensions), so
        # each declared component appears in every enumerated ordering.
        pinned = (h.attachment for h in trace.handles if isinstance(h.attachment, Declared))
        declared = [desc for att in pinned for desc in att.components]
        declared_floor = max((desc.total for desc in declared), default=0)
        # Besides these and the base, the replay shows only spheres and
        # orientable surfaces (palindromic, even total), made by every handle
        # but a 3-handle or an empty declared record.
        stated = (*trace.base, *declared)
        visible = bool(stated) or any(
            not isinstance(h.attachment, (Declared, Dim3Three)) for h in trace.handles
        )
        orientable_ok = oriented and all(palindromic(desc) for desc in stated)
        evenness_ok = orientable_ok and m == 3 and all(desc.total % 2 == 0 for desc in stated)

    if closed and m >= 3 and visible and orientable_ok:
        if floor < 2:
            floor = 2
            reasons.append(
                "closed trace: some prefix shows a closed orientable boundary "
                "component, which has total Betti number at least 2"
            )
    if trace is not None and m == 3 and orientable_ok and _forces_positive_genus(trace):
        if floor < 4:
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
    if m == 3 and evenness_ok and floor % 2 == 1:
        floor += 1
        reasons.append(
            "orientable surface boundaries have even total Betti number; "
            "floor rounded up"
        )
    return LowerBound(floor, tuple(reasons))


def heegaard_upper(genus: int) -> int:
    """Upper certificate 2g + 2 from a splitting of the stated genus.

    Splitting a closed oriented 3-manifold along a genus-g surface gives a
    decomposition whose intermediate boundaries never exceed that surface,
    so the invariant is at most 2g + 2.  The genus itself is user-asserted.
    """
    if json_int(genus, "genus") < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    return 2 * genus + 2


# --- enumeration of admissible orders ---------------------------------------


def _dependencies(d: OrderedHandleDecomposition) -> dict[int, set[int]]:
    deps: dict[int, set[int]] = {j: set() for j in range(1, d.delta + 1)}
    declared_at: list[int] = []
    for j, handle in enumerate(d.handles, start=1):
        for anchor in anchors_of(handle):
            if anchor.startswith("h:"):
                _, i, _ = id_sort_key(anchor)
                if not 1 <= i < j:
                    raise TraceError(
                        f"handle {j} anchors {anchor!r}, which is not an earlier handle"
                    )
                deps[j].add(i)
        if isinstance(handle.attachment, Declared):
            declared_at.append(j)
    # A declared record asserts the whole boundary after it, so it cannot move
    # relative to anything: pin it between all earlier and all later handles.
    for p in declared_at:
        deps[p].update(range(1, p))
        for k in range(p + 1, d.delta + 1):
            deps[k].add(p)
    return deps


def iter_linear_extensions(d: OrderedHandleDecomposition) -> Iterator[tuple[int, ...]]:
    """All admissible orders of the handles, depth-first, lexicographically
    smallest original positions first.  Deterministic."""
    deps = _dependencies(d)
    delta = d.delta
    placed: list[int] = []
    placed_set: set[int] = set()

    def extend() -> Iterator[tuple[int, ...]]:
        if len(placed) == delta:
            yield tuple(placed)
            return
        for j in range(1, delta + 1):
            if j not in placed_set and deps[j] <= placed_set:
                placed.append(j)
                placed_set.add(j)
                yield from extend()
                placed.pop()
                placed_set.remove(j)

    return extend()


@dataclass(frozen=True)
class Bound:
    """Certified range for the invariant, with provenance on both sides."""

    lower: int
    upper: int
    exhaustive: bool
    enumerated: int
    lower_reasons: tuple[str, ...] = ()
    witness: OrderedHandleDecomposition | None = None
    witness_order: tuple[int, ...] | None = None
    witness_note: str = ""

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"inconsistent bound: lower {self.lower} exceeds upper {self.upper}")


Live = dict[str, Descriptor]


def _largest(live: Live) -> int:
    """Largest total Betti number over the live components; 0 when empty."""
    return max((desc.total for desc in live.values()), default=0)


class _IdealSearch:
    """Memoized walk over the lattice of order ideals of the dependency poset.

    An ideal is an int bitmask of placed original positions (bit ``j - 1``
    for handle ``j``).  In a valid trace every component id is consumed at
    most once and every move is local, so the free boundary after placing an
    ideal depends only on the ideal, not on the order its handles went in.
    That boundary is a dict from component id to descriptor: a child's is a
    copy of its parent's, stepped by :func:`attachment_step` under the
    handle's original label, which is what anchors name, and an ideal's
    ``e`` is the largest total Betti number among its descriptors.  Walks
    keep only the dicts of the ideals on their stack,
    plus the :func:`replay` snapshots in ``known``, which seed the prefixes
    of the given order.
    """

    def __init__(self, d: OrderedHandleDecomposition, known: dict[int, Live], cap: int | None):
        deps = _dependencies(d)
        self.d = d
        self.need = [sum(1 << (i - 1) for i in deps[j]) for j in range(1, d.delta + 1)]
        self.full = (1 << d.delta) - 1
        self.cap = cap
        self.known = known
        self.counts: dict[int, int] = {}
        self.values: dict[int, int] = {}

    def children(self, ideal: int) -> Iterator[int]:
        """Admissible next positions (0-based), smallest first."""
        free = ~ideal & self.full
        while free:
            low = free & -free
            j = low.bit_length() - 1
            if not self.need[j] & ~ideal:
                yield j
            free ^= low

    def child_live(self, live: Live, ideal: int, j: int) -> Live:
        known = self.known.get(ideal | 1 << j)
        if known is not None:
            return known
        consumed, made = attachment_step(
            self.d.handles[j].attachment, live, label=f"h:{j + 1}", m=self.d.m
        )
        live = dict(live)
        for comp_id in consumed:
            del live[comp_id]
        live.update(made)
        return live

    def count(self, root: int) -> int:
        """Admissible orderings of the handles outside ``root``, saturated at ``cap``."""
        counts, cap = self.counts, self.cap
        # Frames: [ideal, children, orderings so far]; the full ideal has one.
        stack = [[root, self.children(root), int(root == self.full)]]
        while root not in counts:
            frame = stack[-1]
            ideal, children, acc = frame
            j = next(children, None) if cap is None or acc < cap else None
            if j is None:
                stack.pop()
                counts[ideal] = acc if cap is None else min(acc, cap)
                if stack:
                    stack[-1][2] += counts[ideal]
                continue
            child = ideal | 1 << j
            if child in counts:
                frame[2] += counts[child]
            else:
                stack.append([child, self.children(child), int(child == self.full)])
        return counts[root]

    def value(self, root: int, live: Live) -> int:
        """max(e(root), rest(root)): the smallest largest ``e_mu`` over all
        completions of ``root``, counting ``root`` itself."""
        values = self.values

        def frame(ideal: int, live: Live) -> list:
            # [ideal, live, children, e, rest]; nothing follows the full ideal.
            rest = 0 if ideal == self.full else math.inf
            return [ideal, live, self.children(ideal), _largest(live), rest]

        stack = [frame(root, live)]
        while root not in values:
            top = stack[-1]
            ideal, live, children, e, rest = top
            j = next(children, None)
            if j is None:
                stack.pop()
                values[ideal] = max(e, rest)
                if stack:
                    stack[-1][4] = min(stack[-1][4], values[ideal])
                continue
            child = ideal | 1 << j
            if child in values:
                top[4] = min(rest, values[child])
            else:
                stack.append(frame(child, self.child_live(live, ideal, j)))
        return values[root]

    def budgeted(self, live: Live, budget: int) -> tuple[int, list[int], int]:
        """Best value over the first ``budget`` orderings in depth-first
        lexicographic order, the path to the subtree that first attains it,
        and that subtree's root ideal.

        Children whose orderings all fit in the remaining budget are taken
        whole through :meth:`value`; the first child that does not fit is
        entered, and holds the rest of the budget.
        """
        ideal, path, running = 0, [], _largest(live)
        best: tuple[int, list[int], int] | None = None
        remaining = budget
        while remaining:
            for j in self.children(ideal):
                child = ideal | 1 << j
                child_live = self.child_live(live, ideal, j)
                covered = self.count(child)
                if covered > remaining:
                    ideal, live = child, child_live
                    path.append(j)
                    running = max(running, _largest(child_live))
                    break
                candidate = max(running, self.value(child, child_live))
                if best is None or candidate < best[0]:
                    best = (candidate, path + [j], child)
                remaining -= covered
                if not remaining:
                    break
        if best is None:
            raise RuntimeError("no admissible ordering covered")
        return best

    def witness(self, path: list[int], root: int, target: int) -> tuple[int, ...]:
        """The lexicographically first ordering through ``path`` and ``root``
        whose value stays within ``target``; needs :meth:`value` of ``root``."""
        order = [j + 1 for j in path]
        ideal = root
        while ideal != self.full:
            j = next(j for j in self.children(ideal) if self.values[ideal | 1 << j] <= target)
            order.append(j + 1)
            ideal |= 1 << j
        return tuple(order)


def search_min_nu(d: OrderedHandleDecomposition, budget: int | None = None) -> Bound:
    """Minimize the ordering value over admissible orders of the fixed handles.

    The search runs over order ideals of the anchor-dependency poset (see
    :class:`_IdealSearch`), so each set of placed handles is evaluated once
    however many orderings reach it.  ``enumerated`` counts the admissible
    orderings covered, without replaying them; ``budget`` caps that count,
    taking orderings in depth-first lexicographic order, and ``exhaustive``
    reports whether all of them fit.  The witness is the lexicographically
    first covered ordering attaining the upper value, as a replayable
    decomposition.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be a positive number of orderings, got {budget}")
    # One replay seeds the prefix ideals {1..k}, and raises the trace's own
    # ReplayError before any search work.
    known = {(1 << k) - 1: live for k, live in enumerate(replay(d))}

    search = _IdealSearch(d, known, cap=None if budget is None else budget + 1)
    total = search.count(0)
    if budget is None or total <= budget:
        # The empty ideal's e_mu is 0 without a base, so it counts exactly
        # when the base is non-empty, as in nu_of_ordering.
        best, path, root = search.value(0, known[0]), [], 0
        enumerated, exhaustive = total, True
    else:
        best, path, root = search.budgeted(known[0], budget)
        enumerated, exhaustive = budget, False
    best_order = search.witness(path, root, best)

    closed = not d.base and not known[search.full]
    lb = lower_bound_rules(d.m, closed=closed, trace=d)
    return Bound(
        lower=lb.value,
        upper=best,
        exhaustive=exhaustive,
        enumerated=enumerated,
        lower_reasons=lb.reasons,
        witness=reorder(d, best_order) if best_order else d,
        witness_order=best_order,
    )


# --- per-base bookkeeping ----------------------------------------------------


@dataclass(frozen=True)
class NuBoundsReport:
    """Bounds per candidate base plus the max-over-bases summary.

    The summary upper is only populated when the caller asserts the base
    list is complete; maximizing over a partial list certifies nothing.
    """

    per_base: tuple[tuple[str, Bound], ...]
    summary_lower: int
    summary_lower_reasons: tuple[str, ...]
    summary_upper: int | None
    bases_complete: bool

    def bound_for(self, label: str) -> Bound:
        for name, bound in self.per_base:
            if name == label:
                return bound
        raise KeyError(label)


def nu_bounds(
    presentations: Sequence[tuple[str, OrderedHandleDecomposition]],
    *,
    heegaard_genus: int | None = None,
    bases_complete: bool = False,
    budget: int | None = None,
) -> NuBoundsReport:
    """Run the ordering search per base and combine into a manifold summary.

    Repeated base labels merge (best upper, best lower); passing several
    presentations under one label asserts they present the same pair.
    """
    if not presentations:
        raise ValueError("need at least one (base label, decomposition) pair")
    combined: dict[str, Bound] = {}
    for label, d in presentations:
        bound = search_min_nu(d, budget=budget)
        if heegaard_genus is not None and d.m == 3:
            cap = heegaard_upper(heegaard_genus)
            if cap < bound.upper:
                bound = replace(
                    bound,
                    upper=cap,
                    exhaustive=False,
                    witness=None,
                    witness_order=None,
                    witness_note=f"splitting-genus certificate 2*{heegaard_genus}+2",
                )
        prev = combined.get(label)
        if prev is not None:
            # The better upper side keeps its witness; the lower sides combine.
            kept = prev if prev.upper <= bound.upper else bound
            bound = replace(
                kept,
                lower=max(prev.lower, bound.lower),
                enumerated=prev.enumerated + bound.enumerated,
                lower_reasons=tuple(dict.fromkeys(prev.lower_reasons + bound.lower_reasons)),
            )
        combined[label] = bound

    per_base = tuple(combined.items())
    lower_label, lower_bound_entry = max(per_base, key=lambda kv: kv[1].lower)
    summary_lower = lower_bound_entry.lower
    reasons = tuple(
        f"base {lower_label}: {reason}" for reason in lower_bound_entry.lower_reasons
    )
    summary_upper = max(b.upper for _, b in per_base) if bases_complete else None
    return NuBoundsReport(per_base, summary_lower, reasons, summary_upper, bases_complete)

