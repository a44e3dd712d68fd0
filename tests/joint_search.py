"""The order-ideal search over the whole dependency poset, kept as an oracle.

This is the search ``search_min_nu`` ran before it read its value off one
walk of the given order and counted each connected part of the poset on its
own: one memoized walk over the joint lattice, stepping every new ideal with
its attachment's ``step``, minimizing the largest ``e_mu`` over completions,
and seeding the prefix ideals of the given order from ``replay``.
``joint_search`` must return the same ``Bound`` as ``search_min_nu`` under
every budget, and its lexicographically first best ordering must be the
given one, ``1..delta``.
"""

from __future__ import annotations

import math
from typing import Iterator

from handlenu.homology import Descriptor
from handlenu.nu import Bound, lower_bound_rules
from handlenu.trace import OrderedHandleDecomposition, replay
from ideal_count import dependencies

Live = dict[str, Descriptor]


def _largest(live: Live) -> int:
    """Largest total Betti number over the live components; 0 when empty."""
    return max((desc.total for desc in live.values()), default=0)


class JointIdealSearch:
    """Memoized walk over the lattice of order ideals of the whole dependency poset.

    An ideal is an int bitmask of placed original positions (bit ``j - 1``
    for handle ``j``).  In a valid trace every component id is consumed at
    most once and every move is local, so the free boundary after placing an
    ideal depends only on the ideal, not on the order its handles went in.
    That boundary is a dict from component id to descriptor: a child's is a
    copy of its parent's, stepped by the attachment's ``step`` under the
    handle's original label, which is what anchors name, and an ideal's
    ``e`` is the largest total Betti number among its descriptors.  Walks
    keep only the dicts of the ideals on their stack,
    plus the :func:`replay` snapshots in ``known``, which seed the prefixes
    of the given order.
    """

    def __init__(self, d: OrderedHandleDecomposition, known: dict[int, Live], cap: int | None):
        deps = dependencies(d)
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
        consumed, made = self.d.handles[j].attachment.step(live, f"h:{j + 1}")
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


def joint_search(d: OrderedHandleDecomposition, budget: int | None = None) -> Bound:
    """Minimize the ordering value over admissible orders of the fixed handles.

    The search runs over order ideals of the anchor-dependency poset (see
    :class:`JointIdealSearch`), so each set of placed handles is evaluated once
    however many orderings reach it.  ``enumerated`` counts the admissible
    orderings covered, without replaying them; ``budget`` caps that count,
    taking orderings in depth-first lexicographic order, and ``exhaustive``
    reports whether all of them fit.  The lexicographically first covered
    ordering attaining the upper value must be the given order.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be a positive number of orderings, got {budget}")
    # One replay seeds the prefix ideals {1..k}, and raises the trace's own
    # ReplayError before any search work.
    known = {(1 << k) - 1: live for k, live in enumerate(replay(d))}

    search = JointIdealSearch(d, known, cap=None if budget is None else budget + 1)
    total = search.count(0)
    if budget is None or total <= budget:
        # The empty ideal's e_mu is 0 without a base, so it counts exactly
        # when the base is non-empty, as in nu_of_ordering.
        best, path, root = search.value(0, known[0]), [], 0
        enumerated, exhaustive = total, True
    else:
        best, path, root = search.budgeted(known[0], budget)
        enumerated, exhaustive = budget, False
    assert search.witness(path, root, best) == tuple(range(1, d.delta + 1))

    lower, reasons = lower_bound_rules(d, known[search.full])
    return Bound(
        lower=lower,
        upper=best,
        exhaustive=exhaustive,
        enumerated=enumerated,
        lower_reasons=reasons,
    )
