"""The ordering count over global bit masks, kept as an oracle.

This is how ``nu._search`` counted admissible orderings before it cut the
order at ``Declared`` records and used hook lengths on forest-shaped parts:
pin each declared record between every earlier and every later handle, split
the dependency poset into connected parts by union-find, walk each part's
order-ideal lattice with masks over global positions, and combine the parts
by multinomial coefficients.  Every part costs a walk, so a wide part costs
2^k.  ``ideal_count`` must agree with ``nu._count`` whenever the count fits
under the cap, and both must land over the cap together.
"""

from __future__ import annotations

import math
from typing import Iterator

from handlenu.trace import Declared, HandleRecord, OrderedHandleDecomposition, id_sort_key


def anchors_of(record: HandleRecord) -> tuple[str, ...]:
    """The distinct component ids a handle's attachment names, in field order."""
    att = record.attachment
    return tuple(dict.fromkeys(getattr(att, f) for f in att.anchors))


def dependencies(d: OrderedHandleDecomposition) -> dict[int, set[int]]:
    """For each handle ``j`` (1-based), the handles it must follow: those it
    anchors and, around a ``Declared`` record, every handle on the other side."""
    deps: dict[int, set[int]] = {j: set() for j in range(1, d.delta + 1)}
    declared_at: list[int] = []
    for j, handle in enumerate(d.handles, start=1):
        for anchor in anchors_of(handle):
            if anchor.startswith("h:"):
                deps[j].add(id_sort_key(anchor)[1])
        if isinstance(handle.attachment, Declared):
            declared_at.append(j)
    # A declared record asserts the whole boundary after it, so it cannot move
    # relative to anything: pin it between all earlier and all later handles.
    for p in declared_at:
        deps[p].update(range(1, p))
        for k in range(p + 1, d.delta + 1):
            deps[k].add(p)
    return deps


def parts(deps: dict[int, set[int]]) -> list[int]:
    """Bit masks (bit ``j - 1`` for handle ``j``) of the connected parts of the
    dependency poset, found by union-find over its edges."""
    parent = {j: j for j in deps}

    def root(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for j, earlier in deps.items():
        for i in earlier:
            parent[root(i)] = root(j)
    masks: dict[int, int] = {}
    for j in deps:
        r = root(j)
        masks[r] = masks.get(r, 0) | 1 << (j - 1)
    return list(masks.values())


def count_orderings(need: list[int], mask: int, cap: int | None) -> int:
    """Admissible orderings of the handles in ``mask``, saturated at ``cap``.

    A memoized walk over the lattice of order ideals inside ``mask``: an
    ideal is an int bitmask of placed original positions, and ``need[j]``
    is the mask of the handles that handle ``j + 1`` anchors.  The orderings
    that complete an ideal are the sum, over its admissible next handles, of
    those that complete the ideal with that handle added; the full ideal has
    one.  Each ideal is counted once however many orderings reach it.
    """
    counts: dict[int, int] = {}

    def children(ideal: int) -> Iterator[int]:
        free = ~ideal & mask
        while free:
            low = free & -free
            if not need[low.bit_length() - 1] & ~ideal:
                yield ideal | low
            free ^= low

    def frame(ideal: int) -> list:
        # [ideal, admissible next ideals, orderings so far]
        return [ideal, children(ideal), int(ideal == mask)]

    stack = [frame(0)]
    while True:
        top = stack[-1]
        ideal, pending, acc = top
        child = next(pending, None) if cap is None or acc < cap else None
        if child is None:
            stack.pop()
            acc = acc if cap is None else min(acc, cap)
            if not stack:
                return acc
            counts[ideal] = acc
            stack[-1][2] += acc
        elif child in counts:
            top[2] += counts[child]
        else:
            stack.append(frame(child))


def ideal_count(d: OrderedHandleDecomposition, cap: int | None = None) -> int:
    """Admissible orderings of ``d``'s handles; with a ``cap``, each part's
    count saturates there, so a total over ``cap`` is only known to be over it."""
    deps = dependencies(d)
    need = [sum(1 << (i - 1) for i in deps[j]) for j in range(1, d.delta + 1)]
    # The parts' orders interleave freely: the multinomial coefficient of
    # their sizes times each part's own count.
    total, placed = 1, 0
    for mask in parts(deps):
        size = mask.bit_count()
        placed += size
        total *= math.comb(placed, size) * count_orderings(need, mask, cap)
    return total
