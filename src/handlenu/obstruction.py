"""Piece-counting obstructions for boundary-union decompositions.

Pure integer arithmetic on the bookkeeping of a decomposition into pieces:
w pieces, rho glued interface pairs, z free boundary components.  The rank
inequalities come from the connectivity tail of a Mayer-Vietoris sequence
(Q^l -> Q^rho -> Q^w -> Q -> 0 for a connected total space) and combine
into a ceiling on the number of pieces; together with a per-piece handle
budget this refutes families whose minimal handle counts grow without
bound while l and z stay fixed.

Every piece is required to have at least three boundary components; the
interface floor below is exactly what that hypothesis buys.
"""

from __future__ import annotations

from .homology import Record, json_int


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class DecompositionGraph(Record):
    """Pieces, glued interfaces, and free boundary counts of a decomposition.

    ``interfaces`` lists edges (piece i, piece j, number of glued boundary
    pairs) with i != j.  The identity 2*rho + z = sum of boundary counts is
    enforced at construction.
    """

    __slots__ = _fields = ("boundary_counts", "interfaces", "z", "handle_costs")

    def __init__(
        self, boundary_counts: tuple[int, ...], interfaces: tuple[tuple[int, int, int], ...],
        z: int, handle_costs: tuple[int, ...] | None = None,
    ):
        counts = tuple(json_int(c, "boundary_counts") for c in boundary_counts)
        edges = tuple(
            (json_int(i, "i"), json_int(j, "j"), json_int(n, "count"))
            for i, j, n in interfaces
        )
        z = json_int(z, "z")
        if handle_costs is not None:  # every field's type before any value
            handle_costs = tuple(json_int(c, "handle_costs") for c in handle_costs)
        w = len(counts)
        if w < 1:
            raise ValueError("need at least one piece")
        if any(c < 0 for c in counts):
            raise ValueError(f"boundary counts must be non-negative: {counts}")
        glued = [0] * w
        for i, j, count in edges:
            if not (0 <= i < w and 0 <= j < w):
                raise ValueError(f"interface ({i}, {j}) references a missing piece")
            if i == j:
                raise ValueError(f"piece {i} cannot be glued to itself")
            if count < 1:
                raise ValueError(f"interface ({i}, {j}) needs a positive count, got {count}")
            glued[i] += count
            glued[j] += count
        for i, (total, used) in enumerate(zip(counts, glued)):
            if used > total:
                raise ValueError(
                    f"piece {i} glues {used} boundary components but only has {total}"
                )
        rho = sum(count for _, _, count in edges)
        if z != sum(counts) - 2 * rho:
            raise ValueError(
                f"free boundary count {z} breaks 2*rho + z = total boundary "
                f"({2 * rho} + {z} != {sum(counts)})"
            )
        if handle_costs is not None:
            if len(handle_costs) != w:
                raise ValueError(f"need {w} handle costs, got {len(handle_costs)}")
            if any(c < 0 for c in handle_costs):
                raise ValueError(f"handle costs must be non-negative: {handle_costs}")
        super().__init__(counts, edges, z, handle_costs)

    @property
    def w(self) -> int:
        return len(self.boundary_counts)

    @property
    def rho(self) -> int:
        return sum(count for _, _, count in self.interfaces)


class InterfaceBound(Record):
    __slots__ = _fields = ("rho", "floor", "holds")


def interface_lower_bound(g: DecompositionGraph) -> InterfaceBound:
    """rho >= ceil((3w - z) / 2); requires every piece to have >= 3 boundaries."""
    bad = [i for i, c in enumerate(g.boundary_counts) if c < 3]
    if bad:
        raise ValueError(
            f"pieces {bad} have fewer than three boundary components; "
            "the counting argument assumes at least three"
        )
    floor = _ceil_div(3 * g.w - g.z, 2)
    return InterfaceBound(g.rho, floor, g.rho >= floor)


def betti1_floor(g: DecompositionGraph) -> int:
    """Lower bound on the first rational Betti number of the glued total space."""
    return max(g.rho - g.w + 1, _ceil_div(g.w - g.z + 2, 2), 0)


def pieces_ceiling(l: int, z: int) -> int:
    """Most pieces any qualifying decomposition can have: 2l + z - 2.

    A negative value means no decomposition satisfying the three-boundary
    hypothesis exists at all.
    """
    if json_int(l, "l") < 0 or json_int(z, "z") < 0:
        raise ValueError(f"l and z must be non-negative, got ({l}, {z})")
    return 2 * l + z - 2


class HandleBudget(Record):
    """Fixed data of a refutation instance: piece budget h_max, rank l, free z."""

    __slots__ = _fields = ("h_max", "l", "z")

    def __init__(self, h_max: int, l: int, z: int):
        if any(json_int(v, f) < 0 for v, f in ((h_max, "h_max"), (l, "l"), (z, "z"))):
            raise ValueError(f"budget fields must be non-negative: h_max={h_max}, l={l}, z={z}")
        super().__init__(h_max, l, z)


class RefutationVerdict(Record):
    __slots__ = _fields = ("decomposable_possible", "max_pieces", "max_handles")


def refute(budget: HandleBudget, h_w: int) -> RefutationVerdict:
    """Compare a target's minimal handle count against the fixed ceiling.

    The piece ceiling 2l + z - 2 is constant in the target, so any family
    with fixed l and z but unbounded minimal handle counts is eventually
    refuted.  Below one piece no decomposition exists, and the handle budget is 0.
    """
    if json_int(h_w, "h_w") < 0:
        raise ValueError(f"target handle count must be non-negative, got {h_w}")
    max_pieces = pieces_ceiling(budget.l, budget.z)
    max_handles = max(max_pieces, 0) * budget.h_max
    possible = max_pieces >= 1 and h_w <= max_handles
    return RefutationVerdict(possible, max_pieces, max_handles)


def graph_from_json(data) -> DecompositionGraph:
    """Read a decomposition-graph document; every number must be a JSON integer,
    which :class:`DecompositionGraph` checks.  An absent ``handle_costs`` is
    ``None``; a null one is refused like any other non-array."""
    try:
        return DecompositionGraph(
            data["boundary_counts"],
            tuple((e["i"], e["j"], e["count"]) for e in data["interfaces"]),
            data["z"],
            tuple(data["handle_costs"]) if "handle_costs" in data else None,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed decomposition-graph document: {exc}") from exc
