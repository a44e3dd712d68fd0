"""Seeded random generators shared by the property-test harnesses.

Traces are built by mirroring the surface calculus move for move, so every
generated decomposition replays by construction.  All randomness flows
through an explicit ``random.Random`` so failures reproduce exactly.
The oracles that enumerate orderings, :func:`reorder` and
:func:`iter_linear_extensions`, live here too, as does :func:`count_steps`,
which counts the attachment steps a test's code takes.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from handlenu.homology import (
    ConnectedSum,
    Descriptor,
    Explicit,
    HomologyVector,
    Product,
    Sphere,
    Surface,
)
import handlenu.trace as trace_mod
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
    TraceError,
    id_sort_key,
    map_anchors,
    rename_anchor,
    replay,
)
from handlenu.union import GlueSpec
from ideal_count import dependencies


def count_steps(monkeypatch, when=lambda: True) -> list[str]:
    """The labels of the attachment steps taken from now on while ``when()``
    holds, in order, counted at each kind's ``step``, which a walk calls."""
    calls: list[str] = []
    for kind in trace_mod._KINDS:
        def counting(att, live, label, step=kind.step):
            if when():
                calls.append(label)
            return step(att, live, label)

        monkeypatch.setattr(kind, "step", counting)
    return calls


def states(d: OrderedHandleDecomposition) -> list[tuple[tuple[str, Descriptor], ...]]:
    """Each prefix's free-boundary (id, descriptor) pairs, sorted into id order, from
    ``replay``: the oracles compare against this, so it does not rely on the walk's order."""
    return [tuple(sorted(live.items(), key=lambda kv: id_sort_key(kv[0]))) for live in replay(d)]


def descriptors(comps: tuple[tuple[str, Descriptor], ...]) -> tuple[Descriptor, ...]:
    return tuple(desc for _, desc in comps)


def random_surface(rng: random.Random, max_genus: int = 3) -> Descriptor:
    g = rng.randint(0, max_genus)
    return Surface(g) if g else Sphere(2)


def _genus(desc: Descriptor) -> int:
    return desc.genus if isinstance(desc, Surface) else 0


def _random_handles(rng, comps: dict[str, int], count: int, start: int, declared: float = 0.0):
    """Append up to ``count`` random legal moves; ``comps`` maps id -> genus.

    With ``declared`` > 0, each move is, with that probability, a ``Declared``
    record restating the whole boundary as 0-2 random surfaces.
    """
    handles = []
    for offset in range(count):
        j = start + offset
        label = f"h:{j}"
        if declared and rng.random() < declared:
            surfaces = [random_surface(rng) for _ in range(rng.randint(0, 2))]
            handles.append(HandleRecord(rng.randint(0, 3), Declared(tuple(surfaces))))
            comps.clear()
            comps.update({f"{label}/{i}": _genus(desc) for i, desc in enumerate(surfaces)})
            continue
        ids = sorted(comps)
        moves = ["zero"]
        if ids:
            moves += ["one_same", "one_same", "two_sep"]
            if len(ids) >= 2:
                moves.append("one_merge")
            if any(comps[i] >= 1 for i in ids):
                moves += ["two_nonsep", "two_nonsep"]
            if any(comps[i] == 0 for i in ids):
                moves.append("three")
        move = rng.choice(moves)
        if move == "zero":
            handles.append(HandleRecord(0, Dim3Zero()))
            comps[label] = 0
        elif move == "one_same":
            a = rng.choice(ids)
            handles.append(HandleRecord(1, Dim3One(a, a)))
            comps[label] = comps.pop(a) + 1
        elif move == "one_merge":
            a, b = rng.sample(ids, 2)
            handles.append(HandleRecord(1, Dim3One(a, b)))
            comps[label] = comps.pop(a) + comps.pop(b)
        elif move == "two_nonsep":
            a = rng.choice([i for i in ids if comps[i] >= 1])
            handles.append(HandleRecord(2, Dim3Two(a, NonSeparating())))
            comps[label] = comps.pop(a) - 1
        elif move == "two_sep":
            a = rng.choice(ids)
            g = comps.pop(a)
            g1 = rng.randint(0, g)
            handles.append(HandleRecord(2, Dim3Two(a, Separating(g1, g - g1))))
            comps[f"{label}/0"] = g1
            comps[f"{label}/1"] = g - g1
        else:
            a = rng.choice([i for i in ids if comps[i] == 0])
            handles.append(HandleRecord(3, Dim3Three(a)))
            del comps[a]
    return handles


def random_trace(
    rng: random.Random,
    max_handles: int = 6,
    allow_base: bool = True,
    ensure_boundary: bool = False,
    declared: float = 0.0,
) -> OrderedHandleDecomposition:
    while True:
        base: tuple[Descriptor, ...] = ()
        if allow_base and rng.random() < 0.4:
            base = tuple(random_surface(rng) for _ in range(rng.randint(1, 2)))
        comps = {f"base:{i}": _genus(desc) for i, desc in enumerate(base)}
        low = 0 if base else 1
        count = rng.randint(low, max_handles)
        handles = _random_handles(rng, comps, count, start=1, declared=declared)
        if base and not handles and ensure_boundary:
            pass  # a bare collar still has boundary; fall through
        if comps or not ensure_boundary:
            return OrderedHandleDecomposition(3, base, tuple(handles))


def reorder(d: OrderedHandleDecomposition, order: Sequence[int]) -> OrderedHandleDecomposition:
    """Permute handles; ``order[i]`` is the original 1-based position placed i-th.

    Anchors are rewritten to the new positional labels, so the result is a
    self-contained decomposition.  The caller is responsible for picking an
    order whose replay succeeds (any linear extension of the anchor
    dependencies does).
    """
    if sorted(order) != list(range(1, d.delta + 1)):
        raise TraceError(f"order must be a permutation of 1..{d.delta}, got {list(order)}")
    relabel = {f"h:{orig}": f"h:{new}" for new, orig in enumerate(order, start=1)}
    handles = tuple(
        HandleRecord(h.index, map_anchors(h.attachment, lambda a: rename_anchor(a, relabel) or a))
        for h in (d.handles[orig - 1] for orig in order)
    )
    return OrderedHandleDecomposition(d.m, d.base, handles)


def iter_linear_extensions(d: OrderedHandleDecomposition) -> Iterator[tuple[int, ...]]:
    """All admissible orders of the handles, depth-first, lexicographically
    smallest original positions first.  Deterministic."""
    deps = dependencies(d)
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


def random_admissible_order(rng: random.Random, d: OrderedHandleDecomposition) -> list[int]:
    """A random linear extension of the anchor dependencies of ``d``."""
    deps = dependencies(d)
    order: list[int] = []
    placed: set[int] = set()
    while len(order) < d.delta:
        j = rng.choice([j for j in deps if j not in placed and deps[j] <= placed])
        order.append(j)
        placed.add(j)
    return order


def multi_part_trace(
    rng: random.Random, groups: int = 2, max_handles: int = 6, declared: float = 0.0
) -> OrderedHandleDecomposition:
    """Handles of ``groups`` independent groups, each moving only its own
    components (base components go to random groups), put in a random
    admissible order.  Only the last group draws ``Declared`` records (see
    :func:`_random_handles`): one consumes every group's components, so it
    joins the dependency poset into one part."""
    base = tuple(random_surface(rng) for _ in range(rng.randint(0, 2)))
    owned: list[dict[str, int]] = [{} for _ in range(groups)]
    for i, desc in enumerate(base):
        owned[rng.randrange(groups)][f"base:{i}"] = _genus(desc)
    handles: list[HandleRecord] = []
    for g, comps in enumerate(owned):
        count = rng.randint(1, max(1, max_handles // groups))
        chance = declared if g == groups - 1 else 0.0
        handles += _random_handles(rng, comps, count, start=len(handles) + 1, declared=chance)
    d = OrderedHandleDecomposition(3, base, tuple(handles))
    return reorder(d, random_admissible_order(rng, d))


def random_composable_pair(rng: random.Random, max_handles: int = 6, declared: float = 0.0):
    """A pair of traces plus a glue matching some of the first one's final
    boundary against the second one's base.  ``declared`` is passed on to the
    move generator of both parts (see :func:`_random_handles`)."""
    dm = random_trace(rng, max_handles=max_handles, ensure_boundary=True, declared=declared)
    final = states(dm)[-1]
    chosen = rng.sample(list(final), rng.randint(1, len(final)))

    slots = [("C", comp) for comp in chosen]
    slots += [("B", random_surface(rng)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(slots)
    base = tuple(
        payload[1] if kind == "C" else payload for kind, payload in slots
    )
    pairs = tuple(
        (payload[0], f"base:{i}")
        for i, (kind, payload) in enumerate(slots)
        if kind == "C"
    )
    comps = {f"base:{i}": _genus(desc) for i, desc in enumerate(base)}
    handles = _random_handles(rng, comps, rng.randint(0, max_handles), start=1, declared=declared)
    dn = OrderedHandleDecomposition(3, base, tuple(handles))
    return dm, dn, GlueSpec(pairs)


def random_descriptor(rng: random.Random, depth: int = 2) -> Descriptor:
    """Closed orientable descriptors for homology identities."""
    choices = ["sphere", "surface", "explicit"]
    if depth > 0:
        choices += ["product", "sum"]
    kind = rng.choice(choices)
    if kind == "sphere":
        return Sphere(rng.randint(1, 4))
    if kind == "surface":
        return Surface(rng.randint(0, 3))
    if kind == "explicit":
        dim = rng.randint(2, 4)
        half = [1] + [rng.randint(0, 3) for _ in range((dim + 2) // 2 - 1)]
        betti = half + (half[::-1] if dim % 2 else half[-2::-1])
        return Explicit(dim, HomologyVector(dim, tuple(betti)), f"x{rng.randint(0, 99)}")
    if kind == "product":
        return Product(random_descriptor(rng, depth - 1), random_descriptor(rng, depth - 1))
    n = rng.randint(2, 4)
    parts = []
    for _ in range(rng.randint(1, 3)):
        if n == 2 and rng.random() < 0.5:
            parts.append(Surface(rng.randint(0, 3)))
        else:
            parts.append(Sphere(n))
    return ConnectedSum(tuple(parts))


DEFECTS = ("index", "base-dimension", "disconnected", "replay")


def with_defect(d: OrderedHandleDecomposition, defect: str):
    """``d`` (m = 3, first handle a surface move) with one defect from
    :data:`DEFECTS`, and the prefix at which validation reports it."""
    two_spheres = Explicit(2, HomologyVector(2, (2, 0, 2)), "two spheres")
    after = d.delta + 1
    if defect == "index":
        first, *rest = d.handles
        return d.replace(handles=(HandleRecord(first.index + 2, first.attachment), *rest)), 1
    if defect == "base-dimension":
        return d.replace(base=d.base + (Sphere(3),)), 0
    if defect == "disconnected":
        return d.replace(handles=d.handles + (HandleRecord(2, Declared((two_spheres,))),)), after
    if defect == "replay":
        return d.replace(handles=d.handles + (HandleRecord(3, Dim3Three("h:99")),)), after
    raise ValueError(f"unknown defect {defect!r}")
