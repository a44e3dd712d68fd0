"""Seed-invariant input generators for the benchmark workloads.

Each generator mirrors the dimension-3 surface calculus move for move, the
way ``tests/gen.py`` does, so every trace replays by construction and its
per-prefix values are known without calling the library.  Unlike the test
generators, the *shape* of every input is fixed by the workload: the handle
count, the anchor-dependency poset (and so the number of admissible
orderings), the live-component count after every prefix, which component
ids exist at every prefix, and the number of glued components.  The seed
picks only content: genera, the direction of each genus move, and which ids
pair up across a glue.  The same op therefore costs the same under any seed.

Two more rules keep the library's own work per op fixed:

* every genus move keeps the live-component count unchanged (a 1-handle on
  one component adds genus, a non-separating 2-handle removes it), so the
  component count at every prefix is a property of the shape alone;
* the largest value is always first reached by a genus move strictly above
  everything before it.  The component that attains it is then the newest
  one, which sorts last, so the argmax scan in ``nu_of_ordering`` visits a
  fixed number of components.

Nothing here imports ``handlenu``; the documents are plain JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import random


def surface_json(genus: int) -> dict:
    return {"type": "sphere", "n": 2} if genus == 0 else {"type": "surface", "genus": genus}


def total_betti(genus: int) -> int:
    return 2 + 2 * genus


def id_key(comp_id: str) -> tuple:
    kind, _, rest = comp_id.partition(":")
    main, _, sub = rest.partition("/")
    return (0 if kind == "base" else 1, int(main), int(sub) if sub else -1)


@dataclass
class Walk:
    """Free boundary of a dimension-3 trace under construction: id -> genus."""

    base: list[int]
    live: dict[str, int] = field(default_factory=dict)
    handles: list[dict] = field(default_factory=list)
    e_values: list[int] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.live = {f"base:{i}": g for i, g in enumerate(self.base)}
        self._record()

    def _record(self) -> None:
        self.e_values.append(max((total_betti(g) for g in self.live.values()), default=0))
        self.counts.append(len(self.live))

    def ids(self) -> list[str]:
        return sorted(self.live, key=id_key)

    def zero(self) -> str:
        label = f"h:{len(self.handles) + 1}"
        self.handles.append({"index": 0, "attachment": {"type": "zero"}})
        self.live[label] = 0
        self._record()
        return label

    def genus_move(self, anchor: str, step: int) -> str:
        """+1: 1-handle with both feet on ``anchor``; -1: non-separating 2-handle."""
        label = f"h:{len(self.handles) + 1}"
        genus = self.live.pop(anchor)
        if step > 0:
            att = {"type": "one", "a": anchor, "b": anchor}
            self.handles.append({"index": 1, "attachment": att})
        else:
            if genus < 1:
                raise ValueError(f"cannot lower the genus of sphere {anchor}")
            att = {"type": "two", "anchor": anchor, "curve": {"kind": "nonseparating"}}
            self.handles.append({"index": 2, "attachment": att})
        self.live[label] = genus + step
        self._record()
        return label

    def trace(self) -> dict:
        return {"m": 3, "base": [surface_json(g) for g in self.base], "handles": self.handles}

    @property
    def mu_start(self) -> int:
        return 0 if self.base else 1

    @property
    def nu(self) -> int:
        return max(self.e_values[self.mu_start:], default=0)


def _step(rng: random.Random, genus: int) -> int:
    return 1 if genus == 0 or rng.random() < 0.5 else -1


def _spread_rank(k: int, count: int) -> int:
    """Anchor rank of the k-th free genus move; a fixed function of the shape."""
    return (k * 37 + 11) % count


# --- search ------------------------------------------------------------------


@dataclass(frozen=True)
class ChainShape:
    """Independent chains, one per base component; each handle anchors the
    chain's current component.  The dependency poset is a disjoint union of
    chains, so the ordering count is a multinomial coefficient."""

    lengths: tuple[int, ...]

    @property
    def orderings(self) -> int:
        total, count = 0, 1
        for n in self.lengths:
            total += n
            count *= math.comb(total, n)
        return count


@dataclass(frozen=True)
class SearchInput:
    trace: dict
    orderings: int
    nu: int
    counts: tuple[int, ...]


def chain_trace(shape: ChainShape, rng: random.Random) -> SearchInput:
    # Base genera stay at most 1 and the first chain's first two moves raise
    # genus, so the maximum (at least genus 2) lies strictly above the base.
    walk = Walk([rng.randint(0, 1) for _ in shape.lengths])
    for chain, length in enumerate(shape.lengths):
        current = f"base:{chain}"
        for k in range(length):
            step = 1 if chain == 0 and k < 2 else _step(rng, walk.live[current])
            current = walk.genus_move(current, step)
    return SearchInput(walk.trace(), shape.orderings, walk.nu, tuple(walk.counts))


# --- replay-wide -------------------------------------------------------------


@dataclass(frozen=True)
class WideShape:
    """``base`` surfaces, then ``zeros`` 0-handles, then ``moves`` genus moves."""

    base: int
    zeros: int
    moves: int


@dataclass(frozen=True)
class ReplayInput:
    trace: dict
    e_values: tuple[int, ...]
    nu: int
    counts: tuple[int, ...]


def wide_trace(shape: WideShape, rng: random.Random) -> ReplayInput:
    walk = Walk([rng.randint(0, 1) for _ in range(shape.base)])
    for _ in range(shape.zeros):
        walk.zero()
    for k in range(shape.moves):
        ids = walk.ids()
        if k < 2:
            # The newest component, a sphere, raised twice: genus 2 tops the base.
            walk.genus_move(ids[-1], 1)
        else:
            anchor = ids[_spread_rank(k, len(ids))]
            walk.genus_move(anchor, _step(rng, walk.live[anchor]))
    return ReplayInput(walk.trace(), tuple(walk.e_values), walk.nu, tuple(walk.counts))


# --- compose-check -----------------------------------------------------------


@dataclass(frozen=True)
class PairShape:
    """First part: ``zeros`` 0-handles then ``first_moves`` genus moves, no base.
    Second part: a base of ``glued`` components matched against the first
    part's final boundary plus ``free`` unglued surfaces, then
    ``second_moves`` genus moves."""

    zeros: int
    first_moves: int
    glued: int
    free: int
    second_moves: int

    @property
    def handles(self) -> int:
        return self.zeros + self.first_moves + self.second_moves


@dataclass(frozen=True)
class PairInput:
    first: dict
    second: dict
    glue: dict
    nu_first: int
    nu_second: int
    first_counts: tuple[int, ...]
    second_counts: tuple[int, ...]


def composable_pair(shape: PairShape, rng: random.Random) -> PairInput:
    first = Walk([])
    for _ in range(shape.zeros):
        first.zero()
    for k in range(shape.first_moves):
        ids = first.ids()
        if k < 2:
            # Genus 2 on the first part tops every free base surface (genus <= 1),
            # so the composite's maximum is never attained by a kept base component.
            first.genus_move(ids[-1], 1)
        else:
            anchor = ids[_spread_rank(k, len(ids))]
            first.genus_move(anchor, _step(rng, first.live[anchor]))

    final_ids = first.ids()
    chosen = rng.sample(final_ids, shape.glued)
    slots = [("glued", comp_id) for comp_id in chosen]
    slots += [("free", rng.randint(0, 1)) for _ in range(shape.free)]
    rng.shuffle(slots)
    base = [first.live[payload] if kind == "glued" else payload for kind, payload in slots]
    pairs = [
        [payload, f"base:{i}"] for i, (kind, payload) in enumerate(slots) if kind == "glued"
    ]

    second = Walk(base)
    for k in range(shape.second_moves):
        ids = second.ids()
        if k == 0:
            # Raise the highest base surface, so the maximum lies strictly above
            # the base and is attained by the newest component.
            anchor = max(ids, key=lambda i: (second.live[i], -id_key(i)[1]))
            second.genus_move(anchor, 1)
        else:
            anchor = ids[_spread_rank(k, len(ids))]
            second.genus_move(anchor, _step(rng, second.live[anchor]))

    return PairInput(
        first.trace(),
        second.trace(),
        {"pairs": pairs},
        first.nu,
        second.nu,
        tuple(first.counts),
        tuple(second.counts),
    )


# --- cli-small ---------------------------------------------------------------


def small_trace(rng: random.Random) -> ReplayInput:
    """Four handles over one base surface; live counts 1, 1, 2, 2, 2."""
    walk = Walk([rng.randint(0, 2)])
    h1 = walk.genus_move("base:0", 1)
    walk.zero()
    h3 = walk.genus_move(h1, -1)
    walk.genus_move(h3, 1)
    return ReplayInput(walk.trace(), tuple(walk.e_values), walk.nu, tuple(walk.counts))


def path_graph(rng: random.Random) -> tuple[dict, dict]:
    """Three pieces glued in a path, plus the report the counting formulas give."""
    counts = [rng.randint(3, 4) for _ in range(3)]
    interfaces = [{"i": 0, "j": 1, "count": 1}, {"i": 1, "j": 2, "count": 1}]
    rho, w = 2, 3
    z = sum(counts) - 2 * rho
    costs = [rng.randint(1, 9) for _ in range(3)]
    ceil_div = lambda a, b: -((-a) // b)
    floor = ceil_div(3 * w - z, 2)
    l_floor = max(rho - w + 1, ceil_div(w - z + 2, 2), 0)
    ceiling = 2 * l_floor + z - 2
    graph = {"boundary_counts": counts, "interfaces": interfaces, "z": z, "handle_costs": costs}
    expected = {
        "w": w,
        "rho": rho,
        "z": z,
        "interface_floor": floor,
        "interface_holds": rho >= floor,
        "betti1_floor": l_floor,
        "pieces_ceiling": ceiling,
        "h_max": max(costs),
        "max_handles": ceiling * max(costs),
    }
    return graph, expected


def refute_case(rng: random.Random) -> tuple[list[str], dict]:
    l, z, hmax, hw = rng.randint(1, 3), rng.randint(0, 4), rng.randint(1, 9), rng.randint(1, 60)
    pieces = 2 * l + z - 2
    expected = {
        "decomposable_possible": pieces >= 1 and hw <= pieces * hmax,
        "max_pieces": pieces,
        "max_handles": pieces * hmax,
        "h_w": hw,
    }
    args = ["--l", str(l), "--z", str(z), "--hmax", str(hmax), "--hW", str(hw)]
    return args, expected
