"""Each attachment kind's ``map_anchors`` against the generic rebuild it replaced.

``generic_map_anchors`` is how ``trace.map_anchors`` renamed anchors before
each kind mapped its own: every field named in the kind's ``anchors`` through
``fn``, in that order, and the record rebuilt by ``Record.replace``.  Each
kind must give an equal record, calling ``fn`` on the same anchors in the
same order, and ``compose``, which renames every second-part anchor, must
write the same composite with either.
"""

from __future__ import annotations

from collections import Counter
import random

import pytest

from handlenu.trace import Declared, Dim3Zero, _KINDS, canonical_dumps, map_anchors
from handlenu.union import GlueError, compose
from gen import multi_part_trace, random_composable_pair, random_trace


def generic_map_anchors(att, fn):
    return att.replace(**{f: fn(getattr(att, f)) for f in att.anchors})


def renaming(rng: random.Random):
    """A random renaming, the same on a second call with an anchor, and the
    anchors it was called with, in order."""
    calls: list[str] = []
    table: dict[str, str] = {}

    def fn(anchor: str) -> str:
        calls.append(anchor)
        if anchor not in table:
            event = rng.choice(["h", "base"])
            suffix = rng.choice(["", f"/{rng.randrange(3)}"])
            table[anchor] = rng.choice([anchor, f"{event}:{rng.randrange(1, 99)}{suffix}"])
        return table[anchor]

    return fn, calls


def test_each_kind_maps_its_anchors_as_the_generic_rebuild_does():
    rng = random.Random(2903)
    kinds: Counter = Counter()
    for k in range(400):
        d = random_trace(rng, declared=0.3) if k % 2 else multi_part_trace(rng, declared=0.3)
        for handle in d.handles:
            att = handle.attachment
            fn, calls = renaming(rng)
            got = map_anchors(att, fn)
            mine = list(calls)
            calls.clear()
            want = generic_map_anchors(att, fn)
            assert type(got) is type(want) and got == want, (att, got, want)
            assert mine == calls
            assert map_anchors(att, lambda anchor: anchor) == att
            if type(att) in (Dim3Zero, Declared):
                assert got is att and not calls
            else:
                assert got is not att
            kinds[type(att)] += 1
    assert set(kinds) == _KINDS and min(kinds.values()) >= 50, kinds


@pytest.fixture
def generic_kinds(monkeypatch):
    """Every kind's ``map_anchors`` replaced by the generic rebuild."""
    def patch():
        for kind in _KINDS:
            monkeypatch.setattr(kind, "map_anchors", generic_map_anchors)

    return patch


def test_compose_writes_the_same_composite_with_the_generic_rebuild(generic_kinds):
    rng = random.Random(2904)
    pairs = [random_composable_pair(rng, max_handles=8, declared=0.2) for _ in range(300)]
    mine = [canonical_dumps(compose(dm, dn, glue)) for dm, dn, glue in pairs]
    generic_kinds()
    assert [canonical_dumps(compose(dm, dn, glue)) for dm, dn, glue in pairs] == mine
    assert sum(any(type(h.attachment) is Declared for h in dn.handles) for _, dn, _ in pairs) >= 20


def test_compose_names_the_same_unknown_anchor_with_the_generic_rebuild(generic_kinds):
    # A second part anchoring ids it never made: the first one reached is named.
    rng = random.Random(2905)
    cases = []
    for _ in range(200):
        dm, dn, glue = random_composable_pair(rng, max_handles=8)
        bad = dn.replace(handles=tuple(
            h.replace(attachment=map_anchors(h.attachment, lambda a: f"h:{rng.randrange(50, 60)}"))
            for h in dn.handles
        ))
        cases.append((dm, bad, glue))

    def messages():
        out = []
        for dm, dn, glue in cases:
            try:
                out.append(canonical_dumps(compose(dm, dn, glue)))
            except GlueError as exc:
                out.append(str(exc))
        return out

    mine = messages()
    generic_kinds()
    assert messages() == mine
    assert sum("anchors unknown component" in m for m in mine) >= 100
