"""The facts each descriptor computes at construction, and the one
bottom-up walk behind ``normalize``, ``pretty`` and ``descriptor_to_json``,
against the recursive per-kind functions they replaced, kept here as the
oracle: dense Betti vectors, a recursive order key and recursive walks.
"""

from __future__ import annotations

import random

from hypothesis import given, seed, settings, strategies as st

from handlenu.homology import (
    ConnectedSum,
    DescriptorError,
    Explicit,
    HomologyVector,
    Product,
    Sphere,
    Surface,
    betti,
    desc_equal,
    descriptor_to_json,
    dimension,
    normalize,
    palindromic,
    pretty,
    total_betti,
)
from handlenu.homology import _connected
from gen import random_descriptor


# --- oracle: the recursive per-kind functions ---------------------------------


def oracle_dimension(desc):
    if isinstance(desc, Sphere):
        return desc.n
    if isinstance(desc, Surface):
        return 2
    if isinstance(desc, Product):
        return oracle_dimension(desc.left) + oracle_dimension(desc.right)
    if isinstance(desc, ConnectedSum):
        return oracle_dimension(desc.parts[0])
    if isinstance(desc, Explicit):
        return desc.dim
    raise DescriptorError(f"not a descriptor: {desc!r}")


def oracle_betti(desc):
    if isinstance(desc, Sphere):
        b = [0] * (desc.n + 1)
        b[0] = 1
        b[desc.n] += 1
        return HomologyVector(desc.n, tuple(b))
    if isinstance(desc, Surface):
        return HomologyVector(2, (1, 2 * desc.genus, 1))
    if isinstance(desc, Product):
        lv, rv = oracle_betti(desc.left), oracle_betti(desc.right)
        d = lv.dim + rv.dim
        b = [0] * (d + 1)
        for i, bi in enumerate(lv.betti):
            for j, bj in enumerate(rv.betti):
                b[i + j] += bi * bj
        return HomologyVector(d, tuple(b))
    if isinstance(desc, ConnectedSum):
        n = oracle_dimension(desc)
        b = [0] * (n + 1)
        b[0] = b[n] = 1
        for p in desc.parts:
            pv = oracle_betti(p)
            for k in range(1, n):
                b[k] += pv.betti[k]
        return HomologyVector(n, tuple(b))
    if isinstance(desc, Explicit):
        return desc.homology
    raise DescriptorError(f"not a descriptor: {desc!r}")


def oracle_key(desc):
    if isinstance(desc, Sphere):
        return (0, desc.n)
    if isinstance(desc, Surface):
        return (1, desc.genus)
    if isinstance(desc, Product):
        return (2, oracle_key(desc.left), oracle_key(desc.right))
    if isinstance(desc, ConnectedSum):
        return (3, tuple(oracle_key(p) for p in desc.parts))
    if isinstance(desc, Explicit):
        return (4, desc.dim, desc.homology.betti, desc.label)
    raise DescriptorError(f"not a descriptor: {desc!r}")


def oracle_normalize(desc):
    if isinstance(desc, Sphere):
        return desc
    if isinstance(desc, Surface):
        return Sphere(2) if desc.genus == 0 else desc
    if isinstance(desc, Product):
        left, right = oracle_normalize(desc.left), oracle_normalize(desc.right)
        if oracle_key(right) < oracle_key(left):
            left, right = right, left
        return Product(left, right)
    if isinstance(desc, ConnectedSum):
        n = oracle_dimension(desc)
        parts = [oracle_normalize(p) for p in desc.parts]
        parts = [p for p in parts if not isinstance(p, Sphere)]
        if not parts:
            return Sphere(n)
        if len(parts) == 1:
            return parts[0]
        return ConnectedSum(tuple(sorted(parts, key=oracle_key)))
    if isinstance(desc, Explicit):
        return desc
    raise DescriptorError(f"not a descriptor: {desc!r}")


def oracle_pretty(desc):
    if isinstance(desc, Sphere):
        return f"S^{desc.n}"
    if isinstance(desc, Surface):
        if desc.genus == 0:
            return "S^2"
        if desc.genus == 1:
            return "T^2"
        return f"Sigma_{desc.genus}"
    if isinstance(desc, Product):
        def wrap(d):
            s = oracle_pretty(d)
            return f"({s})" if isinstance(d, (ConnectedSum, Product)) else s
        return f"{wrap(desc.left)} x {wrap(desc.right)}"
    if isinstance(desc, ConnectedSum):
        def wrap(d):
            s = oracle_pretty(d)
            return f"({s})" if isinstance(d, Product) else s
        return " # ".join(wrap(p) for p in desc.parts)
    if isinstance(desc, Explicit):
        if desc.label:
            return desc.label
        return f"explicit(betti={list(desc.homology.betti)})"
    raise DescriptorError(f"not a descriptor: {desc!r}")


def oracle_to_json(desc):
    if isinstance(desc, Sphere):
        return {"type": "sphere", "n": desc.n}
    if isinstance(desc, Surface):
        return {"type": "surface", "genus": desc.genus}
    if isinstance(desc, Product):
        return {
            "type": "product",
            "left": oracle_to_json(desc.left),
            "right": oracle_to_json(desc.right),
        }
    if isinstance(desc, ConnectedSum):
        return {"type": "connected-sum", "parts": [oracle_to_json(p) for p in desc.parts]}
    if isinstance(desc, Explicit):
        return {
            "type": "explicit",
            "dim": desc.dim,
            "betti": list(desc.homology.betti),
            "label": desc.label,
        }
    raise DescriptorError(f"not a descriptor: {desc!r}")


# --- inputs -------------------------------------------------------------------


def random_tree(rng: random.Random, depth: int):
    """``gen.random_descriptor`` at depth up to 4, plus products of sums and
    sums of products, which it never builds."""
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return random_descriptor(rng, depth)
    if roll < 0.7:
        return Product(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    parts = [random_tree(rng, depth - 1) for _ in range(3)]
    same = tuple(p for p in parts if p.dim == parts[0].dim)
    return ConnectedSum(same) if parts[0].dim >= 2 else parts[0]


def shuffled(rng: random.Random, desc):
    """An equal-after-normalization spelling: factors and summands permuted."""
    if isinstance(desc, Product):
        left, right = shuffled(rng, desc.left), shuffled(rng, desc.right)
        return Product(right, left) if rng.random() < 0.5 else Product(left, right)
    if isinstance(desc, ConnectedSum):
        parts = [shuffled(rng, p) for p in desc.parts]
        rng.shuffle(parts)
        return ConnectedSum(tuple(parts))
    return desc


def assert_matches_oracle(desc):
    dense = oracle_betti(desc)
    assert dimension(desc) == oracle_dimension(desc)
    assert betti(desc) == dense
    assert desc.ranks == tuple((k, b) for k, b in enumerate(dense.betti) if b)
    assert _connected(desc) == (dense.betti[0] == 1)
    assert palindromic(desc) == dense.palindromic
    assert total_betti(desc) == dense.total
    assert desc.key == oracle_key(desc)
    normal = normalize(desc)
    assert normal == oracle_normalize(desc)
    assert normalize(normal) is normal
    assert normal.key == oracle_key(oracle_normalize(desc))
    assert pretty(desc) == oracle_pretty(desc)
    assert descriptor_to_json(desc) == oracle_to_json(desc)


def assert_pair_matches_oracle(a, b):
    assert desc_equal(a, b) == (oracle_normalize(a) == oracle_normalize(b))
    ka, kb = oracle_key(oracle_normalize(a)), oracle_key(oracle_normalize(b))
    assert (normalize(a).key < normalize(b).key) == (ka < kb)


def test_descriptors_match_oracle_on_seeded_trees():
    rng = random.Random(7001)
    for k in range(600):
        depth = k % 5
        desc = random_tree(rng, depth) if k % 2 else random_descriptor(rng, depth)
        assert_matches_oracle(desc)
        twin = shuffled(rng, desc)
        assert_matches_oracle(twin)
        assert desc_equal(desc, twin)
        assert_pair_matches_oracle(desc, twin)
        assert_pair_matches_oracle(desc, random_tree(rng, depth))


def test_fixed_descriptors_match_oracle():
    inner = ConnectedSum((Surface(1), Product(Sphere(1), Sphere(1))))
    disconnected = Explicit(2, HomologyVector(2, (2, 0, 2)))
    for desc in (
        Product(inner, inner),  # one part object reached twice by the walk
        ConnectedSum((inner, inner, Surface(0))),
        disconnected,
        Product(disconnected, Sphere(1)),
        Explicit(3, HomologyVector(3, (0, 0, 0, 0)), "empty"),
        Explicit(3, HomologyVector(3, (1, 1, 0, 0))),
    ):
        assert_matches_oracle(desc)


@seed(7002)
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(rng=st.randoms(use_true_random=False), depth=st.integers(min_value=0, max_value=4))
def test_descriptors_match_oracle_hypothesis(rng, depth):
    a, b = random_tree(rng, depth), random_tree(rng, depth)
    assert_matches_oracle(a)
    assert_matches_oracle(b)
    assert_pair_matches_oracle(a, b)
    assert_pair_matches_oracle(a, shuffled(rng, a))
