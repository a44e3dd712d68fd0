"""Exact rational homology for symbolic descriptions of closed manifolds.

Descriptors form a small grammar -- spheres, orientable surfaces, products,
connected sums, and explicit Betti data -- rich enough to name every closed
manifold this package puts on a boundary.  Betti numbers are derived
symbolically (Kunneth convolution for products, rank additivity for
connected sums) and all arithmetic is exact: plain integers for Betti
vectors, `fractions.Fraction` inside chain-complex elimination.  Ranks over
the rationals agree with ranks over the reals, so exactness costs nothing.

Descriptor equality, used for gluing compatibility elsewhere, is structural
equality after :func:`normalize`.  This deliberately under-approximates
"same manifold": two descriptors may name diffeomorphic manifolds and still
normalize differently (e.g. a torus written as a product of circles versus
a genus-one surface).  Callers that need a match must spell both sides the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class DescriptorError(ValueError):
    """Raised for malformed manifold descriptors or chain complexes."""


@dataclass(frozen=True)
class HomologyVector:
    """Betti numbers b_0..b_dim of a closed manifold, over the rationals."""

    dim: int
    betti: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 0:
            raise DescriptorError(f"dimension must be non-negative, got {self.dim}")
        object.__setattr__(self, "betti", tuple(int(b) for b in self.betti))
        if len(self.betti) != self.dim + 1:
            raise DescriptorError(
                f"need {self.dim + 1} Betti numbers for dimension {self.dim}, "
                f"got {len(self.betti)}"
            )
        if any(b < 0 for b in self.betti):
            raise DescriptorError(f"Betti numbers must be non-negative: {self.betti}")

    @property
    def total(self) -> int:
        """Unsigned sum of all Betti numbers (not the Euler characteristic)."""
        return sum(self.betti)

    @property
    def palindromic(self) -> bool:
        """Whether b_k = b_{dim-k} throughout (rational Poincare duality)."""
        return self.betti == self.betti[::-1]


@dataclass(frozen=True)
class Sphere:
    """The standard n-sphere, n >= 1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DescriptorError(f"sphere dimension must be >= 1, got {self.n}")


@dataclass(frozen=True)
class Surface:
    """Closed orientable surface of the given genus.

    Non-orientable surfaces are representable only through Explicit
    descriptors; requesting one here is an error by policy.
    """

    genus: int
    orientable: bool = True

    def __post_init__(self):
        if self.genus < 0:
            raise DescriptorError(f"genus must be non-negative, got {self.genus}")
        if not self.orientable:
            raise DescriptorError(
                "non-orientable surfaces are only representable as Explicit descriptors"
            )


@dataclass(frozen=True)
class Product:
    """Cartesian product of two closed manifolds."""

    left: "Descriptor"
    right: "Descriptor"


@dataclass(frozen=True)
class ConnectedSum:
    """Connected sum of closed orientable manifolds of one common dimension >= 2."""

    parts: tuple["Descriptor", ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise DescriptorError("connected sum needs at least one summand")
        dims = {dimension(p) for p in self.parts}
        if len(dims) != 1:
            raise DescriptorError(f"connected-sum summands have mixed dimensions {sorted(dims)}")
        (n,) = dims
        if n < 2:
            raise DescriptorError(f"connected sum needs dimension >= 2, got {n}")
        for p in self.parts:
            if not betti(p).palindromic:
                raise DescriptorError(
                    "connected-sum summands must be closed orientable "
                    f"(non-palindromic Betti vector in {p!r})"
                )


@dataclass(frozen=True)
class Explicit:
    """A closed manifold known only through its Betti numbers."""

    dim: int
    homology: HomologyVector
    label: str = ""

    def __post_init__(self):
        if self.dim != self.homology.dim:
            raise DescriptorError(
                f"declared dimension {self.dim} disagrees with Betti data "
                f"of dimension {self.homology.dim}"
            )


Descriptor = Union[Sphere, Surface, Product, ConnectedSum, Explicit]


def dimension(desc: Descriptor) -> int:
    if isinstance(desc, Sphere):
        return desc.n
    if isinstance(desc, Surface):
        return 2
    if isinstance(desc, Product):
        return dimension(desc.left) + dimension(desc.right)
    if isinstance(desc, ConnectedSum):
        return dimension(desc.parts[0])
    if isinstance(desc, Explicit):
        return desc.dim
    raise DescriptorError(f"not a descriptor: {desc!r}")


def betti(desc: Descriptor) -> HomologyVector:
    """Rational Betti vector of the closed manifold the descriptor names."""
    if isinstance(desc, Sphere):
        b = [0] * (desc.n + 1)
        b[0] = 1
        b[desc.n] += 1  # n = 1 stacks both generators in one degree pair (1, 1)
        return HomologyVector(desc.n, tuple(b))
    if isinstance(desc, Surface):
        return HomologyVector(2, (1, 2 * desc.genus, 1))
    if isinstance(desc, Product):
        lv, rv = betti(desc.left), betti(desc.right)
        d = lv.dim + rv.dim
        b = [0] * (d + 1)
        for i, bi in enumerate(lv.betti):
            for j, bj in enumerate(rv.betti):
                b[i + j] += bi * bj
        return HomologyVector(d, tuple(b))
    if isinstance(desc, ConnectedSum):
        n = dimension(desc)
        b = [0] * (n + 1)
        b[0] = b[n] = 1
        for p in desc.parts:
            pv = betti(p)
            for k in range(1, n):
                b[k] += pv.betti[k]
        return HomologyVector(n, tuple(b))
    if isinstance(desc, Explicit):
        return desc.homology
    raise DescriptorError(f"not a descriptor: {desc!r}")


def total_betti(desc: Descriptor) -> int:
    """Sum of all rational Betti numbers of the descriptor's manifold."""
    return betti(desc).total


def _key(desc: Descriptor) -> tuple:
    # Fixed total order on variants: Sphere < Surface < Product < ConnectedSum
    # < Explicit, then lexicographic on parameters.
    if isinstance(desc, Sphere):
        return (0, desc.n)
    if isinstance(desc, Surface):
        return (1, desc.genus)
    if isinstance(desc, Product):
        return (2, _key(desc.left), _key(desc.right))
    if isinstance(desc, ConnectedSum):
        return (3, tuple(_key(p) for p in desc.parts))
    if isinstance(desc, Explicit):
        return (4, desc.dim, desc.homology.betti, desc.label)
    raise DescriptorError(f"not a descriptor: {desc!r}")


def normalize(desc: Descriptor) -> Descriptor:
    """Canonical form used for descriptor equality.

    Products order their two factors, connected sums sort their summands,
    sphere summands drop out (summing with a sphere changes nothing), a
    genus-zero surface becomes the 2-sphere it is, and one-summand sums
    collapse.
    """
    if isinstance(desc, Sphere):
        return desc
    if isinstance(desc, Surface):
        return Sphere(2) if desc.genus == 0 else desc
    if isinstance(desc, Product):
        left, right = normalize(desc.left), normalize(desc.right)
        if _key(right) < _key(left):
            left, right = right, left
        return Product(left, right)
    if isinstance(desc, ConnectedSum):
        n = dimension(desc)
        parts = [normalize(p) for p in desc.parts]
        parts = [p for p in parts if not isinstance(p, Sphere)]
        if not parts:
            return Sphere(n)
        if len(parts) == 1:
            return parts[0]
        return ConnectedSum(tuple(sorted(parts, key=_key)))
    if isinstance(desc, Explicit):
        return desc
    raise DescriptorError(f"not a descriptor: {desc!r}")


def desc_equal(a: Descriptor, b: Descriptor) -> bool:
    """Structural equality after normalization; the gluing-compatibility test."""
    return normalize(a) == normalize(b)


def canonical_key(desc: Descriptor) -> tuple:
    """Deterministic sort key; equal descriptors get equal keys."""
    return _key(normalize(desc))


def pretty(desc: Descriptor) -> str:
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
            s = pretty(d)
            return f"({s})" if isinstance(d, (ConnectedSum, Product)) else s
        return f"{wrap(desc.left)} x {wrap(desc.right)}"
    if isinstance(desc, ConnectedSum):
        def wrap(d):
            s = pretty(d)
            return f"({s})" if isinstance(d, Product) else s
        return " # ".join(wrap(p) for p in desc.parts)
    if isinstance(desc, Explicit):
        if desc.label:
            return desc.label
        return f"explicit(betti={list(desc.homology.betti)})"
    raise DescriptorError(f"not a descriptor: {desc!r}")


# --- JSON schema ----------------------------------------------------------
#
# {"type": "sphere", "n": 2}
# {"type": "surface", "genus": 3}                  (orientable implied)
# {"type": "product", "left": ..., "right": ...}
# {"type": "connected-sum", "parts": [...]}
# {"type": "explicit", "dim": 3, "betti": [1, 0, 0, 1], "label": "..."}


def json_int(value, field: str) -> int:
    """An integer field of a JSON document.  Floats, numeric strings and
    booleans are refused with TypeError rather than coerced."""
    if type(value) is not int:
        raise TypeError(f"{field!r} must be an integer, got {value!r}")
    return value


def json_str(value, field: str) -> str:
    """A string field of a JSON document; other values are refused with TypeError."""
    if type(value) is not str:
        raise TypeError(f"{field!r} must be a string, got {value!r}")
    return value


def descriptor_to_json(desc: Descriptor) -> dict:
    if isinstance(desc, Sphere):
        return {"type": "sphere", "n": desc.n}
    if isinstance(desc, Surface):
        return {"type": "surface", "genus": desc.genus}
    if isinstance(desc, Product):
        return {
            "type": "product",
            "left": descriptor_to_json(desc.left),
            "right": descriptor_to_json(desc.right),
        }
    if isinstance(desc, ConnectedSum):
        return {"type": "connected-sum", "parts": [descriptor_to_json(p) for p in desc.parts]}
    if isinstance(desc, Explicit):
        return {
            "type": "explicit",
            "dim": desc.dim,
            "betti": list(desc.homology.betti),
            "label": desc.label,
        }
    raise DescriptorError(f"not a descriptor: {desc!r}")


def descriptor_from_json(data) -> Descriptor:
    if not isinstance(data, dict) or "type" not in data:
        raise DescriptorError(f"descriptor must be an object with a 'type' tag: {data!r}")
    kind = data["type"]
    try:
        if kind == "sphere":
            return Sphere(json_int(data["n"], "n"))
        if kind == "surface":
            orientable = data.get("orientable", True)
            if type(orientable) is not bool:
                raise TypeError(f"'orientable' must be a boolean, got {orientable!r}")
            return Surface(json_int(data["genus"], "genus"), orientable)
        if kind == "product":
            return Product(descriptor_from_json(data["left"]), descriptor_from_json(data["right"]))
        if kind == "connected-sum":
            return ConnectedSum(tuple(descriptor_from_json(p) for p in data["parts"]))
        if kind == "explicit":
            dim = json_int(data["dim"], "dim")
            vec = HomologyVector(dim, tuple(json_int(b, "betti") for b in data["betti"]))
            return Explicit(dim, vec, json_str(data.get("label", ""), "label"))
    except KeyError as exc:
        raise DescriptorError(f"descriptor of type {kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, DescriptorError):
            raise
        raise DescriptorError(f"malformed {kind!r} descriptor: {exc}") from exc
    raise DescriptorError(f"unknown descriptor type {kind!r}")


# --- explicit chain complexes ---------------------------------------------

Matrix = tuple[tuple[Fraction, ...], ...]


def _as_matrix(rows, n_rows: int, n_cols: int) -> Matrix:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(out) != n_rows or any(len(row) != n_cols for row in out):
        raise DescriptorError(
            f"boundary matrix must be {n_rows} x {n_cols}, "
            f"got {len(out)} rows of lengths {sorted({len(r) for r in out})}"
        )
    return out


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return ()
    inner = len(b)
    return tuple(
        tuple(sum((row[i] * b[i][j] for i in range(inner)), Fraction(0)) for j in range(len(b[0])))
        for row in a
    )


def rational_rank(matrix: Matrix) -> int:
    """Rank by fraction-exact Gaussian elimination; no floating point."""
    rows = [list(row) for row in matrix if any(row)]
    if not rows:
        return 0
    n_cols = len(rows[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


@dataclass(frozen=True)
class RationalChainComplex:
    """Chain complex of finite-dimensional rational vector spaces.

    ``cells[k]`` counts the k-cells; ``boundaries[k - 1]`` is the matrix of
    the boundary map from k-cells to (k-1)-cells (``cells[k - 1]`` rows,
    ``cells[k]`` columns).  Consecutive boundary maps must compose to zero.
    """

    dim: int
    cells: tuple[int, ...]
    boundaries: tuple[Matrix, ...]

    def __post_init__(self):
        if self.dim < 0:
            raise DescriptorError(f"dimension must be non-negative, got {self.dim}")
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        if len(self.cells) != self.dim + 1:
            raise DescriptorError(
                f"need {self.dim + 1} cell counts for dimension {self.dim}, got {len(self.cells)}"
            )
        if any(c < 0 for c in self.cells):
            raise DescriptorError(f"cell counts must be non-negative: {self.cells}")
        if len(self.boundaries) != self.dim:
            raise DescriptorError(
                f"need {self.dim} boundary matrices, got {len(self.boundaries)}"
            )
        mats = tuple(
            _as_matrix(mat, self.cells[k - 1], self.cells[k])
            for k, mat in enumerate(self.boundaries, start=1)
        )
        object.__setattr__(self, "boundaries", mats)
        for k in range(2, self.dim + 1):
            product = _mat_mul(mats[k - 2], mats[k - 1])
            if any(any(entry != 0 for entry in row) for row in product):
                raise DescriptorError(
                    f"malformed complex: boundary maps in degrees {k} and {k - 1} "
                    "do not compose to zero"
                )


def chain_betti(cc: RationalChainComplex) -> HomologyVector:
    """Betti numbers of an explicit complex: b_k = cells_k - rank d_k - rank d_{k+1}."""
    ranks = [0] + [rational_rank(mat) for mat in cc.boundaries] + [0]
    b = tuple(cc.cells[k] - ranks[k] - ranks[k + 1] for k in range(cc.dim + 1))
    if any(x < 0 for x in b):
        raise DescriptorError(f"rank bookkeeping produced a negative Betti number: {b}")
    return HomologyVector(cc.dim, b)


def chain_complex_to_json(cc: RationalChainComplex) -> dict:
    return {
        "dim": cc.dim,
        "cells": list(cc.cells),
        "boundaries": [[[str(x) for x in row] for row in mat] for mat in cc.boundaries],
    }


def chain_complex_from_json(data) -> RationalChainComplex:
    try:
        return RationalChainComplex(
            json_int(data["dim"], "dim"),
            tuple(json_int(c, "cells") for c in data["cells"]),
            tuple(
                tuple(tuple(Fraction(str(x)) for x in row) for row in mat)
                for mat in data["boundaries"]
            ),
        )
    except (KeyError, TypeError) as exc:
        raise DescriptorError(f"malformed chain-complex document: {exc}") from exc
