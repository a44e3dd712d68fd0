"""Explicit rational chain complexes: the tests' oracle for symbolic Betti numbers.

``chain_betti`` computes Betti numbers from cells and boundary matrices by
fraction-exact elimination, independently of the Kunneth and connected-sum
arithmetic in :mod:`handlenu.homology`.  Ranks over the rationals agree with
ranks over the reals, so exactness costs nothing.

Only this module needs ``fractions``: the package never imports it, so no
descriptor or trace command loads it (``test_startup`` checks ``compute``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from handlenu.homology import DescriptorError, HomologyVector, json_int

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
        if json_int(self.dim, "dim") < 0:
            raise DescriptorError(f"dimension must be non-negative, got {self.dim}")
        object.__setattr__(self, "cells", tuple(json_int(c, "cells") for c in self.cells))
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
