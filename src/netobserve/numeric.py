"""Random realizations of structures and exact rank tests.

The primary oracle works over the prime field GF(p), p = 2^31 - 1: rank is
exact, so genericity arguments ("a random realization of an observable
structure has full observability rank with probability >= 1 - n/p") hold
without any conditioning headaches.  A real-valued path exists for the
estimator simulation only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import StructuredMatrix

PRIME = 2**31 - 1

GF = "gf"
REAL = "real"


@dataclass(frozen=True)
class Realization:
    """Dense value assignment agreeing with a structure's support."""

    matrix: np.ndarray
    field: str
    seed: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _support_mask(s: StructuredMatrix) -> np.ndarray:
    mask = np.zeros((s.rows, s.cols), dtype=bool)
    for i, j in s.support:
        mask[i, j] = True
    return mask


def random_realization(s: StructuredMatrix, field: str = GF, seed: int = 0) -> Realization:
    """Uniform nonzero entries on the support, deterministic under seed."""
    rng = np.random.default_rng(seed)
    if field == GF:
        mat = np.zeros((s.rows, s.cols), dtype=np.int64)
        for i, j in sorted(s.support):
            mat[i, j] = rng.integers(1, PRIME)
    elif field == REAL:
        mat = np.zeros((s.rows, s.cols), dtype=float)
        for i, j in sorted(s.support):
            mat[i, j] = rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
    else:
        raise ValueError(f"unknown field {field!r}")
    return Realization(mat, field, seed)


def stochastic_realization(w: StructuredMatrix, seed: int = 0) -> Realization:
    """Real row-stochastic realization of a fusion structure.

    Rows are nonnegative and sum to one; requires every row to have
    support (the designed structure always carries the diagonal).
    """
    rng = np.random.default_rng(seed)
    mat = np.zeros((w.rows, w.cols), dtype=float)
    mask = _support_mask(w)
    for i in range(w.rows):
        cols = np.flatnonzero(mask[i])
        if cols.size == 0:
            raise ValueError(f"row {i} has empty support; cannot be stochastic")
        weights = rng.uniform(0.1, 1.0, size=cols.size)
        mat[i, cols] = weights / weights.sum()
    return Realization(mat, REAL, seed)


def stochastic_realization_gf(w: StructuredMatrix, seed: int = 0) -> Realization:
    """GF(p) analogue: row sums congruent to 1 mod p.

    The stochastic constraint is affine, so genericity carries over; the
    diagonal absorbs the row-sum correction and is redrawn if it cancels.
    """
    rng = np.random.default_rng(seed)
    mat = np.zeros((w.rows, w.cols), dtype=np.int64)
    mask = _support_mask(w)
    for i in range(w.rows):
        if not mask[i, i]:
            raise ValueError(f"row {i} lacks a diagonal entry")
        cols = [j for j in np.flatnonzero(mask[i]) if j != i]
        while True:
            for j in cols:
                mat[i, j] = rng.integers(1, PRIME)
            diag = (1 - int(mat[i].sum())) % PRIME
            if diag != 0:
                mat[i, i] = diag
                break
            if not cols:  # lone diagonal: row sum 1 means the entry is 1
                mat[i, i] = 1
                break
    return Realization(mat, GF, seed)


def _matmul_gf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Python-int objects avoid int64 overflow for p ~ 2^31.
    prod = (a.astype(object) @ b.astype(object)) % PRIME
    return prod.astype(np.int64)


def rank_gf(m: np.ndarray) -> int:
    """Exact rank over GF(p) by Gaussian elimination with modular inverses."""
    a = np.mod(m.astype(object), PRIME)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r, col] != 0), None)
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), PRIME - 2, PRIME)
        a[rank] = (a[rank] * inv) % PRIME
        for r in range(rows):
            if r != rank and a[r, col] != 0:
                a[r] = (a[r] - a[r, col] * a[rank]) % PRIME
        rank += 1
        if rank == rows:
            break
    return rank


def rank_real(m: np.ndarray) -> int:
    if m.size == 0:
        return 0
    smax = np.linalg.norm(m, 2)
    if smax == 0:
        return 0
    return int(np.linalg.matrix_rank(m, tol=1e-9 * smax))


def observability_matrix(a: Realization, h: Realization) -> np.ndarray:
    """Stacked [H; HA; ...; HA^(n-1)] (Cayley-Hamilton truncation)."""
    if a.field != h.field:
        raise ValueError("mixed-field observability matrix")
    n = a.matrix.shape[0]
    blocks = []
    block = h.matrix
    for _ in range(n):
        blocks.append(block)
        block = _matmul_gf(block, a.matrix) if a.field == GF else block @ a.matrix
    return np.vstack(blocks)


def observability_rank(a: Realization, h: Realization) -> int:
    obs = observability_matrix(a, h)
    return rank_gf(obs) if a.field == GF else rank_real(obs)


def kron_numeric(w: Realization, a: Realization) -> Realization:
    if w.field != a.field:
        raise ValueError("mixed-field Kronecker product")
    mat = np.kron(w.matrix, a.matrix)
    if w.field == GF:
        mat = np.mod(mat.astype(object), PRIME).astype(np.int64)
    return Realization(mat, w.field, w.seed)

