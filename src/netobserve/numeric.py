"""Random realizations of structures and exact rank tests.

The primary oracle works over the prime field GF(p), p = 2^31 - 1: rank is
exact, so genericity arguments ("a random realization of an observable
structure has full observability rank with probability >= 1 - n/p") hold
without any conditioning headaches.  The same rank routine also runs over
the reals, for ``verify --field real`` and the estimator's refusal test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import StructuredMatrix

PRIME = 2**31 - 1

GF = "gf"
REAL = "real"

# Largest fused dimension N*n realized densely (W kron A, D_H, gain search):
# one GF(p) rank took 2.0 s at 252 and 40 s at 510 on a 2-core VM.
MAX_FUSED_DIM = 256

# Largest simulated trace, horizon x agents: at 1M, `simulate` of the
# six-state fixture peaks 57 MB above the interpreter (the (horizon, agents)
# floats and trace.csv) on a 2-core VM.
MAX_TRACE_ENTRIES = 1_000_000


@dataclass(frozen=True)
class Realization:
    """Dense value assignment agreeing with a structure's support."""

    matrix: np.ndarray
    field: str
    seed: int


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


def _basis_gf(m: np.ndarray) -> np.ndarray:
    """Rows of the reduced echelon form of ``m`` over GF(p), in int64.

    Residues are below 2^31, so each outer-product update stays below 2^62.
    """
    e = np.mod(m, PRIME)
    rank = 0
    for col in range(e.shape[1]):
        nonzero = np.flatnonzero(e[rank:, col])
        if nonzero.size == 0:
            continue
        e[[rank, rank + nonzero[0]]] = e[[rank + nonzero[0], rank]]
        e[rank] = e[rank] * pow(int(e[rank, col]), PRIME - 2, PRIME) % PRIME
        rows = np.flatnonzero(e[:, col])
        rows = rows[rows != rank]
        e[rows] = (e[rows] - np.outer(e[rows, col], e[rank]) % PRIME) % PRIME
        rank += 1
        if rank == e.shape[0]:
            break
    return e[:rank]


def _basis_real(m: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning ``m``: right singular vectors with
    sigma > 1e-9 sigma_max."""
    if not m.size:
        return m[:0]
    _, s, vt = np.linalg.svd(m, full_matrices=False)
    return vt[:int(np.count_nonzero(s > 1e-9 * s[0]))]


def observability_rank(a: Realization, h: Realization) -> int:
    """Rank of [H; HA; ...; HA^(n-1)], grown as a Krylov row basis.

    A row basis E of span(H) is replaced by a basis of [E; E A] until its
    row count stops growing: then span(E) is A-invariant and no later power
    adds rank.  Over GF(p), E A splits A into 16-bit limbs, which is exact
    while n < 2^16 (larger n raises ``ValueError``).  Over the reals A is
    scaled to unit spectral norm, which keeps the row space; as E is
    orthonormal, growing or shrinking powers of A cannot fall below the
    tolerance.
    """
    if a.field != h.field:
        raise ValueError("mixed-field observability rank")
    n = a.matrix.shape[0]
    if a.field == GF:
        if n >= 1 << 16:
            raise ValueError(f"GF(p) observability rank needs dimension < 2^16, got {n}")
        hi, lo = np.divmod(np.mod(a.matrix, PRIME), 1 << 16)
        basis = _basis_gf

        def times_a(e):
            return ((e @ hi % PRIME) * (1 << 16) + e @ lo % PRIME) % PRIME
    else:
        scaled = a.matrix / (np.linalg.norm(a.matrix, 2) or 1.0)
        basis = _basis_real

        def times_a(e):
            return e @ scaled
    e = basis(h.matrix)
    while True:
        grown = basis(np.vstack([e, times_a(e)]))
        if len(grown) == len(e):
            return len(e)
        e = grown


def kron_numeric(w: Realization, a: Realization) -> Realization:
    if w.field != a.field:
        raise ValueError("mixed-field Kronecker product")
    mat = np.kron(w.matrix, a.matrix)
    if w.field == GF:
        mat = np.mod(mat, PRIME)
    return Realization(mat, w.field, w.seed)
