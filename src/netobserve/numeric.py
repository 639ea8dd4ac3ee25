"""Random realizations of structures and exact rank tests.

The primary oracle works over the prime field GF(p), p = 2^31 - 1: rank is
exact, so genericity arguments ("a random realization of an observable
structure has full observability rank with probability >= 1 - n/p") hold
without any conditioning headaches.  The same rank routine also runs over
the reals, for the estimator's refusal test.

A realization is a plain square array, and its dtype names its field:
integer entries are residues over GF(p), float entries are reals.
"""

from __future__ import annotations

import numpy as np

from .graph_core import Digraph

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


def random_realization(g: Digraph, field: str = GF, seed: int = 0) -> np.ndarray:
    """Uniform nonzero entries on the structure of ``g``, drawn row by row
    in increasing column order, deterministic under seed: int64 residues
    over GF(p), or float64 reals."""
    if field not in (GF, REAL):
        raise ValueError(f"unknown field {field!r}")
    rng = np.random.default_rng(seed)
    mat = np.zeros((g.node_count, g.node_count), dtype=np.int64 if field == GF else float)
    for i, row in enumerate(g.predecessors()):
        for j in row:
            mat[i, j] = (rng.integers(1, PRIME) if field == GF
                         else rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0]))
    return mat


def stochastic_realization(w: Digraph, seed: int = 0) -> np.ndarray:
    """Real row-stochastic realization of a fusion structure.

    Rows are nonnegative and sum to one; requires every row to be nonempty
    (the designed structure always carries the diagonal).
    """
    rng = np.random.default_rng(seed)
    mat = np.zeros((w.node_count, w.node_count), dtype=float)
    for i, cols in enumerate(w.predecessors()):
        if not cols:
            raise ValueError(f"row {i} has empty support; cannot be stochastic")
        weights = rng.uniform(0.1, 1.0, size=len(cols))
        mat[i, list(cols)] = weights / weights.sum()
    return mat


def stochastic_realization_gf(w: Digraph, seed: int = 0) -> np.ndarray:
    """GF(p) analogue: row sums congruent to 1 mod p.

    The stochastic constraint is affine, so genericity carries over; the
    diagonal absorbs the row-sum correction and is redrawn if it cancels.
    """
    rng = np.random.default_rng(seed)
    mat = np.zeros((w.node_count, w.node_count), dtype=np.int64)
    for i, row in enumerate(w.predecessors()):
        if i not in row:
            raise ValueError(f"row {i} lacks a diagonal entry")
        cols = [j for j in row if j != i]
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
    return mat


def _basis_gf(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Rows of the reduced echelon form of ``m`` over GF(p), in int64, and
    their pivot columns.

    Residues are below 2^31, so each outer-product update stays below 2^62.
    """
    e = np.mod(m, PRIME)
    pivots: list[int] = []
    for col in range(e.shape[1]):
        rank = len(pivots)
        nonzero = np.flatnonzero(e[rank:, col])
        if nonzero.size == 0:
            continue
        e[[rank, rank + nonzero[0]]] = e[[rank + nonzero[0], rank]]
        e[rank] = e[rank] * pow(int(e[rank, col]), PRIME - 2, PRIME) % PRIME
        rows = np.flatnonzero(e[:, col])
        rows = rows[rows != rank]
        e[rows] = (e[rows] - np.outer(e[rows, col], e[rank]) % PRIME) % PRIME
        pivots.append(col)
        if rank + 1 == e.shape[0]:
            break
    return e[:len(pivots)], pivots


def _basis_real(m: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning ``m``: right singular vectors with
    sigma > 1e-9 sigma_max."""
    if not m.size:
        return m[:0]
    _, s, vt = np.linalg.svd(m, full_matrices=False)
    return vt[:int(np.count_nonzero(s > 1e-9 * s[0]))]


def _times_gf(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` over GF(p) for residues ``x`` and ``y``.  ``y`` is split into
    16-bit limbs, so each partial sum stays below 2^62 while ``x`` has fewer
    than 2^16 columns."""
    hi, lo = np.divmod(y, 1 << 16)
    return ((x @ hi % PRIME) * (1 << 16) + x @ lo % PRIME) % PRIME


def _field(*mats: np.ndarray) -> tuple[bool, list[np.ndarray]]:
    """Whether the realizations ``mats`` are over GF(p), and the arrays to
    compute with.  Integer dtypes that int64 holds mean GF(p) and are cast
    to int64; float dtypes mean the reals.  Anything else, or a mix, raises
    ``ValueError``."""
    if all(m.dtype.kind in "iu" and np.can_cast(m.dtype, np.int64) for m in mats):
        return True, [m.astype(np.int64, copy=False) for m in mats]
    if all(m.dtype.kind == "f" for m in mats):
        return False, list(mats)
    raise ValueError("realizations must be all integer (GF(p)) or all float (real), got "
                     + ", ".join(str(m.dtype) for m in mats))


def observability_rank(a: np.ndarray, h: np.ndarray) -> int:
    """Rank of [H; HA; ...; HA^(n-1)], grown as a Krylov row basis.

    Over GF(p) the basis is kept in reduced echelon form.  Each round
    multiplies only the rows the previous round added (the frontier) by A,
    reduces the products against the basis and adds what is left; once
    nothing is left, span(E) is A-invariant and no later power adds rank.
    Products split a factor into 16-bit limbs, which is exact while
    n < 2^16 (larger n raises ``ValueError``).  Over the reals a row basis
    E of span(H) is replaced by an orthonormal basis of [E; E A] until its
    row count stops growing; A is scaled to unit spectral norm, which keeps
    the row space, and as E is orthonormal, growing or shrinking powers of
    A cannot fall below the tolerance.
    """
    gf, (a, h) = _field(a, h)
    n = a.shape[0]
    if gf:
        if n >= 1 << 16:
            raise ValueError(f"GF(p) observability rank needs dimension < 2^16, got {n}")
        a_mod = np.mod(a, PRIME)
        basis, pivots = _basis_gf(h)
        frontier = basis
        while len(frontier):
            rows = _times_gf(frontier, a_mod)
            rows = (rows - _times_gf(rows[:, pivots], basis)) % PRIME
            frontier, new_pivots = _basis_gf(rows)
            basis = (basis - _times_gf(basis[:, new_pivots], frontier)) % PRIME
            basis = np.vstack([basis, frontier])
            pivots = pivots + new_pivots
        return len(basis)
    scaled = a / (np.linalg.norm(a, 2) or 1.0)
    e = _basis_real(h)
    while True:
        grown = _basis_real(np.vstack([e, e @ scaled]))
        if len(grown) == len(e):
            return len(e)
        e = grown


def kron_numeric(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """W (x) A, reduced mod p over GF(p)."""
    gf, (w, a) = _field(w, a)
    mat = np.kron(w, a)
    return np.mod(mat, PRIME) if gf else mat
