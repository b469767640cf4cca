"""Complex Hadamard matrices: construction, validation, catalog, equivalence.

A complex Hadamard matrix is a d x d matrix with unimodular entries satisfying
H^dagger H = d*I. Throughout the package H is additionally required to be
symmetric wherever it drives a two-qudit gate. Equivalence of two Hadamard
matrices means H1 = D1 P1 H2 P2 D2 for permutations P1, P2 and unimodular
diagonals D1, D2; P-equivalence restricts to a single simultaneous row/column
permutation, H1 = P D1 H2 D2 P^T; an S-symmetry of H is a pair (P, D) with
P H D = H.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors
from ._limits import DENSE_AMP_CAP, GRAM_BLOCK, SEARCH_CAPS, TOL_ENTRY


@dataclass(frozen=True, eq=False)
class HadamardMatrix:
    d: int
    entries: np.ndarray  # (d, d) complex128, read-only
    symmetric: bool
    dephased: bool


GENERAL = "General"
P_EQUIV = "PEquiv"
S_SYMMETRY = "SSymmetry"


@dataclass(frozen=True, eq=False)
class EquivalenceWitness:
    """Witness for one of the three relations.

    General:   H1 = D1 P1 H2 P2 D2
    PEquiv:    H1 = P D1 H2 D2 P^T  (P stored in p1; p2 unused)
    SSymmetry: P H D = H            (P in p1, D in d1; p2, d2 unused)

    A permutation is a tuple p with P|i> = |p[i]>; a diagonal is the (d,)
    complex128 array of its unimodular phases.
    """

    kind: str
    p1: tuple
    d1: np.ndarray
    p2: Optional[tuple] = None
    d2: Optional[np.ndarray] = None


def _as_complex_square(entries) -> np.ndarray:
    a = np.array(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise errors.NotHadamard(f"expected a square matrix, got shape {a.shape}")
    return a


def _gram_deviation(V: np.ndarray, scale: float) -> float:
    """max |V^dagger V - scale I|, read off the upper block triangle of the
    Hermitian Gram.

    Column block j0:j1 of V is paired with columns j0: and summed over row
    blocks, so no temporary holds more than GRAM_BLOCK entries (K <= rows of
    V keeps cols * K within it).
    """
    size, K = V.shape
    cols = max(1, min(K, GRAM_BLOCK // size))
    rows = max(1, GRAM_BLOCK // cols)
    dev = 0.0
    for j0 in range(0, K, cols):
        j1 = min(j0 + cols, K)
        gram = np.zeros((j1 - j0, K - j0), np.complex128)
        for r0 in range(0, size, rows):
            gram += V[r0:r0 + rows, j0:j1].conj().T @ V[r0:r0 + rows, j0:]
        gram[np.diag_indices(j1 - j0)] -= scale
        dev = max(dev, float(np.max(np.abs(gram))))
    return dev


def validate(entries) -> HadamardMatrix:
    """Check the Hadamard invariants and return the matrix with its flags."""
    a = _as_complex_square(entries)
    d = a.shape[0]
    if not np.isfinite(a).all():
        raise errors.NotUnimodular("matrix has a non-finite entry")
    mod_dev = float(np.max(np.abs(np.abs(a) - 1.0)))
    if mod_dev > TOL_ENTRY:
        raise errors.NotUnimodular(f"entry modulus deviates from 1 by {mod_dev:.3e}")
    gram_dev = _gram_deviation(a, d)
    if gram_dev > TOL_ENTRY * d:  # H^dagger H = d*I: the scale grows with d
        raise errors.NotHadamard(f"H^dagger H deviates from d*I by {gram_dev:.3e}")
    symmetric = bool(np.max(np.abs(a - a.T)) <= TOL_ENTRY)
    dephased = bool(
        np.max(np.abs(a[0, :] - 1.0)) <= TOL_ENTRY
        and np.max(np.abs(a[:, 0] - 1.0)) <= TOL_ENTRY
    )
    a.setflags(write=False)
    return HadamardMatrix(d=d, entries=a, symmetric=symmetric, dephased=dephased)


def fourier(d: int) -> HadamardMatrix:
    """The d-dimensional discrete Fourier matrix, entries q^(i*j), q = exp(2*pi*i/d).

    Raises TooLarge for d**2 > DENSE_AMP_CAP (d > 4096) before any allocation.
    """
    if d < 1:
        raise errors.BadSize("d must be >= 1")
    if d * d > DENSE_AMP_CAP:
        raise errors.TooLarge(f"fourier d={d} exceeds the cap {math.isqrt(DENSE_AMP_CAP)}")
    k = np.arange(d)
    roots = np.exp(2j * np.pi * k / d)
    return validate(roots[np.outer(k, k) % d])


def _h_alpha(alpha: float) -> np.ndarray:
    e = np.exp(1j * alpha)
    return np.array(
        [
            [1, 1, 1, 1],
            [1, 1, -1, -1],
            [1, -1, e, -e],
            [1, -1, -e, e],
        ],
        dtype=np.complex128,
    )


def _h_d6() -> np.ndarray:
    i = 1j
    return np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, i, -i, -i, i],
            [1, i, -1, i, -i, -i],
            [1, -i, i, -1, i, -i],
            [1, -i, -i, i, -1, i],
            [1, i, -i, -i, i, -1],
        ],
        dtype=np.complex128,
    )


def _qutrit_h2() -> np.ndarray:
    w = np.exp(2j * np.pi / 3)
    return np.array(
        [[1, 1, 1], [1, w**2, w], [1, w, w**2]],
        dtype=np.complex128,
    )


# name: entries of each catalog matrix that takes no parameter
CATALOG = {
    "tilde_a": lambda: [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]],
    "tilde_b": lambda: [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]],
    "tilde_c": lambda: [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
    "tilde_d": lambda: [[1, 1, 1, 1], [1, -1, -1, 1], [1, -1, 1, -1], [1, 1, -1, -1]],
    "h_d6": _h_d6,
    "qutrit_h2": _qutrit_h2,
}


def catalog(name: str, params: Optional[float] = None) -> HadamardMatrix:
    """Named matrices from the built-in catalog: h_alpha and the CATALOG names.

    h_alpha requires the real parameter alpha; the other names take none.
    """
    if name == "h_alpha":
        if params is None:
            raise errors.UnknownName("h_alpha needs its real parameter")
        return validate(_h_alpha(float(params)))
    if name not in CATALOG:
        raise errors.UnknownName(f"unknown catalog matrix {name!r}")
    if params is not None:
        raise errors.UnknownName(f"{name} takes no parameter, got {params!r}")
    return validate(np.array(CATALOG[name](), dtype=np.complex128))


def dephase(H: HadamardMatrix):
    """Normalize first row and column to 1.

    Returns the phase arrays d1, d2 and Hp = diag(d1) H diag(d2), with
    d1[i] = 1/h_i0 applied first, then d2[j] = 1/h'_0j. The first row/column
    of the output are set to exactly 1 (their mathematically exact values),
    which makes the operation idempotent at the bit level.
    """
    a = H.entries
    d1 = 1.0 / a[:, 0]
    hp = a * d1[:, None]
    d2 = 1.0 / hp[0, :]
    hpp = hp * d2[None, :]
    hpp[:, 0] = 1.0
    hpp[0, :] = 1.0
    return d1, d2, validate(hpp)


def tensor_product(H1: HadamardMatrix, H2: HadamardMatrix) -> HadamardMatrix:
    """Kronecker product; index (i1, i2) -> i1*d2 + i2."""
    return validate(np.kron(H1.entries, H2.entries))


def _rank1_unimodular_factors(R: np.ndarray, tol: float):
    """If R_ij = a_i * b_j with unimodular a, b, return (a, b), else None."""
    a = R[:, 0].copy()
    b = R[0, :] / R[0, 0]
    if np.max(np.abs(R - np.outer(a, b))) > tol:
        return None
    return a, b


def _witness_rhs(H: HadamardMatrix, w: EquivalenceWitness) -> np.ndarray:
    """Right-hand side of the witness's defining equation at H: (P X)[i] = X[p^-1(i)]."""
    held = (w.p1, w.d1) + {GENERAL: (w.p2, w.d2), P_EQUIV: (w.d2,)}.get(w.kind, ())
    for part in held:  # every permutation and diagonal the witness's kind uses
        if len(part) != H.d:
            raise errors.DimensionMismatch(f"witness of d={len(part)} vs matrix of d={H.d}")
    A, inv = H.entries, np.argsort(w.p1)  # a permutation gathers, a diagonal broadcasts
    if w.kind == GENERAL:
        return w.d1[:, None] * A[inv][:, list(w.p2)] * w.d2
    if w.kind == P_EQUIV:
        return (w.d1[:, None] * A * w.d2)[inv][:, inv]
    if w.kind == S_SYMMETRY:
        return A[inv] * w.d1
    raise errors.UnknownName(f"unknown witness kind {w.kind!r}")


def _forced_columns(B: np.ndarray, A2: np.ndarray) -> list:
    """Column maps q that may pair with the rows B = H1[p, :], in lexicographic order.

    Choosing q(0) = c forces a_i = B[i, c] / H2[i, 0] up to a scalar. Column j
    of diag(a) H2 must then be parallel to column q(j) of B, and the columns
    of B are orthogonal, so q(j) is the column of largest overlap. This gives
    at most one candidate per c; `_forced_witness` decides which hold. The
    anchors c are taken in blocks of d**2 entries each, so no temporary
    holds more than GRAM_BLOCK entries (one anchor when d**2 exceeds it).
    """
    d = len(B)
    a = B / A2[:, :1]  # a[i, c]: the row phases forced by q(0) = c
    step = max(1, GRAM_BLOCK // (d * d))
    q_maps = []
    for c0 in range(0, d, step):
        # overlap[k, c, j] = |sum_i conj(B[i, k]) a[i, c] A2[i, j]| for the block's anchors c
        block = (a[:, c0:c0 + step, None] * A2[:, None, :]).reshape(d, -1)
        overlap = np.abs(B.conj().T @ block).reshape(d, -1, d)
        q_maps += np.argmax(overlap, axis=0).tolist()
    return sorted({tuple(q) for q in q_maps if len(set(q)) == d})


def _forced_witness(kind: str, p: tuple, q, B: np.ndarray, A2: np.ndarray):
    """The witness with row map p and column map q, or None if its forced diagonals fail."""
    d = len(p)
    if kind == S_SYMMETRY:
        # P H D = H forces D = (1/d) H^dagger P^T H, with (P^T H)[i, :] = H[p(i), :].
        Dm = (A2.conj().T @ B) / d
        ph = np.diag(Dm).copy()
        if np.max(np.abs(Dm - np.diag(ph))) > TOL_ENTRY:
            return None
        if np.max(np.abs(np.abs(ph) - 1.0)) > TOL_ENTRY:
            return None
        return EquivalenceWitness(kind=S_SYMMETRY, p1=p, d1=ph)
    cols = list(q)
    fac = _rank1_unimodular_factors(B[:, cols] / A2, TOL_ENTRY)  # H1[p(i), q(j)] / H2[i, j]
    if fac is None:
        return None
    a, b = fac
    if kind == P_EQUIV:
        return EquivalenceWitness(kind=P_EQUIV, p1=p, d1=a, d2=b)
    # H1[p1(i), q(j)] = a_i b_j H2[i, j] rearranges to the defining equation
    # H1 = D1 P1 H2 P2 D2 with D1 = diag(a) carried through P1, P2 = the
    # inverse of q, and D2 = diag(b) carried through it.
    d1 = np.empty(d, dtype=np.complex128)
    d1[list(p)] = a
    d2 = np.empty(d, dtype=np.complex128)
    d2[cols] = b
    p2 = tuple(int(i) for i in np.argsort(cols))
    return EquivalenceWitness(kind=GENERAL, p1=p, d1=d1, p2=p2, d2=d2)


def _checked(H1: HadamardMatrix, H2: HadamardMatrix, w: EquivalenceWitness) -> EquivalenceWitness:
    """w, after re-checking its defining equation on the full matrices."""
    dev = check_witness(H1, H2, w)
    if dev > TOL_ENTRY:
        raise errors.InvalidWitness(f"internal: witness deviates by {dev:.3e}")
    return w


def _witnesses(H1: HadamardMatrix, H2: HadamardMatrix, kind: str):
    """Yield every General or PEquiv witness between H1 and H2, in lexicographic (P1, P2) order.

    Each relation reads H1[p(i), q(j)] = a_i b_j H2[i, j] for a row map p and
    a column map q, and fixing both forces the diagonals. The search loops
    over all d! row maps p; q is p for PEquiv and one of at most d forced
    candidates for General.
    """
    d = H1.d
    cap = SEARCH_CAPS[kind]
    if d > cap:
        raise errors.SearchLimitExceeded(f"{kind} search supports d <= {cap}")
    A1, A2 = H1.entries, H2.entries
    for p in itertools.permutations(range(d)):
        B = A1[list(p), :]  # B[i, j] = H1[p(i), j]
        for q in _forced_columns(B, A2) if kind == GENERAL else [p]:
            w = _forced_witness(kind, p, q, B, A2)
            if w is not None:
                yield _checked(H1, H2, w)


def find_equivalence(
    H1: HadamardMatrix, H2: HadamardMatrix, kind: str = GENERAL
) -> Optional[EquivalenceWitness]:
    """Search for an equivalence witness between H1 and H2.

    For a row permutation P1 and a column permutation P2 the diagonals are
    forced, so the ratio matrix (P1^T H1 P2^T) / H2 must factor as a_i * b_j.
    PEquiv tries the d! single permutations P1 = P2^T. General tries each P1
    with at most d forced column maps, d! * d candidates. The first witness in
    lexicographic permutation order is returned, or None. General supports
    d <= 6, PEquiv d <= 8.
    """
    if H1.d != H2.d:
        raise errors.DimensionMismatch(f"d mismatch: {H1.d} vs {H2.d}")
    if kind not in (GENERAL, P_EQUIV):
        raise errors.UnknownName(f"unknown equivalence kind {kind!r}")
    return next(_witnesses(H1, H2, kind), None)


def s_symmetries(H: HadamardMatrix) -> list:
    """All S-symmetries (P, D) of H, sorted by lexicographic permutation order.

    P H D = H reads H^T[j, p(i)] = D_j H^T[j, i], so the row maps p are the
    forced column maps of (H^T, H^T): the anchor p(0) forces D, and D forces
    p, which leaves at most d candidates. D is then forced by P as
    D = (1/d) H^dagger P^T H, and the pair is kept iff that matrix is diagonal
    with unimodular diagonal. The identity pair is always present. The
    candidates cost d**4 multiply-adds over d**3 overlaps, held one block of
    at most GRAM_BLOCK entries at a time; d**3 > DENSE_AMP_CAP (d > 256)
    bounds that work and raises TooLarge before any of it.
    """
    if H.d**3 > DENSE_AMP_CAP:
        raise errors.TooLarge(f"S-symmetry search d={H.d} exceeds the cap d**3 <= {DENSE_AMP_CAP}")
    A = H.entries
    found = (_forced_witness(S_SYMMETRY, p, p, A[list(p), :], A) for p in _forced_columns(A.T, A.T))
    return [_checked(H, H, w) for w in found if w is not None]


def apply_witness(H: HadamardMatrix, w: EquivalenceWitness) -> HadamardMatrix:
    """Plug H into the right-hand side of the witness's defining equation.

    For a witness found by find_equivalence(H1, H2, kind), apply_witness(H2, w)
    reconstructs H1.
    """
    return validate(_witness_rhs(H, w))


def check_witness(H1: HadamardMatrix, H2: HadamardMatrix, w: EquivalenceWitness) -> float:
    """Max entrywise deviation of H1 from the witness's right-hand side at H2.

    An S-symmetry relates H to itself, so it is checked with H1 = H2 = H.
    """
    if H1.d != H2.d:
        raise errors.DimensionMismatch(f"d mismatch: {H1.d} vs {H2.d}")
    return float(np.max(np.abs(H1.entries - _witness_rhs(H2, w))))
