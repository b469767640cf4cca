"""Dense state engine for n qudits of local dimension d.

A state is a complex array of shape (d,)*n: axis k holds qudit k, so the
amplitude at digits (i_1, ..., i_n) is psi[i_1, ..., i_n], and flattened in
C order qudit 0 is the most significant digit. States are compared by
|overlap|, never componentwise, since every local-unitary statement is
phase-insensitive.
"""

from __future__ import annotations

import math
import operator
from typing import Optional, Sequence, Tuple

import numpy as np

from . import errors
from ._limits import TOL_NORM, _dense_size
from .graphs import Graph
from .hadamard import HadamardMatrix


def _check_operator(U, d: int) -> np.ndarray:
    """U as an array, or DimensionMismatch unless it is d x d, or NonFinite
    unless its entries are finite. U acts on one site; it need not be unitary."""
    if np.shape(U) != (d, d):
        raise errors.DimensionMismatch(f"operator shape {np.shape(U)} does not match d={d}")
    if not np.isfinite(U).all():
        raise errors.NonFinite("operator entries must be finite")
    return np.asarray(U)


def _check_normalized(s: np.ndarray) -> np.ndarray:
    """s, or DimensionMismatch unless its axes share one length, or
    NotNormalized unless |norm(s) - 1| <= TOL_NORM (a NaN norm fails)."""
    if len(set(np.shape(s))) > 1:
        raise errors.DimensionMismatch(f"state axes {np.shape(s)} differ in length")
    nrm = float(np.linalg.norm(s))
    if not abs(nrm - 1.0) <= TOL_NORM:
        raise errors.NotNormalized(f"state norm {nrm:.6f} is not 1")
    return s


def _check_digits(n: int, d: int, digits: Sequence[int]):
    if len(digits) != n:
        raise errors.DigitOutOfRange(f"expected {n} digits, got {len(digits)}")
    for x in digits:
        if not (0 <= operator.index(x) < d):
            raise errors.DigitOutOfRange(f"digit {x} out of range for d={d}")


def _edge_phases(h: np.ndarray, edges, T: np.ndarray) -> None:
    """Multiply T (axis k is site k) in place by h[i_a, i_b] for each edge
    (a, b), a < b, in the order given."""
    d = h.shape[0]
    for a, b in edges:
        shape = [1] * T.ndim
        shape[a] = shape[b] = d
        T *= h.reshape(shape)


def _encode(G: Graph, H: HadamardMatrix, words) -> np.ndarray:
    """Columns D u^(x n)|w> of the encoding circuit for the K words w (rows).

    With u = H/sqrt(d), column w has amplitude
    psi_w(i) = prod_k u[i_k, w_k] * prod_{(a,b) in E} h[i_a, i_b] at digits i:
    every site carries column w_k of u and every edge gate multiplies in
    h[i_a, i_b]. Returns the unnormalized (d,)*n + (K,) tensor, the word on
    the trailing axis. Callers check symmetry, digits and the size cap.
    """
    u = H.entries / math.sqrt(H.d)
    words = np.asarray(words, dtype=np.intp)
    T = np.ones(len(words), np.complex128)
    for c in words.T:
        T = T[..., None, :] * u[:, c]
    _edge_phases(H.entries, G.edges, T)
    return T


def apply_local(U: np.ndarray, site: int, s: np.ndarray) -> np.ndarray:
    """The d x d operator U on axis `site` of the state s; the other axes ride along."""
    if not (0 <= site < s.ndim):
        raise errors.SiteOutOfRange(f"site {site} out of range for n={s.ndim}")
    d = s.shape[site]
    _check_operator(U, d)
    T = s.reshape(math.prod(s.shape[:site]), d, -1)
    out = np.einsum("ab,ibj->iaj", np.asarray(U, dtype=np.complex128), T)
    return out.reshape(s.shape)


def pauli_xz(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Generalized Pauli pair: X|i> = |i-1 mod d>, Z|i> = q^i |i>, XZ = qZX."""
    if d < 2:
        raise errors.BadSize("pauli_xz needs d >= 2")
    X = np.roll(np.eye(d, dtype=np.complex128), -1, axis=0)
    Z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return X, Z


def _check_graph_state(
    G: Graph, H: HadamardMatrix, input_digits: Optional[Sequence[int]] = None
) -> Tuple[int, ...]:
    """The checks of graph_state, in its order: symmetry, digits, the d**n cap.

    Returns the input digits; the default, all zeros, cannot fail the digit
    check and is built after the cap. Kernels that read the state on a few
    sites run them first, so they refuse what graph_state refuses, with the
    same error.
    """
    if not H.symmetric:
        raise errors.NotSymmetric("graph states need a symmetric matrix")
    if input_digits is not None:
        input_digits = tuple(input_digits)
        _check_digits(G.n, H.d, input_digits)
    _dense_size(G.n, H.d)
    return (0,) * G.n if input_digits is None else input_digits


def graph_state(
    G: Graph, H: HadamardMatrix, input_digits: Optional[Sequence[int]] = None
) -> np.ndarray:
    """The graph state of G over H with input digits c (default all zeros).

    This is the encoding circuit's column for word c (see _encode), divided
    by its norm, which absorbs the small deviation from unitarity that
    validation admits.
    """
    digits = _check_graph_state(G, H, input_digits)
    psi = _encode(G, H, [digits])[..., 0]
    psi /= np.linalg.norm(psi)
    return psi


def ghz(n: int, d: int) -> np.ndarray:
    if n < 1 or d < 2:
        raise errors.BadSize("ghz needs n >= 1 and d >= 2")
    psi = np.zeros(_dense_size(n, d), dtype=np.complex128).reshape((d,) * n)
    for i in range(d):
        psi[(i,) * n] = 1.0 / math.sqrt(d)
    return psi


def overlap(s1: np.ndarray, s2: np.ndarray) -> complex:
    if np.shape(s1) != np.shape(s2):
        raise errors.DimensionMismatch(f"states differ: shape {np.shape(s1)} vs {np.shape(s2)}")
    return complex(np.vdot(s1, s2))


def reorder_qudits(s: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Relocate amplitudes so input qudit k becomes output qudit perm[k]."""
    perm = tuple(operator.index(p) for p in perm)
    if sorted(perm) != list(range(s.ndim)):
        raise errors.BadPermutation(f"{perm} is not a permutation of 0..{s.ndim - 1}")
    return np.ascontiguousarray(np.transpose(s, np.argsort(perm)))


def hamiltonian_ground_check(G: Graph, H: HadamardMatrix):
    """Check the commuting parent Hamiltonian -sum_i U |0_i><0_i| U^dagger.

    Returns (gap, ground_dim, fidelity): the spectral gap above the ground
    energy, the ground-space dimension, and the overlap magnitude between the
    ground space and the graph state.

    U = D u^(x n), with u = H/sqrt(d) and D the diagonal edge phases, is the
    Hamiltonian's eigenbasis by construction: basis state c has energy
    -(number of zero digits of c), so column 0 of U alone spans the ground
    space (ground_dim = 1) and the gap is 1, or inf for d = 1. Both are read
    off in closed form, which holds because u is unitary within validation's
    tolerance and the edge entries are unimodular. The graph state is
    psi = U|0>/||U|0>||, so the fidelity |(U^dagger psi)_0| is ||U|0>||.
    Its amplitude at digits i is prod_k u[i_k, 0] times one edge entry per
    edge, so with unimodular entries ||U|0>|| = ||u[:, 0]||^n, which is
    (||H[:, 0]||^2 / d)^(n/2). With every |h_ij| within eps = TOL_ENTRY of
    1, the norm of the column _encode would build differs from this by a
    factor within [(1 - eps)^|E|, (1 + eps)^|E|]. Neither U, the
    Hamiltonian nor the state is built.
    """
    _check_graph_state(G, H)  # the register it stands for is capped as a state
    fidelity = (float(np.linalg.norm(H.entries[:, 0])) / math.sqrt(H.d)) ** G.n
    gap = 1.0 if H.d > 1 else float("inf")
    return gap, 1, fidelity
