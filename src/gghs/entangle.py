"""Reduced density matrices, Schmidt spectra, the degree-6 invariant, and the
Kraus-commutation obstruction to GHZ equivalence.

The state-level functions take a state, a (d,)*n array, or a (Graph,
HadamardMatrix) pair standing for its graph state: _reduced reads the pair's
reduced states in closed form, and its d**n register is never built.
"""

from __future__ import annotations

import math
import operator
from typing import List, Sequence, Tuple, Union

import numpy as np

from . import errors
from ._limits import TOL_ENTRY, _dense_size
from .graphs import Graph, build, neighbourhood
from .hadamard import HadamardMatrix, dephase
from .qstate import _check_graph_state, _check_normalized, _encode


def _check_keep(keep: Sequence[int], n: int) -> List[int]:
    keep = sorted(set(map(operator.index, keep)))
    if not keep:
        raise errors.EmptyKeep("keep at least one site")
    for k in keep:
        if not (0 <= k < n):
            raise errors.BadSite(f"site {k} out of range for n={n}")
    return keep


State = Union[np.ndarray, Tuple[Graph, HadamardMatrix]]


def _shape(s: State) -> Tuple[int, int]:
    """(n, d) of s, an array whose axes share one length, of norm 1 within
    1e-6; for a (G, H) pair graph_state's checks run first, so its errors come
    before any site check. Each kernel runs this once, then _reduced, so a
    pair is checked once per call."""
    if isinstance(s, np.ndarray):
        _check_normalized(s)
        return s.ndim, (s.shape or (1,))[0]  # a state on no sites has one amplitude
    G, H = s
    _check_graph_state(G, H)
    return G.n, H.d


def _reduced(s: State, keep: Sequence[int]) -> np.ndarray:
    """The reduced state on the m sites `keep` (ascending) of a state that
    _shape has checked, a (d**m, d**m) array capped before it is built.

    An array is traced over the other sites. A (G, H) pair is read in closed
    form from the edges at S = keep; its d**n state is never built. Edge
    gates with both ends outside S are unitary on S^c and drop out of the
    trace, and every site outside S carries |u[i, 0]|^2 = 1/d for
    u = H/sqrt(d). What is left is phi_S, the encoding column of the graph
    induced on S, and one factor per boundary vertex v in N(S) - S:
        rho_S(i, i') = phi_S(i) conj(phi_S(i')) prod_v kappa_v(i, i'),
        kappa_v(i, i') = (1/d) sum_x prod_{a in S, a~v} h[i_a, x] conj(h[i'_a, x]),
    divided by its trace as graph_state divides by the norm. This is exact
    when u is unitary and the entries are unimodular, within validation's
    tolerance.
    """
    array = isinstance(s, np.ndarray)
    keep = _check_keep(keep, s.ndim if array else s[0].n)
    d, m = s.shape[0] if array else s[1].d, len(keep)
    dk = _dense_size(m, d, axes=2)
    if array:
        rest = [a for a in range(s.ndim) if a not in keep]
        return np.tensordot(s, s.conj(), axes=(rest, rest)).reshape(dk, dk)
    G, H = s
    hood, local = neighbourhood(G, keep)
    axis = {hood.index(k): j for j, k in enumerate(keep)}  # local vertex -> axis of phi_S
    inner = build(m, [(axis[a], axis[b]) for a, b in local.edges if a in axis and b in axis])
    phi = _encode(inner, H, [[0] * m]).reshape(-1)
    T = np.multiply.outer(phi, phi.conj()).reshape((d,) * (2 * m))
    h = H.entries
    for v in range(local.n):
        if v in axis:
            continue
        P = np.ones(d, np.complex128)  # P[i_a1, ..., i_ar, x] = prod_j h[i_aj, x]
        shape = [1] * (2 * m)
        for a in local.neighbors(v):
            P = P[..., None, :] * h
            shape[axis[a]] = shape[m + axis[a]] = d
        P = P.reshape(-1, d)
        T *= (P @ P.conj().T / d).reshape(shape)
    rho = T.reshape(dk, dk)
    rho /= np.trace(rho).real
    return rho


def reduced_density(s: State, keep: Sequence[int]) -> np.ndarray:
    """The reduced state on the m sites `keep` (ascending), a (d**m, d**m)
    array capped before it is built. An array must have axes of one length
    and norm 1 within 1e-6; a (G, H) pair is read in closed form from the
    edges at keep, after graph_state's checks (the d**n cap among them) and
    without building its d**n state."""
    _shape(s)
    return _reduced(s, keep)


def partial_transpose(rho: np.ndarray, dims: Sequence[int], slot: int) -> np.ndarray:
    """Transpose one slot of rho, a square array on sites of dimensions
    `dims`; the result is Hermitian but may be non-PSD."""
    dims = tuple(dims)
    size = math.prod(dims)
    if np.shape(rho) != (size, size):
        raise errors.DimensionMismatch(f"rho of shape {np.shape(rho)} is not square with side {size}")
    m = len(dims)
    if not (0 <= slot < m):
        raise errors.BadSlot(f"slot {slot} out of range for {m} slots")
    return np.swapaxes(np.reshape(rho, dims + dims), slot, slot + m).reshape(size, size)


def i6(s: State) -> float:
    """Tr((rho_01^{T_0})^3), the degree-6 local-unitary invariant.

    Sites {0, 1} are kept and the transpose acts on slot 0. The trace of an
    odd power of a Hermitian matrix is real, and an array off norm 1 by
    more than 1e-6 raises NotNormalized, so the imaginary part is round-off.
    """
    if isinstance(s, np.ndarray) and s.ndim >= 3 and len(set(s.shape)) == 1:
        _dense_size(2, s.shape[0], axes=2)  # rho_01's cap, before the O(d**n) norm
    n, d = _shape(s)
    if n < 3:
        raise errors.TooFewSites("the invariant convention needs n >= 3")
    pt = partial_transpose(_reduced(s, [0, 1]), (d, d), 0)
    return float(np.trace(pt @ pt @ pt).real)


def schmidt_spectrum(s: State, part: Sequence[int]) -> List[float]:
    """The d**|part| squared Schmidt coefficients across (part | rest),
    descending, read from the side with fewer sites, or for a (G, H) pair
    from the smaller end set of its cut graph, the edges with one end in
    part (the other edges are local unitaries). rho_part and rho_rest share
    their nonzero spectrum, so the eigenvalues read are padded with exact
    zeros; a part no edge crosses is a product state, [1, 0, ...]. An
    eigenvalue below 0 is round-off of a PSD spectrum and prints as 0.
    """
    n, d = _shape(s)
    part = sorted(set(map(operator.index, part)))
    if not part or len(part) >= n:
        raise errors.BadPartition("part must be a proper nonempty site subset")
    _check_keep(part, n)  # BadSite, as reduced_density(s, part) would raise it
    side = part if 2 * len(part) <= n else [k for k in range(n) if k not in part]
    if not isinstance(s, np.ndarray):
        cut = build(n, [(a, b) for a, b in s[0].edges if (a in part) != (b in part)])
        ends = {v for edge in cut.edges for v in edge}
        side, s = min(ends & set(part), ends - set(part), key=len), (cut, s[1])
    rho = _reduced(s, side) if side else np.ones((1, 1))
    vals = np.zeros(d ** len(part))
    top = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[::-1]
    vals[: len(top)] = np.maximum(top, 0)
    return [float(x) for x in vals]


def kraus_commutation_test(H: HadamardMatrix):
    """Necessary condition for the triangle state to be GHZ up to local unitaries.

    Builds F_i = Gamma_i H' Gamma_i on the dephased form H', Gamma_i being the
    diagonal of column i. Passing means every pair F_i^dagger F_j, F_k^dagger F_l
    commutes entrywise within 1e-9; failing certifies the triangle state is not
    LU-equivalent to the GHZ state. Returns (passed, max_violation).
    """
    d = H.d
    if d == 1:
        return True, 0.0
    hd = H if H.dephased else dephase(H)[2]
    A = hd.entries
    F = [np.diag(A[:, i]) @ A @ np.diag(A[:, i]) for i in range(d)]
    G = [f.conj().T @ g for f in F for g in F]
    worst = 0.0
    for x in G:
        for y in G:
            dev = float(np.max(np.abs(x @ y - y @ x)))
            if dev > worst:
                worst = dev
    return worst <= TOL_ENTRY, worst
