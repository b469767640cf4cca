"""Stabilizer operators from S-symmetries and explicit local-unitary witnesses.

An S-symmetry (P, D) of H with P H D = H yields, for every vertex a, the
operator P at a times D at each neighbor of a, which fixes the graph state.
lu_witness turns an equivalence witness between two Hadamard matrices into
per-site unitaries mapping one graph state onto the other; the mapping is
always verified numerically before it is returned.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from . import errors
from ._limits import TOL_ENTRY
from .graphs import Graph, bipartition
from .hadamard import (
    GENERAL,
    P_EQUIV,
    S_SYMMETRY,
    EquivalenceWitness,
    HadamardMatrix,
    apply_witness,
    check_witness,
    dephase,
)
from .qstate import _check_normalized, _check_operator, apply_local, graph_state, overlap


def pauli_xz(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Generalized Pauli pair: X|i> = |i-1 mod d>, Z|i> = q^i |i>, XZ = qZX."""
    if d < 2:
        raise errors.BadSize("pauli_xz needs d >= 2")
    X = np.roll(np.eye(d, dtype=np.complex128), -1, axis=0)
    Z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return X, Z


def stabilizer_from_symmetry(G: Graph, H: HadamardMatrix, w: EquivalenceWitness, a: int) -> tuple:
    """The n site factors of the stabilizer: P at vertex a, D at each neighbor
    of a, identity elsewhere."""
    if w.kind != S_SYMMETRY:
        raise errors.InvalidWitness("expected an S-symmetry witness")
    dev = check_witness(H, H, w)
    if dev > TOL_ENTRY:
        raise errors.InvalidWitness(f"P H D deviates from H by {dev:.3e}")
    if not (0 <= a < G.n):
        raise errors.BadVertex(f"vertex {a} out of range for n={G.n}")
    eye = np.eye(H.d, dtype=np.complex128)
    factors = [eye] * G.n
    factors[a] = eye[:, list(w.p1)]  # P|i> = |p[i]>
    for b in G.neighbors(a):
        factors[b] = np.diag(w.d1)
    return tuple(factors)


def verify_stabilizer(factors: Sequence[np.ndarray], s: np.ndarray) -> Tuple[bool, float]:
    """(fixed, ||K psi - psi||) for K, the product of the n site factors, and
    the normalized state psi. Each factor must be monomial, as P and D are:
    it acts as one gather along its axis and one phase."""
    _check_normalized(s)
    if len(factors) != s.ndim:
        raise errors.DimensionMismatch(f"operator of {len(factors)} sites vs state of n={s.ndim}")
    mats = [_check_operator(f, s.shape[k]) for k, f in enumerate(factors)]
    out = s
    for site, f in enumerate(np.asarray(f, dtype=np.complex128) for f in mats):
        d, nz = len(f), f != 0
        if (nz.sum(axis=0) != 1).any() or (nz.sum(axis=1) != 1).any():
            raise errors.BadPermutation(f"the factor at site {site} is not monomial")
        rows, cols = np.arange(d), np.argmax(nz, axis=1)  # K|cols[a]> = phase[a] |a>
        phase = f[rows, cols]
        out = out.reshape(d**site, d, -1)  # one name: each step frees the one before
        if (cols != rows).any():
            out = np.take(out, cols, axis=1)
        if (phase != 1).any():
            out = np.einsum("a,iaj->iaj", phase, out)
        out = out.reshape(s.shape)
    deviation = float(np.linalg.norm(out - s))
    return deviation <= TOL_ENTRY, deviation


def lu_witness(G: Graph, H1: HadamardMatrix, w: EquivalenceWitness) -> List[np.ndarray]:
    """Per-site unitaries U with (U x ... x U') psi_{G,H1} = psi_{G,H2}, for
    H2 = apply_witness(H1, w).

    The witness's kind picks the rule. A P-equivalence (H2 = P D1 H1 D2 P^T)
    works on any graph: every site gets P * diag(conj(H1'[:, c]))^deg with
    c = P^{-1}(0), H1' being the dephased form of H1. A General witness
    (H2 = D1 P1 H1 P2 D2) needs a bipartite graph, whose parts come from
    bipartition(G): the part holding each component's lowest vertex carries
    P1 * diag(conj(H1'[:, p2[0]]))^deg and the other P2^T *
    diag(conj(H1'[:, P1^{-1}(0)]))^deg. Diagonal corrections splice in when
    either matrix is not dephased. Both matrices must be symmetric, and the
    composite is verified by overlap before it is returned.
    """
    if w.kind == P_EQUIV:
        M = np.eye(len(w.p1), dtype=np.complex128)[:, list(w.p1)]
        factors = [(M, w.p1.index(0))] * G.n
    elif w.kind == GENERAL:
        parts = bipartition(G)
        if parts is None:
            raise errors.NotBipartite("graph contains an odd cycle")
        M1 = np.eye(len(w.p1), dtype=np.complex128)[:, list(w.p1)]
        NT = np.eye(len(w.p2), dtype=np.complex128)[:, list(w.p2)].T
        factors = [(M1, w.p2[0]) if u in parts[0] else (NT, w.p1.index(0)) for u in range(G.n)]
    else:
        raise errors.InvalidWitness("expected a P-equivalence or a General witness")
    H2 = apply_witness(H1, w)
    if not H2.symmetric or not H1.symmetric:
        raise errors.NotSymmetric("graph-state witnesses need symmetric matrices")
    H1d = H1 if H1.dephased else dephase(H1)[2]
    unitaries = []
    for u, (M, c) in enumerate(factors):
        g = G.degree(u)
        site = M @ np.diag(H1d.entries[:, c].conj() ** g)
        if not H1.dephased:
            site = site @ np.diag(H1.entries[:, 0].conj() ** (g + 1))
        if not H2.dephased:
            site = np.diag(H2.entries[:, 0] ** (g + 1)) @ site
        unitaries.append(site)
    built = graph_state(G, H1)
    for site, u in enumerate(unitaries):
        built = apply_local(u, site, built)
    ov = abs(overlap(built, graph_state(G, H2)))
    if ov < 1 - TOL_ENTRY:
        raise errors.InvalidWitness(f"witness maps with |overlap| = {ov:.12f} < 1")
    return unitaries
