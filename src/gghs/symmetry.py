"""Stabilizer generators from S-symmetries and explicit local-unitary witnesses.

An S-symmetry (P, D) of H with P H D = H yields, for every vertex a, the
generator K_a, P at a times D at each neighbor of a: K_a psi = psi/D_0.
lu_witness turns an equivalence witness between two Hadamard matrices into
per-site unitaries mapping one graph state onto the other; the mapping is
always verified numerically before it is returned.
"""

from __future__ import annotations

import operator
from typing import List, Tuple

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
    dephase,
)
from .qstate import _check_normalized, apply_local, graph_state, overlap


def verify_stabilizer(G: Graph, w: EquivalenceWitness, a: int, s: np.ndarray) -> Tuple[bool, float]:
    """(fixed, ||K_a psi - psi||) for the normalized state psi and the
    generator K_a of the S-symmetry w = (P, D) at vertex a of G: P at a, D
    at each neighbour of a. P acts as one gather along axis a and D as one
    phase along each neighbour's axis; P H D = H is not re-checked, and a
    pair that breaks it shows as a state K_a moves."""
    _check_normalized(s)
    if w.kind != S_SYMMETRY:
        raise errors.InvalidWitness("expected an S-symmetry witness")
    if G.n != s.ndim:
        raise errors.DimensionMismatch(f"graph of n={G.n} vs state of n={s.ndim}")
    a = operator.index(a)
    if not (0 <= a < G.n):
        raise errors.BadVertex(f"vertex {a} out of range for n={G.n}")
    d = s.shape[a]
    for part in (w.p1, w.d1):
        if len(part) != d:
            raise errors.DimensionMismatch(f"witness of d={len(part)} vs state of d={d}")
    if sorted(w.p1) != list(range(d)):
        raise errors.BadPermutation(f"{tuple(w.p1)} is not a permutation of 0..{d - 1}")
    if not np.isfinite(w.d1).all():
        raise errors.NonFinite("witness phases must be finite")
    out = np.take(s, np.argsort(w.p1), axis=a)  # P|i> = |p[i]>
    for b in G.neighbors(a):
        out = np.einsum("a,iaj->iaj", w.d1, out.reshape(d**b, d, -1)).reshape(s.shape)
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
