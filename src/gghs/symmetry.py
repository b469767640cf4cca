"""Explicit local-unitary witnesses between graph states.

lu_witness turns an equivalence witness between two Hadamard matrices into
per-site unitaries mapping one graph state onto the other. Each unitary is
monomial, so the map is checked in closed form, edge by edge and site by
site, before it is returned; no state is built.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from . import errors
from ._limits import TOL_ENTRY
from .graphs import Graph, bipartition
from .hadamard import GENERAL, P_EQUIV, EquivalenceWitness, HadamardMatrix, apply_witness, dephase
from .qstate import _check_graph_state


def _check_map(G: Graph, H1: HadamardMatrix, H2: HadamardMatrix, unitaries) -> None:
    """InvalidWitness unless (U_0 x ... x U_{n-1}) psi_{G,H1} is a multiple
    of psi_{G,H2}, checked in closed form: no state is built.

    Each U_v is taken to be monomial, U_v|x> = delta_v(x)|pi_v(x)>, as
    lu_witness builds it; pi_v and delta_v are read off its columns. Then
    U psi1 = c psi2 iff R(i) = psi2(pi(i)) / (prod_v delta_v(i_v) psi1(i)) is
    constant in the digits i. R is one ratio r_e[x, y] =
    h2[pi_a(x), pi_b(y)] / h1[x, y] per edge (a, b) times one site ratio
    s_v(x) = h2[pi_v(x), 0] / (delta_v(x) h1[x, 0]) per vertex. In a simple
    graph only edge (a, b) couples i_a and i_b, so R is constant iff every
    r_e is rank 1 and every t_v, s_v times its share of each r_e (r_e[x, 0]
    at a, r_e[0, y] / r_e[0, 0] at b), is constant. Every factor is reduced
    to its phase: the entries are unimodular within TOL_ENTRY, and a
    modulus off by eps moves the overlap only by O(eps^2).

    The deviation dev is the sum over edges of max |q_e - 1|, q_e the rank-1
    defect r_e[x, y] r_e[0, 0] / (r_e[x, 0] r_e[0, y]), and over vertices
    of max |t_v(x) / t_v(0) - 1|. It bounds max_i |R(i) / R(0) - 1|, so
    |<U psi1, psi2>| >= 1 - dev^2 / 2 for the normalized states. The map is
    accepted when dev^2 / 2 <= TOL_ENTRY, the threshold of the dense
    |overlap| >= 1 - TOL_ENTRY check that this one replaces. A map that is
    exact has dev at round-off. O(|E| d^2 + n d) work.
    """
    def phase(z):
        return z / np.abs(z)

    h1, h2 = H1.entries, H2.entries
    cols = np.arange(H1.d)
    perms = [np.argmax(np.abs(U), axis=0) for U in unitaries]
    t = [phase(h2[p, 0] / (U[p, cols] * h1[:, 0])) for U, p in zip(unitaries, perms)]
    dev = 0.0
    for a, b in G.edges:
        r = phase(h2[np.ix_(perms[a], perms[b])] / h1)
        dev += float(np.max(np.abs(r * r[0, 0] - np.outer(r[:, 0], r[0, :]))))
        t[a] = t[a] * r[:, 0]
        t[b] = t[b] * r[0, :] / r[0, 0]
    dev += sum(float(np.max(np.abs(tv - tv[0]))) for tv in t)
    if not dev**2 / 2 <= TOL_ENTRY:
        raise errors.InvalidWitness(
            f"witness maps with phase deviation {dev:.3g} > {math.sqrt(2 * TOL_ENTRY):.3g}"
        )


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
    either matrix is not dephased. The pair gate (H1 symmetric, n <=
    MAX_SITES; no d**n is sized) runs before the witness is read, and the
    map is checked in closed form (_check_map) before it is returned.
    """
    _check_graph_state(G, H1)
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
    if not H2.symmetric:
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
    _check_map(G, H1, H2, unitaries)
    return unitaries
