"""Graph quantum codes: classical codewords encoded through the graph-state
circuit, Knill-Laflamme distance, weight enumerators, and decoded errors."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import errors
from .graphs import Graph, build
from .hadamard import HadamardMatrix, dephase
from .qstate import (
    DENSE_MATRIX_CAP,
    LocalOperator,
    StateVector,
    _apply_site,
    _dense_size,
    circuit_unitary,
    graph_state,
)
from .symmetry import pauli_xz

KL_TOL = 1e-9


@dataclass(frozen=True)
class ClassicalCode:
    n: int
    d: int
    words: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for w in self.words:
            if len(w) != self.n:
                raise errors.BadSize(f"word {w} is not length {self.n}")
            for x in w:
                if not (0 <= x < self.d):
                    raise errors.DigitOutOfRange(f"digit {x} out of range for d={self.d}")
            if w in seen:
                raise errors.BadSize(f"duplicate word {w}")
            seen.add(w)

    @staticmethod
    def from_text(text: str, d: int) -> "ClassicalCode":
        """One word per line, digits 0..d-1, '#' starts a comment."""
        words = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            words.append(tuple(int(ch) for ch in line))
        if not words:
            raise errors.BadSize("no codewords in input")
        return ClassicalCode(n=len(words[0]), d=d, words=tuple(words))


@dataclass(frozen=True, eq=False)
class QuantumCode:
    graph: Graph
    hadamard: HadamardMatrix
    classical: ClassicalCode
    basis: Tuple[StateVector, ...]

    @property
    def K(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> np.ndarray:
        return np.stack([b.amps for b in self.basis], axis=1)


def encode(G: Graph, H: HadamardMatrix, c: Sequence[int]) -> StateVector:
    """Encode one classical word as a graph state with input digits c.

    H is dephased internally; the encoded states of distinct words are exactly
    orthogonal because the circuit is unitary on the computational basis.
    """
    hd = H if H.dephased else dephase(H)[2]
    return graph_state(G, hd, input_digits=c)


def build_code(G: Graph, H: HadamardMatrix, C: ClassicalCode) -> QuantumCode:
    if C.n != G.n:
        raise errors.DimensionMismatch(f"code length {C.n} != vertex count {G.n}")
    if C.d != H.d:
        raise errors.DimensionMismatch(f"code alphabet {C.d} != matrix dimension {H.d}")
    basis = tuple(encode(G, H, w) for w in C.words)
    V = np.stack([b.amps for b in basis], axis=1)
    gram_dev = float(np.max(np.abs(V.conj().T @ V - np.eye(len(basis)))))
    if gram_dev > 1e-9:
        raise errors.GramNotIdentity(f"gram deviates from identity by {gram_dev:.3e}")
    return QuantumCode(graph=G, hadamard=H, classical=C, basis=basis)


def weyl_operators(d: int) -> List[Tuple[Tuple[int, int], np.ndarray]]:
    """All d*d operators X^a Z^b keyed by (a, b), identity first."""
    X, Z = pauli_xz(d)
    xs = [np.linalg.matrix_power(X, a) for a in range(d)]
    zs = [np.linalg.matrix_power(Z, b) for b in range(d)]
    return [((a, b), xs[a] @ zs[b]) for a in range(d) for b in range(d)]


def _apply_site_ops(V: np.ndarray, d: int, sites, ops) -> np.ndarray:
    """Apply single-site operators to every column of V (shape d**n x K)."""
    for site, op in zip(sites, ops):
        V = _apply_site(op, site, d, V)
    return V


def _error_iter(n: int, d: int, weight: int, nontrivial):
    """Yield (sites, ops) for every weight-`weight` error, lexicographically."""
    for sites in itertools.combinations(range(n), weight):
        for choice in itertools.product(nontrivial, repeat=weight):
            yield sites, [op for _, op in choice]


def kl_distance(Q: QuantumCode, max_weight: int) -> Union[int, errors.LowerBoundExceeded]:
    """Smallest error weight violating the Knill-Laflamme condition.

    Errors are tensor products of single-site X^a Z^b over supports of size
    1..max_weight. Violation means ||PEP - lambda*P||_max > 1e-9 with
    lambda = Tr(PEP)/K. If no tested weight violates, the LowerBoundExceeded
    marker carrying max_weight is returned (not raised).

    One-dimensional codes satisfy the condition for every error; for them the
    standard convention applies instead: the distance is the smallest weight
    at which some error has nonzero expectation in the code state.
    """
    d, n = Q.hadamard.d, Q.graph.n
    _dense_size(n, d, DENSE_MATRIX_CAP)
    if max_weight > n:
        max_weight = n
    V = Q.basis_matrix()
    K = Q.K
    nontrivial = [(ab, op) for ab, op in weyl_operators(d) if ab != (0, 0)]
    for w in range(1, max_weight + 1):
        for sites, ops in _error_iter(n, d, w, nontrivial):
            EV = _apply_site_ops(V, d, sites, ops)
            M = V.conj().T @ EV
            if K == 1:
                if abs(M[0, 0]) > KL_TOL:
                    return w
                continue
            lam = np.trace(M) / K
            delta = M - lam * np.eye(K)
            dev = np.max(np.abs(V @ delta @ V.conj().T))
            if dev > KL_TOL:
                return w
    return errors.LowerBoundExceeded(max_weight)


def weight_enumerators(Q: QuantumCode) -> Tuple[np.ndarray, np.ndarray]:
    """Shor-Laflamme enumerators over the Weyl basis.

    A_j = (1/K^2) sum_{wt(E)=j} |Tr(PE)|^2 and
    B_j = (1/K)   sum_{wt(E)=j} Tr(P E P E^dagger), P the code projector.
    Both are local-unitary invariants; A_0 = B_0 = 1 and B_j >= A_j >= 0.
    """
    d, n = Q.hadamard.d, Q.graph.n
    _dense_size(n, d, DENSE_MATRIX_CAP)
    V = Q.basis_matrix()
    K = Q.K
    A = np.zeros(n + 1)
    B = np.zeros(n + 1)
    A[0] = 1.0
    B[0] = 1.0
    nontrivial = [(ab, op) for ab, op in weyl_operators(d) if ab != (0, 0)]
    for j in range(1, n + 1):
        a_sum = 0.0
        b_sum = 0.0
        for sites, ops in _error_iter(n, d, j, nontrivial):
            M = V.conj().T @ _apply_site_ops(V, d, sites, ops)
            a_sum += abs(np.trace(M)) ** 2
            b_sum += float(np.sum(np.abs(M) ** 2))
        A[j] = a_sum / K**2
        B[j] = b_sum / K
    return A, B


@dataclass(frozen=True, eq=False)
class DecodedError:
    factorizes: bool
    site_operator: Optional[np.ndarray]  # present when the residual is small
    residual: float


def decoded_error(G: Graph, H: HadamardMatrix, E: LocalOperator) -> DecodedError:
    """Conjugate a single-site error by the encoding circuit.

    Computes M = U^dagger E_k U and tries to factor M as a single-site
    operator on E's own site k tensored with identity. Diagonal E commutes
    with every edge gate, so the factorization succeeds with site operator
    (H/sqrt(d))^dagger E (H/sqrt(d)).

    M is computed on the closed neighbourhood N[k] = {k} + neighbours(k)
    only. U = D u^(x n) with u = H/sqrt(d) and D the diagonal edge phases:
    edge gates not incident to k commute with E_k and cancel, and every site
    outside N[k] sees u^dagger u = I, so M = M_loc (x) I_rest, where M_loc
    is the same conjugation by the circuit of the graph on N[k] (its
    vertices in their original order, so h[i_a, i_b] keeps its orientation
    for a non-symmetric H) with only the edges incident to k. Site
    operator, factorization and residual are then read off M_loc. This is
    exact when u is unitary and the edge entries are unimodular; a matrix
    that `validate` admits within ~1e-9 can move the residual by that order.
    The d**n cap on the whole register is kept.
    """
    n, d = G.n, H.d
    if E.d != d:
        raise errors.DimensionMismatch(f"error d={E.d}, matrix d={d}")
    if not (0 <= E.site < n):
        raise errors.SiteOutOfRange(f"site {E.site} out of range for n={n}")
    _dense_size(n, d, DENSE_MATRIX_CAP)
    nbrs = G.neighbors(E.site)
    hood = sorted((E.site,) + nbrs)
    site = hood.index(E.site)
    local = build(len(hood), [(site, hood.index(v)) for v in nbrs])
    U = circuit_unitary(local, H)
    M = U.conj().T @ _apply_site(E.matrix, site, d, U)
    pre = d**site
    post = d ** (local.n - site - 1)
    Mt = M.reshape(pre, d, post, pre, d, post)
    S = np.einsum("paqpbq->ab", Mt) / (pre * post)
    approx = np.kron(np.kron(np.eye(pre), S), np.eye(post))
    residual = float(np.max(np.abs(M - approx)))
    ok = residual <= 1e-9
    return DecodedError(
        factorizes=ok,
        site_operator=S if ok else None,
        residual=residual,
    )
