"""Graph quantum codes: classical codewords encoded through the graph-state
circuit, Knill-Laflamme distance, weight enumerators, and decoded errors."""

from __future__ import annotations

import itertools
import math
import operator
from functools import reduce
from typing import Optional, Tuple

import numpy as np

from . import errors
from ._limits import DENSE_AMP_CAP, TOL_ENTRY, _dense_size
from .graphs import Graph, neighbourhood
from .hadamard import HadamardMatrix, _gram_deviation
from .qstate import _check_graph_state, _check_operator, _encode


def build_code(G: Graph, H: HadamardMatrix, words) -> np.ndarray:
    """The read-only (d,)*n + (K,) basis of the code of `words` (digit tuples
    over 0..d-1 of one length n, no word twice): slice [..., j] is
    graph_state(G, H, input_digits=words[j]), the circuit of H as given, each
    slice normalized on its own. The words are checked in order (length,
    digits, repeats) before the code length is matched to G, and the d**n * K
    amplitudes are capped before any is built.
    """
    words = tuple(map(tuple, words))
    if not words:
        raise errors.BadSize("no codewords in input")
    n, d, K, m = G.n, H.d, len(words), len(words[0])
    seen = set()
    for w in words:
        if len(w) != m:
            raise errors.BadSize(f"word {w} is not length {m}")
        for x in w:
            if not (0 <= operator.index(x) < d):
                raise errors.DigitOutOfRange(f"digit {x} out of range for d={d}")
        if w in seen:
            raise errors.BadSize(f"duplicate word {w}")
        seen.add(w)
    if m != n:
        raise errors.DimensionMismatch(f"code length {m} != vertex count {n}")
    _check_graph_state(G, H)
    if d**n * K > DENSE_AMP_CAP:
        raise errors.TooLarge(
            f"d**n * K with n={n}, d={d}, K={K} exceeds the cap {DENSE_AMP_CAP}"
        )
    T = _encode(G, H, words)
    V = T.reshape(-1, K)  # a view: columns are normalized in T
    for col in V.T:
        col /= np.linalg.norm(col)
    gram_dev = _gram_deviation(V, 1)
    if gram_dev > TOL_ENTRY:
        raise errors.GramNotIdentity(f"gram deviates from identity by {gram_dev:.3e}")
    T.flags.writeable = False
    return T


def _shape(V: np.ndarray) -> Tuple[int, int, int]:
    """n, d, K of a (d,)*n + (K,) code basis. Site axes of unequal length are
    a DimensionMismatch; d = 1 has no nontrivial error and is BadSize; the
    code projector, (d**n)**2 entries, is capped."""
    *sites, K = np.shape(V)
    if len(set(sites)) != 1:
        raise errors.DimensionMismatch(f"code site axes {tuple(sites)} differ in length")
    n, d = len(sites), sites[0]
    if d < 2:
        raise errors.BadSize("codes need d >= 2")
    _dense_size(n, d, axes=2)
    return n, d, K


def _splits(V: np.ndarray, weights):
    """Yield (w, M) for each site subset S with |S| = w in weights.

    M is the basis V, checked by _shape, as a (d**w, d**(n-w), K) array over
    S, the rest and the codeword."""
    n, d, K = V.ndim - 1, V.shape[0], V.shape[-1]
    for w in weights:
        for S in itertools.combinations(range(n), w):
            rest = [k for k in range(n) if k not in S]
            yield w, V.transpose(list(S) + rest + [n]).reshape(d**w, -1, K)


def _kl_holds(M: np.ndarray) -> bool:
    """Whether all blocks R_ij = Tr_rest |psi_i><psi_j| of M equal delta_ij sigma,
    checked one row i (K d^(2w) entries) at a time beside a conjugated copy of M."""
    ds, dr, K = M.shape
    flat = M.reshape(ds, -1)
    sigma = flat @ flat.conj().T / K if K > 1 else np.eye(ds) / ds
    right = M.conj().transpose(1, 2, 0).reshape(dr, K * ds)
    for i in range(K):
        X = (M[:, :, i] @ right).reshape(ds, K, ds)  # X[s, j, t] = R_ij[s, t]
        X[:, i, :] -= sigma
        if np.max(np.abs(X)) > TOL_ENTRY:
            return False
    return True


def kl_distance(V: np.ndarray, max_weight: int) -> Optional[int]:
    """Smallest error weight violating the Knill-Laflamme condition on the
    code basis V, a (d,)*n + (K,) array such as build_code returns.

    Erasure form (Knill & Laflamme 1997): every error on a site set S obeys
    it iff X_ij = Tr_{S^c}|psi_i><psi_j| - delta_ij sigma_S vanishes, sigma_S
    the mean of the diagonal blocks (I/d^w for K = 1: a one-dimensional
    code's distance is the least weight of an error with nonzero expectation).
    Returns the first w with some |S| = w and max|X_ij| > TOL_ENTRY, or None
    when no weight up to min(max_weight, n) violates it. For E on S and
    delta = V^dagger E V minus its mean diagonal,
    ||V delta V^dagger||_max <= K d^w max||X_ij||_max and
    ||X_ij||_max <= d^(w+n) max_E ||V delta V^dagger||_max. A max_weight
    below 1 scans nothing and raises BadSize.
    """
    if max_weight < 1:
        raise errors.BadSize(f"max_weight must be >= 1, got {max_weight}")
    n = _shape(V)[0]
    for w, M in _splits(V, range(1, min(max_weight, n) + 1)):
        if not _kl_holds(M):
            return w
    return None


def weight_enumerators(V: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Shor-Laflamme enumerators over the Weyl basis of the code basis V, a
    (d,)*n + (K,) array such as build_code returns.

    A_j = (1/K^2) sum_{wt(E)=j} |Tr(PE)|^2 and
    B_j = (1/K)   sum_{wt(E)=j} Tr(P E P E^dagger), P the code projector.
    Both are local-unitary invariants; A_0 = B_0 = 1 and B_j >= A_j >= 0 up
    to residues of order 1e-15. Rains's identities (Rains 1998) sum the errors
    within S to d^|S| Tr(P_S^2) for A and d^|S| Tr(P_{S^c}^2) for B; with
    a_k = d^k sum_{|S|=k} Tr(P_S^2), A_j = sum_{k<=j} (-1)^(j-k) C(n-k, j-k)
    a_k / K^2, and B_j is the same over b_k = d^k sum_{|S|=n-k} Tr(P_S^2),
    divided by K. Each of the 2^n purities comes from the smaller Gram side.
    """
    n, d, K = _shape(V)
    p = np.zeros(n + 1)
    for w, M in _splits(V, range(n + 1)):
        flat = M.reshape(d**w, -1)
        gram = flat @ flat.conj().T if d**w <= flat.shape[1] else flat.conj().T @ flat
        p[w] += np.sum(np.abs(gram) ** 2)
    scale = float(d) ** np.arange(n + 1)
    C = np.array([[(-1) ** (j - k) * math.comb(n - k, j - k) if k <= j else 0
                   for k in range(n + 1)] for j in range(n + 1)])
    return C @ (scale * p) / K**2, C @ (scale * p[::-1]) / K


def decoded_error(G: Graph, H: HadamardMatrix, E: np.ndarray, site: int):
    """Conjugate the d x d error E on site k = `site` by the encoding circuit.

    Computes M = U^dagger E_k U and tries to factor M as a single-site
    operator on site k tensored with identity. Diagonal E commutes with
    every edge gate, so the factorization succeeds with site operator
    (H/sqrt(d))^dagger E (H/sqrt(d)). Returns (factorizes, site_operator,
    residual): the residual is the largest entry of M minus its factored
    form, and site_operator is None when it exceeds TOL_ENTRY.

    M is computed on the closed neighbourhood N[k] = {k} + neighbours(k)
    only. U = D u^(x n) with u = H/sqrt(d) and D the diagonal edge phases:
    edge gates not incident to k commute with E_k and cancel, and every site
    outside N[k] sees u^dagger u = I, so M = M_loc (x) I_rest. No U is built:
    the edge gates are diagonal, so
        M_loc = sum_{E_ab != 0} E_ab (u^dagger |a><b| u)
                (x) (x)_{v in N(k)} u^dagger diag(conj(H[a, :]) H[b, :]) u,
    the factors in the vertex order of N[k]: one Kronecker product of
    d^(2m) entries per nonzero E_ab (at most d for a diagonal E), m = |N[k]|.
    Site operator, factorization and residual are read off M_loc. This is
    exact when u is unitary and the edge entries are unimodular; a matrix
    that `validate` admits within ~1e-9 can move the residual by that order.
    E is checked first (d x d, finite), then graph_state's checks (H must be
    symmetric), then the site. M is capped as the whole-register operator it
    stands for, (d**n)**2 <= DENSE_AMP_CAP.
    An operator whose entries overflow float64 raises Overflow.
    """
    n, d = G.n, H.d
    Em = _check_operator(E, d)
    _check_graph_state(G, H)
    site = operator.index(site)
    if not (0 <= site < n):
        raise errors.SiteOutOfRange(f"site {site} out of range for n={n}")
    _dense_size(n, d, axes=2)
    hood, local = neighbourhood(G, [site])
    at = hood.index(site)
    pre = d**at
    post = d ** (local.n - at - 1)
    h, u = H.entries, H.entries / math.sqrt(d)
    M = np.zeros((pre * d * post,) * 2, dtype=np.complex128)
    # An overflow is raised as Overflow below, not printed as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(*np.nonzero(Em)):
            factors = [
                Em[a, b] * np.outer(u[a].conj(), u[b]) if v == at
                else (u.conj().T * (h[a].conj() * h[b])) @ u
                for v in range(local.n)
            ]
            M += reduce(np.kron, factors)
        Mt = M.reshape(pre, d, post, pre, d, post)
        S = np.einsum("paqpbq->ab", Mt) / (pre * post)
        # einsum's diagonal is a writeable view: M - I (x) S (x) I, in place.
        np.einsum("paqpbq->paqb", Mt)[...] -= S[:, None, :]
        residual = float(np.max(np.abs(M)))
    if not math.isfinite(residual):
        # An inf or NaN anywhere in M or S reaches the residual.
        raise errors.Overflow(f"the decoded operator overflows float64 (residual {residual})")
    ok = residual <= TOL_ENTRY
    return ok, S if ok else None, residual
