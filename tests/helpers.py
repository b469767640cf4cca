"""Shared inventories, fixtures and oracles for the tests.

The test grid (catalog matrices and small graphs), state fixtures that the
package itself does not need, and independent oracles the tests check the
package against.
"""

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from gghs import (catalog, codes, entangle, errors, family, fourier, pauli_xz, qstate,
                  s_symmetries, validate)
from gghs._limits import _dense_size
from gghs.cli import main
from gghs.graphs import Graph
from gghs.hadamard import GENERAL, P_EQUIV, EquivalenceWitness, HadamardMatrix
from gghs.qstate import _check_digits, _check_operator, _edge_phases

PI = math.pi
SRC = str(Path(__file__).resolve().parent.parent / "src")


def full_catalog():
    """Every matrix constructor exposed by the library, one sample per family.

    Labels are the CLI shorthand spellings so failures name the offending
    matrix directly.
    """
    out = [(f"fourier:{d}", fourier(d)) for d in range(2, 7)]
    out += [
        ("h_alpha:0", catalog("h_alpha", 0.0)),
        ("h_alpha:pi/5", catalog("h_alpha", PI / 5)),
        ("h_alpha:pi/2", catalog("h_alpha", PI / 2)),
        ("tilde_a", catalog("tilde_a")),
        ("tilde_b", catalog("tilde_b")),
        ("tilde_c", catalog("tilde_c")),
        ("tilde_d", catalog("tilde_d")),
        ("qutrit_h2", catalog("qutrit_h2")),
        ("h_d6", catalog("h_d6")),
    ]
    return out


def connected_graphs(max_n=5, min_n=2):
    """Named connected graphs with min_n <= n <= max_n, no duplicates."""
    out = []
    for n in range(max(min_n, 2), max_n + 1):
        out.append((f"star:{n}", family("star", n)))
        if n >= 3:
            out.append((f"line:{n}", family("line", n)))
            out.append((f"cycle:{n}", family("cycle", n)))
    if max_n >= 4:
        for n in range(4, max_n + 1):
            out.append((f"complete:{n}", family("complete", n)))
    return out


def cut_rank(G, part, p):
    """Rank over Z_p of the adjacency block Gamma[part, rest] of G."""
    part = sorted(part)
    rest = [v for v in range(G.n) if v not in part]
    rows = [[int((min(a, b), max(a, b)) in G.edges) for b in rest] for a in part]
    rank = 0
    for c in range(len(rest)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] % p:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def digits_to_index(d: int, digits: Sequence[int]) -> int:
    """The big-endian flat index of digits: qudit 0 is the most significant."""
    k = 0
    for x in digits:
        k = k * d + int(x)
    return k


def index_to_digits(n: int, d: int, k: int) -> Tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(k % d)
        k //= d
    return tuple(reversed(out))


def basis_state(n: int, d: int, digits: Sequence[int]) -> np.ndarray:
    _check_digits(n, d, digits)
    amps = np.zeros(_dense_size(n, d), dtype=np.complex128)
    amps[digits_to_index(d, digits)] = 1.0
    return amps.reshape((d,) * n)


def apply_local(U: np.ndarray, site: int, s: np.ndarray) -> np.ndarray:
    """The d x d operator U on axis `site` of the state s; the other axes ride along."""
    if not (0 <= site < s.ndim):
        raise errors.SiteOutOfRange(f"site {site} out of range for n={s.ndim}")
    d = s.shape[site]
    _check_operator(U, d)
    T = s.reshape(math.prod(s.shape[:site]), d, -1)
    out = np.einsum("ab,ibj->iaj", np.asarray(U, dtype=np.complex128), T)
    return out.reshape(s.shape)


def apply_ch(H: HadamardMatrix, s: np.ndarray, i: int, j: int) -> np.ndarray:
    """Diagonal two-qudit gate: amplitude at (.., a_i, .., a_j, ..) times h[a_i, a_j]."""
    if i == j:
        raise ValueError("the gate acts on two distinct sites")
    if H.d != s.shape[0]:
        raise errors.DimensionMismatch(f"matrix d={H.d}, state d={s.shape[0]}")
    if not H.symmetric:
        raise errors.NotSymmetric("the gate requires a symmetric matrix")
    for site in (i, j):
        if not (0 <= site < s.ndim):
            raise errors.SiteOutOfRange(f"site {site} out of range for n={s.ndim}")
    T = s.astype(np.complex128)
    # _edge_phases takes a < b; a file matrix equals its transpose only within TOL_ENTRY.
    h, edge = (H.entries, (i, j)) if i < j else (H.entries.T, (j, i))
    _edge_phases(h, [edge], T)
    return T


def kron_circuit_unitary(G, H) -> np.ndarray:
    """The encoding circuit D u^(x n) as a dense matrix: the Kronecker power of
    u = H/sqrt(d), each row scaled by its edge phases."""
    n, d = G.n, H.d
    u = H.entries / math.sqrt(d)
    U = reduce(np.kron, [u] * n) if n > 0 else np.eye(1, dtype=np.complex128)
    phases = np.ones((d,) * n, dtype=np.complex128)
    _edge_phases(H.entries, G.edges, phases)
    return U * phases.reshape(-1, 1)


def peps_contract(G: Graph, H: HadamardMatrix) -> np.ndarray:
    """Contract one bond tensor per edge with per-site leg-merging projectors.

    The projector at site s forces every leg incident to s to carry the same
    index, so the contraction is a product over edges with one free index per
    vertex. Every site also carries the circuit's input column H[:, 0]
    (uniform for a dephased matrix): on its first bond, or as a factor of its
    own at a vertex of degree 0. The factors are folded into the running
    tensor one einsum call each; no index is summed, so each amplitude is
    the product of its factors taken in order. The result is normalized.
    """
    n, d = G.n, H.d
    _dense_size(n, d)
    col, ones = H.entries[:, 0], np.ones(d)
    bare = set(range(n))  # sites whose column is in no factor yet
    factors = []
    for u, v in G.edges:
        left, right = (col if u in bare else ones), (col if v in bare else ones)
        bare -= {u, v}
        factors.append((left[:, None] * H.entries * right, [u, v]))
    factors += [(col, [s]) for s in sorted(bare)]
    T, axes = np.ones((), dtype=np.complex128), []
    for f, sub in factors:
        out = sorted(set(axes).union(sub))
        T, axes = np.einsum(T, axes, f, sub, out), out
    nrm = np.linalg.norm(T)
    if nrm <= 0:
        raise errors.NotHadamard("contraction produced the zero vector")
    T /= nrm
    return T


def weyl_operators(d: int) -> List[Tuple[Tuple[int, int], np.ndarray]]:
    """All d*d operators X^a Z^b keyed by (a, b), identity first."""
    X, Z = pauli_xz(d)
    xs = [np.linalg.matrix_power(X, a) for a in range(d)]
    zs = [np.linalg.matrix_power(Z, b) for b in range(d)]
    return [((a, b), xs[a] @ zs[b]) for a in range(d) for b in range(d)]


def fourier_code_distance(G, d, words, max_weight):
    """Distance of the graph code of G over F_d with codewords `words`, by the
    stabilizer rule; None when no error of weight <= max_weight violates.

    For H = F_d, u|c> = Z^c|+>, so psi_c = Z^c|G>, the qudit graph code of
    Schlingemann & Werner (PRA 65, 012308, 2001). With pauli_xz's
    convention, X^a Z^b sends psi_c to q^(a.c) times a phase free of c times
    psi_(c+v), v = b + Gamma a mod d. The distance is the least weight
    |supp a u supp b| of a nonzero (a, b) with v in (C - C) minus {0}, or with
    v = 0 and a.c not constant on C; for K = 1 any v = 0 counts.

    On a support S with a fixed, b ranges over every v_S while v off S is
    (Gamma a) there, so only a is enumerated: sum_w C(n, w) d^w cases and K^2
    differences each, no d^n anywhere. Errors with a trivial site in S are
    scanned again, harmlessly: their own smaller weight came first.
    """
    n = G.n
    gamma = np.zeros((n, n), dtype=np.int64)
    for u, v in G.edges:
        gamma[u, v] = gamma[v, u] = 1
    C = np.array(words, dtype=np.int64)
    diffs = (C[:, None, :] - C[None, :, :]).reshape(-1, n) % d
    diffs = diffs[diffs.any(axis=1)]
    for w in range(1, min(max_weight, n) + 1):
        for S in itertools.combinations(range(n), w):
            rest = [k for k in range(n) if k not in S]
            for a_S in itertools.product(range(d), repeat=w):
                a = np.zeros(n, dtype=np.int64)
                a[list(S)] = a_S
                v_rest = gamma[rest] @ a % d
                if (diffs[:, rest] == v_rest).all(axis=1).any():
                    return w
                if any(a_S) and not v_rest.any():
                    dots = C @ a % d
                    if len(C) == 1 or (dots != dots[0]).any():
                        return w
    return None


def s_symmetries_by_permutations(H: HadamardMatrix) -> List[Tuple[Tuple[int, ...], np.ndarray]]:
    """Every S-symmetry (p, D) of H, P H D = H, by trying all d! row maps.

    D is forced by P as D = (1/d) H^dagger P^T H, which must be diagonal and
    unimodular within 1e-9. The pairs come in lexicographic order of p.
    """
    A, d = H.entries, H.d
    out = []
    for p in itertools.permutations(range(d)):
        Dm = (A.conj().T @ A[list(p), :]) / d
        ph = np.diag(Dm).copy()
        if np.max(np.abs(Dm - np.diag(ph))) <= 1e-9 and np.max(np.abs(np.abs(ph) - 1.0)) <= 1e-9:
            out.append((p, ph))
    return out


def _generator_factors(G, w: EquivalenceWitness, a: int) -> List[np.ndarray]:
    """The n dense d x d site factors of the generator K_a of the
    S-symmetry w = (P, D) at vertex a of G: P at a, D at each neighbour of
    a, the identity elsewhere."""
    eye = np.eye(len(w.p1), dtype=np.complex128)
    factors = [eye] * G.n
    factors[a] = eye[:, list(w.p1)]  # P|i> = |p[i]>
    for b in G.neighbors(a):
        factors[b] = np.diag(w.d1)
    return factors


def dense_stabilizer_deviation(G, w: EquivalenceWitness, a: int, s: np.ndarray) -> float:
    """||K_a psi - psi|| for the generator of the S-symmetry w = (P, D) at
    vertex a of G, each of its site factors applied by apply_local: the
    oracle of the deviation |1 - D_0| that `gghs stabilizers` prints."""
    out = s
    for site, f in enumerate(_generator_factors(G, w, a)):
        out = apply_local(f, site, out)
    return float(np.linalg.norm(out - s))


def stabilized_dimension(G, H: HadamardMatrix) -> int:
    """The dimension of the space that the local symmetries of G's graph
    states over H fix: the states psi with K_a psi = psi / D_0 for the
    generator K_a of every S-symmetry (P, D) at every vertex a, read
    densely as the number of singular values of the stacked K_a - I / D_0
    below 1e-8."""
    blocks = []
    for w in s_symmetries(H):
        for a in range(G.n):
            K = reduce(np.kron, _generator_factors(G, w, a))
            blocks.append(K - np.eye(len(K)) / w.d1[0])
    sv = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return int(np.sum(sv < 1e-8))


def dense_witness_rhs(H: HadamardMatrix, w: EquivalenceWitness) -> np.ndarray:
    """The right-hand side of the witness's defining equation at H, each
    permutation and diagonal multiplied in as a dense d x d matrix."""
    def perm(p):
        return np.eye(len(p), dtype=np.complex128)[:, list(p)]  # P|i> = |p[i]>

    if w.kind == GENERAL:
        return np.diag(w.d1) @ perm(w.p1) @ H.entries @ perm(w.p2) @ np.diag(w.d2)
    if w.kind == P_EQUIV:
        return perm(w.p1) @ np.diag(w.d1) @ H.entries @ np.diag(w.d2) @ perm(w.p1).T
    return perm(w.p1) @ H.entries @ np.diag(w.d1)


def df3d() -> HadamardMatrix:
    """D F3 D with D = diag(e^0.3i, e^1.1i, e^2.0i): symmetric, not dephased."""
    D = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0])))
    return validate(D @ fourier(3).entries @ D)


def skewed_f3() -> np.ndarray:
    """diag(1, e^0.4i, e^1.3i) F3 diag(1, e^2.2i, e^0.7i): a Hadamard matrix that
    is not symmetric, though its dephased form F3 is."""
    return (np.exp(1j * np.array([0, 0.4, 1.3]))[:, None] * fourier(3).entries
            * np.exp(1j * np.array([0, 2.2, 0.7])))


def matrix_json(entries) -> str:
    """The Matrix JSON text of a square complex array."""
    a = np.asarray(entries, dtype=np.complex128)
    return json.dumps({"d": a.shape[0], "entries": np.stack([a.real, a.imag], -1).tolist()})


def cli_stdout(argv) -> Tuple[int, str]:
    """(exit code, stdout) of one `gghs` request, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def small_registers_only(monkeypatch) -> None:
    """Wrap _encode, in each module that imports it, so that it refuses a
    register of more than 2**12 amplitudes: a kernel that answers under it
    on a large graph built no register past that size."""
    encode = qstate._encode

    def small(G, H, words):
        assert H.d**G.n * len(words) <= 2**12, f"a register of {H.d}**{G.n} amplitudes"
        return encode(G, H, words)

    for module in (qstate, entangle, codes):
        monkeypatch.setattr(module, "_encode", small)


def python_process(*args) -> subprocess.CompletedProcess:
    """`python ARGS` as its own process, with src on the path and one BLAS
    thread; its stdout and stderr are captured as text."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, encoding="utf-8", timeout=120
    )


def entry_stdout(argv) -> Tuple[int, str]:
    """(exit code, stdout) of one `gghs` request, run through the real entry
    point `python -m gghs.cli` in its own process."""
    proc = python_process("-m", "gghs.cli", *argv)
    return proc.returncode, proc.stdout
