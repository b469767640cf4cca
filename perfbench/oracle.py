"""Independent numpy re-implementations the checker trusts instead of gghs.

Nothing here imports gghs: these are the closed forms and small dense
computations that certify the program's answers. Only the matrices and
graphs the workloads use are known here.
"""

from __future__ import annotations

import math

import numpy as np


def _fourier(d: int) -> np.ndarray:
    k = np.arange(d)
    return np.exp(2j * np.pi * (np.outer(k, k) % d) / d)


def _h_alpha(alpha: float) -> np.ndarray:
    e = np.exp(1j * alpha)
    return np.array(
        [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, e, -e], [1, -1, -e, e]], dtype=complex
    )


_FIXED = {
    "tilde_a": [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]],
    "tilde_b": [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]],
    "tilde_c": [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
    "tilde_d": [[1, 1, 1, 1], [1, -1, -1, 1], [1, -1, 1, -1], [1, 1, -1, -1]],
    "h_d6": [
        [1, 1, 1, 1, 1, 1],
        [1, -1, 1j, -1j, -1j, 1j],
        [1, 1j, -1, 1j, -1j, -1j],
        [1, -1j, 1j, -1, 1j, -1j],
        [1, -1j, -1j, 1j, -1, 1j],
        [1, 1j, -1j, -1j, 1j, -1],
    ],
}


def matrix(spec: str) -> np.ndarray:
    """Entries of a catalog matrix named in CLI shorthand."""
    name, _, arg = spec.partition(":")
    if name == "fourier":
        return _fourier(int(arg))
    if name == "h_alpha":
        num, _, den = arg.partition("/")
        if num != "pi":
            raise ValueError(f"oracle knows h_alpha:pi/N only, got {spec!r}")
        return _h_alpha(math.pi / int(den))
    if name == "qutrit_h2":
        w = np.exp(2j * np.pi / 3)
        return np.array([[1, 1, 1], [1, w**2, w], [1, w, w**2]], dtype=complex)
    if name in _FIXED:
        return np.array(_FIXED[name], dtype=complex)
    raise ValueError(f"oracle does not know matrix {spec!r}")


def graph(spec: str):
    """(n, edges) of a graph named in CLI shorthand."""
    if spec == "triangle":
        return 3, [(0, 1), (1, 2), (0, 2)]
    name, _, arg = spec.partition(":")
    n = int(arg)
    if name == "line":
        return n, [(j, j + 1) for j in range(n - 1)]
    if name == "cycle":
        return n, [(j, j + 1) for j in range(n - 1)] + [(0, n - 1)]
    if name == "star":
        return n, [(0, j) for j in range(1, n)]
    if name == "complete":
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise ValueError(f"oracle does not know graph {spec!r}")


def graph_state(graph_spec: str, matrix_spec: str, digits=None) -> np.ndarray:
    """psi(i) = prod_k u[i_k, c_k] * prod_{(a,b) in E} h[i_a, i_b], u = H/sqrt(d).

    Returned as an n-axis tensor, qudit 0 first (big-endian flattening).
    """
    n, edges = graph(graph_spec)
    h = matrix(matrix_spec)
    d = h.shape[0]
    digits = list(digits) if digits is not None else [0] * n
    u = h / math.sqrt(d)
    psi = np.ones((1,) * n, dtype=complex)
    for k, c in enumerate(digits):
        shape = [1] * n
        shape[k] = d
        psi = psi * u[:, c].reshape(shape)
    for a, b in edges:
        shape = [1] * n
        shape[a] = d
        shape[b] = d
        psi = psi * h.reshape(shape)
    return psi


def schmidt_spectrum(psi: np.ndarray, part) -> np.ndarray:
    """Squared Schmidt coefficients across (part | rest), descending."""
    n, d = psi.ndim, psi.shape[0]
    part = sorted(part)
    rest = [a for a in range(n) if a not in part]
    m = np.transpose(psi, part + rest).reshape(d ** len(part), d ** len(rest))
    gram = m @ m.conj().T if m.shape[0] <= m.shape[1] else m.conj().T @ m
    vals = np.linalg.eigvalsh((gram + gram.conj().T) / 2)[::-1]
    out = np.zeros(d ** len(part))
    out[: len(vals)] = vals[: len(out)]
    return out


def pauli_z_power(d: int, k: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * k * np.arange(d) / d))
