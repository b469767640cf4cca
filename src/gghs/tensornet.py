"""Bond-state / tensor-network construction of graph states.

One unnormalized two-qudit bond per edge, amplitudes h_ij; each site projects
all of its bond legs onto a common value. Contracting gives the same state as
the circuit construction up to normalization.
"""

from __future__ import annotations

import numpy as np

from . import errors
from ._limits import _dense_size
from .graphs import Graph
from .hadamard import HadamardMatrix


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
