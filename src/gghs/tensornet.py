"""Bond-state / tensor-network construction of graph states.

One unnormalized two-qudit bond per edge, amplitudes h_ij; each site projects
all of its bond legs onto a common value. Contracting gives the same state as
the circuit construction up to normalization.
"""

from __future__ import annotations

import numpy as np

from . import errors
from .graphs import Graph
from .hadamard import HadamardMatrix
from .qstate import StateVector, _dense_size


def peps_contract(G: Graph, H: HadamardMatrix) -> StateVector:
    """Contract one bond tensor per edge with per-site leg-merging projectors.

    The projector at site s forces every leg incident to s to carry the same
    index, so the contraction is a single product over edges with one free
    index per vertex. Degree-0 vertices contribute the uniform single-qudit
    factor. The result is normalized.
    """
    n, d = G.n, H.d
    _dense_size(n, d)
    operands = []
    subscripts = []
    for u, v in G.edges:
        operands.append(H.entries)
        subscripts.append([u, v])
    for s in range(n):
        if G.degree(s) == 0:
            operands.append(np.ones(d, dtype=np.complex128))
            subscripts.append([s])
    if not operands:
        # n isolated vertices and no edges
        T = np.ones((d,) * n, dtype=np.complex128)
    else:
        args = []
        for op, sub in zip(operands, subscripts):
            args.extend([op, sub])
        args.append(list(range(n)))
        T = np.einsum(*args)
    amps = T.reshape(-1)
    nrm = np.linalg.norm(amps)
    if nrm <= 0:
        raise errors.GGHSError("contraction produced the zero vector")
    return StateVector(n=n, d=d, amps=amps / nrm)
