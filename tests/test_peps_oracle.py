"""The PEPS contraction oracle, helpers.peps_contract, against the encoding
circuit: bond states, their norms, and fidelity 1 with graph_state.
"""

import math

import numpy as np
import pytest

from gghs import (
    HadamardMatrix,
    build,
    catalog,
    errors,
    family,
    fourier,
    graph_state,
    validate,
)
from helpers import connected_graphs, full_catalog, peps_contract

PI = math.pi


# The one-edge contraction is the bond state: amps[i*d + j] = h_ij / d, since
# the unimodular entries give ||H||_F = d.


def test_bond_state_qubit():
    s = peps_contract(family("line", 2), fourier(2))
    np.testing.assert_allclose(s.reshape(-1), np.array([1, 1, 1, -1]) / 2, atol=1e-12)


def test_bond_state_entry_lookup():
    s = peps_contract(family("line", 2), catalog("h_alpha", PI / 5))
    np.testing.assert_allclose(s.reshape(-1)[2 * 4 + 2], np.exp(1j * PI / 5) / 4, atol=1e-12)


def test_zero_contraction_is_not_hadamard():
    zeros = HadamardMatrix(d=2, entries=np.zeros((2, 2)), symmetric=True, dephased=False)
    with pytest.raises(errors.NotHadamard):
        peps_contract(family("line", 2), zeros)


@pytest.mark.parametrize("label,H", full_catalog())
def test_bond_state_norm(label, H):
    s = peps_contract(family("line", 2), H)
    assert abs(np.linalg.norm(s) - 1.0) <= 1e-12
    np.testing.assert_allclose(s.reshape(-1), H.entries.reshape(-1) / H.d, atol=1e-9)


def test_edge_contraction_is_maximally_entangled():
    H = catalog("tilde_b")
    s = peps_contract(family("line", 2), H)
    expect = H.entries.reshape(-1) / 4.0  # C^H applied to the uniform state
    assert abs(abs(np.vdot(expect, s.reshape(-1))) - 1.0) <= 1e-9


@pytest.mark.parametrize("gname,G", connected_graphs(max_n=4))
def test_contraction_matches_circuit(gname, G):
    for label, H in [
        ("fourier:2", fourier(2)),
        ("fourier:3", fourier(3)),
        ("h_alpha:pi/5", catalog("h_alpha", PI / 5)),
        ("h_d6", catalog("h_d6")),
    ]:
        fid = abs(np.vdot(peps_contract(G, H), graph_state(G, H)))
        assert fid >= 1.0 - 1e-9, (gname, label)


def test_contraction_carries_the_input_column():
    # Symmetric but not dephased: every site starts in H[:, 0], not uniform.
    D = np.diag([1, 1j, np.exp(0.7j)])
    H = validate(D @ fourier(3).entries @ D)
    assert H.symmetric and not H.dephased
    for G in (family("triangle"), family("star", 4), build(3, [(0, 1)]), build(1, [])):
        fid = abs(np.vdot(peps_contract(G, H), graph_state(G, H)))
        assert fid >= 1.0 - 1e-9, G.edges


def test_isolated_vertex_factor():
    # degree-0 site carries the uniform qudit for a dephased matrix
    G = build(3, [(0, 1)])
    H = fourier(3)
    fid = abs(np.vdot(peps_contract(G, H), graph_state(G, H)))
    assert fid >= 1.0 - 1e-9


def test_empty_graph_contraction():
    G = build(2, [])
    s = peps_contract(G, fourier(2))
    np.testing.assert_allclose(s.reshape(-1), np.full(4, 0.5), atol=1e-12)
