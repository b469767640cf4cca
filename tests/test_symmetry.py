import math

import numpy as np
import pytest

from gghs import (
    GENERAL,
    P_EQUIV,
    S_SYMMETRY,
    EquivalenceWitness,
    apply_local,
    apply_witness,
    build,
    catalog,
    errors,
    family,
    find_equivalence,
    fourier,
    graph_state,
    lu_witness,
    overlap,
    pauli_xz,
    s_symmetries,
    verify_stabilizer,
)
from helpers import basis_state, connected_graphs, dense_stabilizer_deviation, df3d, full_catalog

PI = math.pi


def _weyl_symmetry(d):
    """The (X^dagger, Z) pair from the symmetry scan of the Fourier matrix."""
    shift = tuple((i + 1) % d for i in range(d))
    return next(w for w in s_symmetries(fourier(d)) if w.p1 == shift)


# -------------------------------------------------------------- pauli basics


def test_pauli_xz_qubit():
    X, Z = pauli_xz(2)
    np.testing.assert_allclose(X, [[0, 1], [1, 0]])
    np.testing.assert_allclose(Z, [[1, 0], [0, -1]], atol=1e-12)


def test_pauli_commutation_and_order():
    for d in range(2, 7):
        X, Z = pauli_xz(d)
        q = np.exp(2j * PI / d)
        np.testing.assert_allclose(X @ Z, q * Z @ X, atol=1e-12)
        np.testing.assert_allclose(np.linalg.matrix_power(X, d), np.eye(d), atol=1e-12)
        np.testing.assert_allclose(np.linalg.matrix_power(Z, d), np.eye(d), atol=1e-12)


def test_pauli_x_shifts_down():
    X, _ = pauli_xz(3)
    e1 = np.zeros(3)
    e1[1] = 1.0
    np.testing.assert_allclose(X @ e1, [1, 0, 0])  # |1> -> |0>


# ---------------------------------------------------- stabilizer construction


def test_fourier_stabilizer_matches_weyl_form():
    # The shift symmetry's P is X^dagger and its D is Z, so K_a is X^dagger
    # at a and Z at each neighbour of a.
    for d in (2, 3, 5):
        w = _weyl_symmetry(d)
        X, Z = pauli_xz(d)
        np.testing.assert_allclose(np.eye(d)[:, list(w.p1)], X.conj().T, atol=1e-12)
        np.testing.assert_allclose(np.diag(w.d1), Z, atol=1e-12)


def test_qubit_graph_state_generators():
    # d=2: X at a vertex, Z at its neighbors fixes the graph state
    w = _weyl_symmetry(2)
    for gname, G in [("triangle", family("triangle")), ("star:4", family("star", 4))]:
        psi = graph_state(G, fourier(2))
        for a in range(G.n):
            ok, dev = verify_stabilizer(G, w, a, psi)
            assert ok, (gname, a, dev)


def test_h_alpha_symmetry_operators_fix_triangle_state():
    H = catalog("h_alpha", PI / 5)
    syms = s_symmetries(H)
    psi = graph_state(family("triangle"), H)
    for w in syms:
        for a in range(3):
            ok, dev = verify_stabilizer(family("triangle"), w, a, psi)
            assert ok, (w.p1, a, dev)


def test_identity_witness_gives_identity_operator():
    # The search's first pair is the identity, and the identity pair fixes
    # every state exactly, not only graph states.
    first = s_symmetries(fourier(3))[0]
    assert first.p1 == (0, 1, 2)
    np.testing.assert_allclose(first.d1, np.ones(3), atol=1e-12)
    ident = EquivalenceWitness(kind=S_SYMMETRY, p1=(0, 1, 2), d1=np.ones(3, dtype=np.complex128))
    rng = np.random.default_rng(3)
    s = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    s /= np.linalg.norm(s)
    for a in range(3):
        assert verify_stabilizer(family("triangle"), ident, a, s) == (True, 0.0)


def test_stabilizer_witness_validation():
    G, H = family("triangle"), fourier(3)
    psi = graph_state(G, H)
    # P H D != H for this pair: it is not re-checked, and it moves the state.
    bogus = EquivalenceWitness(
        kind=S_SYMMETRY,
        p1=(1, 2, 0),
        d1=np.ones(3, dtype=np.complex128),
    )
    for a in range(3):
        fixed, dev = verify_stabilizer(G, bogus, a, psi)
        assert fixed is False
        assert dev == pytest.approx(math.sqrt(2), abs=1e-12)
    good = s_symmetries(H)[1]
    with pytest.raises(errors.BadVertex, match="vertex 5 out of range for n=3"):
        verify_stabilizer(G, good, 5, psi)
    with pytest.raises(errors.InvalidWitness, match="expected an S-symmetry witness"):
        verify_stabilizer(G, find_equivalence(H, H, P_EQUIV), 0, psi)


def test_verify_stabilizer_detects_motion():
    X, _ = pauli_xz(2)
    w = EquivalenceWitness(kind=S_SYMMETRY, p1=(1, 0), d1=np.ones(2, dtype=np.complex128))
    ok, dev = verify_stabilizer(build(1, []), w, 0, basis_state(1, 2, [0]))
    assert not ok
    assert abs(dev - math.sqrt(2)) <= 1e-12


def test_verify_stabilizer_refuses_factors_of_another_shape():
    """K_a has one factor per vertex: P at a, a power of D at each neighbour.
    A graph of another n, or a witness whose P and D differ in length, gives
    factors that do not fit the state."""
    G, H = family("triangle"), fourier(3)
    psi = graph_state(G, H)
    w = s_symmetries(H)[1]
    with pytest.raises(errors.DimensionMismatch, match="graph of n=4 vs state of n=3"):
        verify_stabilizer(family("line", 4), w, 0, psi)
    too_short = EquivalenceWitness(kind=S_SYMMETRY, p1=w.p1[:2], d1=w.d1)
    too_long = EquivalenceWitness(kind=S_SYMMETRY, p1=w.p1, d1=np.ones(4, dtype=np.complex128))
    for bad, d in ((too_short, 2), (too_long, 4)):
        with pytest.raises(errors.DimensionMismatch, match=f"witness of d={d} vs state of d=3"):
            verify_stabilizer(G, bad, 0, psi)


def test_verify_stabilizer_refuses_a_witness_of_another_d():
    G, H = family("triangle"), fourier(3)
    psi = graph_state(G, H)
    for d in (2, 4):
        with pytest.raises(errors.DimensionMismatch, match=f"witness of d={d} vs state of d=3"):
            verify_stabilizer(G, s_symmetries(fourier(d))[1], 0, psi)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_verify_stabilizer_refuses_a_non_finite_phase(bad):
    G, H = family("triangle"), fourier(3)
    w = s_symmetries(H)[1]
    phases = w.d1.copy()
    phases[1] = bad
    with pytest.raises(errors.NonFinite) as refusal:
        verify_stabilizer(G, EquivalenceWitness(kind=S_SYMMETRY, p1=w.p1, d1=phases), 0,
                          graph_state(G, H))
    assert refusal.value.code == "non_finite"


def test_verify_stabilizer_refuses_a_p1_that_is_not_a_permutation():
    psi = graph_state(family("line", 2), fourier(2))
    w = EquivalenceWitness(kind=S_SYMMETRY, p1=(0, 0), d1=np.ones(2, dtype=np.complex128))
    with pytest.raises(errors.BadPermutation) as refusal:
        verify_stabilizer(family("line", 2), w, 0, psi)
    assert refusal.value.code == "bad_permutation"


def test_verify_stabilizer_matches_the_dense_oracle_bit_for_bit():
    """Gather and phase give the verdict and the deviation of the dense
    einsum, bit for bit, for every S-symmetry generator on the test grid."""
    for gname, G in connected_graphs(4):
        for label, H in full_catalog():
            if not H.symmetric:
                continue
            psi = graph_state(G, H)
            for w in s_symmetries(H):
                for a in range(G.n):
                    dense = dense_stabilizer_deviation(G, w, a, psi)
                    got = verify_stabilizer(G, w, a, psi)
                    assert got == (dense <= 1e-9, dense), (gname, label, w.p1, a)


@pytest.mark.parametrize("scale", [0.0, 1e-12])
def test_verify_stabilizer_refuses_an_unnormalized_state(scale):
    # K psi - psi scales with psi, so a tiny or zero state would pass any K.
    G, H = family("triangle"), fourier(3)
    psi = graph_state(G, H)
    with pytest.raises(errors.NotNormalized):
        verify_stabilizer(G, s_symmetries(H)[1], 0, psi * scale)


def test_a_witness_of_another_dimension_is_a_dimension_mismatch():
    G, F3 = family("triangle"), fourier(3)
    calls = [
        lambda: lu_witness(G, F3, find_equivalence(fourier(4), fourier(4), P_EQUIV)),
        lambda: lu_witness(
            family("line", 3), F3, find_equivalence(catalog("tilde_a"), catalog("tilde_b"), GENERAL)
        ),
    ]
    for call in calls:
        with pytest.raises(errors.DimensionMismatch, match="witness of d=4 vs matrix of d=3"):
            call()


def test_stabilizer_suite_across_graphs():
    for d in (2, 3, 4):
        H = fourier(d)
        syms = s_symmetries(H)
        for gname, G in connected_graphs(max_n=4):
            psi = graph_state(G, H)
            for w in syms:
                for a in range(G.n):
                    ok, dev = verify_stabilizer(G, w, a, psi)
                    assert ok, (d, gname, w.p1, a, dev)


def test_h_alpha_symmetry_parts_commute():
    syms = s_symmetries(catalog("h_alpha", PI / 5))
    w = next(x for x in syms if x.p1 == (1, 0, 3, 2))
    P = np.eye(4)[:, list(w.p1)]  # P|i> = |p[i]>
    D = np.diag(w.d1)
    assert np.max(np.abs(P @ D - D @ P)) <= 1e-12


# ------------------------------------------------------------- LU witnesses


def test_p_equiv_witness_tilde_pair_is_controlled_not():
    Hc, Hd = catalog("tilde_c"), catalog("tilde_d")
    w = find_equivalence(Hd, Hc, P_EQUIV)
    unitaries = lu_witness(family("triangle"), Hc, w)
    cnot = np.zeros((4, 4))
    cnot[[0, 1, 3, 2], range(4)] = 1.0
    assert len(unitaries) == 3
    for u in unitaries:
        # equality up to a global phase per site
        ratio = u[np.abs(u) > 1e-12] / cnot[np.abs(u) > 1e-12]
        np.testing.assert_allclose(ratio, ratio[0] * np.ones(ratio.size), atol=1e-9)
        np.testing.assert_allclose(np.abs(u), cnot, atol=1e-9)


def test_p_equiv_witness_maps_states():
    Hc, Hd = catalog("tilde_c"), catalog("tilde_d")
    w = find_equivalence(Hd, Hc, P_EQUIV)
    for gname, G in connected_graphs(max_n=4):
        unitaries = lu_witness(G, Hc, w)  # verified on construction
        assert len(unitaries) == G.n, gname


def test_p_equiv_witness_identity():
    H = catalog("h_alpha", PI / 3)
    w = find_equivalence(H, H, P_EQUIV)
    unitaries = lu_witness(family("cycle", 4), H, w)
    for u in unitaries:
        np.testing.assert_allclose(np.abs(u), np.eye(4), atol=1e-9)


def test_p_equiv_witness_kind_checked():
    # An S-symmetry relates H to itself: lu_witness takes no such witness.
    w = s_symmetries(fourier(3))[1]
    with pytest.raises(errors.InvalidWitness):
        lu_witness(family("triangle"), fourier(3), w)


def _maps_states(G, H1, w, unitaries):
    built = graph_state(G, H1)
    for site, u in enumerate(unitaries):
        built = apply_local(u, site, built)
    return abs(abs(overlap(built, graph_state(G, apply_witness(H1, w)))) - 1.0) <= 1e-9


def test_bipartite_witness_d3_pair_on_square():
    F3, H2 = fourier(3), catalog("qutrit_h2")
    w = find_equivalence(H2, F3, GENERAL)
    G = family("cycle", 4)
    unitaries = lu_witness(G, F3, w)
    assert np.max(np.abs(apply_witness(F3, w).entries - H2.entries)) <= 1e-12
    assert _maps_states(G, F3, w, unitaries)


def test_bipartite_witness_rejects_odd_cycle():
    F3, H2 = fourier(3), catalog("qutrit_h2")
    w = find_equivalence(H2, F3, GENERAL)
    for G in (family("triangle"), family("cycle", 5)):
        with pytest.raises(errors.NotBipartite):
            lu_witness(G, F3, w)


def test_bipartite_witness_non_dephased_target():
    # a witness between two dephased matrices of the catalog; the diagonal
    # corrections for non-dephased ones are checked below
    Hs = catalog("tilde_b")
    w = find_equivalence(catalog("tilde_c"), Hs, GENERAL)
    if w is None:
        pytest.skip("pair not equivalent")
    G = family("cycle", 4)
    lu_witness(G, Hs, w)


def test_p_equiv_witness_from_a_non_dephased_source():
    H1 = df3d()
    assert H1.symmetric and not H1.dephased
    w = find_equivalence(fourier(3), H1, P_EQUIV)
    G = family("cycle", 4)
    assert _maps_states(G, H1, w, lu_witness(G, H1, w))


def test_bipartite_witness_to_a_non_dephased_target():
    w = find_equivalence(df3d(), fourier(3), GENERAL)
    assert not apply_witness(fourier(3), w).dephased
    G = family("cycle", 4)
    unitaries = lu_witness(G, fourier(3), w)
    assert _maps_states(G, fourier(3), w, unitaries)


def test_lu_witness_maps_every_grid_witness():
    """Every P-equivalence and General witness between symmetric matrices of the
    grid, on small graphs, disconnected ones among them: a General witness on a
    graph with an odd cycle is refused, and every other witness maps the state."""
    mats = [H for _, H in full_catalog() + [("df3d", df3d())] if H.symmetric]
    graphs = connected_graphs(4) + [
        ("2xline:2", build(4, [(0, 1), (2, 3)])),
        ("edge+isolated", build(3, [(0, 1)])),
    ]
    odd = {"cycle:3", "complete:4"}
    maps = refusals = 0
    for kind in (P_EQUIV, GENERAL):
        for A in mats:
            for B in mats:
                w = find_equivalence(A, B, kind) if A.d == B.d else None
                if w is None:
                    continue
                for gname, G in graphs:
                    if kind == GENERAL and gname in odd:
                        with pytest.raises(errors.NotBipartite):
                            lu_witness(G, B, w)
                        refusals += 1
                        continue
                    unitaries = lu_witness(G, B, w)
                    assert len(unitaries) == G.n, (kind, gname)
                    assert _maps_states(G, B, w, unitaries), (kind, gname)
                    maps += 1
    assert maps > 0 and refusals > 0


# ----------------------------------------------------- weighted-edge relation


def test_qutrit_gate_is_square_of_fourier_gate():
    q = catalog("qutrit_h2").entries
    f = fourier(3).entries
    assert np.max(np.abs(q - f * f)) <= 1e-12
