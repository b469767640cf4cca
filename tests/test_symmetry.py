import math
import time

import numpy as np
import pytest

from gghs import (
    GENERAL,
    P_EQUIV,
    S_SYMMETRY,
    EquivalenceWitness,
    apply_witness,
    bipartition,
    build,
    catalog,
    errors,
    family,
    find_equivalence,
    fourier,
    graph_state,
    lu_witness,
    pauli_xz,
    s_symmetries,
    tensor_product,
    validate,
)
from gghs import qstate, symmetry
from helpers import (
    apply_local,
    connected_graphs,
    dense_stabilizer_deviation,
    df3d,
    full_catalog,
    skewed_f3,
    small_registers_only,
    stabilized_dimension,
)

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
            dev = dense_stabilizer_deviation(G, w, a, psi)
            assert dev <= 1e-9, (gname, a, dev)


def test_h_alpha_symmetry_operators_fix_triangle_state():
    H = catalog("h_alpha", PI / 5)
    syms = s_symmetries(H)
    psi = graph_state(family("triangle"), H)
    for w in syms:
        for a in range(3):
            dev = dense_stabilizer_deviation(family("triangle"), w, a, psi)
            assert dev <= 1e-9, (w.p1, a, dev)


def test_the_local_symmetries_fix_a_space_of_dimension_d_over_gamma_to_the_n():
    """Gamma = s_symmetries(H) fixes a (d/|Gamma|)**n-dimensional space, read
    densely: 1 whenever |Gamma| = d, so the graph state is the one state its
    S-symmetries fix, 8 at h_alpha:pi/5 (|Gamma| = 2), 27 at df3d and 216 at
    h_d6 (|Gamma| = 1)."""
    extra = [df3d(), tensor_product(fourier(2), fourier(3))]
    mats = [H for H in [H for _, H in full_catalog()] + extra if H.symmetric]
    dims = set()
    for G in (family("line", 3), family("star", 3)):
        for H in mats:
            dim = stabilized_dimension(G, H)
            assert dim == (H.d // len(s_symmetries(H))) ** 3, H.entries
            dims.add(dim)
    assert dims == {1, 8, 27, 216}


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
        assert dense_stabilizer_deviation(family("triangle"), ident, a, s) == 0.0


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
                    dev = dense_stabilizer_deviation(G, w, a, psi)
                    assert dev <= 1e-9, (d, gname, w.p1, a, dev)


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
    """The dense oracle of lu_witness's check: both graph states built, the
    unitaries applied site by site, and |overlap| = 1 within 1e-9."""
    built = graph_state(G, H1)
    for site, u in enumerate(unitaries):
        built = apply_local(u, site, built)
    return abs(abs(np.vdot(built, graph_state(G, apply_witness(H1, w)))) - 1.0) <= 1e-9


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


def test_lu_witness_runs_the_pair_gate_first():
    """The pair gate (H1 symmetric, n <= 32) comes before anything n-sized is
    built and before the witness is read, so it beats a wrong witness kind,
    an odd cycle and a witness of another dimension."""
    F3 = fourier(3)
    p_equiv = find_equivalence(fourier(2), fourier(2), P_EQUIV)
    start = time.perf_counter()
    with pytest.raises(errors.TooLarge, match="n=100000 sites"):
        lu_witness(build(10**5, []), fourier(2), p_equiv)
    assert time.perf_counter() - start < 0.5
    skewed = validate(skewed_f3())
    wrong = [
        (family("cycle", 33), s_symmetries(F3)[1]),
        (family("cycle", 33), find_equivalence(catalog("qutrit_h2"), F3, GENERAL)),
        (family("line", 33), find_equivalence(fourier(4), fourier(4), P_EQUIV)),
    ]
    for G, w in wrong:
        with pytest.raises(errors.TooLarge):
            lu_witness(G, F3, w)
        with pytest.raises(errors.NotSymmetric):
            lu_witness(family("triangle"), skewed, w)


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


def _grid_witnesses():
    """(kind, H1, w, graph name, G) for every P-equivalence and General witness
    w between symmetric matrices of the grid, on small graphs, disconnected
    ones among them."""
    mats = [H for _, H in full_catalog() + [("df3d", df3d())] if H.symmetric]
    graphs = connected_graphs(4) + [
        ("2xline:2", build(4, [(0, 1), (2, 3)])),
        ("edge+isolated", build(3, [(0, 1)])),
    ]
    for kind in (P_EQUIV, GENERAL):
        for A in mats:
            for B in mats:
                w = find_equivalence(A, B, kind) if A.d == B.d else None
                if w is None:
                    continue
                for gname, G in graphs:
                    yield kind, B, w, gname, G


def test_lu_witness_maps_every_grid_witness():
    """Every witness of the grid: a General witness on a graph with an odd
    cycle is refused, and every other witness maps the state."""
    odd = {"cycle:3", "complete:4"}
    maps = refusals = 0
    for kind, B, w, gname, G in _grid_witnesses():
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


def test_lu_witness_builds_no_state(monkeypatch):
    # The map is checked in closed form, so every grid witness is answered
    # with the state kernel refused.
    def refuse(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(qstate, "_encode", refuse)
    maps = 0
    for kind, B, w, gname, G in _grid_witnesses():
        if kind == P_EQUIV or bipartition(G) is not None:
            assert len(lu_witness(G, B, w)) == G.n, (kind, gname)
            maps += 1
    assert maps > 0


def test_lu_witness_on_a_long_line_matches_the_short_one(monkeypatch):
    """On line:25 at d = 2 (d**n = 2**25) each site's unitary depends only
    on its degree (and, for a General witness, its part), so it has the
    bytes of the matching site of a short line, whose map the dense oracle
    checks: line:3 for a P-equivalence, line:4 for a General witness. No
    register past 2**12 amplitudes is built."""
    small_registers_only(monkeypatch)
    F2 = fourier(2)
    target = validate(np.array([[1, -1], [-1, -1]]))  # not dephased
    G = family("line", 25)
    for kind, short, match in (
        (P_EQUIV, 3, lambda v: 0 if v in (0, 24) else 1),
        (GENERAL, 4, lambda v: 0 if v in (0, 24) else 2 - v % 2),
    ):
        w = find_equivalence(target, F2, kind)
        small = lu_witness(family("line", short), F2, w)
        assert _maps_states(family("line", short), F2, w, small)
        for v, u in enumerate(lu_witness(G, F2, w)):
            assert u.tobytes() == small[match(v)].tobytes(), (kind, v)


def test_the_closed_check_refuses_exactly_where_the_dense_oracle_does():
    """Each grid map broken at one random site, once by a random phase on one
    column and once by two swapped columns: symmetry._check_map raises
    InvalidWitness exactly on the broken maps that _maps_states refuses."""
    rng = np.random.default_rng(41)
    verdicts = []
    for kind, B, w, gname, G in _grid_witnesses():
        if kind == GENERAL and bipartition(G) is None:
            continue
        unitaries = lu_witness(G, B, w)
        site = rng.integers(G.n)
        j, k = rng.choice(B.d, 2, replace=False)
        phased = [u.copy() for u in unitaries]
        phased[site][:, j] *= np.exp(1j * rng.uniform(0.1, 2 * PI - 0.1))
        swapped = [u.copy() for u in unitaries]
        swapped[site][:, [j, k]] = swapped[site][:, [k, j]]
        for broken in (phased, swapped):
            maps = _maps_states(G, B, w, broken)
            if maps:
                symmetry._check_map(G, B, apply_witness(B, w), broken)
            else:
                with pytest.raises(errors.InvalidWitness, match="witness maps with phase deviation"):
                    symmetry._check_map(G, B, apply_witness(B, w), broken)
            verdicts.append(maps)
    assert verdicts.count(False) > 0


# ----------------------------------------------------- weighted-edge relation


def test_qutrit_gate_is_square_of_fourier_gate():
    q = catalog("qutrit_h2").entries
    f = fourier(3).entries
    assert np.max(np.abs(q - f * f)) <= 1e-12
