import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gghs import (
    build,
    build_code,
    catalog,
    decoded_error,
    errors,
    family,
    fourier,
    ghz,
    graph_state,
    hamiltonian_ground_check,
    pauli_xz,
    reduced_density,
    schmidt_spectrum,
    validate,
)
from gghs import qstate
from gghs._limits import DENSE_AMP_CAP, _dense_size
from helpers import (
    apply_ch,
    apply_local,
    basis_state,
    connected_graphs,
    digits_to_index,
    full_catalog,
    index_to_digits,
    kron_circuit_unitary,
)

PI = math.pi


# ------------------------------------------------------------------ indexing


def test_index_examples():
    assert digits_to_index(2, [0, 0, 0]) == 0
    assert digits_to_index(4, [1, 1, 1]) == 21
    assert digits_to_index(6, [5, 0]) == 30


@given(
    n=st.integers(min_value=1, max_value=6),
    d=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_index_round_trip(n, d, data):
    digits = data.draw(
        st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    )
    k = digits_to_index(d, digits)
    assert 0 <= k < d**n
    assert index_to_digits(n, d, k) == tuple(digits)


def test_basis_state_amplitude_location():
    s = basis_state(3, 4, [1, 1, 1])
    assert s.reshape(-1)[21] == 1.0
    assert np.count_nonzero(s.reshape(-1)) == 1


def test_basis_state_digit_range():
    with pytest.raises(errors.DigitOutOfRange):
        basis_state(2, 3, [0, 3])
    with pytest.raises(errors.DigitOutOfRange):
        basis_state(2, 3, [0])


# --------------------------------------------------------------- local gates


def test_apply_local_identity():
    s = ghz(3, 2)
    out = apply_local(np.eye(2), 1, s)
    np.testing.assert_allclose(out.reshape(-1), s.reshape(-1))


def test_apply_local_hadamard_on_zero():
    s = basis_state(1, 2, [0])
    u = fourier(2).entries / math.sqrt(2)
    out = apply_local(u, 0, s)
    np.testing.assert_allclose(out.reshape(-1), [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_apply_local_z3_phase():
    _, Z = pauli_xz(3)
    s = basis_state(1, 3, [1])
    out = apply_local(Z, 0, s)
    w = np.exp(2j * PI / 3)
    np.testing.assert_allclose(out.reshape(-1), [0, w, 0], atol=1e-12)


# Each consumer of a site operator runs the one check (d x d, finite entries)
# before any work, so decoded_error cannot report a NaN as an overflow.
OPERATOR_CONSUMERS = {
    "apply_local": lambda U: apply_local(U, 0, ghz(3, 3)),
    "decoded_error": lambda U: decoded_error(family("triangle"), fourier(3), U, 0),
}


@pytest.mark.parametrize("consumer", OPERATOR_CONSUMERS)
def test_mis_shaped_local_operator_is_a_dimension_mismatch(consumer):
    with pytest.raises(errors.DimensionMismatch, match=r"operator shape \(2, 2\) does not match d=3"):
        OPERATOR_CONSUMERS[consumer](np.eye(2))


@pytest.mark.parametrize("consumer", OPERATOR_CONSUMERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_local_operator_is_refused_by_name(bad, consumer):
    E = np.eye(3, dtype=np.complex128)
    E[1, 2] = bad
    with pytest.raises(errors.NonFinite, match="operator entries must be finite"):
        OPERATOR_CONSUMERS[consumer](E)


# Each site, vertex, digit or size argument is read with operator.index, as
# graphs.build reads vertices: numpy integers pass, and a float raises
# TypeError instead of being truncated to the integer below it.
INDEX_ARGUMENTS = {
    "fourier": lambda v: fourier(2 * v),
    "ghz": lambda v: ghz(3, 2 * v),
    "ghz sites": lambda v: ghz(3 * v, 2),
    "graph_state": lambda v: graph_state(family("line", 2), fourier(3), [0, v]),
    "build_code": lambda v: build_code(family("line", 2), fourier(3), [(0, v), (2, 2)]),
    "reduced_density": lambda v: reduced_density(ghz(3, 2), [v]),
    "graph_reduced_density": lambda v: reduced_density((family("line", 3), fourier(2)), [v]),
    "schmidt_spectrum": lambda v: schmidt_spectrum(ghz(3, 2), [v]),
    "decoded_error": lambda v: decoded_error(family("line", 3), fourier(2), pauli_xz(2)[0], v),
}


@pytest.mark.parametrize("call", INDEX_ARGUMENTS)
def test_a_float_site_or_digit_is_refused_not_truncated(call):
    INDEX_ARGUMENTS[call](np.int64(1))
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        INDEX_ARGUMENTS[call](1.5)


def test_apply_local_site_range():
    with pytest.raises(errors.SiteOutOfRange):
        apply_local(np.eye(2), 3, ghz(3, 2))


def test_apply_ch_examples():
    w3 = np.exp(2j * PI / 3)

    s = apply_ch(fourier(2), basis_state(2, 2, [1, 1]), 0, 1)
    np.testing.assert_allclose(s.reshape(-1)[3], -1.0, atol=1e-12)

    s = apply_ch(fourier(3), basis_state(2, 3, [1, 2]), 0, 1)
    np.testing.assert_allclose(s.reshape(-1)[5], w3**2, atol=1e-12)

    s = apply_ch(catalog("qutrit_h2"), basis_state(2, 3, [1, 2]), 0, 1)
    np.testing.assert_allclose(s.reshape(-1)[5], w3, atol=1e-12)


def test_apply_ch_squared_relation():
    """The d=3 catalog pair: one gate of the second equals two of the first."""
    rng = np.random.default_rng(7)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps /= np.linalg.norm(amps)
    s = amps.reshape((3,) * 2)
    twice = apply_ch(fourier(3), apply_ch(fourier(3), s, 0, 1), 0, 1)
    once = apply_ch(catalog("qutrit_h2"), s, 0, 1)
    np.testing.assert_allclose(twice.reshape(-1), once.reshape(-1), atol=1e-12)


def test_apply_ch_reads_the_matrix_in_site_order():
    # Sites (i, j) = (1, 0) read h[x_1, x_0], of a matrix symmetric only within TOL_ENTRY.
    a = fourier(3).entries.copy()
    a[1, 2] *= np.exp(1e-12j)
    H = validate(a)
    assert H.symmetric and a[1, 2] != a[2, 1]
    s = apply_ch(H, basis_state(2, 3, [2, 1]), 1, 0)
    assert s[2, 1] == a[1, 2]
    assert np.count_nonzero(s) == 1


def test_apply_ch_errors():
    with pytest.raises(ValueError):
        apply_ch(fourier(2), ghz(2, 2), 0, 0)
    with pytest.raises(errors.DimensionMismatch):
        apply_ch(fourier(3), ghz(2, 2), 0, 1)
    rolled = validate(np.roll(fourier(3).entries, 1, axis=0))
    with pytest.raises(errors.NotSymmetric):
        apply_ch(rolled, ghz(2, 3), 0, 1)


# -------------------------------------------------------------- graph states


def test_edge_graph_qubit_state():
    s = graph_state(family("line", 2), fourier(2))
    np.testing.assert_allclose(s.reshape(-1), np.array([1, 1, 1, -1]) / 2, atol=1e-12)


def _closed_form(G, H, digits):
    """psi(i) = prod_k u[i_k, c_k] * prod_(a,b) h[i_a, i_b], one index at a time."""
    n, d = G.n, H.d
    h = H.entries.tolist()
    amps = []
    for k in range(d**n):
        i = []
        for _ in range(n):
            k, r = divmod(k, d)
            i.insert(0, r)
        amp = 1.0
        for site in range(n):
            amp *= h[i[site]][digits[site]] / math.sqrt(d)
        for a, b in G.edges:
            amp *= h[i[a]][i[b]]
        amps.append(amp)
    norm = math.sqrt(sum(abs(x) ** 2 for x in amps))
    return [x / norm for x in amps]


def test_graph_state_closed_form_amplitudes():
    w3 = np.exp(2j * PI / 3)
    s = graph_state(family("triangle"), fourier(3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expect = w3 ** (i * j + j * k + i * k) / 3**1.5
                np.testing.assert_allclose(
                    s.reshape(-1)[digits_to_index(3, (i, j, k))], expect, atol=1e-12
                )
    rng = np.random.default_rng(11)
    for label, H in full_catalog():
        for gname, G in connected_graphs(4):
            digits = [int(x) for x in rng.integers(0, H.d, G.n)]
            s = graph_state(G, H, input_digits=digits)
            np.testing.assert_allclose(
                s.reshape(-1), _closed_form(G, H, digits), atol=1e-12, err_msg=f"{label} {gname}"
            )


def test_graph_state_digit_checks():
    with pytest.raises(errors.DigitOutOfRange):
        graph_state(family("triangle"), fourier(3), input_digits=(0, 1))
    with pytest.raises(errors.DigitOutOfRange):
        graph_state(family("triangle"), fourier(3), input_digits=(0, 3, 1))


@pytest.mark.parametrize("label,H", full_catalog())
def test_graph_state_normalized(label, H):
    for gname, G in [("triangle", family("triangle")), ("star:4", family("star", 4))]:
        s = graph_state(G, H)
        assert abs(np.linalg.norm(s) - 1.0) <= 1e-9, (label, gname)


def test_graph_state_edge_order_irrelevant():
    from gghs import build

    H = catalog("h_alpha", PI / 5)
    G1 = build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    G2 = build(4, [(0, 3), (2, 3), (0, 1), (1, 2)])
    s1, s2 = graph_state(G1, H), graph_state(G2, H)
    assert np.max(np.abs(s1.reshape(-1) - s2.reshape(-1))) <= 1e-12


def test_graph_state_input_digits_orthogonality():
    G = family("triangle")
    H = fourier(3)
    states = [graph_state(G, H, input_digits=(a, b, c))
              for a in range(3) for b in range(3) for c in range(3)]
    gram = np.array([[np.vdot(x, y) for y in states] for x in states])
    np.testing.assert_allclose(gram, np.eye(27), atol=1e-9)


def test_local_symmetry_on_edge_graph():
    # H on one end and conj(H) on the other fix the two-qudit state
    for label, H in full_catalog():
        d = H.d
        s = graph_state(family("line", 2), H)
        u = H.entries / math.sqrt(d)
        t = apply_local(u, 0, s)
        t = apply_local(u.conj(), 1, t)
        assert abs(abs(np.vdot(t, s)) - 1.0) <= 1e-9, label


def test_line3_closed_form():
    for label, H in full_catalog():
        d = H.d
        psi_cols = H.entries / math.sqrt(d)  # |psi_j> = column j
        expect = np.zeros(d**3, dtype=np.complex128)
        for j in range(d):
            block = np.kron(
                psi_cols[:, j], np.kron(np.eye(d)[j], psi_cols[:, j])
            )
            expect += block / math.sqrt(d)
        s = graph_state(family("line", 3), H)
        assert abs(abs(np.vdot(expect, s.reshape(-1))) - 1.0) <= 1e-9, label


# --------------------------------------------------------------------- misc


def test_ghz_values():
    s = ghz(3, 2)
    np.testing.assert_allclose(s.reshape(-1)[[0, 7]], [1 / math.sqrt(2)] * 2)
    s6 = ghz(3, 6)
    assert np.count_nonzero(np.abs(s6.reshape(-1)) > 1e-12) == 6
    assert abs(np.linalg.norm(s6) - 1.0) <= 1e-12
    np.testing.assert_allclose(ghz(1, 4).reshape(-1), np.full(4, 0.5))


def test_graph_state_is_the_closed_form_at_each_digit_tuple():
    # psi[i] = prod_k u[i_k, c_k] * prod_(a,b) h[i_a, i_b] / norm, with u = H/sqrt(d):
    # axis k of the array holds qudit k.
    rng = np.random.default_rng(30)
    for label, H in full_catalog():
        d, h = H.d, H.entries
        u = h / math.sqrt(d)
        for gname, G in connected_graphs(4):
            c = [int(x) for x in rng.integers(0, d, G.n)]
            s = graph_state(G, H, input_digits=c)
            assert s.shape == (d,) * G.n, (label, gname)
            raw = {
                i: math.prod(u[i[k], c[k]] for k in range(G.n))
                * math.prod(h[i[a], i[b]] for a, b in G.edges)
                for i in itertools.product(range(d), repeat=G.n)
            }
            norm = math.sqrt(sum(abs(x) ** 2 for x in raw.values()))
            for i, amp in raw.items():
                assert abs(s[i] - amp / norm) <= 1e-12, (label, gname, i)


def test_ghz_is_nonzero_only_at_repeated_digits():
    for n in (1, 2, 3, 5):
        for d in (2, 3, 6):
            s = ghz(n, d)
            assert s.shape == (d,) * n
            for i in itertools.product(range(d), repeat=n):
                assert s[i] == (1 / math.sqrt(d) if len(set(i)) == 1 else 0), (n, d, i)


# -------------------------------------------------- parent Hamiltonian check


def test_hamiltonian_ground_check_examples():
    gap, dim, fid = hamiltonian_ground_check(family("triangle"), fourier(2))
    assert dim == 1
    assert abs(gap - 1.0) <= 1e-9
    assert fid >= 1.0 - 1e-9

    gap, dim, fid = hamiltonian_ground_check(family("line", 2), fourier(3))
    assert dim == 1
    assert abs(gap - 1.0) <= 1e-9
    assert fid >= 1.0 - 1e-9


def _dense_ground_check(G, H):
    """Diagonalize -sum_i U |0_i><0_i| U^dagger densely (oracle, d**n <= 256)."""
    n, d = G.n, H.d
    U = kron_circuit_unitary(G, H)
    n_zero = (np.indices((d,) * n) == 0).sum(axis=0).reshape(-1).astype(np.float64)
    Hmat = -(U * n_zero[None, :]) @ U.conj().T
    w, v = np.linalg.eigh(Hmat)
    ground_dim = int(np.sum(w < w[0] + 1e-6))
    gap = float(w[ground_dim] - w[0]) if ground_dim < len(w) else float("inf")
    psi = graph_state(G, H)
    proj = v[:, :ground_dim].conj().T @ psi.reshape(-1)
    fidelity = float(np.linalg.norm(proj))
    return gap, ground_dim, fidelity


def _assert_matches_dense(G, H, msg):
    gap, dim, fid = hamiltonian_ground_check(G, H)
    want_gap, want_dim, want_fid = _dense_ground_check(G, H)
    assert dim == want_dim, msg
    assert math.isclose(gap, want_gap, rel_tol=0.0, abs_tol=1e-12), (msg, gap, want_gap)
    assert abs(fid - want_fid) <= 1e-12, (msg, fid, want_fid)


def test_hamiltonian_ground_check_matches_dense_eigh_on_grid():
    for label, H in full_catalog():
        for gname, G in connected_graphs(5):
            if H.d**G.n <= 256:
                _assert_matches_dense(G, H, f"{label} {gname}")


def test_hamiltonian_ground_check_edge_cases_match_dense_eigh():
    gap, dim, fid = hamiltonian_ground_check(family("line", 3), fourier(1))
    assert (gap, dim) == (float("inf"), 1)
    _assert_matches_dense(family("line", 3), fourier(1), "fourier:1")
    _assert_matches_dense(build(3, []), fourier(3), "no edges")
    _assert_matches_dense(build(4, [(1, 2), (2, 3)]), catalog("h_alpha", PI / 5), "isolated vertex")
    D = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0])))
    _assert_matches_dense(family("line", 3), validate(D @ fourier(3).entries @ D), "not dephased")


def test_hamiltonian_check_rejects_non_symmetric_before_dense_work(monkeypatch):
    def dense_work(*args, **kwargs):
        raise AssertionError("dense work before the symmetry check")

    monkeypatch.setattr(qstate, "_encode", dense_work)
    monkeypatch.setattr(qstate, "graph_state", dense_work)
    rolled = validate(np.roll(fourier(4).entries, 1, axis=0))
    G = family("line", 6)
    assert (rolled.d**G.n) ** 2 == DENSE_AMP_CAP
    with pytest.raises(errors.NotSymmetric):
        hamiltonian_ground_check(G, rolled)


def test_dense_size_caps_each_array_kind():
    # One cap, DENSE_AMP_CAP entries: d**n for a vector, (d**n)**2 for an operator.
    assert _dense_size(12, 4) == DENSE_AMP_CAP
    assert _dense_size(6, 4, axes=2) == 4096
    assert _dense_size(1, 4096, axes=2) == 4096
    for n, d, axes in ((13, 4, 1), (7, 4, 2), (2, 65, 2), (1, 4097, 2), (10**18, 2, 2)):
        with pytest.raises(errors.TooLarge):
            _dense_size(n, d, axes)
    # The site cap counts the n sites, whatever the array.
    assert _dense_size(32, 1, axes=2) == 1
    with pytest.raises(errors.TooLarge):
        _dense_size(33, 1)


def test_hamiltonian_check_answers_past_the_operator_cap():
    # (d**n)**2 is past the cap for both, d**n is not: the closed-form fidelity
    # matches the norm of the circuit column, the route that built d**n numbers.
    for G, H in ((family("line", 5), fourier(6)), (family("line", 6), catalog("h_d6"))):
        assert (H.d**G.n) ** 2 > DENSE_AMP_CAP >= H.d**G.n
        gap, dim, fid = hamiltonian_ground_check(G, H)
        assert (gap, dim) == (1.0, 1)
        assert abs(fid - np.linalg.norm(qstate._encode(G, H, [(0,) * G.n]))) <= 1e-12
    with pytest.raises(errors.TooLarge):  # d**n = 2**26 is still refused
        hamiltonian_ground_check(family("line", 13), fourier(4))
