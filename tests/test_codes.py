import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gghs import (
    build,
    build_code,
    catalog,
    decoded_error,
    dephase,
    errors,
    family,
    fourier,
    graph_state,
    kl_distance,
    pauli_xz,
    validate,
    weight_enumerators,
)
from gghs import codes, hadamard
from gghs._limits import TOL_ENTRY
from gghs.formats import words_from_text

from helpers import (
    apply_local,
    connected_graphs,
    df3d,
    fourier_code_distance,
    full_catalog,
    index_to_digits,
    kron_circuit_unitary,
    small_registers_only,
    weyl_operators,
)

PI = math.pi


def repetition(n, d):
    return [(i,) * n for i in range(d)]


def _random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ------------------------------------------------------------ classical side


def test_classical_code_validation():
    # The words are checked against the first word's length and the
    # matrix's d, in order, before the code length meets the graph's.
    G, H = family("line", 2), fourier(2)
    with pytest.raises(errors.DigitOutOfRange, match="digit 2 out of range for d=2"):
        build_code(G, H, [(0, 2)])
    with pytest.raises(errors.BadSize, match=r"word \(0, 1, 0\) is not length 2"):
        build_code(G, H, [(0, 1), (0, 1, 0)])
    with pytest.raises(errors.BadSize, match=r"duplicate word \(0, 1\)"):
        build_code(G, H, [(0, 1), (0, 1)])
    with pytest.raises(errors.BadSize, match="no codewords in input"):
        build_code(G, H, [])


def test_classical_code_from_text():
    words = words_from_text("000  # zero word\n111\n\n222\n333\n")
    assert words == ((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3))
    assert words_from_text("# nothing here\n") == ()
    with pytest.raises(errors.BadSize):
        build_code(family("triangle"), fourier(2), words_from_text("# nothing here\n"))


@pytest.mark.parametrize("line", ["\u0661\u0661\u0661", "\uff10\uff101", "0 1", "0\u00b21", "-01"])
def test_classical_code_from_text_reads_ascii_digits_only(line):
    with pytest.raises(ValueError):
        words_from_text("000\n" + line + "\n")


# ----------------------------------------------------------------- encoding


def test_encode_zero_word_is_graph_state():
    G = family("triangle")
    H = catalog("h_alpha", PI / 5)
    np.testing.assert_allclose(
        graph_state(G, H, input_digits=(0, 0, 0)).reshape(-1), graph_state(G, H).reshape(-1),
        atol=1e-12,
    )


def test_encode_distinct_words_orthogonal():
    G = family("triangle")
    H = catalog("h_alpha", PI / 5)
    a = graph_state(G, H, input_digits=(0, 1, 2))
    b = graph_state(G, H, input_digits=(0, 1, 3))
    assert abs(np.vdot(a, b)) <= 1e-9


def test_encode_factors_through_column_diagonals():
    G = family("triangle")
    H = catalog("h_alpha", PI / 5)
    zero = graph_state(G, H, input_digits=(0, 0, 0))
    for word in [(1, 1, 1), (2, 0, 3), (3, 2, 1)]:
        direct = graph_state(G, H, input_digits=word)
        moved = zero
        for site, c in enumerate(word):
            gamma = np.diag(H.entries[:, c])
            moved = apply_local(gamma, site, moved)
        assert abs(abs(np.vdot(direct, moved)) - 1.0) <= 1e-9


# ------------------------------------------------------------- code building


def test_build_code_family_example():
    V = build_code(family("triangle"), catalog("h_alpha", PI / 5), repetition(3, 4))
    assert V.shape == (4, 4, 4, 4)
    flat = V.reshape(-1, 4)
    assert np.max(np.abs(flat.conj().T @ flat - np.eye(4))) <= 1e-9


def test_build_code_columns_are_encoded_words():
    rng = np.random.default_rng(9)
    DF3D = df3d()
    assert DF3D.symmetric and not DF3D.dephased
    cases = [(hl, H, gl, G) for hl, H in full_catalog() if H.symmetric
             for gl, G in connected_graphs(4) if H.d**G.n <= 256]
    cases += [("D F3 D", DF3D, gl, G) for gl, G in connected_graphs(4)]
    count = 0
    for hl, H, gl, G in cases:
        d, n = H.d, G.n
        for K in sorted({1, 2, d}):
            idx = rng.choice(d**n, size=K, replace=False)
            C = [index_to_digits(n, d, int(k)) for k in idx]
            V = build_code(G, H, C)
            assert V.shape == (d,) * n + (K,) and not V.flags.writeable
            for j, word in enumerate(C):
                assert np.array_equal(V[..., j], graph_state(G, H, input_digits=word)), (hl, gl, word)
            count += 1
    assert count == 316


def test_non_dephased_code_is_a_local_diagonal_image_of_the_dephased_one():
    # For symmetric H, the circuit of dephase(H) differs from that of H by a
    # local diagonal unitary, which keeps the distance and the enumerators.
    rng = np.random.default_rng(12)
    count = 0
    for hl, H0, gl, G in [(hl, H, gl, G) for hl, H in full_catalog() if H.symmetric
                          for gl, G in connected_graphs(4) if H.d**G.n <= 1024]:
        d, n = H0.d, G.n
        D = np.exp(1j * rng.uniform(0, 2 * PI, d))
        H = validate(D[:, None] * H0.entries * D)
        assert H.symmetric and not H.dephased, hl
        Hd = dephase(H)[2]
        for K in sorted({1, 2, d}):
            idx = rng.choice(d**n, size=K, replace=False)
            C = [index_to_digits(n, d, int(k)) for k in idx]
            V, Vd = build_code(G, H, C), build_code(G, Hd, C)
            assert kl_distance(V, n) == kl_distance(Vd, n), (hl, gl, C)
            for a, b in zip(weight_enumerators(V), weight_enumerators(Vd)):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-9, err_msg=f"{hl} {gl}")
            count += 1
    assert count == 304


def test_gram_check_over_blocks_matches_the_full_gram(monkeypatch):
    rng = np.random.default_rng(11)
    V = rng.normal(size=(64, 24)) + 1j * rng.normal(size=(64, 24))
    full = float(np.max(np.abs(V.conj().T @ V - np.eye(24))))
    for block in (1, 7, 64, 100, 2**20):
        monkeypatch.setattr(hadamard, "GRAM_BLOCK", block)
        assert hadamard._gram_deviation(V, 1) == pytest.approx(full, rel=1e-12), block
    # one basis column block at a time, over row blocks of 3 amplitudes
    monkeypatch.setattr(hadamard, "GRAM_BLOCK", 3)
    V = build_code(family("line", 3), fourier(3), repetition(3, 3))
    assert hadamard._gram_deviation(V.reshape(-1, 3), 1) <= 1e-12


def test_gram_not_identity_from_edge_phases_off_the_unit_circle():
    # validate admits the -(1 + 5e-10) entry; 15 edges on complete:6 turn it
    # into a Gram deviation of 1.5e-9, past the 1e-9 check.
    H = validate(np.array([[1, 1], [1, -(1 + 5e-10)]]))
    assert H.symmetric and H.dephased
    words = [(0,) * 6, (0,) * 5 + (1,)]
    with pytest.raises(errors.GramNotIdentity) as exc:
        build_code(family("complete", 6), H, words)
    assert exc.value.detail == "gram deviates from identity by 1.500e-09"


def test_build_code_shape_mismatches():
    with pytest.raises(errors.DimensionMismatch, match="code length 4 != vertex count 3"):
        build_code(family("triangle"), fourier(4), repetition(4, 4))
    # The alphabet is the matrix's: a digit past its d is out of range.
    with pytest.raises(errors.DigitOutOfRange, match="digit 3 out of range for d=3"):
        build_code(family("triangle"), fourier(3), repetition(3, 4))


# ------------------------------------------------------------------ distance


def test_single_codeword_distance():
    V = build_code(family("triangle"), fourier(2), [(0, 0, 0)])
    assert kl_distance(V, max_weight=3) == 2


def test_full_space_has_distance_one():
    words = tuple(
        (a, b, c) for a in range(2) for b in range(2) for c in range(2)
    )
    V = build_code(family("triangle"), fourier(2), words)
    assert kl_distance(V, max_weight=3) == 1


def test_lower_bound_marker():
    V = build_code(family("triangle"), fourier(2), [(0, 0, 0)])
    assert kl_distance(V, max_weight=1) is None


def test_lower_bound_marker_is_capped_at_n(monkeypatch):
    # Every code violates the condition on the whole register (R_ij there is
    # |psi_i><psi_j| itself), so a scan past n always stops at some w <= n.
    V = build_code(family("triangle"), fourier(2), [(0, 0, 0)])
    assert kl_distance(V, max_weight=7) == kl_distance(V, max_weight=3) == 2
    # With every subset passing, the scan stops at n and finds nothing;
    # test_cli.py::test_code_distance_exceeds_is_capped_at_n prints the bound.
    monkeypatch.setattr(codes, "_kl_holds", lambda M: True)
    assert kl_distance(V, max_weight=7) is None


@pytest.mark.parametrize("max_weight", [0, -5])
def test_distance_scan_below_weight_one_is_bad_size(max_weight):
    V = build_code(family("triangle"), fourier(2), repetition(3, 2))
    with pytest.raises(errors.BadSize):
        kl_distance(V, max_weight)


def test_repetition_code_distance_regression():
    """Computed value for the (triangle, alpha=pi/5, repetition) code.

    Weight-1 shift-type errors connect distinct codewords here (the analytic
    cross term <psi_0|X_0|psi_2> = e^{ia}(2 - 2e^{2ia})^2 / 64 is nonzero away
    from e^{2ia} = 1), so the Knill-Laflamme scan stops at 1. The enumerator
    relation below agrees: B_1 > A_1.
    """
    V = build_code(family("triangle"), catalog("h_alpha", PI / 5), repetition(3, 4))
    assert kl_distance(V, max_weight=2) == 1
    A, B = weight_enumerators(V)
    assert B[1] - A[1] > 1.0


# --------------------------------------------------------------- enumerators


def test_enumerator_basics():
    V = build_code(family("triangle"), fourier(4), repetition(3, 4))
    A, B = weight_enumerators(V)
    assert A.shape == B.shape == (4,)
    assert abs(A[0] - 1.0) <= 1e-9 and abs(B[0] - 1.0) <= 1e-9
    assert np.all(B >= A - 1e-9)
    assert np.all(A >= -1e-9)


def test_enumerator_distance_cross_check():
    # B_j = A_j strictly below the distance, B_dist > A_dist (K > 1 codes)
    for H in (fourier(4), catalog("h_alpha", PI / 5)):
        V = build_code(family("triangle"), H, repetition(3, 4))
        dist = kl_distance(V, max_weight=3)
        A, B = weight_enumerators(V)
        for j in range(1, dist):
            assert abs(B[j] - A[j]) <= 1e-8
        assert B[dist] - A[dist] > 1e-6


def test_enumerators_coincide_for_single_codeword():
    # K = 1: both enumerators reduce to the same expectation sums
    V = build_code(family("triangle"), fourier(2), [(0, 0, 0)])
    A, B = weight_enumerators(V)
    np.testing.assert_allclose(A, B, atol=1e-9)
    # the first weight with nonzero A is the expectation-based distance
    assert A[1] <= 1e-9
    assert A[2] > 1e-9


def test_enumerators_differ_between_matrix_choices():
    Va = build_code(family("triangle"), catalog("h_alpha", PI / 5), repetition(3, 4))
    Vf = build_code(family("triangle"), fourier(4), repetition(3, 4))
    Aa, Ba = weight_enumerators(Va)
    Af, Bf = weight_enumerators(Vf)
    assert max(np.max(np.abs(Aa - Af)), np.max(np.abs(Ba - Bf))) > 1e-6


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_enumerators_local_unitary_invariant(seed):
    rng = np.random.default_rng(seed)
    V = build_code(family("triangle"), fourier(2), [(0, 0, 0), (1, 1, 1)])
    A, B = weight_enumerators(V)
    rotated = V  # the codeword axis rides along
    for site in range(3):
        rotated = apply_local(_random_unitary(rng, 2), site, rotated)
    A2, B2 = weight_enumerators(rotated)
    np.testing.assert_allclose(A, A2, atol=1e-8)
    np.testing.assert_allclose(B, B2, atol=1e-8)


# ------------------------------------ reduced operators vs the Weyl-error loop


def _weyl_errors(n, d, weight):
    """Every weight-`weight` Weyl error as (sites, ops), lexicographically."""
    nontrivial = [op for ab, op in weyl_operators(d) if ab != (0, 0)]
    for sites in itertools.combinations(range(n), weight):
        for ops in itertools.product(nontrivial, repeat=weight):
            yield sites, ops


def _apply_error(V, n, d, sites, ops):
    T = V.reshape((d,) * n + (-1,))  # the codeword axis rides along
    for site, op in zip(sites, ops):
        T = apply_local(op, site, T)
    return T.reshape(V.shape)


def _weyl_kl_distance(basis, max_weight):
    """Reference: ||V delta V^dagger||_max > TOL_ENTRY over every Weyl error.

    delta = V^dagger E V minus its mean diagonal; for K = 1 the first error
    with a nonzero expectation sets the distance.
    """
    d, n, K = basis.shape[0], basis.ndim - 1, basis.shape[-1]
    max_weight = min(max_weight, n)
    V = basis.reshape(-1, K)
    for w in range(1, max_weight + 1):
        for sites, ops in _weyl_errors(n, d, w):
            M = V.conj().T @ _apply_error(V, n, d, sites, ops)
            if K == 1:
                if abs(M[0, 0]) > TOL_ENTRY:
                    return w
                continue
            delta = M - np.trace(M) / K * np.eye(K)
            if np.max(np.abs(V @ delta @ V.conj().T)) > TOL_ENTRY:
                return w
    return None


def _weyl_enumerators(basis):
    """Reference: the Shor-Laflamme sums taken error by error."""
    d, n, K = basis.shape[0], basis.ndim - 1, basis.shape[-1]
    V = basis.reshape(-1, K)
    A = np.ones(n + 1)
    B = np.ones(n + 1)
    for j in range(1, n + 1):
        a_sum = b_sum = 0.0
        for sites, ops in _weyl_errors(n, d, j):
            M = V.conj().T @ _apply_error(V, n, d, sites, ops)
            a_sum += abs(np.trace(M)) ** 2
            b_sum += float(np.sum(np.abs(M) ** 2))
        A[j] = a_sum / K**2
        B[j] = b_sum / K
    return A, B


def _assert_matches_weyl(V, label):
    n = V.ndim - 1
    for w in range(1, n + 1):
        assert kl_distance(V, w) == _weyl_kl_distance(V, w), (label, w)
    for got, want in zip(weight_enumerators(V), _weyl_enumerators(V)):
        assert got.shape == want.shape == (n + 1,), label
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want))), (label, got, want)


def test_codes_match_weyl_loop_on_grid():
    rng = np.random.default_rng(2015)
    count = 0
    for hl, H in full_catalog():
        if not H.symmetric:
            continue
        for gl, G in connected_graphs(4):
            d, n = H.d, G.n
            if d**n > 32:
                continue
            for K in sorted({1, 2, d}):
                idx = sorted(rng.choice(d**n, size=K, replace=False))
                C = [index_to_digits(n, d, int(k)) for k in idx]
                _assert_matches_weyl(build_code(G, H, C), (hl, gl, K))
                count += 1
    assert count == 67


def test_codes_match_weyl_loop_off_grid():
    for H in (fourier(4), catalog("h_alpha", PI / 5)):
        _assert_matches_weyl(build_code(family("triangle"), H, repetition(3, 4)), H.d)
    # A code that is no graph code: each site of the basis locally rotated.
    rng = np.random.default_rng(5)
    rotated = build_code(family("triangle"), fourier(3), repetition(3, 3))
    for site in range(3):
        rotated = apply_local(_random_unitary(rng, 3), site, rotated)
    _assert_matches_weyl(rotated, "rotated")


def test_codes_refuse_d1():
    V = build_code(family("line", 20), fourier(1), [(0,) * 20])
    assert V.shape == (1,) * 20 + (1,)
    with pytest.raises(errors.BadSize):
        kl_distance(V, max_weight=20)
    with pytest.raises(errors.BadSize):
        weight_enumerators(V)


@pytest.mark.parametrize("kernel", [lambda V: kl_distance(V, 2), weight_enumerators],
                         ids=["kl_distance", "weight_enumerators"])
def test_codes_read_n_d_and_k_off_the_basis_shape(kernel):
    # Site axes of unequal length have no d; d = 1 has no nontrivial error.
    with pytest.raises(errors.DimensionMismatch, match=r"code site axes \(2, 3\) differ in length"):
        kernel(np.zeros((2, 3, 1), dtype=np.complex128))
    with pytest.raises(errors.BadSize, match="codes need d >= 2"):
        kernel(np.ones((1, 1, 1, 1), dtype=np.complex128))
    with pytest.raises(errors.TooLarge):  # (d**n)**2 past DENSE_AMP_CAP: d**n = 8192
        kernel(np.zeros((2,) * 13 + (1,), dtype=np.complex128))


# ---------------------------------------- the F_d stabilizer oracle for codes


def _additive_code(rng, n, d, gens):
    """The span over Z_d of `gens` random words, deduplicated."""
    g = rng.integers(0, d, size=(gens, n))
    span = {tuple(int(x) for x in np.asarray(coef) @ g % d)
            for coef in itertools.product(range(d), repeat=gens)}
    return sorted(span)


def test_kl_distance_matches_stabilizer_oracle_for_fourier():
    rng = np.random.default_rng(2001)
    count = 0
    for gl, G in connected_graphs(5):
        n = G.n
        for d in range(2, 7):
            if d**n > 4096:
                continue
            cases = []
            for K in (1, 2, d):
                idx = rng.choice(d**n, size=K, replace=False)
                cases.append([index_to_digits(n, d, int(k)) for k in idx])
            cases += [_additive_code(rng, n, d, gens) for gens in (1, 1, 1, 2, 2, 2)]
            for C in cases:
                got = kl_distance(build_code(G, fourier(d), C), n)
                assert got == fourier_code_distance(G, d, C, n), (gl, d, C)
                count += 1
    assert count == 504
    for d in range(2, 6):
        G = family("cycle", 5)
        assert kl_distance(build_code(G, fourier(d), repetition(5, d)), 5) == 3
        assert fourier_code_distance(G, d, repetition(5, d), 5) == 3


def test_stabilizer_oracle_past_the_dense_cap():
    # cycle:12 at fourier:3 is past the cap of kl_distance; the oracle stays at w <= 3.
    G = family("cycle", 12)
    assert fourier_code_distance(G, 3, repetition(12, 3), 2) is None
    assert fourier_code_distance(G, 3, repetition(12, 3), 3) == 3


# ---------------------------------------------------------------- weyl basis


def test_weyl_operators_structure():
    ops = weyl_operators(3)
    assert len(ops) == 9
    assert ops[0][0] == (0, 0)
    np.testing.assert_allclose(ops[0][1], np.eye(3), atol=1e-12)
    for (_, m) in ops:
        np.testing.assert_allclose(m @ m.conj().T, np.eye(3), atol=1e-12)


# ------------------------------------------------------------- decoded errors


def test_decoded_identity():
    ok, S, _ = decoded_error(family("triangle"), fourier(3), np.eye(3), 0)
    assert ok
    np.testing.assert_allclose(S, np.eye(3), atol=1e-9)


def test_decoded_diagonal_errors_factorize():
    rng = np.random.default_rng(11)
    for H in (fourier(3), catalog("h_alpha", PI / 5), catalog("h_d6")):
        d = H.d
        diag_ops = [
            np.diag(np.exp(2j * PI * np.arange(d) / d)),
            np.diag(H.entries[:, 1]),
            np.diag(rng.normal(size=d) + 1j * rng.normal(size=d)),  # not unitary
        ]
        for site in range(3):
            for Emat in diag_ops:
                ok, S, residual = decoded_error(family("triangle"), H, Emat, site)
                assert ok, (H.d, site)
                assert residual <= 1e-9
                u = H.entries / math.sqrt(d)
                expect = u.conj().T @ Emat @ u
                np.testing.assert_allclose(S, expect, atol=1e-8)


def test_decoded_z_for_fourier_is_a_shift():
    from gghs import pauli_xz

    X, Z = pauli_xz(3)
    ok, S, _ = decoded_error(family("triangle"), fourier(3), Z, 0)
    assert ok
    np.testing.assert_allclose(S, X.conj().T, atol=1e-9)


def test_decoded_shift_error_spreads_for_d6():
    X6 = np.roll(np.eye(6), -1, axis=0)
    ok, S, residual = decoded_error(family("triangle"), catalog("h_d6"), X6, 0)
    assert not ok
    assert residual > 1e-3
    assert S is None


def test_decoded_error_is_a_tuple_with_no_operator_when_it_spreads():
    X, _ = pauli_xz(3)
    out = decoded_error(family("triangle"), fourier(3), X, 0)
    assert type(out) is tuple and len(out) == 3
    ok, S, residual = out
    assert ok is False and S is None and residual > 1e-3


def test_decoded_error_site_range():
    with pytest.raises(errors.SiteOutOfRange):
        decoded_error(family("triangle"), fourier(2), np.eye(2), 4)


def test_decoded_error_cap_is_kept(monkeypatch):
    # The operator built is the one on N[k], so (d**|N[k]|)**2 is capped,
    # whatever n is: N[0] of star:12 holds 12 sites, 4**24 entries, and is
    # refused before any factor is built; a leaf's N[k] holds 2.
    G, H = family("star", 12), fourier(4)
    assert decoded_error(G, H, np.eye(4), 1)[0]

    def refuse(*args):
        raise AssertionError("a factor was built past the cap")

    monkeypatch.setattr(np, "kron", refuse)
    with pytest.raises(errors.TooLarge, match=r"\(d\*\*n\)\*\*2 with n=12, d=4"):
        decoded_error(G, H, np.eye(4), 0)


def test_decoded_error_answers_past_the_old_register_gate(monkeypatch):
    # Site 0 of line:13 (d**n = 2**13) and of line:2 has the same
    # neighbourhood, one edge to site 1, and so does site 12 with site 1 of
    # line:2: the answers are equal bit for bit, and line:2's is the whole
    # register's. No register past 2**12 amplitudes is built.
    small_registers_only(monkeypatch)
    H = fourier(2)
    X, Z = pauli_xz(2)
    U = kron_circuit_unitary(family("line", 2), H)
    for E in (X, Z, X @ Z, np.array([[0.5, 2j], [-1, 3]])):
        for far, near in ((0, 0), (12, 1)):
            ok, S, residual = decoded_error(family("line", 13), H, E, far)
            want = decoded_error(family("line", 2), H, E, near)
            assert (ok, residual) == want[::2]
            assert (S is None and want[1] is None) or np.array_equal(S, want[1])
            assert abs(residual - _whole_register_decoded(U, 2, 2, E, near)[2]) <= 1e-12


def _whole_register_decoded(U, n, d, E, site):
    """Reference: M = U^dagger E_site U with the dense circuit U on the whole register."""
    pre = d**site
    post = d ** (n - site - 1)
    M = U.conj().T @ np.kron(np.kron(np.eye(pre), E), np.eye(post)) @ U
    S = np.einsum("paqpbq->ab", M.reshape(pre, d, post, pre, d, post)) / (pre * post)
    residual = float(np.max(np.abs(M - np.kron(np.kron(np.eye(pre), S), np.eye(post)))))
    return residual <= 1e-9, S, residual


def _assert_matches_whole_register(G, H, rng, label):
    d = H.d
    X, Z = pauli_xz(d)
    corner = np.zeros((d, d))  # |0><d-1|: a single nonzero term
    corner[0, d - 1] = 1.0
    U = kron_circuit_unitary(G, H)
    for site in range(G.n):
        for Emat in (X, Z, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
                     corner, np.zeros((d, d))):
            ok, S, residual = _whole_register_decoded(U, G.n, d, Emat, site)
            got_ok, got_S, got_residual = decoded_error(G, H, Emat, site)
            assert got_ok == ok, (label, site)
            assert abs(got_residual - residual) <= 1e-12, (label, site)
            if ok:
                assert np.max(np.abs(got_S - S)) <= 1e-12, (label, site)


def test_decoded_error_matches_whole_register_on_grid():
    rng = np.random.default_rng(2015)
    # star:5 and complete:5 give site 0 a degree-4 neighbourhood.
    wide = [("star:5", family("star", 5)), ("complete:5", family("complete", 5))]
    for hl, H in full_catalog():
        for gl, G in connected_graphs(4) + (wide if H.d <= 3 else []):
            if H.d**G.n <= 256:
                _assert_matches_whole_register(G, H, rng, (hl, gl))


def test_decoded_error_matches_whole_register_off_grid():
    rng = np.random.default_rng(7)
    # Columns of fourier:4 permuted: a non-symmetric matrix, which has no
    # graph state, so decoded_error refuses it as graph_state does.
    H = validate(fourier(4).entries[:, [2, 0, 3, 1]])
    assert not H.symmetric
    X = pauli_xz(4)[0]
    for gl in ("line", "cycle", "star", "complete"):
        for site in range(4):
            with pytest.raises(errors.NotSymmetric):
                decoded_error(family(gl, 4), H, X, site)
    # Site 0 is isolated, so its neighbourhood is the site alone.
    G = build(4, [(1, 2), (2, 3)])
    for H in (fourier(3), catalog("h_alpha", PI / 5)):
        _assert_matches_whole_register(G, H, rng, "isolated")
