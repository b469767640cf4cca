import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gghs import (
    GENERAL,
    P_EQUIV,
    apply_witness,
    catalog,
    check_witness,
    dephase,
    errors,
    family,
    find_equivalence,
    fourier,
    graph_state,
    s_symmetries,
    tensor_product,
    validate,
)
from gghs import hadamard
from helpers import (
    dense_witness_rhs,
    df3d,
    full_catalog,
    python_process,
    s_symmetries_by_permutations,
)

PI = math.pi


# ---------------------------------------------------------------- validation


def test_validate_fourier2_flags():
    H = validate([[1, 1], [1, -1]])
    assert H.d == 2
    assert H.symmetric and H.dephased


def test_validate_rejects_zero_entries():
    with pytest.raises(errors.NotUnimodular):
        validate([[1, 0], [0, 1]])
    # NaN compares False against every tolerance, so it needs its own check
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(errors.NotUnimodular):
            validate([[1, 1], [1, bad]])


def test_validate_rejects_non_hadamard():
    # unimodular but columns not orthogonal
    with pytest.raises(errors.NotHadamard):
        validate(np.ones((2, 2)))


def test_validate_gram_check_over_blocks_matches_the_full_gram(monkeypatch):
    def full(a):
        return float(np.max(np.abs(a.conj().T @ a - len(a) * np.eye(len(a)))))

    bent = fourier(16).entries.copy()
    bent[3, 5] *= np.exp(1e-3j)
    cases = [fourier(d).entries for d in (2, 3, 5, 7, 64)] + [bent]
    # One block below d = 1024: the same float as the whole Gram.
    for a in cases:
        assert hadamard._gram_deviation(a, len(a)) == full(a)
    for block in (1, 7, 16, 100):
        monkeypatch.setattr(hadamard, "GRAM_BLOCK", block)
        for a in cases:
            assert hadamard._gram_deviation(a, len(a)) == pytest.approx(full(a), rel=1e-9, abs=1e-12)
    with pytest.raises(errors.NotHadamard, match="deviates from d\\*I"):
        validate(bent)


def test_validate_returns_a_read_only_copy():
    a = fourier(3).entries.copy()
    H = validate(a)
    a[0, 0] = -1.0
    assert H.entries[0, 0] == 1.0
    assert not H.entries.flags.writeable


def test_validate_symmetry_flag_enforced():
    rolled = np.roll(fourier(3).entries, 1, axis=0)  # still Hadamard, not symmetric
    assert not validate(rolled).symmetric
    # Symmetry is enforced where H drives a two-qudit gate.
    with pytest.raises(errors.NotSymmetric):
        graph_state(family("line", 2), validate(rolled))


@pytest.mark.parametrize("label,H", full_catalog())
def test_catalog_matrices_are_hadamard(label, H):
    d = H.d
    a = H.entries
    assert np.max(np.abs(np.abs(a) - 1.0)) <= 1e-9, label
    assert np.max(np.abs(a.conj().T @ a - d * np.eye(d))) <= 1e-9 * d, label
    assert H.symmetric, label


def test_fourier_entries():
    for d in range(1, 7):
        w = np.exp(2j * PI / d)
        F = fourier(d)
        expect = w ** (np.outer(np.arange(d), np.arange(d)))
        np.testing.assert_allclose(F.entries, expect, atol=1e-12)


def test_h_alpha_at_zero_is_tilde_a():
    np.testing.assert_allclose(
        catalog("h_alpha", 0.0).entries, catalog("tilde_a").entries, atol=1e-12
    )


def test_catalog_unknown_name():
    with pytest.raises(errors.UnknownName):
        catalog("nope")
    with pytest.raises(errors.UnknownName):
        catalog("h_alpha")  # missing parameter


@pytest.mark.parametrize("name", sorted(hadamard.CATALOG))
def test_catalog_refuses_a_parameter_for_a_parameter_free_name(monkeypatch, name):
    monkeypatch.setitem(hadamard.CATALOG, name, lambda: pytest.fail(f"{name} was built"))
    with pytest.raises(errors.UnknownName, match="takes no parameter"):
        catalog(name, 5.0)


# ------------------------------------------------------------------ dephase


def test_dephase_reconstructs():
    H = catalog("h_d6")
    d1, d2, Hp = dephase(H)
    assert Hp.dephased
    lhs = np.diag(d1) @ H.entries @ np.diag(d2)
    np.testing.assert_allclose(lhs, Hp.entries, atol=1e-9)


@pytest.mark.parametrize("label,H", full_catalog())
def test_dephase_idempotent_bit_exact(label, H):
    Hp = dephase(H)[2]
    Hpp = dephase(Hp)[2]
    assert np.array_equal(Hp.entries, Hpp.entries), label


def test_tensor_product_entries_bit_exact():
    H1, H2 = fourier(2), fourier(3)
    T = tensor_product(H1, H2)
    assert T.d == 6
    for i1 in range(2):
        for i2 in range(3):
            for j1 in range(2):
                for j2 in range(3):
                    assert (
                        T.entries[i1 * 3 + i2, j1 * 3 + j2]
                        == H1.entries[i1, j1] * H2.entries[i2, j2]
                    )


# --------------------------------------------------------------- equivalence


def test_self_p_equivalence_identity():
    for label, H in full_catalog():
        w = find_equivalence(H, H, P_EQUIV)
        assert w is not None, label
        assert check_witness(H, H, w) <= 1e-9, label


def test_qutrit_pair_general_but_not_p_equivalent():
    H2 = catalog("qutrit_h2")
    F3 = fourier(3)
    w = find_equivalence(H2, F3, GENERAL)
    assert w is not None
    assert check_witness(H2, F3, w) <= 1e-9
    # diagonals of the found witness are trivial: pure permutation relation
    np.testing.assert_allclose(w.d1, np.ones(3), atol=1e-9)
    np.testing.assert_allclose(w.d2, np.ones(3), atol=1e-9)
    assert find_equivalence(H2, F3, P_EQUIV) is None


def test_tilde_pair_p_equivalent_by_controlled_not():
    w = find_equivalence(catalog("tilde_d"), catalog("tilde_c"), P_EQUIV)
    assert w is not None
    assert w.p1 == (0, 1, 3, 2)
    np.testing.assert_allclose(w.d1, np.ones(4), atol=1e-9)
    np.testing.assert_allclose(w.d2, np.ones(4), atol=1e-9)


def test_fourier4_equivalent_to_h_alpha_half_pi():
    Ha = catalog("h_alpha", PI / 2)
    F4 = fourier(4)
    w = find_equivalence(Ha, F4, GENERAL)
    assert w is not None
    assert check_witness(Ha, F4, w) <= 1e-9


def test_apply_witness_round_trip():
    H2 = catalog("qutrit_h2")
    F3 = fourier(3)
    w = find_equivalence(H2, F3, GENERAL)
    np.testing.assert_allclose(apply_witness(F3, w).entries, H2.entries, atol=1e-9)


def test_equivalence_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        find_equivalence(fourier(2), fourier(3), GENERAL)
    # check_witness compares the two dimensions before it reads the witness:
    # numpy would broadcast a 1 x 1 right-hand side, or fail to broadcast.
    calls = [
        (lambda: check_witness(fourier(2), fourier(1), s_symmetries(fourier(1))[0]), "2 vs 1"),
        (lambda: check_witness(fourier(3), fourier(4), find_equivalence(fourier(4), fourier(4))),
         "3 vs 4"),
    ]
    for call, dims in calls:
        with pytest.raises(errors.DimensionMismatch, match=f"d mismatch: {dims}"):
            call()


def test_witnesses_are_plain_data():
    """Permutations are tuples of ints, diagonals complex128 phase arrays."""
    found = [
        find_equivalence(catalog("tilde_a"), catalog("tilde_b"), GENERAL),
        find_equivalence(catalog("tilde_d"), catalog("tilde_c"), P_EQUIV),
        *s_symmetries(catalog("tilde_a")),
    ]
    assert found[0].p2 is not None and found[1] is not None
    for w in found:
        for p in (w.p1, w.p2):
            assert p is None or (type(p) is tuple and all(type(i) is int for i in p))
        for ph in (w.d1, w.d2):
            assert ph is None or (ph.dtype == np.complex128 and ph.shape == (4,))
    d1, d2, _ = dephase(catalog("h_d6"))
    assert d1.dtype == d2.dtype == np.complex128 and d1.shape == d2.shape == (6,)


def test_a_witness_of_another_dimension_is_a_dimension_mismatch():
    w = s_symmetries(fourier(4))[1]
    F3 = fourier(3)
    for call in (lambda: check_witness(F3, F3, w), lambda: apply_witness(F3, w)):
        with pytest.raises(errors.DimensionMismatch, match="witness of d=4 vs matrix of d=3"):
            call()


def test_every_part_of_a_witness_is_checked_against_the_matrix():
    """A permutation or diagonal of another length than H.d is refused by name,
    whichever slot of the witness holds it."""
    F3, ones3, ones4, ident3 = fourier(3), np.ones(3, complex), np.ones(4, complex), (0, 1, 2)
    bad = [
        hadamard.EquivalenceWitness(GENERAL, ident3, ones3, (0, 1, 2, 3), ones3),
        hadamard.EquivalenceWitness(GENERAL, ident3, ones3, ident3, ones4),
        hadamard.EquivalenceWitness(GENERAL, ident3, ones4, ident3, ones3),
        hadamard.EquivalenceWitness(P_EQUIV, ident3, ones3, None, ones4),
        hadamard.EquivalenceWitness(hadamard.S_SYMMETRY, ident3, ones4),
    ]
    for w in bad:
        for call in (lambda: check_witness(F3, F3, w), lambda: apply_witness(F3, w)):
            with pytest.raises(errors.DimensionMismatch, match="witness of d=4 vs matrix of d=3"):
                call()


def test_general_search_limit():
    with pytest.raises(errors.SearchLimitExceeded):
        find_equivalence(fourier(7), fourier(7), GENERAL)


@settings(max_examples=20)
@given(
    d=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_scrambled_fourier_is_recovered(d, seed):
    """D1 P1 F P2 D2 built from random pieces is found General-equivalent to F."""
    rng = np.random.default_rng(seed)
    p1 = rng.permutation(d)
    p2 = rng.permutation(d)
    ph1 = np.exp(2j * PI * rng.random(d))
    ph2 = np.exp(2j * PI * rng.random(d))
    F = fourier(d).entries
    m1 = np.zeros((d, d))
    m1[p1, np.arange(d)] = 1.0
    m2 = np.zeros((d, d))
    m2[p2, np.arange(d)] = 1.0
    scrambled = validate(np.diag(ph1) @ m1 @ F @ m2 @ np.diag(ph2))
    w = find_equivalence(scrambled, fourier(d), GENERAL)
    assert w is not None
    assert check_witness(scrambled, fourier(d), w) <= 1e-9


def test_check_witness_matches_the_dense_oracle():
    """The gathered right-hand side is checked within 1e-15 of the dense
    matmul chain: every S-symmetry of the catalog, and the General and
    PEquiv witnesses of random conjugates D P H P D of each matrix."""
    rng = np.random.default_rng(31)
    for label, H in full_catalog():
        d = H.d
        pairs = [(H, w) for w in s_symmetries(H)]  # (H1, w) with H2 = H
        for kind in (GENERAL, P_EQUIV):
            P1, P2 = (np.eye(d)[rng.permutation(d)] for _ in range(2))
            D1, D2 = (np.diag(np.exp(2j * PI * rng.random(d))) for _ in range(2))
            if kind == GENERAL:
                H1 = validate(D1 @ P1 @ H.entries @ P2 @ D2)
            else:
                H1 = validate(P1 @ D1 @ H.entries @ D2 @ P1.T)
            w = find_equivalence(H1, H, kind)
            assert w is not None, (label, kind)
            pairs.append((H1, w))
        for H1, w in pairs:
            dense = float(np.max(np.abs(H1.entries - dense_witness_rhs(H, w))))
            assert abs(check_witness(H1, H, w) - dense) <= 1e-15, (label, w.kind, w.p1)


def test_fourier6_not_equivalent_to_h_d6():
    assert find_equivalence(fourier(6), catalog("h_d6"), GENERAL) is None
    assert find_equivalence(catalog("h_d6"), fourier(6), GENERAL) is None


def _reference_witness(H1, H2, kind):
    """Exhaustive scan: the lex-first (p1, p2) with H1[p1(i), p2(j)] = a_i b_j H2[i, j].

    General tries all d!^2 pairs, PEquiv the d! pairs p2 = p1. Returns the
    maps and phases in the witness's conventions, or None.
    """
    d = H1.d
    perms = list(itertools.permutations(range(d)))
    pairs = ((p, p) for p in perms) if kind == P_EQUIV else itertools.product(perms, perms)
    for p1, p2 in pairs:
        R = H1.entries[np.ix_(p1, p2)] / H2.entries
        a, b = R[:, 0], R[0, :] / R[0, 0]
        if np.max(np.abs(R - np.outer(a, b))) > 1e-9:
            continue
        if kind == P_EQUIV:
            return p1, a, None, b
        d1 = np.empty(d, dtype=np.complex128)
        d1[list(p1)] = a
        d2 = np.empty(d, dtype=np.complex128)
        d2[list(p2)] = b
        return p1, d1, tuple(int(k) for k in np.argsort(p2)), d2
    return None


def _assert_matches_reference(H1, H2, kind):
    ref = _reference_witness(H1, H2, kind)
    w = find_equivalence(H1, H2, kind)
    if ref is None:
        assert w is None
        return
    p1, d1, p2, d2 = ref
    assert w is not None and w.p1 == p1
    assert w.p2 == p2
    np.testing.assert_allclose(w.d1, d1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w.d2, d2, rtol=0, atol=1e-12)


_SMALL = [(label, H) for label, H in full_catalog() if H.d <= 4]


@pytest.mark.parametrize("kind", [GENERAL, P_EQUIV])
def test_search_matches_exhaustive_scan_on_catalog_pairs(kind):
    for l1, H1 in _SMALL:
        for l2, H2 in _SMALL:
            if H1.d == H2.d:
                _assert_matches_reference(H1, H2, kind)


@settings(max_examples=40)
@given(
    i=st.integers(min_value=0, max_value=len(_SMALL) - 1),
    j=st.integers(min_value=0, max_value=len(_SMALL) - 1),
    p_type=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_search_matches_exhaustive_scan_on_conjugates(i, j, p_type, seed):
    """D1 P1 H P2 D2 (or P D1 H D2 P^T) with complex phases, against another catalog matrix."""
    H, target = _SMALL[i][1], _SMALL[j][1]
    if H.d != target.d:
        target = H
    d = H.d
    rng = np.random.default_rng(seed)
    P1 = np.eye(d)[rng.permutation(d)]
    P2 = P1.T if p_type else np.eye(d)[rng.permutation(d)]
    D1, D2 = (np.diag(np.exp(2j * PI * rng.random(d))) for _ in range(2))
    if p_type:
        conj = validate(P1 @ D1 @ H.entries @ D2 @ P2)
    else:
        conj = validate(D1 @ P1 @ H.entries @ P2 @ D2)
    for kind in (GENERAL, P_EQUIV):
        _assert_matches_reference(conj, target, kind)


# --------------------------------------------------------------- s-symmetry


def test_s_symmetries_fourier_counts_and_weyl_pair():
    """F_d has exactly the d shifts p(i) = i + r, in order of r, with D_j = q^(r j)."""
    for d in (*range(2, 6), 9, 16, 64):
        syms = s_symmetries(fourier(d))
        assert [w.p1 for w in syms] == [tuple((i + r) % d for i in range(d)) for r in range(d)]
        q = np.exp(2j * PI / d)
        for r, w in enumerate(syms):
            np.testing.assert_allclose(w.d1, q ** (r * np.arange(d)), atol=1e-9)


def test_s_symmetries_h_alpha():
    syms = s_symmetries(catalog("h_alpha", PI / 5))
    assert len(syms) == 2
    maps = {w.p1 for w in syms}
    assert (0, 1, 2, 3) in maps
    assert (1, 0, 3, 2) in maps
    w = next(w for w in syms if w.p1 == (1, 0, 3, 2))
    np.testing.assert_allclose(w.d1, [1, 1, -1, -1], atol=1e-9)


@pytest.mark.parametrize("label,H", full_catalog())
def test_s_symmetries_contain_identity_and_verify(label, H):
    syms = s_symmetries(H)
    assert syms[0].p1 == tuple(range(H.d))
    for w in syms:
        assert check_witness(H, H, w) <= 1e-9


@pytest.mark.parametrize("name", ["fourier:2", "fourier:3", "fourier:4", "h_alpha"])
def test_s_symmetries_group_closure(name):
    H = catalog("h_alpha", PI / 5) if name == "h_alpha" else fourier(int(name[-1]))
    syms = s_symmetries(H)
    by_map = {w.p1: w for w in syms}
    for w1 in syms:
        for w2 in syms:
            # P1 H D1 = H and P2 H D2 = H give (P1 P2) H (D2 D1) = H
            pmap = tuple(w1.p1[j] for j in w2.p1)
            assert pmap in by_map
            np.testing.assert_allclose(
                by_map[pmap].d1, w2.d1 * w1.d1, atol=1e-9
            )


def test_s_symmetries_match_the_permutation_oracle():
    """At most d forced candidates give the d! loop's pairs, bit for bit."""
    grid = full_catalog() + [("df3d", df3d())] + [(f"fourier:{d}", fourier(d)) for d in range(1, 8)]
    for label, H in grid:
        want = s_symmetries_by_permutations(H)
        got = s_symmetries(H)
        assert [w.p1 for w in got] == [p for p, _ in want], label
        assert [w.d1.tobytes() for w in got] == [ph.tobytes() for _, ph in want], label


def test_s_symmetries_past_the_dense_cap():
    """The candidates cost d**4 work: d = 257 is refused before any of it."""
    assert len(s_symmetries(fourier(9))) == 9
    with pytest.raises(errors.TooLarge, match="d=257"):
        s_symmetries(fourier(257))


def _witness_bits(w):
    if w is None:
        return None
    arrays = [a.tobytes() for a in (w.d1, w.d2) if a is not None]
    return (w.kind, w.p1, w.p2, *arrays)


def _search_results():
    grid = full_catalog() + [("df3d", df3d())] + [(f"fourier:{d}", fourier(d)) for d in range(1, 9)]
    out = {}
    for label, H in grid:
        out[label] = [_witness_bits(w) for w in s_symmetries(H)]
        for label2, H2 in grid:
            if H2.d == H.d:
                kinds = [P_EQUIV] + ([GENERAL] if H.d <= 6 else [])
                out[label, label2] = [_witness_bits(find_equivalence(H, H2, k)) for k in kinds]
    return out


def test_forced_columns_in_blocks_match_one_block(monkeypatch):
    """Anchors taken a few at a time give the whole search's results, bit for bit."""
    want = _search_results()
    for block in (1, 50):  # one anchor per block, and uneven blocks at d = 3..7
        monkeypatch.setattr(hadamard, "GRAM_BLOCK", block)
        assert _search_results() == want, block


# The child runs one request, then prints its exit code and peak RSS (kB) to stderr.
PEAK = """
import sys
from gghs.cli import main
code = main(sys.argv[1:])
peak = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(code, peak.split()[1], file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_s_symmetry_search_at_the_cap_holds_one_block():
    """d = 256 holds 16 anchors (2**20 entries) at a time, not two d**3 arrays (546 MB)."""
    proc = python_process("-c", PEAK, "symmetries", "fourier:256")
    code, peak_kb = proc.stderr.split()
    assert code == "0" and '"count": 256' in proc.stdout
    assert int(peak_kb) < 200 * 1024, peak_kb
