import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gghs import (
    apply_local,
    build,
    catalog,
    errors,
    family,
    fourier,
    ghz,
    graph_state,
    i6,
    kraus_commutation_test,
    partial_transpose,
    reduced_density,
    s_symmetries,
    schmidt_spectrum,
    validate,
    verify_stabilizer,
)
from gghs import entangle
from helpers import basis_state, connected_graphs, cut_rank, full_catalog

PI = math.pi

# regression anchor for the d=6 triangle state, our own computed value
I6_TRIANGLE_D6 = 0.023967383020881


def _random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ------------------------------------------------------------------ rdm / pt


def test_reduced_density_examples():
    rho = reduced_density(ghz(3, 2), [0])
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    rho = reduced_density(graph_state(family("triangle"), fourier(3)), [0])
    np.testing.assert_allclose(rho, np.eye(3) / 3, atol=1e-9)

    z = basis_state(3, 2, [0, 0, 0])
    rho = reduced_density(z, [0, 1])
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    np.testing.assert_allclose(rho, expect, atol=1e-12)


def test_reduced_density_is_a_state():
    s = graph_state(family("cycle", 4), catalog("h_alpha", PI / 5))
    rho = reduced_density(s, [1, 3])
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-9
    assert abs(np.trace(rho) - 1.0) <= 1e-9
    assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -1e-9


def test_reduced_density_errors():
    with pytest.raises(errors.EmptyKeep):
        reduced_density(ghz(3, 2), [])
    with pytest.raises(errors.BadSite):
        reduced_density(ghz(3, 2), [3])


def test_partial_transpose_diagonal_fixed():
    rho = reduced_density(ghz(3, 6), [0, 1])
    np.testing.assert_allclose(partial_transpose(rho, (6, 6), 0), rho, atol=1e-12)


def test_partial_transpose_bell_blocks():
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 3] = m[0, 3] = m[3, 0] = 0.5
    rho = m.astype(np.complex128)
    pt = partial_transpose(rho, (2, 2), 0)
    assert pt[1, 2] == 0.5 and pt[2, 1] == 0.5
    assert pt[0, 3] == 0.0 and pt[3, 0] == 0.0
    with pytest.raises(errors.BadSlot):
        partial_transpose(rho, (2, 2), 2)


def test_partial_transpose_wants_a_square_of_the_dims():
    rho = reduced_density(ghz(3, 2), [0, 1])
    for bad, dims in [(rho, (2,)), (rho, (2, 3)), (rho[:3], (2, 2)), (rho.reshape(2, 8), (2, 2)),
                      (rho.reshape(-1), (2, 2))]:
        with pytest.raises(errors.DimensionMismatch):
            partial_transpose(bad, dims, 0)
    with pytest.raises(errors.BadSlot):
        partial_transpose(rho, (2, 2), -1)


# ----------------------------------------------------------------------- i6


def test_i6_ghz_exact():
    assert abs(i6(ghz(3, 6)) - 1.0 / 36.0) <= 1e-12


def test_i6_product_state():
    assert abs(i6(basis_state(3, 2, [0, 0, 0])) - 1.0) <= 1e-12


def test_i6_triangle_d6_regression():
    val = i6(graph_state(family("triangle"), catalog("h_d6")))
    assert abs(val - I6_TRIANGLE_D6) <= 1e-9


def test_i6_separates_triangle_d6_from_ghz():
    """The d=6 triangle state is distinguished from GHZ by more than 0.01."""
    val = i6(graph_state(family("triangle"), catalog("h_d6")))
    assert abs(val - i6(ghz(3, 6))) > 0.01


def test_i6_residue_of_a_state_far_from_norm_one_is_named():
    s = graph_state(family("triangle"), catalog("h_d6"))
    for scale in (1e2, 1e3, float("nan")):
        far = s * scale
        with pytest.raises(errors.NotNormalized):
            i6(far)
        with pytest.raises(errors.NotNormalized):
            schmidt_spectrum(far, [0])
        with pytest.raises(errors.NotNormalized):
            reduced_density(far, [0])


def test_i6_caps_rho_01_before_it_reads_the_norm(monkeypatch):
    # rho_01 of 65**3 amplitudes holds 65**4 entries, past the cap. This array
    # is also off norm 1; the cap is checked first.
    monkeypatch.setattr(entangle, "_check_normalized", lambda s: pytest.fail("norm read"))
    with pytest.raises(errors.TooLarge, match=r"\(d\*\*n\)\*\*2 with n=2, d=65 "):
        i6(np.zeros((65,) * 3, np.complex128))
    monkeypatch.undo()
    with pytest.raises(errors.DimensionMismatch):
        i6(np.zeros((65, 65, 66), np.complex128))


def test_i6_needs_three_sites():
    with pytest.raises(errors.TooFewSites):
        i6(ghz(2, 2))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    site=st.integers(min_value=0, max_value=2),
)
def test_i6_local_unitary_invariant(seed, site):
    rng = np.random.default_rng(seed)
    s = graph_state(family("triangle"), fourier(3))
    u = _random_unitary(rng, 3)
    t = apply_local(u, site, s)
    assert abs(i6(t) - i6(s)) <= 1e-9


# ------------------------------------------------------------------- schmidt


def test_schmidt_examples():
    np.testing.assert_allclose(schmidt_spectrum(ghz(3, 5), [1]), np.full(5, 0.2), atol=1e-12)
    np.testing.assert_allclose(
        schmidt_spectrum(graph_state(family("star", 4), fourier(3)), [2]),
        np.full(3, 1 / 3),
        atol=1e-9,
    )
    np.testing.assert_allclose(
        schmidt_spectrum(basis_state(3, 2, [0, 0, 0]), [0]), [1, 0], atol=1e-12
    )


def test_schmidt_descending_and_normalized():
    s = graph_state(family("line", 4), catalog("h_alpha", 1.0))
    for part in ([0], [1], [0, 1], [1, 2]):
        spec = schmidt_spectrum(s, part)
        assert all(a >= b - 1e-12 for a, b in zip(spec, spec[1:]))
        assert abs(sum(spec) - 1.0) <= 1e-9


def test_schmidt_partition_errors():
    s = ghz(3, 2)
    with pytest.raises(errors.BadPartition):
        schmidt_spectrum(s, [])
    with pytest.raises(errors.BadPartition):
        schmidt_spectrum(s, [0, 1, 2])


def test_schmidt_larger_part_reads_the_smaller_side():
    s = graph_state(family("line", 5), catalog("h_alpha", PI / 5))
    for part in ([0, 1, 2], [0, 2, 3, 4], [1, 2, 3, 4]):
        rest = [k for k in range(5) if k not in part]
        spec = schmidt_spectrum(s, part)
        assert len(spec) == 4 ** len(part)
        pad = [0.0] * (4 ** len(part) - 4 ** len(rest))
        assert spec == sorted(schmidt_spectrum(s, rest) + pad, reverse=True)
        full = np.linalg.eigvalsh(reduced_density(s, part))[::-1]
        np.testing.assert_allclose(spec, full, atol=1e-14)


def test_schmidt_site_checks_before_the_side_is_chosen():
    s = ghz(3, 2)
    with pytest.raises(errors.BadSite):
        schmidt_spectrum(s, [0, 3])  # two of three sites, one out of range
    with pytest.raises(errors.BadSite):
        schmidt_spectrum(s, [-1, 0])


# ------------------------------------------------ closed-form reduced states


def _grid_with_extras():
    """connected_graphs(5) x the symmetric catalog, a graph with an isolated
    vertex, and fourier:1."""
    graphs = connected_graphs(5) + [("line:3+isolated", build(4, [(0, 1), (1, 2)]))]
    mats = [(lbl, H) for lbl, H in full_catalog() if H.symmetric] + [("fourier:1", fourier(1))]
    for (gname, G), (label, H) in itertools.product(graphs, mats):
        if H.d**G.n <= 7776:
            yield gname, G, label, H


def test_graph_reduced_density_matches_dense_on_grid():
    cases = 0
    for gname, G, label, H in _grid_with_extras():
        d = H.d
        s = graph_state(G, H)
        for m in range(1, G.n + 1):
            if d ** (2 * m) > 4096:
                break
            for S in itertools.combinations(range(G.n), m):
                rho = reduced_density((G, H), S)
                assert rho.shape == (d**m, d**m)
                dev = np.max(np.abs(rho - reduced_density(s, S)))
                assert dev <= 1e-14, (gname, label, S, dev)
                cases += 1
    assert cases > 2000


def test_graph_pair_matches_its_state_on_grid():
    for gname, G, label, H in _grid_with_extras():
        if G.n < 3 or H.d**G.n > 1024:
            continue
        s = graph_state(G, H)
        assert abs(i6((G, H)) - i6(s)) <= 1e-14, (gname, label)
        for part in ([0], [1, 2], [0, 2, G.n - 1], list(range(1, G.n))):
            np.testing.assert_allclose(
                schmidt_spectrum((G, H), part), schmidt_spectrum(s, part), atol=1e-14
            )


def test_graph_schmidt_spectrum_matches_its_state_on_grid():
    # The pair path reads the cut graph, the array path the smaller side of
    # the built state; both print no coefficient below 0.
    cases = 0
    for (gname, G), (label, H) in itertools.product(connected_graphs(5), full_catalog()):
        if not H.symmetric or H.d**G.n > 4096:
            continue
        s = graph_state(G, H)
        for m in range(1, G.n):
            for part in itertools.combinations(range(G.n), m):
                spec = schmidt_spectrum((G, H), part)
                dense = schmidt_spectrum(s, part)
                assert min(spec) >= 0 and min(dense) >= 0, (gname, label, part)
                dev = np.max(np.abs(np.subtract(spec, dense)))
                assert dev <= 1e-15, (gname, label, part, dev)
                cases += 1
    assert cases == 2504


def test_graph_schmidt_spectrum_reads_only_the_cut_ends(monkeypatch):
    asked = []
    reduced = entangle._reduced
    monkeypatch.setattr(entangle, "_reduced", lambda s, keep: asked.append(len(keep)) or reduced(s, keep))
    # One edge, (11, 12), crosses the cut of a 2**24-amplitude register.
    spec = schmidt_spectrum((family("line", 24), fourier(2)), range(12))
    assert asked == [1]
    assert spec == [0.5, 0.5] + [0.0] * (2**12 - 2)
    # No edge crosses {0, 1} | {2, 3}: a product state, read from no site.
    asked.clear()
    spec = schmidt_spectrum((build(4, [(0, 1), (2, 3)]), fourier(3)), [0, 1])
    assert asked == []
    assert spec == [1.0] + [0.0] * 8


def test_graph_reduced_density_checks_in_graph_state_order():
    G = family("line", 3)
    nonsym = validate(fourier(4).entries[[1, 0, 2, 3]])
    with pytest.raises(errors.NotSymmetric):
        reduced_density((G, nonsym), [7])
    with pytest.raises(errors.NotSymmetric):
        schmidt_spectrum((G, nonsym), [0, 1, 2])
    with pytest.raises(errors.TooLarge):
        reduced_density((family("line", 13), fourier(4)), [99])
    with pytest.raises(errors.EmptyKeep):
        reduced_density((G, fourier(2)), [])
    with pytest.raises(errors.BadSite):
        reduced_density((G, fourier(2)), [0, 3])


@pytest.mark.parametrize(
    "kernel",
    [
        i6,
        lambda s: schmidt_spectrum(s, [0]),
        lambda s: reduced_density(s, [0]),
        lambda s: verify_stabilizer(family("line", 3), s_symmetries(fourier(3))[1], 0, s),
    ],
    ids=["i6", "schmidt_spectrum", "reduced_density", "verify_stabilizer"],
)
def test_a_state_with_axes_of_unequal_length_is_a_dimension_mismatch(kernel):
    # n and d are read off the array's shape, so its axes must share one
    # length; the shape is checked before the norm (this array's is 0).
    s = np.zeros((2, 3, 2), dtype=np.complex128)
    with pytest.raises(errors.DimensionMismatch, match=r"state axes \(2, 3, 2\) differ"):
        kernel(s)


def test_each_state_kernel_reads_the_norm_once(monkeypatch):
    seen = []
    check = entangle._check_normalized
    monkeypatch.setattr(entangle, "_check_normalized", lambda s: seen.append(s) or check(s))
    s = graph_state(family("line", 4), fourier(3))
    calls = {
        "i6": lambda: i6(s),
        "schmidt_spectrum": lambda: schmidt_spectrum(s, [0]),
        "schmidt_spectrum, the larger side": lambda: schmidt_spectrum(s, [0, 1, 3]),
        "reduced_density": lambda: reduced_density(s, [0, 2]),
    }
    for name, call in calls.items():
        seen.clear()
        call()
        assert len(seen) == 1, name


def test_each_state_kernel_checks_a_pair_once(monkeypatch):
    # _shape runs graph_state's checks; _reduced, the Schmidt cut graph among
    # its inputs, does not run them again.
    seen = []
    check = entangle._check_graph_state
    monkeypatch.setattr(entangle, "_check_graph_state", lambda G, H: seen.append((G, H)) or check(G, H))
    pair = (family("line", 4), fourier(3))
    calls = {
        "i6": lambda: i6(pair),
        "schmidt_spectrum": lambda: schmidt_spectrum(pair, [0]),
        "schmidt_spectrum, the larger side": lambda: schmidt_spectrum(pair, [0, 1, 3]),
        "reduced_density": lambda: reduced_density(pair, [0, 2]),
    }
    for name, call in calls.items():
        seen.clear()
        call()
        assert seen == [pair], name


def test_reduced_states_past_the_cap_are_refused_before_allocation(monkeypatch):
    # rho_S holds d**(2|S|) entries: 65**4 and 4097**2 pass 2**24, though
    # 65**3 and 4097 amplitudes fit the state.
    states = [ghz(3, 65), ghz(1, 4097)]
    pairs = [(family("triangle"), fourier(d)) for d in (65, 256)]

    def dense_work(*args, **kwargs):
        raise AssertionError("reduced state built past the cap")

    monkeypatch.setattr(np, "tensordot", dense_work)
    monkeypatch.setattr(entangle, "_encode", dense_work)
    for s in states:
        with pytest.raises(errors.TooLarge):
            reduced_density(s, range(min(s.ndim, 2)))
    for G, H in pairs:
        with pytest.raises(errors.TooLarge):
            reduced_density((G, H), [1, 2])
        with pytest.raises(errors.TooLarge):
            reduced_density((G, H), [0, 1])
        with pytest.raises(errors.TooLarge):
            i6((G, H))
    # The smaller side of a cut always fits.
    monkeypatch.undo()
    assert schmidt_spectrum(pairs[0], [0]) == pytest.approx([1 / 65] * 65, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_graph_schmidt_spectrum_is_flat_with_cut_rank_support(d):
    """psi(G, F_d) for prime d is a qudit graph state: across A | A^c its
    Schmidt spectrum is flat on d**rank(Gamma[A, A^c] mod d) values."""
    H = fourier(d)
    for gname, G in connected_graphs(5):
        s = graph_state(G, H)
        for m in range(1, G.n):
            for A in itertools.combinations(range(G.n), m):
                support = d ** cut_rank(G, A, d)
                expect = np.zeros(d**m)
                expect[:support] = 1.0 / support
                np.testing.assert_allclose(schmidt_spectrum((G, H), A), expect, atol=1e-12)
                np.testing.assert_allclose(schmidt_spectrum(s, A), expect, atol=1e-12)



# ---------------------------------------------------- maximal mixedness grid


@pytest.mark.parametrize("gname,G", connected_graphs(max_n=4))
def test_single_site_rdms_maximally_mixed(gname, G):
    for label, H in full_catalog():
        s = graph_state(G, H)
        for a in range(G.n):
            rho = reduced_density(s, [a])
            dev = np.max(np.abs(rho - np.eye(H.d) / H.d))
            assert dev <= 1e-9, (gname, label, a)


# ------------------------------------------------------------ kraus obstacle


def test_kraus_fourier_passes():
    for d in range(2, 6):
        passed, worst = kraus_commutation_test(fourier(d))
        assert passed, d
        assert worst <= 1e-9


def test_kraus_d6_fails_loudly():
    passed, worst = kraus_commutation_test(catalog("h_d6"))
    assert not passed
    assert worst > 0.1


def test_kraus_degenerate_dimension():
    passed, worst = kraus_commutation_test(validate([[1]]))
    assert passed and worst == 0.0
