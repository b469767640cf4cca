"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single PASS/FAIL line (visible
with -s, or in the captured output of a failing test) and then asserts. Checks
accumulate into a list so one failing clause does not hide the others.
"""

import json
import math
import time

import numpy as np

from gghs import (
    apply_local,
    build_code,
    catalog,
    family,
    find_equivalence,
    fourier,
    graph_state,
    hamiltonian_ground_check,
    i6,
    kl_distance,
    kraus_commutation_test,
    lu_witness,
    overlap,
    pauli_xz,
    reduced_density,
    reorder_qudits,
    s_symmetries,
    schmidt_spectrum,
    tensor_product,
    verify_stabilizer,
    weight_enumerators,
)
from gghs.cli import main as cli_main
from gghs.hadamard import GENERAL, P_EQUIV
from helpers import connected_graphs, full_catalog, peps_contract

PI = math.pi


def check(failures, ok, msg):
    if not ok:
        failures.append(msg)


def finish(num, slug, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance {num:02d}] {slug}: {status}")
    assert not failures, f"criterion {num} ({slug}): " + "; ".join(failures)


def cli_json(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_i6_values(capsys):
    failures = []

    t0 = time.perf_counter()
    code, obj = cli_json(capsys, ["invariant", "--state", "ghz:3:6", "--i6"])
    t_ghz = time.perf_counter() - t0
    check(failures, code == 0, "ghz run exited nonzero")
    check(failures, abs(obj["i6"] - 0.0278) <= 5e-4, f"ghz i6 {obj['i6']} != 0.0278 +- 5e-4")
    check(failures, abs(obj["i6"] - 1.0 / 36.0) <= 1e-12, f"ghz i6 {obj['i6']} != 1/36 within 1e-12")
    check(failures, t_ghz < 1.0, f"ghz run took {t_ghz:.2f}s >= 1s")

    t0 = time.perf_counter()
    code, obj = cli_json(
        capsys, ["invariant", "--graph", "triangle", "--hadamard", "h_d6", "--i6"]
    )
    t_tri = time.perf_counter() - t0
    check(failures, code == 0, "triangle run exited nonzero")
    check(
        failures,
        abs(obj["i6"] - 0.0150) <= 5e-4,
        f"triangle i6 {obj['i6']} != 0.0150 +- 5e-4",
    )
    check(failures, t_tri < 1.0, f"triangle run took {t_tri:.2f}s >= 1s")

    finish(1, "i6-reproduction", failures)


def test_criterion_02_kraus_obstruction():
    failures = []
    t0 = time.perf_counter()
    passed, worst = kraus_commutation_test(catalog("h_d6"))
    check(failures, not passed, "d=6 matrix unexpectedly passed")
    check(failures, worst > 0.1, f"d=6 violation {worst} <= 0.1")
    for d in range(2, 6):
        passed, worst = kraus_commutation_test(fourier(d))
        check(failures, passed and worst <= 1e-9, f"fourier({d}) violation {worst}")
    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 1.0, f"took {elapsed:.2f}s >= 1s")
    finish(2, "kraus-obstruction", failures)


def test_criterion_03_code_parameters():
    failures = []
    t0 = time.perf_counter()
    C = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]
    V = build_code(family("triangle"), catalog("h_alpha", PI / 5), C)
    K = V.shape[-1]
    check(failures, K == 4, f"K = {K} != 4")
    flat = V.reshape(-1, K)
    gram_dev = np.max(np.abs(flat.conj().T @ flat - np.eye(4)))
    check(failures, gram_dev <= 1e-9, f"gram deviation {gram_dev}")
    dist = kl_distance(V, max_weight=3)
    check(failures, dist == 2, f"kl_distance = {dist} != 2")
    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 30.0, f"took {elapsed:.1f}s >= 30s")
    finish(3, "code-parameters", failures)


def test_criterion_04_non_additivity_evidence():
    failures = []
    t0 = time.perf_counter()
    C = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]
    Va = build_code(family("triangle"), catalog("h_alpha", PI / 5), C)
    Vf = build_code(family("triangle"), fourier(4), C)
    Aa, Ba = weight_enumerators(Va)
    Af, Bf = weight_enumerators(Vf)
    diff = max(float(np.max(np.abs(Aa - Af))), float(np.max(np.abs(Ba - Bf))))
    check(failures, diff > 1e-6, f"enumerator difference {diff} <= 1e-6")
    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 120.0, f"took {elapsed:.1f}s >= 2min")
    finish(4, "non-additivity-evidence", failures)


def test_criterion_05_maximally_mixed_grid():
    failures = []
    t0 = time.perf_counter()
    for gname, G in connected_graphs(max_n=5):
        for label, H in full_catalog():
            s = graph_state(G, H)
            for a in range(G.n):
                dev = np.max(np.abs(reduced_density(s, [a]) - np.eye(H.d) / H.d))
                if dev > 1e-9:
                    failures.append(f"{gname} {label} site {a}: dev {dev}")
    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 60.0, f"took {elapsed:.1f}s >= 1min")
    finish(5, "single-site-rdm-grid", failures)


def _star_closed_form(n, H):
    d = H.d
    cols = H.entries / math.sqrt(d)
    amps = np.zeros(d**n, dtype=np.complex128)
    for j in range(d):
        leg = cols[:, j]
        block = np.eye(d)[j]
        for _ in range(n - 1):
            block = np.kron(block, leg)
        amps += block / math.sqrt(d)
    return amps


def test_criterion_06_star_and_line_closed_forms():
    failures = []
    for label, H in full_catalog():
        d = H.d
        for n in range(2, 6):
            expect = _star_closed_form(n, H)
            got = graph_state(family("star", n), H)
            ov = abs(np.vdot(expect, got.reshape(-1)))
            if ov < 1 - 1e-9:
                failures.append(f"star({n}) {label}: overlap {ov}")
        cols = H.entries / math.sqrt(d)
        expect = np.zeros(d**3, dtype=np.complex128)
        for j in range(d):
            expect += np.kron(cols[:, j], np.kron(np.eye(d)[j], cols[:, j])) / math.sqrt(d)
        got = graph_state(family("line", 3), H)
        ov = abs(np.vdot(expect, got.reshape(-1)))
        if ov < 1 - 1e-9:
            failures.append(f"line(3) {label}: overlap {ov}")
    finish(6, "star-line-closed-forms", failures)


def test_criterion_07_peps_equals_circuit():
    failures = []
    for gname, G in connected_graphs(max_n=5):
        for label, H in full_catalog():
            fid = abs(overlap(peps_contract(G, H), graph_state(G, H)))
            if fid < 1 - 1e-9:
                failures.append(f"{gname} {label}: fidelity {fid}")
    finish(7, "peps-contraction", failures)


def test_criterion_08_tensor_product_interleave():
    failures = []
    F2 = fourier(2)
    F22 = tensor_product(F2, F2)
    for gname, G in [("triangle", family("triangle")), ("cycle:4", family("cycle", 4))]:
        n = G.n
        s2 = graph_state(G, F2)
        pair = np.kron(s2.reshape(-1), s2.reshape(-1))  # qudit order (0a..na, 0b..nb)
        paired = pair.reshape((2,) * (2 * n))
        perm = [0] * (2 * n)
        for k in range(n):
            perm[k] = 2 * k          # a-copy qudit k -> slot 2k
            perm[n + k] = 2 * k + 1  # b-copy qudit k -> slot 2k+1
        interleaved = reorder_qudits(paired, perm)
        s4 = interleaved.reshape((4,) * n)
        ov = abs(overlap(s4, graph_state(G, F22)))
        if ov < 1 - 1e-9:
            failures.append(f"{gname}: overlap {ov}")
    finish(8, "tensor-product-interleave", failures)


def test_criterion_09_lu_witnesses():
    failures = []

    Hc, Hd = catalog("tilde_c"), catalog("tilde_d")
    w = find_equivalence(Hd, Hc, P_EQUIV)
    check(failures, w is not None, "tilde pair not P-equivalent")
    G = family("triangle")
    unitaries = lu_witness(G, Hc, w)
    cnot = np.zeros((4, 4))
    cnot[[0, 1, 3, 2], range(4)] = 1.0
    for u in unitaries:
        if np.max(np.abs(np.abs(u) - cnot)) > 1e-9:
            failures.append("per-site unitary is not the controlled-not permutation")
            break
    mapped = graph_state(G, Hc)
    for site, u in enumerate(unitaries):
        mapped = apply_local(u, site, mapped)
    ov = abs(overlap(mapped, graph_state(G, Hd)))
    check(failures, ov >= 1 - 1e-9, f"p-equiv witness overlap {ov}")

    F3, H2 = fourier(3), catalog("qutrit_h2")
    wg = find_equivalence(H2, F3, GENERAL)
    check(failures, wg is not None, "d=3 pair not equivalent")
    Gc = family("cycle", 4)
    us = lu_witness(Gc, F3, wg)
    mapped = graph_state(Gc, F3)
    for site, u in enumerate(us):
        mapped = apply_local(u, site, mapped)
    ov = abs(overlap(mapped, graph_state(Gc, H2)))
    check(failures, ov >= 1 - 1e-9, f"bipartite witness overlap {ov}")

    finish(9, "lu-witnesses", failures)


def test_criterion_10_stabilizer_suite():
    failures = []
    graphs = connected_graphs(max_n=5)
    for d in range(2, 6):
        H = fourier(d)
        shift = tuple((i + 1) % d for i in range(d))
        w = next((x for x in s_symmetries(H) if x.p1 == shift), None)
        if w is None:
            failures.append(f"fourier({d}): shift symmetry missing")
            continue
        X, Z = pauli_xz(d)
        P, D = np.eye(d)[:, list(w.p1)], np.diag(w.d1)
        if np.max(np.abs(P - X.conj().T)) > 1e-12 or np.max(np.abs(D - Z)) > 1e-12:
            failures.append(f"fourier({d}): generator factors differ from the Weyl pair")
        for gname, G in graphs:
            psi = graph_state(G, H)
            for a in range(G.n):
                ok, dev = verify_stabilizer(G, w, a, psi)
                if not ok:
                    failures.append(f"fourier({d}) {gname} vertex {a}: dev {dev}")

    Ha = catalog("h_alpha", PI / 5)
    wa = next((x for x in s_symmetries(Ha) if x.p1 == (1, 0, 3, 2)), None)
    if wa is None:
        failures.append("printed (P, D) pair not found for alpha = pi/5")
    else:
        if np.max(np.abs(wa.d1 - np.array([1, 1, -1, -1]))) > 1e-9:
            failures.append("printed D differs")
        psi = graph_state(family("triangle"), Ha)
        for a in range(3):
            ok, dev = verify_stabilizer(family("triangle"), wa, a, psi)
            if not ok:
                failures.append(f"alpha=pi/5 vertex {a}: dev {dev}")

    finish(10, "stabilizer-suite", failures)


def _four_term_product_state(alpha):
    e = np.exp(1j * alpha / 2)
    e3 = np.exp(3j * alpha / 2)
    v1 = np.array([1, 1, e, -e])
    v2 = np.array([1, 1, -e, e])
    v3 = np.array([-1, 1, e3, e3])
    v4 = np.array([1, -1, e3, e3])
    amps = np.zeros(64, dtype=np.complex128)
    for v, coef in ((v1, 1.0), (v2, 1.0), (v3, np.conj(e3)), (v4, np.conj(e3))):
        amps += coef * np.kron(v, np.kron(v, v))
    return amps / np.linalg.norm(amps)


def test_criterion_11_triangle_necessary_conditions():
    failures = []
    suite = [
        ("fourier:2", fourier(2)),
        ("fourier:3", fourier(3)),
        ("fourier:5", fourier(5)),
        ("h_alpha:0", catalog("h_alpha", 0.0)),
        ("h_alpha:pi/5", catalog("h_alpha", PI / 5)),
        ("tilde_a", catalog("tilde_a")),
        ("tilde_b", catalog("tilde_b")),
        ("tilde_c", catalog("tilde_c")),
        ("tilde_d", catalog("tilde_d")),
    ]
    for label, H in suite:
        d = H.d
        s = graph_state(family("triangle"), H)
        for a in range(3):
            spec = schmidt_spectrum(s, [a])
            if len(spec) != d or np.max(np.abs(np.array(spec) - 1.0 / d)) > 1e-6:
                failures.append(f"{label} site {a}: spectrum not flat of rank {d}")
        val = i6(s)
        if abs(val - 1.0 / d**2) > 1e-6:
            failures.append(f"{label}: i6 {val} != 1/{d*d}")

    for alpha in (PI / 5, 1.3):
        expect = _four_term_product_state(alpha)
        got = graph_state(family("triangle"), catalog("h_alpha", alpha))
        ov = abs(np.vdot(expect, got.reshape(-1)))
        if ov < 1 - 1e-9:
            failures.append(f"four-term decomposition at alpha={alpha}: overlap {ov}")

    finish(11, "triangle-necessary-conditions", failures)


def test_criterion_12_hamiltonian_ground_space():
    failures = []
    for gname, G, H in [
        ("triangle", family("triangle"), fourier(2)),
        ("cycle:4", family("cycle", 4), fourier(3)),
    ]:
        gap, dim, fid = hamiltonian_ground_check(G, H)
        check(failures, dim == 1, f"{gname}: ground dim {dim}")
        check(failures, abs(gap - 1.0) <= 1e-9, f"{gname}: gap {gap}")
        check(failures, fid >= 1 - 1e-9, f"{gname}: fidelity {fid}")
    finish(12, "hamiltonian-ground-space", failures)


def test_criterion_13_squared_gate_relation():
    failures = []
    dev = np.max(np.abs(catalog("qutrit_h2").entries - fourier(3).entries ** 2))
    check(failures, dev <= 1e-12, f"entrywise deviation {dev}")
    finish(13, "squared-gate-relation", failures)


def test_criterion_14_decoded_diagonal_errors():
    failures = []
    rng = np.random.default_rng(3)
    from gghs import decoded_error

    for label, H in full_catalog():
        d = H.d
        diag_sets = [
            np.diag(np.exp(2j * PI * np.arange(d) / d)),
            np.diag(H.entries[:, d - 1]),
            np.diag(np.exp(2j * PI * rng.random(d))),
        ]
        for site in range(3):
            for E in diag_sets:
                ok, S, residual = decoded_error(family("triangle"), H, E, site)
                if not ok or residual > 1e-9:
                    failures.append(f"{label} site {site}: residual {residual}")
                    continue
                u = H.entries / math.sqrt(d)
                dev = np.max(np.abs(S - u.conj().T @ E @ u))
                if dev > 1e-8:
                    failures.append(f"{label} site {site}: site operator off by {dev}")
    finish(14, "decoded-diagonal-errors", failures)
