import gc
import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import gghs
from gghs import (
    family,
    fourier,
    ghz,
    graph_state,
    overlap,
    qstate,
    s_symmetries,
    verify_stabilizer,
)
from gghs.cli import build_parser, main, resolve_graph, resolve_matrix, resolve_state
from gghs.formats import render_json, state_to_obj
from helpers import (
    SRC,
    connected_graphs,
    cut_rank,
    entry_stdout,
    full_catalog,
    matrix_json,
    peps_contract,
    skewed_f3,
)

PI = math.pi


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ------------------------------------------------------------------ validate


def test_validate_catalog_name(capsys):
    code, obj = run_json(capsys, "validate", "fourier:2")
    assert code == 0
    assert obj == {"valid": True, "symmetric": True, "dephased": True}


def test_validate_rejects_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"d": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
    code, obj = run_json(capsys, "validate", str(p))
    assert code == 0
    assert obj["valid"] is False
    assert "reason" in obj
    p.write_text(json.dumps({"d": 2, "entries": [[[1, 0], [1, 0]], [[1, 0], [float("nan"), 0]]]}))
    code, obj = run_json(capsys, "validate", str(p))
    assert code == 0
    assert obj["valid"] is False


def test_validate_missing_file_is_malformed(capsys):
    code, obj = run_json(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert obj["error"] == "malformed_input"


@pytest.mark.parametrize("kind", ["matrix", "graph", "state", "operator"])
def test_json_file_that_is_not_utf8_is_malformed(tmp_path, capsys, kind):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"d": 2, "name": "\xe9"}')
    argv = {
        "matrix": ("validate", str(p)),
        "graph": ("state", "--graph", str(p), "--hadamard", "fourier:2"),
        "state": ("invariant", "--state", str(p)),
        "operator": ("decode-error", "--graph", "line:2", "--hadamard", "fourier:2",
                     "--site", "0", "--op", str(p)),
    }[kind]
    code, obj = run_json(capsys, *argv)
    assert code == 2
    assert obj["error"] == "malformed_input"
    assert obj["detail"].startswith(f"{str(p)!r} is not valid JSON")


ONE = [1, 0]


@pytest.mark.parametrize("kind", ["matrix", "state", "operator"])
@pytest.mark.parametrize("pairs, detail", [
    ([ONE, ONE, ONE, ["-1", 0]], "expected a number, got '-1'"),
    ([[True, False]] * 4, "expected a number, got True"),
    ([ONE, ONE, ONE, [None, 0]], "expected a number, got None"),  # not NaN
    ([ONE, ONE, ONE, [10**400, 0]], "a number is past the float range"),  # not an OverflowError
], ids=["string", "boolean", "null", "past-float"])
def test_complex_parts_must_be_json_numbers(tmp_path, capsys, kind, pairs, detail):
    p = tmp_path / "parts.json"
    if kind == "state":
        p.write_text(json.dumps({"n": 2, "d": 2, "amps": pairs}))
    else:
        p.write_text(json.dumps({"d": 2, "entries": [pairs[:2], pairs[2:]]}))
    argv = {
        "matrix": ("validate", str(p)),
        "state": ("invariant", "--state", str(p)),
        "operator": ("decode-error", "--graph", "line:2", "--hadamard", "fourier:2",
                     "--site", "0", "--op", str(p)),
    }[kind]
    code, obj = run_json(capsys, *argv)
    assert code == 2
    assert obj["error"] == "malformed_input"
    assert obj["detail"].startswith(f"{str(p)!r}: {detail}")


def test_validate_accepts_matrix_file(tmp_path, capsys):
    F = fourier(2).entries
    obj = {"d": 2, "entries": [[[float(F[i, j].real), float(F[i, j].imag)] for j in range(2)] for i in range(2)]}
    p = tmp_path / "f2.json"
    p.write_text(json.dumps(obj))
    code, out = run_json(capsys, "validate", str(p))
    assert code == 0 and out["valid"] is True


F2_PAIRS = [[[1, 0], [1, 0]], [[1, 0], [-1, 0]]]


@pytest.mark.parametrize(
    "kind,obj",
    [
        ("graph", {"n": 3.7, "edges": [[0, 1], [1, 2]]}),
        ("graph", {"n": 3.0, "edges": [[0, 1], [1, 2]]}),
        ("graph", {"n": 2, "edges": [[True, False]]}),
        ("graph", {"n": 2, "edges": [[0, 1.0]]}),
        ("state", {"n": 1.9, "d": 2.0, "amps": [[1, 0], [0, 0]]}),
        ("state", {"n": 1, "d": True, "amps": [[1, 0]]}),
        ("matrix", {"d": 2.6, "entries": F2_PAIRS}),
        ("matrix", {"d": True, "entries": [[[1, 0]]]}),
    ],
)
def test_integer_fields_must_be_json_integers(tmp_path, capsys, kind, obj):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(obj))
    argv = {
        "graph": ("state", "--graph", str(p), "--hadamard", "fourier:2"),
        "state": ("invariant", "--state", str(p), "--rdm", "0"),
        "matrix": ("validate", str(p)),
    }[kind]
    code, out = run_json(capsys, *argv)
    assert code == 2, out
    assert out["error"] == "malformed_input"
    assert "must be a JSON integer" in out["detail"]


# ------------------------------------------------------- shorthands and paths


PAIR = ["--graph", "line:3", "--hadamard", "fourier:2"]


@pytest.mark.parametrize(
    "by_file,by_name",
    [
        (["validate", "./m:1.json"], ["validate", "fourier:2"]),
        (["validate", "{tmp}/m:1.json"], ["validate", "fourier:2"]),
        (["state", "--graph", "g:1.json", "--hadamard", "fourier:2"], ["state", *PAIR]),
        (["invariant", "--state", "s:1.json"], ["invariant", "--state", "s.json"]),
        (["decode-error", *PAIR, "--site", "1", "--op", "op:1.json"],
         ["decode-error", *PAIR, "--site", "1", "--op", "X"]),
    ],
)
def test_file_paths_may_contain_colons(tmp_path, capsys, monkeypatch, by_file, by_name):
    # A spec whose NAME is not a shorthand of its kind is a path, colons and all.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m:1.json").write_text(matrix_json(fourier(2).entries))
    (tmp_path / "g:1.json").write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    for name in ("s:1.json", "s.json"):
        (tmp_path / name).write_text(render_json(state_to_obj(ghz(3, 2))))
    (tmp_path / "op:1.json").write_text(matrix_json([[0, 1], [1, 0]]))
    code, out = run(capsys, *[a.format(tmp=tmp_path) for a in by_file])
    assert code == 0, out
    assert out == run(capsys, *by_name)[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "fourier"),
        ("validate", "fourier:2:3"),
        ("validate", "fourier:x"),
        ("validate", "h_alpha"),
        ("validate", "tilde_a:1"),
        ("state", "--graph", "star", "--hadamard", "fourier:2"),
        ("state", "--graph", "line:2.5", "--hadamard", "fourier:2"),
        ("state", "--graph", "triangle:3:1", "--hadamard", "fourier:2"),
        ("invariant", "--state", "ghz:3"),
        ("invariant", "--state", "ghz:3:x"),
        ("invariant", "--state", "ghz:3:2:1"),
    ],
)
def test_shorthand_argument_counts_and_types(capsys, argv):
    code, obj = run_json(capsys, *argv)
    assert code == 2, argv
    assert obj["error"] == "malformed_input"


@pytest.mark.parametrize(
    "argv,content,exit_code,error,detail",
    [
        (["validate", "fourier:0"], None, 1, "bad_size", "d must be >= 1"),
        (["validate", "h_alpha:pi/0"], None, 2, "malformed_input", "float division by zero"),
        (["validate", "{tmp}"], None, 2, "malformed_input", "cannot read"),
        (["validate", "{file}"], {"d": 3, "entries": [[1, 1, 1]] * 3}, 2, "malformed_input",
         "expected [re, im] pairs"),
        (["validate", "{file}"], {"d": 3, "entries": F2_PAIRS}, 2, "malformed_input",
         "does not match d=3"),
        (["invariant", "--state", "{file}"], {"n": 2, "d": 2, "amps": [[1, 0], [0, 0]]}, 2,
         "malformed_input", "does not match n=2, d=2"),
        (["state", "--graph", "{file}", "--hadamard", "fourier:2"], {"n": 0, "edges": []}, 1,
         "bad_size", "n must be >= 1"),
        # A state on no sites is one amplitude with no axis to read d from.
        (["invariant", "--state", "{file}", "--i6"], {"n": 0, "d": 3, "amps": [[1, 0]]}, 1,
         "too_few_sites", "needs n >= 3"),
        (["invariant", "--state", "{file}", "--schmidt", "0"], {"n": 0, "d": 3, "amps": [[1, 0]]},
         1, "bad_partition", "proper nonempty site subset"),
        (["invariant", "--state", "{file}", "--rdm", "0"], {"n": 0, "d": 3, "amps": [[1, 0]]}, 1,
         "bad_site", "site 0 out of range for n=0"),
    ],
)
def test_input_refusals(tmp_path, capsys, argv, content, exit_code, error, detail):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_text(json.dumps(content))
    code, obj = run_json(capsys, *[a.format(tmp=tmp_path, file=path) for a in argv])
    assert (code, obj["error"]) == (exit_code, error)
    assert detail in obj["detail"]


@pytest.mark.parametrize(
    "op", ["X:1:junk", "Z:1:x", "X:1:7", "X:x", "weyl:1", "weyl:1:2:3", "weyl:1:x"]
)
def test_operator_shorthand_extras_are_malformed(capsys, op):
    code, obj = run_json(
        capsys, "decode-error", "--graph", "triangle", "--hadamard", "fourier:3",
        "--site", "0", "--op", op,
    )
    assert code == 2, op
    assert obj["error"] == "malformed_input"


@pytest.mark.parametrize(
    "op,same_as",
    [("X:1", "X"), ("Z:1", "Z"), ("weyl:1:0", "X"), ("weyl:0:1", "Z"), ("X:4", "X"),
     ("Z:-2", "Z"), ("weyl:3:2", "Z:2"), ("X:0", "weyl:0:0")],
)
def test_operator_shorthands_are_weyl_exponents(capsys, op, same_as):
    argv = ["decode-error", "--graph", "triangle", "--hadamard", "fourier:3", "--site", "1", "--op"]
    code, out = run(capsys, *argv, op)
    assert code == 0
    assert out == run(capsys, *argv, same_as)[1]


# --------------------------------------------------------------- equivalence


def test_equiv_general_and_restricted(capsys):
    code, obj = run_json(capsys, "equiv", "qutrit_h2", "fourier:3")
    assert code == 0
    assert obj["equivalent"] is True
    assert obj["deviation"] <= 1e-9

    code, obj = run_json(capsys, "equiv", "qutrit_h2", "fourier:3", "--p-equiv")
    assert code == 0
    assert obj == {"equivalent": False, "kind": "PEquiv"}


def test_equiv_dimension_mismatch_is_domain_error(capsys):
    code, obj = run_json(capsys, "equiv", "fourier:2", "fourier:3")
    assert code == 1
    assert obj["error"] == "dimension_mismatch"


def test_symmetries_h_alpha(capsys):
    code, obj = run_json(capsys, "symmetries", "h_alpha:pi/5")
    assert code == 0
    assert obj["count"] == 2
    assert obj["symmetries"][1]["p"] == [1, 0, 3, 2]


# --------------------------------------------------------------------- state


def test_state_stdout_amps(capsys):
    code, obj = run_json(capsys, "state", "--graph", "line:2", "--hadamard", "fourier:2")
    assert code == 0
    assert obj["n"] == 2 and obj["d"] == 2
    amps = np.array([complex(re, im) for re, im in obj["amps"]])
    np.testing.assert_allclose(amps, np.array([1, 1, 1, -1]) / 2, atol=1e-9)


def test_state_digits_and_out_file(tmp_path, capsys):
    out = tmp_path / "state.json"
    code, obj = run_json(
        capsys,
        "state", "--graph", "triangle", "--hadamard", "fourier:3",
        "--digits", "0,1,2", "--out", str(out),
    )
    assert code == 0
    assert obj["written"] == str(out)
    saved = json.loads(out.read_text())
    assert saved["n"] == 3 and saved["d"] == 3 and len(saved["amps"]) == 27


def test_entry_point_writes_the_whole_state_file(tmp_path):
    # The process exits through os._exit, which flushes no open file: the
    # 2**16-amplitude file must hold every byte that main() writes in-process.
    out = tmp_path / "state.json"
    code, stdout = entry_stdout(["state", "--graph", "line:8", "--hadamard", "fourier:4", "--out", str(out)])
    assert code == 0
    assert json.loads(stdout)["written"] == str(out)
    want = render_json(state_to_obj(graph_state(family("line", 8), fourier(4)))) + "\n"
    assert out.read_text(encoding="utf-8") == want


def test_entry_point_exits_quietly_when_stdout_closes():
    # symmetries fourier:64 prints about 146 KB, more than a pipe holds, so
    # the process is still writing when its reader closes after 100 bytes.
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "gghs.cli", "symmetries", "fourier:64"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head.startswith(b'{"count": ')
    assert stderr == b""


def test_main_leaves_the_collector_unfrozen(capsys):
    # Nothing in gghs freezes the collector; in-process callers keep their GC.
    frozen = gc.get_freeze_count()
    assert run(capsys, "validate", "fourier:2")[0] == 0
    assert gc.get_freeze_count() == frozen


def test_state_unwritable_out_is_malformed(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "state.json"
    code, obj = run_json(
        capsys, "state", "--graph", "line:2", "--hadamard", "fourier:2", "--out", str(out)
    )
    assert code == 2
    assert obj["error"] == "malformed_input"


def test_state_digit_count_checked(capsys):
    code, obj = run_json(
        capsys, "state", "--graph", "triangle", "--hadamard", "fourier:3",
        "--digits", "0,1",
    )
    assert code == 2
    assert obj["error"] == "malformed_input"


def test_huge_register_is_too_large(tmp_path, capsys):
    # d = 1 has d**n = 1, so only the site cap stops these.
    one_amp = tmp_path / "d1.json"
    one_amp.write_text(json.dumps({"n": 100, "d": 1, "amps": [[1.0, 0.0]]}))
    # d**n = 4**12 is at the state cap; two words pass it in the basis.
    two_words = tmp_path / "two.txt"
    two_words.write_text("0" * 12 + "\n" + "1" * 12 + "\n")
    # A 30-byte graph file names 10**7 vertices; no n-sized object is built before the cap.
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 10**7, "edges": []}))
    huge_pair = ("--graph", str(huge), "--hadamard", "fourier:2")
    for argv in (
        ("invariant", "--state", "ghz:20000:2"),
        ("state", "--graph", "star:20000", "--hadamard", "fourier:2"),
        ("decode-error", "--graph", "line:7", "--hadamard", "fourier:4", "--site", "0", "--op", "Z"),
        ("state", "--graph", "line:1000000000", "--hadamard", "fourier:2"),
        ("state", "--graph", "complete:1000000", "--hadamard", "fourier:2"),
        ("state", "--graph", "line:65", "--hadamard", "fourier:1"),
        ("peps-check", "--graph", "line:53", "--hadamard", "fourier:1"),
        ("invariant", "--state", str(one_amp), "--rdm", "0"),
        ("code", "--graph", "line:12", "--hadamard", "fourier:4", "--classical", str(two_words)),
        # fourier:D past 4096 (D**2 past the cap) is refused before its D x D matrix is built.
        ("validate", "fourier:20000"),
        ("validate", "fourier:4097"),
        ("state", "--graph", "complete:1", "--hadamard", "fourier:5000"),
        ("equiv", "fourier:4097", "fourier:4097"),
        # The state fits, its reduced state does not: i6 reads d**4 entries, --rdm d**2.
        ("invariant", "--graph", "triangle", "--hadamard", "fourier:65", "--i6"),
        ("invariant", "--graph", "triangle", "--hadamard", "fourier:256", "--i6"),
        ("invariant", "--state", "ghz:3:256", "--i6"),
        ("invariant", "--state", "ghz:1:4097", "--rdm", "0"),
        # The register is checked before the S-symmetry search, which takes seconds at d = 256.
        ("stabilizers", "--graph", "cycle:13", "--hadamard", "fourier:256"),
        ("state", *huge_pair),
        ("invariant", *huge_pair, "--i6"),
        ("stabilizers", *huge_pair),
        ("peps-check", *huge_pair),
        ("state", "--graph", str(huge), "--hadamard", "fourier:1"),  # only MAX_SITES binds
    ):
        start = time.perf_counter()
        code, obj = run_json(capsys, *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert code == 1, argv
        assert obj["error"] == "too_large"


# ----------------------------------------------------------------- invariant


def test_invariant_i6_ghz_shorthand(capsys):
    code, obj = run_json(capsys, "invariant", "--state", "ghz:3:6", "--i6")
    assert code == 0
    assert abs(obj["i6"] - 1.0 / 36.0) <= 1e-12


def test_invariant_needs_a_source(capsys):
    code, obj = run_json(capsys, "invariant", "--i6")
    assert code == 2


@pytest.mark.parametrize("pair", [PAIR[:2], PAIR[2:], PAIR])
def test_invariant_state_excludes_graph_and_hadamard(capsys, pair):
    code, obj = run_json(capsys, "invariant", "--state", "ghz:3:2", *pair, "--i6")
    assert code == 2
    assert obj == {
        "error": "malformed_input",
        "detail": "invariant wants either --state or both --graph and --hadamard",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["state", *PAIR, "--digits", ""],
        ["state", *PAIR, "--out", ""],
        ["invariant", "--state", "", *PAIR, "--i6"],
    ],
)
def test_an_empty_value_is_given_not_absent(capsys, argv):
    code, obj = run_json(capsys, *argv)
    assert code == 2
    assert obj["error"] == "malformed_input"


def test_invariant_schmidt_and_rdm(capsys):
    code, obj = run_json(
        capsys, "invariant", "--graph", "star:4", "--hadamard", "fourier:3",
        "--schmidt", "2",
    )
    assert code == 0
    np.testing.assert_allclose(obj["schmidt"], np.full(3, 1 / 3), atol=1e-9)

    code, obj = run_json(
        capsys, "invariant", "--graph", "triangle", "--hadamard", "fourier:3",
        "--rdm", "1",
    )
    assert code == 0
    rdm = np.array([[complex(re, im) for re, im in row] for row in obj["rdm"]])
    np.testing.assert_allclose(rdm, np.eye(3) / 3, atol=1e-9)


def test_invariant_schmidt_at_the_state_cap_is_local(capsys):
    # 3**15 amplitudes; the 4-site cut is cut by two edges, (0, 14) and (3, 4).
    start = time.perf_counter()
    code, obj = run_json(
        capsys, "invariant", "--graph", "cycle:15", "--hadamard", "fourier:3",
        "--schmidt", "0,1,2,3",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    support = 3 ** cut_rank(family("cycle", 15), [0, 1, 2, 3], 3)
    assert support == 9
    expect = np.zeros(81)
    expect[:support] = 1.0 / support
    np.testing.assert_allclose(obj["schmidt"], expect, atol=1e-12)


def test_invariant_state_schmidt_of_the_larger_part():
    # rho of the 7-site part would be 4**7 x 4**7 (4.3 GB); the one-site side
    # is 4 x 4. A child process with a 1 GiB address-space limit runs the
    # request, so a regression fails with MemoryError instead of taking the
    # machine's memory.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = os.path.dirname(os.path.dirname(gghs.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    argv = ["invariant", "--state", "ghz:8:4", "--schmidt", "0,1,2,3,4,5,6"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gghs.cli", *argv],
        env=env, preexec_fn=limit, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 0, proc.stderr[-300:]
    spec = json.loads(proc.stdout)["schmidt"]
    assert spec[:4] == pytest.approx([0.25] * 4, abs=1e-12)
    assert spec[4:] == [0] * (4**7 - 4)


def test_stabilizers_tol_sets_the_verdict(tmp_path, capsys):
    # The symmetry of [[1, -1], [-1, -1]] has D_0 = -1, so each generator
    # moves the state by |1 - D_0| = 2: it fails the default 1e-9 and passes
    # --tol 2.
    m = tmp_path / "neg.json"
    m.write_text(matrix_json([[1, -1], [-1, -1]]))
    for tol, verified in ((None, False), ("2", True)):
        argv = ["stabilizers", "--graph", "line:3", "--hadamard", str(m)]
        code, obj = run_json(capsys, *argv, *(["--tol", tol] if tol else []))
        assert code == 0
        gens = obj["checked"][0]["generators"]
        assert [g["deviation"] for g in gens] == [2] * 3
        assert [g["verified"] for g in gens] == [verified] * 3
        assert obj["all_verified"] is verified


def test_stabilizers_answer_without_apply_local(monkeypatch, capsys):
    # The command reads each deviation off its symmetry, and its oracle,
    # verify_stabilizer, acts by gather and phase: neither applies a factor
    # of a generator as a dense matrix.
    def refuse(U, s):
        raise AssertionError("apply_local was called")

    monkeypatch.setattr("gghs.symmetry.apply_local", refuse)
    argv = ["stabilizers", "--graph", "triangle", "--hadamard", "fourier:3", "--all-symmetries"]
    code, obj = run_json(capsys, *argv)
    assert code == 0
    assert len(obj["checked"]) == 3
    assert obj["all_verified"] is True
    G, H = family("triangle"), fourier(3)
    psi = graph_state(G, H)
    assert all(verify_stabilizer(G, w, a, psi)[0] for w in s_symmetries(H) for a in range(G.n))


def test_invariant_graph_errors_keep_their_precedence(tmp_path, capsys):
    """Symmetry and the d**n cap are checked before the sites are parsed or
    checked, as when the whole state was built first."""
    F = fourier(4).entries[[1, 0, 2, 3]]
    p = tmp_path / "nonsym.json"
    p.write_text(json.dumps({"d": 4, "entries": np.stack([F.real, F.imag], -1).tolist()}))
    for graph, matrix, mode, error in (
        ("line:3", str(p), ["--schmidt", "x"], "not_symmetric"),
        ("line:3", str(p), ["--schmidt", "0,1,2"], "not_symmetric"),
        ("line:2", str(p), ["--i6"], "not_symmetric"),
        ("cycle:13", "fourier:4", ["--schmidt", "x"], "too_large"),
        ("cycle:13", "fourier:4", ["--rdm", "99"], "too_large"),
        ("line:3", "fourier:4", ["--schmidt", "0,1,2"], "bad_partition"),
        ("line:3", "fourier:4", ["--schmidt", "0,7"], "bad_site"),
        ("line:3", "fourier:4", ["--rdm", "3"], "bad_site"),
        ("line:2", "fourier:4", ["--i6"], "too_few_sites"),
    ):
        code, obj = run_json(capsys, "invariant", "--graph", graph, "--hadamard", matrix, *mode)
        assert code == 1, (graph, mode)
        assert obj["error"] == error, (graph, mode)


def test_invariant_state_file_round_trip(tmp_path, capsys):
    p = tmp_path / "ghz.json"
    p.write_text(render_json(state_to_obj(ghz(3, 6))) + "\n")
    code, obj = run_json(capsys, "invariant", "--state", str(p), "--i6")
    assert code == 0
    assert abs(obj["i6"] - 1.0 / 36.0) <= 1e-9


def test_invariant_rejects_unnormalized_state(tmp_path, capsys):
    p = tmp_path / "bad_state.json"
    amps = [[1.0, 0.0]] * 4
    p.write_text(json.dumps({"n": 2, "d": 2, "amps": amps}))
    code, obj = run_json(capsys, "invariant", "--state", str(p), "--i6")
    assert code == 1
    assert obj["error"] == "not_normalized"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_invariant_rejects_non_finite_state(tmp_path, capsys, bad):
    p = tmp_path / "non_finite.json"
    amps = [[0.0, 0.0]] * 7 + [[bad, 0.0]]
    p.write_text(json.dumps({"n": 3, "d": 2, "amps": amps}))
    code, obj = run_json(capsys, "invariant", "--state", str(p), "--i6")
    assert code == 2
    assert obj["error"] == "malformed_input"


def test_resolve_state_checks_the_norm_of_a_file_only(tmp_path, monkeypatch):
    # ghz:N:D is normalized by construction; a State JSON file is checked once.
    calls = []
    check = gghs.cli._check_normalized
    monkeypatch.setattr("gghs.cli._check_normalized", lambda s: calls.append(s.shape) or check(s))
    assert resolve_state("ghz:3:2").shape == (2, 2, 2)
    assert calls == []
    p = tmp_path / "ghz.json"
    p.write_text(render_json(state_to_obj(ghz(3, 2))) + "\n")
    assert resolve_state(str(p)).shape == (2, 2, 2)
    assert calls == [(2, 2, 2)]


# --------------------------------------------------------------- stabilizers


def test_stabilizers_default_symmetry(capsys):
    code, obj = run_json(
        capsys, "stabilizers", "--graph", "star:3", "--hadamard", "fourier:2"
    )
    assert code == 0
    assert obj["available_symmetries"] == 2
    assert obj["all_verified"] is True
    assert len(obj["checked"]) == 1
    assert len(obj["checked"][0]["generators"]) == 3


def test_stabilizers_all_symmetries(capsys):
    code, obj = run_json(
        capsys, "stabilizers", "--graph", "triangle", "--hadamard", "fourier:3",
        "--all-symmetries",
    )
    assert code == 0
    assert len(obj["checked"]) == 3
    assert obj["all_verified"] is True


def test_stabilizers_build_no_state(monkeypatch, capsys):
    # Each deviation is read off its S-symmetry, so no amplitude is computed.
    def refuse(*args):
        raise AssertionError("_encode was called")

    monkeypatch.setattr("gghs.qstate._encode", refuse)
    argv = ["stabilizers", "--graph", "star:4", "--hadamard", "fourier:9", "--all-symmetries"]
    code, obj = run_json(capsys, *argv)
    assert code == 0
    assert len(obj["checked"]) == 9
    assert obj["all_verified"] is True


def test_stabilizers_checks_each_symmetry_once_per_request(monkeypatch, capsys):
    # s_symmetries checks each pair it finds; no generator checks it again.
    # Every check_witness call evaluates _witness_rhs once, however a module
    # imported check_witness, so the count sees each check.
    calls = []
    rhs = gghs.hadamard._witness_rhs
    monkeypatch.setattr("gghs.hadamard._witness_rhs", lambda *a: calls.append(a) or rhs(*a))
    argv = ["stabilizers", "--graph", "line:3", "--hadamard", "fourier:5", "--all-symmetries"]
    code, obj = run_json(capsys, *argv)
    assert code == 0 and obj["all_verified"] is True
    assert obj["available_symmetries"] == len(calls) == 5


def test_stabilizers_on_neighbourhoods_match_dense_on_grid(tmp_path):
    """Each generator's deviation is |1 - D_0|, read from its printed phases,
    and agrees with verify_stabilizer on the whole register within 1e-14,
    with the same verdict. Besides the catalog, two matrices have
    symmetries with D_0 != 1: [[1, -1], [-1, -1]] (D_0 = -1) and
    Delta F3 Delta with delta_i = omega**i, geometric along the 3-cycle of
    p, which gives D_0 = omega and omega**2."""
    delta = np.exp(2j * PI * np.arange(3) / 3)
    extra = {"neg.json": [[1, -1], [-1, -1]], "dfd.json": delta[:, None] * fourier(3).entries * delta}
    matrices = list(full_catalog())
    for name, entries in extra.items():
        (tmp_path / name).write_text(matrix_json(entries))
        matrices.append((str(tmp_path / name), resolve_matrix(str(tmp_path / name))))
    seen = set()  # deviations, to show the D_0 != 1 cases ran
    for gname, G in connected_graphs(5):
        for label, H in matrices:
            if not H.symmetric or H.d**G.n > 4096:
                continue
            # The answer before and after rendering at 12 digits.
            args = build_parser().parse_args(
                ["stabilizers", "--graph", gname, "--hadamard", label, "--all-symmetries"]
            )
            raw = args.fn(args)
            printed = json.loads(render_json(raw))
            psi = graph_state(G, H)
            syms = s_symmetries(H)
            assert len(raw["checked"]) == len(syms)
            for entry, shown, w in zip(raw["checked"], printed["checked"], syms):
                d0 = complex(*shown["d"][0])
                for gen, gen_shown in zip(entry["generators"], shown["generators"]):
                    assert gen_shown["deviation"] == pytest.approx(abs(1 - d0), rel=1e-11, abs=1e-15)
                    ok, dev = verify_stabilizer(G, w, gen["vertex"], psi)
                    assert gen["verified"] == ok, (gname, label, gen)
                    assert abs(gen["deviation"] - dev) <= 1e-14, (gname, label, gen, dev)
                    seen.add(round(dev, 9))
    assert {2, round(math.sqrt(3), 9)} <= seen  # |1 - D_0| at D_0 = -1 and omega


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_must_be_finite_and_non_negative(capsys, tol):
    code, obj = run_json(
        capsys, "stabilizers", "--graph", "triangle", "--hadamard", "fourier:3", "--tol", tol
    )
    assert code == 2, tol
    assert obj["error"] == "malformed_input"


# ---------------------------------------------------------------- peps / code


def test_peps_check(capsys):
    code, obj = run_json(
        capsys, "peps-check", "--graph", "cycle:4", "--hadamard", "h_alpha:pi/5"
    )
    assert code == 0
    assert obj["pass"] is True
    assert obj["fidelity"] >= 1 - 1e-9


def test_peps_check_past_numpy_operand_limit(capsys):
    # 66 edges, one bond each: more than numpy's einsum takes in one call.
    code, out = run(capsys, "peps-check", "--graph", "complete:12", "--hadamard", "fourier:2")
    assert code == 0
    assert out == '{"fidelity": 1, "pass": true}\n'


def test_peps_check_refuses_a_non_symmetric_matrix_before_contracting(tmp_path, capsys, monkeypatch):
    def contract(*args):
        raise AssertionError("contracted before the symmetry check")

    monkeypatch.setattr(qstate, "_encode", contract)
    m = tmp_path / "rolled.json"
    m.write_text(matrix_json(np.roll(fourier(4).entries, 1, axis=0)))
    refused = '{"error": "not_symmetric", "detail": "graph states need a symmetric matrix"}\n'
    # cycle:13 at d = 4 is past the d**n cap too; state names the symmetry first.
    for graph in ("line:11", "cycle:13"):
        pair = ("--graph", graph, "--hadamard", str(m))
        assert run(capsys, "peps-check", *pair) == (1, refused), graph
        assert run(capsys, "state", *pair) == (1, refused), graph


def test_peps_check_prints_what_the_contraction_gives(tmp_path, capsys):
    # The closed-form answer is, byte for byte, the fidelity of the PEPS
    # contraction against the circuit, on the grid and at a matrix that is
    # symmetric but not dephased, whose input column is not uniform.
    cases = [(g, m) for m, H in full_catalog() if H.symmetric
             for g, G in connected_graphs(5) if H.d**G.n <= 2**16]
    df3 = tmp_path / "df3.json"
    D = np.diag([1, 1j, np.exp(0.7j)])
    df3.write_text(matrix_json(D @ fourier(3).entries @ D))
    for name, n, edges in (("pair", 3, [[0, 1]]), ("single", 1, [])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": n, "edges": edges}))
        cases.append((str(path), str(df3)))
    cases += [("triangle", str(df3)), ("star:4", str(df3))]
    for graph, matrix in cases:
        G, H = resolve_graph(graph), resolve_matrix(matrix)
        want = {"fidelity": abs(overlap(peps_contract(G, H), graph_state(G, H))), "pass": True}
        argv = ("peps-check", "--graph", graph, "--hadamard", matrix)
        assert run(capsys, *argv) == (0, render_json(want) + "\n"), (graph, matrix)


def test_peps_check_builds_no_state(capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("peps-check built a state")

    monkeypatch.setattr(qstate, "_encode", build)
    monkeypatch.setattr(qstate, "graph_state", build)
    code, out = run(capsys, "peps-check", "--graph", "cycle:10", "--hadamard", "fourier:4")
    assert (code, out) == (0, '{"fidelity": 1, "pass": true}\n')


def test_stabilizers_checks_the_graph_state_before_the_search(tmp_path, capsys):
    # d = 257 is past the S-symmetry search's cap; the matrix's symmetry is named first.
    m = tmp_path / "rolled.json"
    m.write_text(matrix_json(np.roll(fourier(257).entries, 1, axis=0)))
    refused = '{"error": "not_symmetric", "detail": "graph states need a symmetric matrix"}\n'
    assert run(capsys, "stabilizers", "--graph", "line:2", "--hadamard", str(m)) == (1, refused)


def test_code_file_that_is_not_utf8_is_malformed(tmp_path, capsys):
    words = tmp_path / "latin1.txt"
    words.write_bytes(b"000\n\xe9\n")
    code, obj = run_json(
        capsys, "code", "--graph", "triangle", "--hadamard", "fourier:2", "--classical", str(words)
    )
    assert code == 2
    assert obj["error"] == "malformed_input"
    assert obj["detail"].startswith(f"{str(words)!r} is not UTF-8 text")


def test_code_gram_not_identity(tmp_path, capsys):
    # validate admits the entry -(1 + 5e-10); the Gram check of the code does not.
    m = tmp_path / "h.json"
    m.write_text(json.dumps({"d": 2, "entries": [[[1, 0], [1, 0]], [[1, 0], [-(1 + 5e-10), 0]]]}))
    words = tmp_path / "words.txt"
    words.write_text("000000\n000001\n")
    code, out = run(
        capsys, "code", "--graph", "complete:6", "--hadamard", str(m), "--classical", str(words)
    )
    assert code == 1
    assert out == (
        '{"error": "gram_not_identity", "detail": "gram deviates from identity by 1.500e-09"}\n'
    )


def test_code_refuses_a_non_symmetric_matrix_as_state_does(tmp_path, capsys):
    # The dephased form of this matrix is F3, which is symmetric; codes run
    # the circuit of the matrix they are given, so they refuse it.
    m = tmp_path / "skewed.json"
    m.write_text(matrix_json(skewed_f3()))
    words = tmp_path / "rep.txt"
    words.write_text("000\n111\n222\n")
    pair = ("--graph", "triangle", "--hadamard", str(m))
    refused = '{"error": "not_symmetric", "detail": "graph states need a symmetric matrix"}\n'
    assert run(capsys, "code", *pair, "--classical", str(words), "--distance", "2") == (1, refused)
    assert run(capsys, "state", *pair) == (1, refused)


@pytest.mark.parametrize("matrix, text, error, detail", [
    ("fourier:2", "# no words here\n", "bad_size", "no codewords in input"),
    ("fourier:2", "000\n00\n", "bad_size", "word (0, 0) is not length 3"),
    ("fourier:2", "002\n", "digit_out_of_range", "digit 2 out of range for d=2"),
    ("fourier:2", "000\n000\n", "bad_size", "duplicate word (0, 0, 0)"),
    ("fourier:2", "0000\n1111\n", "dimension_mismatch", "code length 4 != vertex count 3"),
    # The words are checked before the matrix's symmetry.
    ("skewed", "003\n", "digit_out_of_range", "digit 3 out of range for d=3"),
    ("skewed", "0000\n1111\n", "dimension_mismatch", "code length 4 != vertex count 3"),
])
def test_code_file_refusals(tmp_path, capsys, matrix, text, error, detail):
    if matrix == "skewed":
        matrix = str(tmp_path / "skewed.json")
        (tmp_path / "skewed.json").write_text(matrix_json(skewed_f3()))
    words = tmp_path / "words.txt"
    words.write_text(text)
    argv = ("code", "--graph", "triangle", "--hadamard", matrix, "--classical", str(words))
    assert run(capsys, *argv) == (1, render_json({"error": error, "detail": detail}) + "\n")


def test_decode_error_checks_the_operator_then_the_symmetry_then_the_site(tmp_path, capsys):
    m = tmp_path / "skewed.json"
    m.write_text(matrix_json(skewed_f3()))
    op = tmp_path / "op.json"
    op.write_text(matrix_json(np.eye(2)))
    pair = ("decode-error", "--graph", "triangle", "--hadamard", str(m))
    assert run(capsys, *pair, "--site", "0", "--op", str(op)) == (
        1, '{"error": "dimension_mismatch", "detail": "operator shape (2, 2) does not match d=3"}\n'
    )
    assert run(capsys, *pair, "--site", "7", "--op", "X") == (
        1, '{"error": "not_symmetric", "detail": "graph states need a symmetric matrix"}\n'
    )


def test_decode_error_refuses_a_non_symmetric_matrix_as_state_does(tmp_path, capsys):
    # fourier:4 with rows 0 and 1 swapped: the circuit that decode-error
    # conjugates by is the graph state's, so the symmetry is named first,
    # before the site too.
    m = tmp_path / "swapped.json"
    m.write_text(matrix_json(fourier(4).entries[[1, 0, 2, 3]]))
    pair = ("--graph", "triangle", "--hadamard", str(m))
    refused = '{"error": "not_symmetric", "detail": "graph states need a symmetric matrix"}\n'
    for site in ("0", "7"):
        assert run(capsys, "decode-error", *pair, "--site", site, "--op", "X") == (1, refused), site
    assert run(capsys, "state", *pair) == (1, refused)


def test_code_command(tmp_path, capsys):
    words = tmp_path / "rep.txt"
    words.write_text("000\n")
    code, obj = run_json(
        capsys,
        "code", "--graph", "triangle", "--hadamard", "fourier:2",
        "--classical", str(words), "--distance", "3",
    )
    assert code == 0
    assert obj == {"n": 3, "K": 1, "distance": 2}


def test_code_distance_bound_exceeded(tmp_path, capsys):
    words = tmp_path / "rep.txt"
    words.write_text("000\n")
    code, obj = run_json(
        capsys,
        "code", "--graph", "triangle", "--hadamard", "fourier:2",
        "--classical", str(words), "--distance", "1",
    )
    assert code == 0
    assert obj["distance"] is None
    assert obj["distance_exceeds"] == 1


def test_code_distance_exceeds_is_capped_at_n(tmp_path, capsys, monkeypatch):
    # Every code violates the condition on the whole register, so only a
    # scan where every subset passes shows the bound min(W, n).
    monkeypatch.setattr("gghs.codes._kl_holds", lambda M: True)
    words = tmp_path / "rep.txt"
    words.write_text("000\n")
    code, out = run(
        capsys,
        "code", "--graph", "triangle", "--hadamard", "fourier:2",
        "--classical", str(words), "--distance", "7",
    )
    assert code == 0
    assert out == '{"n": 3, "K": 1, "distance": null, "distance_exceeds": 3}\n'


@pytest.mark.parametrize("weight", ["0", "-5"])
def test_code_distance_below_one_is_malformed(tmp_path, capsys, weight):
    words = tmp_path / "rep.txt"
    words.write_text("000\n111\n")
    code, obj = run_json(
        capsys,
        "code", "--graph", "triangle", "--hadamard", "fourier:2",
        "--classical", str(words), "--distance", weight,
    )
    assert code == 2
    assert obj["error"] == "malformed_input"


def test_code_non_digit_word_is_malformed(tmp_path, capsys):
    words = tmp_path / "bad.txt"
    words.write_text("000\n0a1\n")
    code, obj = run_json(
        capsys,
        "code", "--graph", "triangle", "--hadamard", "fourier:2",
        "--classical", str(words),
    )
    assert code == 2
    assert obj["error"] == "malformed_input"


def test_code_non_ascii_digit_word_is_malformed(tmp_path, capsys):
    # Arabic-Indic and fullwidth digits are digits to int(), not to a code file.
    words = tmp_path / "unicode.txt"
    words.write_text("\u0660\u0660\u0660\n\u0661\u0661\u0661\n\uff10\uff100\n", encoding="utf-8")
    code, obj = run_json(
        capsys,
        "code", "--graph", "triangle", "--hadamard", "fourier:2",
        "--classical", str(words),
    )
    assert code == 2
    assert obj["error"] == "malformed_input"


def test_code_enumerators(tmp_path, capsys):
    words = tmp_path / "rep4.txt"
    words.write_text("000\n111\n222\n333\n")
    code, obj = run_json(
        capsys,
        "code", "--graph", "triangle", "--hadamard", "fourier:4",
        "--classical", str(words), "--enumerators",
    )
    assert code == 0
    assert obj["K"] == 4
    np.testing.assert_allclose(obj["A"], [1, 0, 9, 6], atol=1e-6)
    np.testing.assert_allclose(obj["B"], [1, 9, 27, 219], atol=1e-6)


def test_code_d1_is_bad_size_before_any_work(tmp_path, capsys):
    words = tmp_path / "zero.txt"
    words.write_text("0" * 20 + "\n")
    start = time.perf_counter()
    code, obj = run_json(
        capsys,
        "code", "--graph", "line:20", "--hadamard", "fourier:1",
        "--classical", str(words), "--enumerators",
    )
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert obj["error"] == "bad_size"


def test_decode_error_command(capsys):
    code, obj = run_json(
        capsys,
        "decode-error", "--graph", "triangle", "--hadamard", "fourier:3",
        "--site", "0", "--op", "Z",
    )
    assert code == 0
    assert obj["factorizes"] is True
    assert obj["residual"] <= 1e-9

    code, obj = run_json(
        capsys,
        "decode-error", "--graph", "triangle", "--hadamard", "h_d6",
        "--site", "0", "--op", "X",
    )
    assert code == 0
    assert obj["factorizes"] is False
    assert obj["site_operator"] is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_decode_error_rejects_non_finite_op(tmp_path, capsys, bad):
    p = tmp_path / "op.json"
    p.write_text(json.dumps({"d": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [bad, 0]]]}))
    code, obj = run_json(
        capsys,
        "decode-error", "--graph", "line:3", "--hadamard", "fourier:2",
        "--site", "0", "--op", str(p),
    )
    assert code == 2
    assert obj["error"] == "malformed_input"


def test_decode_error_mis_shaped_op_after_finiteness(tmp_path, capsys):
    p = tmp_path / "op.json"
    argv = ("decode-error", "--graph", "triangle", "--hadamard", "fourier:3", "--site", "0", "--op", str(p))
    p.write_text(json.dumps({"d": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
    code, out = run(capsys, *argv)
    assert code == 1
    assert out == (
        '{"error": "dimension_mismatch", "detail": "operator shape (2, 2) does not match d=3"}\n'
    )
    p.write_text(json.dumps({"d": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]]}))
    code, obj = run_json(capsys, *argv)
    assert code == 2
    assert obj["error"] == "malformed_input"


def test_decode_error_overflow_is_a_named_error(tmp_path, capsys):
    # Entries of 1e308 overflow U^dagger E U to inf and NaN; 1e154 still fits.
    p = tmp_path / "op.json"
    argv = ("decode-error", "--graph", "triangle", "--hadamard", "fourier:3", "--site", "0", "--op", str(p))
    p.write_text(json.dumps({"d": 3, "entries": [[[1e308, 0.0]] * 3] * 3}))
    code, obj = run_json(capsys, *argv)
    assert code == 1
    assert obj["error"] == "overflow"
    p.write_text(json.dumps({"d": 3, "entries": [[[1e154, 0.0]] * 3] * 3}))
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == '{"factorizes": false, "residual": 1e+154, "site_operator": null}\n'


def test_decode_error_overflow_prints_no_numpy_warning(tmp_path, capsys):
    p = tmp_path / "op.json"
    p.write_text(json.dumps({"d": 3, "entries": [[[1e308, 0.0]] * 3] * 3}))
    argv = ("decode-error", "--graph", "triangle", "--hadamard", "fourier:3", "--site", "0", "--op", str(p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, obj = run_json(capsys, *argv)
    assert code == 1
    assert obj["error"] == "overflow"


# ------------------------------------------------------------------- plumbing


def test_byte_identical_reruns(capsys):
    _, first = run(capsys, "state", "--graph", "cycle:4", "--hadamard", "h_alpha:pi/7")
    _, second = run(capsys, "state", "--graph", "cycle:4", "--hadamard", "h_alpha:pi/7")
    assert first == second


def test_text_format(capsys):
    code, out = run(capsys, "validate", "fourier:2", "--text")
    assert code == 0
    assert "valid: true" in out


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_alpha_expression(capsys):
    for spec in ("h_alpha:sys.exit", "h_alpha:2**3", "h_alpha:1e999"):
        code, obj = run_json(capsys, "validate", spec)
        assert code == 2, spec
        assert obj["error"] == "malformed_input"


def test_tol_flag_before_and_after_subcommand(capsys):
    # Options follow the subcommand; placed before it they are usage errors.
    argv = ["stabilizers", "--graph", "triangle", "--hadamard", "fourier:2"]
    code, obj = run_json(capsys, *argv, "--tol", "1e-6")
    assert code == 0 and obj["all_verified"] is True
    for before in (["--tol", "1e-6"], ["--text"]):
        with pytest.raises(SystemExit) as exc:
            main(before + argv)
        assert exc.value.code == 2, before


SUBCOMMANDS = {
    "validate": ["fourier:2"],
    "equiv": ["fourier:2", "fourier:2"],
    "symmetries": ["fourier:2"],
    "state": ["--graph", "line:2", "--hadamard", "fourier:2"],
    "invariant": ["--state", "ghz:3:2"],
    "code": ["--graph", "triangle", "--hadamard", "fourier:2", "--classical", "{words}",
             "--distance", "2"],
    "stabilizers": ["--graph", "line:2", "--hadamard", "fourier:2"],
    "peps-check": ["--graph", "line:2", "--hadamard", "fourier:2"],
    "decode-error": ["--graph", "line:2", "--hadamard", "fourier:2", "--site", "0", "--op", "Z"],
}


@pytest.mark.parametrize("cmd", sorted(SUBCOMMANDS))
def test_tol_only_where_it_is_read(tmp_path, capsys, cmd):
    # --tol is a usage error wherever no verdict reads it; --json is gone.
    words = tmp_path / "rep.txt"
    words.write_text("000\n")
    argv = [cmd] + [a.format(words=words) for a in SUBCOMMANDS[cmd]]
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert ("--tol" in capsys.readouterr().out) == (cmd == "stabilizers")
    assert run(capsys, *argv, "--text")[0] == 0
    extras = [["--json"]]
    if cmd != "stabilizers":
        extras.append(["--tol", "1e-3"])
    for extra in extras:
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2, extra
