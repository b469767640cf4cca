"""Regenerate tests/golden_stdout.json, the stdout digests of test_golden_stdout.py.

Each request is one `gghs` argv, run in-process through `gghs.cli.main` with
the input files of FILES in its working directory; the file records its
exit code and the SHA-256 of its stdout. Before it overwrites the file, the
script prints every request whose exit code or digest moved, and every
request added or dropped. The requests are every
reference-checked job of perfbench/workloads.py (which this script imports)
plus the fixed-input requests below. A digest may only change in a change
that lists the requests whose stdout it changes.

Run from the repository root:

    PYTHONPATH=src python3 tests/make_golden_stdout.py
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from gghs import fourier
from helpers import cli_stdout, df3d, matrix_json, skewed_f3

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)

GOLDEN = HERE / "golden_stdout.json"


def pdf5dp() -> np.ndarray:
    """P D F5 D P^T for a fixed permutation P and fixed phases D."""
    P = np.eye(5)[:, [2, 0, 4, 1, 3]]
    D = np.diag(np.exp(1j * np.array([0.2, 1.3, 2.9, 0.7, 4.1])))
    return P @ D @ fourier(5).entries @ D @ P.T


FILES = {
    "one_d2.txt": "101\n",
    "zero_d2.txt": "000\n",
    "rep_d2.txt": "000\n111\n",
    "two_d3.txt": "012\n120\n",
    "rep_d3.txt": "000\n111\n222\n",
    "not_unimodular.json": '{"d": 2, "entries": [[[2, 0], [1, 0]], [[1, 0], [-1, 0]]]}',
    "not_hadamard.json": '{"d": 2, "entries": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]}',
    "skewed_f3.json": matrix_json(skewed_f3()),
    # Witnesses with phases off the roots of unity.
    "df3d.json": matrix_json(df3d().entries),
    "pdf5dp.json": matrix_json(pdf5dp()),
    # An S-symmetry with D_0 = -1: each generator moves the state by |1 - D_0| = 2.
    "neg_d0.json": matrix_json([[1, -1], [-1, -1]]),
    "self_loop.json": '{"n": 2, "edges": [[1, 1]]}',
    "out_of_range.json": '{"n": 2, "edges": [[0, 2]]}',
    "unnormalized.json": '{"n": 1, "d": 2, "amps": [[1, 0], [1, 0]]}',
    # validate admits the entry -(1 + 5e-10); the Gram check of a code does not.
    "gram.json": '{"d": 2, "entries": [[[1, 0], [1, 0]], [[1, 0], [-1.0000000005, 0]]]}',
    "gram_d2.txt": "000000\n000001\n",
    "huge_op.json": '{"d": 3, "entries": ' + str([[[1e308, 0.0]] * 3] * 3) + "}",
    # Every E_ab nonzero, and a single off-diagonal E_ab: the decoded error
    # sums one product term per nonzero entry.
    "full_op.json": '{"d": 3, "entries": [[[1, 0], [0, 2], [-1, 1]], [[0.5, 0], [2, -1], [0, -3]],'
    ' [[1, 1], [-2, 0], [0, 0.25]]]}',
    "single_op.json": '{"d": 3, "entries": [[[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]],'
    ' [[0, 0], [0, 0], [0, 0]]]}',
    # 10**6 vertices in 29 bytes: refused by the d**n cap before anything n-sized is built.
    "huge_n.json": '{"n": 1000000, "edges": []}',
    # Complex parts that are not JSON numbers, and an integer past the float range.
    "string_parts.json": '{"d": 2, "entries": [[["1", "0"], [true, false]], [[1, 0], ["-1", 0]]]}',
    "null_part.json": '{"d": 2, "entries": [[[null, 0], [1, 0]], [[1, 0], [-1, 0]]]}',
    "huge_int.json": '{"d": 2, "entries": [[[1' + "0" * 400 + ', 0], [1, 0]], [[1, 0], [-1, 0]]]}',
    "string_amps.json": '{"n": 1, "d": 2, "amps": [["0.7071067811865476", 0], [0.7071067811865476, "0"]]}',
    "string_op.json": '{"d": 2, "entries": [[["0", 0], [1, 0]], [[1, 0], [0, 0]]]}',
    # No edge crosses the cut {0, 1} | {2, 3}.
    "cut_free.json": '{"n": 4, "edges": [[0, 1], [2, 3]]}',
}

PAIR = ["--graph", "triangle", "--hadamard", "fourier:3"]

# The cli-small kinds that reference_jobs() leaves out, at fixed inputs.
STATES = [
    ("triangle", "fourier:2", "1,0,1"),
    ("line:3", "qutrit_h2", "2,0,1"),
    ("star:3", "h_alpha:pi/5", "3,1,0"),
    ("cycle:4", "tilde_b", "0,1,2,3"),
    ("star:4", "fourier:3", "1,2,0,1"),
    ("line:4", "h_d6", "5,0,3,1"),
]
FIXED = (
    [["state", "--graph", g, "--hadamard", m, "--digits", digits] for g, m, digits in STATES]
    + [["peps-check", "--graph", g, "--hadamard", m] for g, m, _ in STATES]
    + [
        ["code", "--graph", "triangle", "--hadamard", m, "--classical", words,
         "--distance", "3", "--enumerators"]
        for m, words in [("fourier:2", "one_d2.txt"), ("fourier:2", "rep_d2.txt"),
                         ("fourier:3", "two_d3.txt"), ("qutrit_h2", "rep_d3.txt")]
    ]
)

# Every output shape of the witness, code and decoded-error renderers.
SHAPES = [
    ["equiv", "fourier:3", "qutrit_h2"],  # General, found
    ["equiv", "fourier:4", "tilde_a"],  # General, not found
    ["equiv", "tilde_b", "tilde_c", "--p-equiv"],  # PEquiv, found
    ["equiv", "fourier:3", "qutrit_h2", "--p-equiv"],  # PEquiv, not found
    ["equiv", "fourier:3", "qutrit_h2", "--text"],
    ["equiv", "tilde_b", "tilde_c", "--p-equiv", "--text"],
    ["symmetries", "tilde_a"],
    ["symmetries", "fourier:2", "--text"],
    ["stabilizers", *PAIR],
    ["stabilizers", *PAIR, "--all-symmetries"],
    ["stabilizers", *PAIR, "--all-symmetries", "--text"],
    # S-symmetries at d > 8.
    ["symmetries", "fourier:9"],
    ["symmetries", "fourier:16"],
    ["symmetries", "fourier:128"],  # two blocks of anchors in the candidate search
    ["stabilizers", "--graph", "line:3", "--hadamard", "fourier:9"],
    ["stabilizers", "--graph", "line:2", "--hadamard", "fourier:64", "--all-symmetries"],
    ["stabilizers", "--graph", "star:4", "--hadamard", "fourier:9", "--all-symmetries"],
    ["stabilizers", "--graph", "line:3", "--hadamard", "neg_d0.json"],
    ["stabilizers", "--graph", "line:3", "--hadamard", "neg_d0.json", "--tol", "2"],
    ["equiv", "df3d.json", "fourier:3"],
    ["equiv", "pdf5dp.json", "fourier:5", "--p-equiv"],
    ["code", *PAIR[:3], "fourier:2", "--classical", "zero_d2.txt", "--distance", "3"],
    ["code", *PAIR[:3], "fourier:2", "--classical", "zero_d2.txt", "--distance", "1"],
    ["code", *PAIR[:3], "fourier:2", "--classical", "zero_d2.txt", "--distance", "1", "--text"],
    ["code", *PAIR[:3], "fourier:2", "--classical", "rep_d2.txt", "--distance", "9", "--enumerators"],
    ["code", *PAIR, "--classical", "rep_d3.txt", "--enumerators", "--text"],
    ["code", *PAIR, "--classical", "rep_d3.txt"],
    ["decode-error", *PAIR, "--site", "1", "--op", "Z"],  # factorizes
    ["decode-error", *PAIR, "--site", "1", "--op", "X"],  # does not
    ["decode-error", "--graph", "line:3", "--hadamard", "tilde_a", "--site", "1", "--op", "weyl:1:2"],
    ["decode-error", *PAIR, "--site", "0", "--op", "Z:2", "--text"],
    ["decode-error", *PAIR, "--site", "0", "--op", "X", "--text"],
] + [
    # A degree-4 site.
    ["decode-error", "--graph", "complete:5", "--hadamard", "fourier:3", "--site", "0", "--op", op]
    for op in ("X", "Z", "weyl:1:2", "full_op.json", "single_op.json")
]

# Schmidt spectra of graph inputs, read off the edges that cross the cut: a
# product state, and one cut edge in a register of 2**24 amplitudes.
CUTS = [
    ["invariant", "--graph", "cut_free.json", "--hadamard", "fourier:3", "--schmidt", "0,1"],
    ["invariant", "--graph", "line:24", "--hadamard", "fourier:2", "--schmidt",
     ",".join(map(str, range(12)))],
]

# One request for each error code the CLI prints.
ERRORS = [
    ["equiv", "fourier:2", "fourier:3"],  # dimension_mismatch
    ["validate", "fourier:x"],  # malformed_input, exit 2
    ["equiv", "not_hadamard.json", "fourier:2"],
    ["equiv", "not_unimodular.json", "fourier:2"],
    ["state", "--graph", "triangle", "--hadamard", "skewed_f3.json"],  # not_symmetric
    ["code", "--graph", "triangle", "--hadamard", "skewed_f3.json", "--classical", "rep_d3.txt",
     "--distance", "2"],  # not_symmetric, as state
    ["peps-check", "--graph", "cycle:16", "--hadamard", "skewed_f3.json"],  # not_symmetric, as state
    ["decode-error", "--graph", "triangle", "--hadamard", "skewed_f3.json", "--site", "0", "--op",
     "X"],  # not_symmetric, as state
    ["equiv", "fourier:7", "fourier:7"],  # search_limit_exceeded
    ["state", "--graph", "self_loop.json", "--hadamard", "fourier:2"],
    ["state", "--graph", "out_of_range.json", "--hadamard", "fourier:2"],  # index_out_of_range
    ["validate", "fourier:0"],  # bad_size
    ["state", "--graph", "triangle", "--hadamard", "fourier:2", "--digits", "0,5,0"],
    ["decode-error", *PAIR, "--site", "7", "--op", "Z"],  # site_out_of_range
    ["state", "--graph", "cycle:13", "--hadamard", "fourier:4"],  # too_large
    ["symmetries", "fourier:257"],  # too_large, before the S-symmetry search allocates
    # too_large, the register checked before the S-symmetry search (which refuses d = 257 too)
    ["stabilizers", "--graph", "cycle:13", "--hadamard", "fourier:256"],
    ["stabilizers", "--graph", "cycle:13", "--hadamard", "fourier:257"],
    ["invariant", *PAIR, "--rdm", "7"],  # bad_site
    ["invariant", "--graph", "line:2", "--hadamard", "fourier:2", "--i6"],  # too_few_sites
    ["invariant", *PAIR, "--schmidt", "0,1,2"],  # bad_partition
    ["code", "--graph", "complete:6", "--hadamard", "gram.json", "--classical", "gram_d2.txt"],
    ["decode-error", *PAIR, "--site", "0", "--op", "huge_op.json"],  # overflow
    ["invariant", "--state", "unnormalized.json"],  # not_normalized
    ["state", "--graph", "huge_n.json", "--hadamard", "fourier:2"],  # too_large
    ["invariant", "--graph", "huge_n.json", "--hadamard", "fourier:2", "--i6"],  # too_large
    # malformed_input: each complex part must be a JSON number
    ["validate", "string_parts.json"],
    ["validate", "null_part.json"],
    ["validate", "huge_int.json"],
    ["invariant", "--state", "string_amps.json"],
    ["decode-error", "--graph", "line:2", "--hadamard", "fourier:2", "--site", "0", "--op", "string_op.json"],
]


def requests():
    """Every argv, in order, each once."""
    argvs = [job["argv"] for job in workloads.reference_jobs()] + FIXED + SHAPES + CUTS + ERRORS
    return list({tuple(argv): argv for argv in argvs}.values())


def digest(argv) -> dict:
    code, out = cli_stdout(argv)
    return {"argv": argv, "exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}


def report_moves(entries) -> None:
    """Print each request whose exit code or digest differs from the file on
    disk, and each request added or dropped, so a change can list them."""
    old = {tuple(e["argv"]): e for e in json.loads(GOLDEN.read_text(encoding="utf-8"))["requests"]}
    new = {tuple(e["argv"]): e for e in entries}
    for argv, e in new.items():
        was = old.get(argv)
        if was is None:
            print(f"added: gghs {' '.join(argv)} (exit {e['exit']})")
        elif (was["exit"], was["sha256"]) != (e["exit"], e["sha256"]):
            print(f"moved: gghs {' '.join(argv)} (exit {was['exit']} -> {e['exit']})")
    for argv, e in old.items():
        if argv not in new:
            print(f"dropped: gghs {' '.join(argv)} (exit {e['exit']})")


def main() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            entries = [digest(argv) for argv in requests()]
        finally:
            os.chdir(cwd)
    if GOLDEN.exists():
        report_moves(entries)
    rows = ",\n".join(" " + json.dumps(entry) for entry in entries)
    GOLDEN.write_text(
        '{"files": ' + json.dumps(FILES) + ',\n"requests": [\n' + rows + "\n]}\n", encoding="utf-8"
    )
    print(f"{len(entries)} requests written to {GOLDEN}")


if __name__ == "__main__":
    main()
