"""Regenerate tests/golden_stdout.json, the stdout digests of test_golden_stdout.py.

Each request is one `gghs` argv, run in-process through `gghs.cli.main` with
the codeword files of FILES in its working directory; the file records its
exit code and the SHA-256 of its stdout. The requests are every
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

from helpers import cli_stdout

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)

GOLDEN = HERE / "golden_stdout.json"

FILES = {
    "one_d2.txt": "101\n",
    "zero_d2.txt": "000\n",
    "rep_d2.txt": "000\n111\n",
    "two_d3.txt": "012\n120\n",
    "rep_d3.txt": "000\n111\n222\n",
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
    ["equiv", "fourier:2", "fourier:3"],  # exit 1, dimension_mismatch
    ["validate", "fourier:x"],  # exit 2, malformed_input
]


def requests():
    """Every argv, in order, each once."""
    argvs = [job["argv"] for job in workloads.reference_jobs()] + FIXED + SHAPES
    return list({tuple(argv): argv for argv in argvs}.values())


def digest(argv) -> dict:
    code, out = cli_stdout(argv)
    return {"argv": argv, "exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}


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
    rows = ",\n".join(" " + json.dumps(entry) for entry in entries)
    GOLDEN.write_text(
        '{"files": ' + json.dumps(FILES) + ',\n"requests": [\n' + rows + "\n]}\n", encoding="utf-8"
    )
    print(f"{len(entries)} requests written to {GOLDEN}")


if __name__ == "__main__":
    main()
