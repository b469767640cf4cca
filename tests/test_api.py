"""The public API of the package: exactly the decided names, all resolvable,
and each loaded only when a process uses it."""

from pathlib import Path

import pytest

import gghs
from helpers import python_process

PUBLIC = [
    "errors",
    "build_code",
    "decoded_error",
    "kl_distance",
    "weight_enumerators",
    "i6",
    "kraus_commutation_test",
    "partial_transpose",
    "reduced_density",
    "schmidt_spectrum",
    "Graph",
    "bipartition",
    "build",
    "family",
    "neighbourhood",
    "GENERAL",
    "P_EQUIV",
    "S_SYMMETRY",
    "EquivalenceWitness",
    "HadamardMatrix",
    "apply_witness",
    "catalog",
    "check_witness",
    "dephase",
    "find_equivalence",
    "fourier",
    "s_symmetries",
    "tensor_product",
    "validate",
    "apply_local",
    "ghz",
    "graph_state",
    "hamiltonian_ground_check",
    "overlap",
    "pauli_xz",
    "reorder_qudits",
    "lu_witness",
    "verify_stabilizer",
    "__version__",
]

# Kept out of the package: fixtures and oracles that live in tests/helpers.py
# (digits_to_index among them, and peps_contract, the PEPS contraction, which
# checks the circuit kernel), the bond state, which nothing used, encode,
# which was graph_state with input digits, and the wrappers: a state is its
# (d,)*n array, indexed by digits, a witness holds its permutations as tuples
# and its diagonals as phase arrays, a stabilizer generator is its S-symmetry
# and its vertex, which verify_stabilizer(G, w, a, s) takes without building
# site factors, a reduced state is its array, and a decoded error is the
# tuple (factorizes, site_operator, residual). A classical code is its words,
# as digit tuples (formats.words_from_text reads them from code text), a
# quantum code is its (d,)*n + (K,) basis array, and a site operator is its
# d x d array, passed with its site; those three wrappers are not named
# below, since the lazy lookup refuses every name outside PUBLIC. The three
# witness constructors are lu_witness, which reads the relation from the
# witness and the parts from the graph, and graph_reduced_density is
# reduced_density on a (G, H) pair.
REMOVED = [
    "apply_ch", "basis_state", "index_to_digits", "weyl_operators", "BondState", "bond_state",
    "circuit_unitary", "encode", "Permutation", "DiagonalUnitary", "StabilizerOperator",
    "DensityMatrix", "DecodedError", "StateVector", "digits_to_index", "auto_bipartite_parts",
    "lu_witness_bipartite", "lu_witness_p_equiv", "stabilizer_from_symmetry", "peps_contract",
    "graph_reduced_density",
]


def test_public_api_is_the_decided_list():
    assert len(PUBLIC) == 39
    assert gghs.__all__ == PUBLIC
    for name in PUBLIC:
        getattr(gghs, name)
    for name in [*REMOVED, "no_such_name"]:
        with pytest.raises(AttributeError):
            getattr(gghs, name)
    assert set(PUBLIC) <= set(dir(gghs))


def test_readme_states_the_public_name_count():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert f"`gghs.__all__` lists the {len(gghs.__all__)} names" in readme


# Runs in a fresh process, so that every name goes through the lazy lookup.
RESOLVE = """
import sys, gghs
if sys.argv[1] == "star":
    ns = {}
    exec("from gghs import *", ns)
    values = [ns[name] for name in gghs.__all__]
else:
    values = [getattr(gghs, name) for name in gghs.__all__]
assert all(v is getattr(gghs, name) for v, name in zip(values, gghs.__all__))
print(" ".join(gghs.__all__))
"""


@pytest.mark.parametrize("first", ["attribute", "star"])
def test_every_public_name_resolves_on_first_use(first):
    proc = python_process("-c", RESOLVE, first)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == PUBLIC


def loaded(*args) -> set:
    """The gghs modules that `python -X importtime ARGS` imports, read from
    its stderr; the process must exit 0."""
    proc = python_process("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr[-500:]
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return {name for name in names if name == "gghs" or name.startswith("gghs.")}


def test_import_gghs_loads_no_submodule():
    assert loaded("-c", "import gghs") == {"gghs"}


PAIR = ["--graph", "line:3", "--hadamard", "fourier:3"]
OPTIONAL = {"gghs.codes", "gghs.entangle", "gghs.symmetry"}


@pytest.mark.parametrize("argv, optional", [
    (["validate", "fourier:4"], set()),
    (["equiv", "tilde_c", "tilde_d", "--p-equiv"], set()),
    (["symmetries", "fourier:3"], set()),
    (["state", *PAIR], set()),
    (["invariant", *PAIR, "--i6"], {"gghs.entangle"}),
    (["stabilizers", *PAIR], set()),
    (["peps-check", *PAIR], set()),
    (["code", *PAIR, "--classical", "rep.txt", "--distance", "2"], {"gghs.codes"}),
    (["decode-error", *PAIR, "--site", "0", "--op", "Z"], {"gghs.codes"}),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_a_process_loads_only_what_its_subcommand_runs(argv, optional, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rep.txt").write_text("000\n111\n222\n")
    modules = loaded("-m", "gghs.cli", *argv)
    assert {"gghs.hadamard", "gghs.qstate"} <= modules  # the reader sees them at all
    assert modules & OPTIONAL == optional
