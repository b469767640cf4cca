"""The public API of the package: exactly the decided names, all resolvable."""

import pytest

import gghs

PUBLIC = [
    "errors",
    "ClassicalCode",
    "DecodedError",
    "QuantumCode",
    "build_code",
    "decoded_error",
    "kl_distance",
    "weight_enumerators",
    "DensityMatrix",
    "graph_reduced_density",
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
    "LocalOperator",
    "StateVector",
    "apply_local",
    "digits_to_index",
    "ghz",
    "graph_state",
    "hamiltonian_ground_check",
    "overlap",
    "reorder_qudits",
    "auto_bipartite_parts",
    "lu_witness_bipartite",
    "lu_witness_p_equiv",
    "pauli_xz",
    "stabilizer_from_symmetry",
    "verify_stabilizer",
    "peps_contract",
    "__version__",
]

# Kept out of the package: fixtures and oracles that live in tests/helpers.py,
# the bond state, which nothing used, encode, which was graph_state with
# input digits, and the witness and stabilizer wrappers: a witness holds its
# permutations as tuples and its diagonals as phase arrays, and a stabilizer
# is the tuple of its site factors.
REMOVED = [
    "apply_ch", "basis_state", "index_to_digits", "weyl_operators", "BondState", "bond_state",
    "circuit_unitary", "encode", "Permutation", "DiagonalUnitary", "StabilizerOperator",
]


def test_public_api_is_the_decided_list():
    assert len(PUBLIC) == 51
    assert gghs.__all__ == PUBLIC
    for name in PUBLIC:
        getattr(gghs, name)
    for name in REMOVED:
        with pytest.raises(AttributeError):
            getattr(gghs, name)
