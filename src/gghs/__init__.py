"""Generalized graph states from symmetric complex Hadamard matrices.

Construct |psi_{G,H}> for an undirected graph G and a symmetric complex
Hadamard matrix H, analyze entanglement and local symmetries, test
Hadamard-matrix equivalence, and build graph quantum codes from classical
codes.
"""

from . import errors
from .codes import (
    ClassicalCode,
    DecodedError,
    QuantumCode,
    build_code,
    decoded_error,
    kl_distance,
    weight_enumerators,
)
from .entangle import (
    DensityMatrix,
    graph_reduced_density,
    i6,
    kraus_commutation_test,
    partial_transpose,
    reduced_density,
    schmidt_spectrum,
)
from .graphs import Graph, bipartition, build, family, neighbourhood
from .hadamard import (
    GENERAL,
    P_EQUIV,
    S_SYMMETRY,
    EquivalenceWitness,
    HadamardMatrix,
    apply_witness,
    catalog,
    check_witness,
    dephase,
    find_equivalence,
    fourier,
    s_symmetries,
    tensor_product,
    validate,
)
from .qstate import (
    LocalOperator,
    StateVector,
    apply_local,
    digits_to_index,
    ghz,
    graph_state,
    hamiltonian_ground_check,
    overlap,
    reorder_qudits,
)
from .symmetry import (
    auto_bipartite_parts,
    lu_witness_bipartite,
    lu_witness_p_equiv,
    pauli_xz,
    stabilizer_from_symmetry,
    verify_stabilizer,
)
from .tensornet import peps_contract

__version__ = "0.1.0"

__all__ = [
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
