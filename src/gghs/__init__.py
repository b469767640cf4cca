"""Generalized graph states from symmetric complex Hadamard matrices.

Construct |psi_{G,H}> for an undirected graph G and a symmetric complex
Hadamard matrix H, analyze entanglement and local symmetries, test
Hadamard-matrix equivalence, and build graph quantum codes from classical
codes.

`import gghs` loads no submodule: each public name is imported from its home
module on first use (PEP 562), so a process pays only for what it runs.
"""

import sys

__version__ = "0.1.0"

# home module -> the public names it defines, in __all__ order.
_EXPORTS = {
    "errors": ("errors",),
    "codes": ("build_code", "decoded_error", "kl_distance", "weight_enumerators"),
    "entangle": ("i6", "kraus_commutation_test", "partial_transpose", "reduced_density",
                 "schmidt_spectrum"),
    "graphs": ("Graph", "bipartition", "build", "family"),
    "hadamard": ("GENERAL", "P_EQUIV", "S_SYMMETRY", "EquivalenceWitness", "HadamardMatrix",
                 "apply_witness", "catalog", "check_witness", "dephase", "find_equivalence",
                 "fourier", "s_symmetries", "tensor_product", "validate"),
    "qstate": ("ghz", "graph_state", "hamiltonian_ground_check", "pauli_xz"),
    "symmetry": ("lu_witness",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = f"{__name__}.{_HOME[name]}"
    __import__(home)  # not importlib.import_module, which -X importtime does not list
    module = sys.modules[home]
    value = module if name == _HOME[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
