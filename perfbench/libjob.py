"""Runner for the library-only benchmark job, started like a CLI job.

    python3 perfbench/libjob.py hamiltonian_ground_check GRAPH fourier:D

`hamiltonian_ground_check` has no CLI subcommand, so this prints its result
as one JSON object: {"gap": ..., "ground_dim": ..., "fidelity": ...}.
"""

import json
import sys


def main(argv) -> int:
    from gghs import graphs, hadamard, qstate

    name, graph_spec, matrix_spec = argv
    if name != "hamiltonian_ground_check" or not matrix_spec.startswith("fourier:"):
        print(f"libjob: unsupported job {argv!r}", file=sys.stderr)
        return 2
    family, _, n = graph_spec.partition(":")
    G = graphs.family(family, int(n))
    H = hadamard.fourier(int(matrix_spec.split(":")[1]))
    gap, ground_dim, fidelity = qstate.hamiltonian_ground_check(G, H)
    print(json.dumps({"gap": gap, "ground_dim": ground_dim, "fidelity": fidelity}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
