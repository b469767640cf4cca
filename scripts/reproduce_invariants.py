"""Recompute the headline invariant numbers and print them as a table.

Covers the cubic partial-transpose invariant for the GHZ anchor and the
triangle states, the Kraus commutation screen over the whole catalog, and the
worst single-site reduced-density deviation from maximal mixedness.
"""

import argparse
import numpy as np

from gghs import ghz, graph_state, i6, kraus_commutation_test, reduced_density
from gghs.cli import resolve_graph, resolve_matrix

CATALOG = [
    "fourier:2",
    "fourier:3",
    "fourier:4",
    "fourier:5",
    "fourier:6",
    "h_alpha:0",
    "h_alpha:pi/5",
    "h_alpha:pi/2",
    "tilde_a",
    "tilde_b",
    "tilde_c",
    "tilde_d",
    "qutrit_h2",
    "h_d6",
]

I6_TARGETS = ["fourier:6", "h_d6"]


def run(graph: str) -> None:
    G = resolve_graph(graph)

    s = ghz(3, 6)
    print(f"i6  ghz:3:6                 {i6(s):.15f}   (1/36 = {1/36:.15f})")
    for spec in I6_TARGETS:
        H = resolve_matrix(spec)
        val = i6(graph_state(G, H))
        print(f"i6  {graph} {spec:<16} {val:.15f}")
    print()

    print("kraus commutation screen")
    for spec in CATALOG:
        H = resolve_matrix(spec)
        ok, worst = kraus_commutation_test(H)
        print(f"  {spec:<14} {'pass' if ok else 'FAIL':<5} worst {worst:.3e}")
    print()

    print(f"single-site rdm deviation from I/d on {graph}")
    for spec in CATALOG:
        H = resolve_matrix(spec)
        psi = graph_state(G, H)
        dev = max(
            float(np.max(np.abs(reduced_density(psi, [a]) - np.eye(H.d) / H.d)))
            for a in range(G.n)
        )
        print(f"  {spec:<14} {dev:.3e}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", default="triangle", help="graph shorthand, e.g. cycle:4")
    args = ap.parse_args()
    run(args.graph)


if __name__ == "__main__":
    main()
