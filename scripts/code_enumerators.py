"""Build the repetition codes on the triangle and compare their enumerators.

Constructs the K=4 code from the one-parameter d=4 family next to the
fourier(4) comparator, reports the Knill-Laflamme distance, and prints both
weight enumerator pairs so the inequivalence is visible at a glance.
"""

import argparse
import math

import numpy as np

from gghs import build_code, catalog, family, fourier, kl_distance, weight_enumerators


def report(label, V, max_weight: int) -> np.ndarray:
    n, K = V.ndim - 1, V.shape[-1]
    flat = V.reshape(-1, K)
    gram = np.max(np.abs(flat.conj().T @ flat - np.eye(K)))
    dist = kl_distance(V, max_weight=max_weight)
    dist_text = f"> {min(max_weight, n)}" if dist is None else str(dist)
    A, B = weight_enumerators(V)
    print(f"{label}")
    print(f"  K = {K}, gram deviation {gram:.2e}, distance {dist_text}")
    print("  A =", np.array2string(A, precision=7))
    print("  B =", np.array2string(B, precision=7))
    return np.concatenate([A, B])


def run(alpha: float, max_weight: int) -> None:
    C = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]
    G = family("triangle")
    ea = report(f"h_alpha({alpha:.6f}) repetition code", build_code(G, catalog("h_alpha", alpha), C), max_weight)
    print()
    ef = report("fourier(4) repetition code", build_code(G, fourier(4), C), max_weight)
    print()
    print(f"max enumerator difference {np.max(np.abs(ea - ef)):.7f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=math.pi / 5)
    ap.add_argument("--max-weight", type=int, default=3)
    args = ap.parse_args()
    run(args.alpha, args.max_weight)


if __name__ == "__main__":
    main()
