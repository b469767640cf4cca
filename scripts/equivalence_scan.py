"""Pairwise equivalence scan over the built-in matrix catalog.

For every same-dimension pair this tries the permutation-diagonal search in
both the general and the symmetry-preserving (P-equivalence) sense and prints
the witness permutations when one is found. Dimensions past the search caps
are reported as skipped rather than decided.
"""

import argparse

from gghs import find_equivalence
from gghs.cli import resolve_matrix
from gghs.errors import SearchLimitExceeded
from gghs.hadamard import GENERAL, P_EQUIV

DEFAULT_LABELS = [
    "fourier:2",
    "fourier:3",
    "qutrit_h2",
    "fourier:4",
    "h_alpha:0",
    "h_alpha:pi/5",
    "h_alpha:pi/2",
    "tilde_a",
    "tilde_b",
    "tilde_c",
    "tilde_d",
    "fourier:5",
    "fourier:6",
    "h_d6",
]


def verdict(h1, h2, kind) -> str:
    try:
        w = find_equivalence(h1, h2, kind)
    except SearchLimitExceeded:
        return "skipped (search cap)"
    if w is None:
        return "no"
    if w.p2 is None:  # symmetry-preserving witnesses carry a single permutation
        return f"yes  p={list(w.p1)}"
    return f"yes  p1={list(w.p1)} p2={list(w.p2)}"


def run(labels) -> None:
    mats = [(label, resolve_matrix(label)) for label in labels]
    for i, (la, ha) in enumerate(mats):
        for lb, hb in mats[i + 1 :]:
            if ha.d != hb.d:
                continue
            print(f"{la} vs {lb}  (d={ha.d})")
            print(f"  general: {verdict(ha, hb, GENERAL)}")
            print(f"  p-equiv: {verdict(ha, hb, P_EQUIV)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("labels", nargs="*", default=None, help="matrix shorthands to scan")
    args = ap.parse_args()
    run(args.labels or DEFAULT_LABELS)


if __name__ == "__main__":
    main()
