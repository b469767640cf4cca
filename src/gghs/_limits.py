"""Every limit gghs applies to what it admits: the caps and the tolerances.

Matrices and states here are exact algebraic objects evaluated in double
precision, so one entrywise tolerance covers construction checks. The caps
are checked before the work or the allocation they bound.
"""

from . import errors

TOL_ENTRY = 1e-9           # entrywise checks on unimodular entries, witnesses, flags
TOL_NORM = 1e-6            # how far a state's norm may be off 1
DENSE_AMP_CAP = 2**24      # most entries of a dense array an input sizes (256 MiB of complex128)
MAX_SITES = 32             # most sites of a state or graph, one axis each: numpy 1.x's axis limit
GRAM_BLOCK = 2**20         # most entries in one temporary of the Gram check or the forced-column search
GRAPH_EDGE_CAP = 2**16     # most edges a named family may build
SEARCH_CAPS = {"General": 6, "PEquiv": 8}  # largest d of each permutation search, by kind


def _dense_size(n: int, d: int, axes: int = 1) -> int:
    """d**n for n >= 0 and d >= 1, or TooLarge when an array with `axes` axes
    of d**n entries each (1: a vector on n sites, 2: an operator on them)
    passes DENSE_AMP_CAP.

    The product stops at the first factor past the cap, so a huge n never
    builds a huge integer. n is capped at MAX_SITES, which binds here only
    for d = 1; qstate's pair gate checks it for every (graph, matrix) pair.
    """
    size = 1
    for _ in range(n if d > 1 else 0):
        size *= d
        if size**axes > DENSE_AMP_CAP:
            what = "d**n" if axes == 1 else f"(d**n)**{axes}"
            raise errors.TooLarge(f"{what} with n={n}, d={d} exceeds the cap {DENSE_AMP_CAP}")
    if n > MAX_SITES:
        raise errors.TooLarge(f"n={n} sites exceeds the cap {MAX_SITES}")
    return size
