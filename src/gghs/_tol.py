"""Shared numeric tolerances.

Matrices and states here are exact algebraic objects evaluated in double
precision, so a single entrywise tolerance covers construction checks.
"""

TOL_ENTRY = 1e-9      # entrywise checks on unimodular entries, witnesses, flags


def tol_unitary(d: int) -> float:
    # H^dagger H = d*I is checked entrywise; the natural scale grows with d.
    return 1e-9 * d
