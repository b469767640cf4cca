"""Shared numeric tolerances.

Matrices and states here are exact algebraic objects evaluated in double
precision, so a single entrywise tolerance covers construction checks.
"""

TOL_ENTRY = 1e-9      # entrywise checks on unimodular entries, witnesses, flags
