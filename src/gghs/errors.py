"""Exception types shared across the package.

Every domain error derives from GGHSError and carries a short machine-readable
code used by the CLI's JSON error output.
"""


class GGHSError(Exception):
    code = "error"

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(detail)


class NotUnimodular(GGHSError):
    code = "not_unimodular"


class NotHadamard(GGHSError):
    code = "not_hadamard"


class NotNormalized(GGHSError):
    code = "not_normalized"


class NotSymmetric(GGHSError):
    code = "not_symmetric"


class UnknownName(GGHSError):
    code = "unknown_name"


class DimensionMismatch(GGHSError):
    code = "dimension_mismatch"


class SearchLimitExceeded(GGHSError):
    code = "search_limit_exceeded"


class SelfLoop(GGHSError):
    code = "self_loop"


class IndexOutOfRange(GGHSError):
    code = "index_out_of_range"


class BadSize(GGHSError):
    code = "bad_size"


class DigitOutOfRange(GGHSError):
    code = "digit_out_of_range"


class SiteOutOfRange(GGHSError):
    code = "site_out_of_range"


class BadPermutation(GGHSError):
    code = "bad_permutation"


class TooLarge(GGHSError):
    code = "too_large"


class EmptyKeep(GGHSError):
    code = "empty_keep"


class BadSite(GGHSError):
    code = "bad_site"


class BadSlot(GGHSError):
    code = "bad_slot"


class TooFewSites(GGHSError):
    code = "too_few_sites"


class BadPartition(GGHSError):
    code = "bad_partition"


class InvalidWitness(GGHSError):
    code = "invalid_witness"


class BadVertex(GGHSError):
    code = "bad_vertex"


class NotBipartite(GGHSError):
    code = "not_bipartite"


class GramNotIdentity(GGHSError):
    code = "gram_not_identity"


class Overflow(GGHSError):
    code = "overflow"


class NonFinite(GGHSError):
    code = "non_finite"
