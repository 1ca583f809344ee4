"""Exact apolarity toolkit.

Sparse divided-power polynomials over exact fields with the contraction
action, spaces of partials and their filtrations, symmetric decompositions
of Hilbert functions, Macaulay growth, admissible-decomposition
enumeration, and the dimension bounds that pin the cactus rank of a
generic cubic form at 15 (n = 7) and 18 (n = 8).
"""

from .apolar import (
    ApolarScheme,
    FilteredSpace,
    annihilator_generators,
    annihilator_stabilized,
    apolar_length,
    diff_space,
    is_apolar,
    local_scheme,
    representative_operator,
)
from .bounds import (
    DimBoundReport,
    TheoremReport,
    c_bound,
    d_flag,
    d_infty,
    v_bound,
    verify_theorem,
    w_bound,
)
from .enumeration import (
    DecompositionCandidate,
    admissible_decompositions,
    nonsmoothable_filter,
)
from .hilbert import (
    HilbertFunction,
    SymmetricDecomposition,
    adapt_coordinates,
    embedding_dims,
    hilbert_function,
    symmetric_decomposition,
)
from .macaulay import BinomialExpansion, binomial_expansion, is_o_sequence, macaulay_bound
from .poly import (
    DUAL,
    PRIMAL,
    ChangeOfBasis,
    ParseError,
    Polynomial,
    contract,
    dehomogenize,
    dp_substitute,
    homogenize,
    monomials_of_degree,
    monomials_up_to,
    parse,
    poly_str,
)
from .scalars import RATIONALS, PrimeField
from .witness import WitnessReport, cusp_witness, exotic_extend, random_general_cubic

__version__ = "0.1.0"

__all__ = [
    "ApolarScheme",
    "BinomialExpansion",
    "ChangeOfBasis",
    "DUAL",
    "DecompositionCandidate",
    "DimBoundReport",
    "FilteredSpace",
    "HilbertFunction",
    "PRIMAL",
    "ParseError",
    "Polynomial",
    "PrimeField",
    "RATIONALS",
    "SymmetricDecomposition",
    "TheoremReport",
    "WitnessReport",
    "adapt_coordinates",
    "admissible_decompositions",
    "annihilator_generators",
    "annihilator_stabilized",
    "apolar_length",
    "binomial_expansion",
    "c_bound",
    "contract",
    "cusp_witness",
    "d_flag",
    "d_infty",
    "dehomogenize",
    "diff_space",
    "dp_substitute",
    "embedding_dims",
    "exotic_extend",
    "hilbert_function",
    "homogenize",
    "is_apolar",
    "is_o_sequence",
    "local_scheme",
    "macaulay_bound",
    "monomials_of_degree",
    "monomials_up_to",
    "nonsmoothable_filter",
    "parse",
    "poly_str",
    "random_general_cubic",
    "representative_operator",
    "symmetric_decomposition",
    "v_bound",
    "verify_theorem",
    "w_bound",
]
