"""Exact apolarity toolkit.

Sparse divided-power polynomials over exact fields with the contraction
action, spaces of partials and their filtrations, symmetric decompositions
of Hilbert functions, Macaulay growth, admissible-decomposition
enumeration, and the dimension bounds that pin the cactus rank of a
generic cubic form at 15 (n = 7) and 18 (n = 8).

`import apolarity` loads no submodule: each public name below is imported
from its submodule when it is first used (PEP 562), and the command line
imports only the modules the command it runs needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_OWNERS = {
    **dict.fromkeys(
        ("ApolarScheme", "FilteredSpace", "annihilator_generators", "annihilator_stabilized",
         "apolar_length", "diff_space", "is_apolar", "local_scheme",
         "representative_operator"),
        "apolar"),
    **dict.fromkeys(
        ("DimBoundReport", "TheoremReport", "c_bound", "d_flag", "d_infty", "v_bound",
         "verify_theorem", "w_bound"),
        "bounds"),
    **dict.fromkeys(
        ("DecompositionCandidate", "admissible_decompositions", "nonsmoothable_filter"),
        "enumeration"),
    **dict.fromkeys(
        ("HilbertFunction", "SymmetricDecomposition", "adapt_coordinates", "embedding_dims",
         "hilbert_function", "symmetric_decomposition"),
        "hilbert"),
    **dict.fromkeys(
        ("BinomialExpansion", "binomial_expansion", "is_o_sequence", "macaulay_bound"),
        "macaulay"),
    **dict.fromkeys(
        ("DUAL", "PRIMAL", "ChangeOfBasis", "ParseError", "Polynomial", "contract",
         "dehomogenize", "dp_substitute", "homogenize", "monomials_of_degree",
         "monomials_up_to", "parse", "poly_str"),
        "poly"),
    **dict.fromkeys(("RATIONALS", "PrimeField"), "scalars"),
    **dict.fromkeys(
        ("WitnessReport", "cusp_witness", "exotic_extend", "random_general_cubic"),
        "witness"),
}

__all__ = sorted(_OWNERS)


def __getattr__(name):
    # the value is not stored here, so this reads whatever the submodule
    # binds now, and a name rebound there is never left stale in the package
    try:
        owner = _OWNERS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{owner}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
