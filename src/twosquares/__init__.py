"""Deciding sums of two integral squares in Z[sqrt(-14)] and friends."""

from .criterion import (
    Decision,
    DecisionStatus,
    Evidence,
    decide_generic,
    decide_qsqrt_m14,
    decide_rational,
    parity_exponent,
    verify_classical,
)
from .errors import (
    FactorizationError,
    ParameterError,
    ResourceLimitError,
    UnsupportedInputError,
)
from .hunt import HunterHit, HuntResult, hunt_counterexamples
from .localsolve import (
    LocalVerdict,
    ModularSolution,
    locally_solvable,
    locally_solvable_everywhere,
    relevant_primes,
)
from .numth import (
    factorize,
    hilbert_symbol,
    is_prime,
    is_quartic_residue,
    jacobi,
    legendre,
    sqrt_mod_prime,
)
from .ring import (
    DEFAULT_D,
    NormFactorization,
    Place,
    QuadInt,
    Splitting,
    norm_factorization,
    parse_quadint,
    split_type,
)
from .search import SearchReport, find_representation, two_square_search

__version__ = "0.1.0"

__all__ = [
    "Decision",
    "DecisionStatus",
    "Evidence",
    "decide_generic",
    "decide_qsqrt_m14",
    "decide_rational",
    "parity_exponent",
    "verify_classical",
    "FactorizationError",
    "ParameterError",
    "ResourceLimitError",
    "UnsupportedInputError",
    "HunterHit",
    "HuntResult",
    "hunt_counterexamples",
    "LocalVerdict",
    "ModularSolution",
    "locally_solvable",
    "locally_solvable_everywhere",
    "relevant_primes",
    "factorize",
    "hilbert_symbol",
    "is_prime",
    "is_quartic_residue",
    "jacobi",
    "legendre",
    "sqrt_mod_prime",
    "DEFAULT_D",
    "NormFactorization",
    "Place",
    "QuadInt",
    "Splitting",
    "norm_factorization",
    "parse_quadint",
    "split_type",
    "SearchReport",
    "find_representation",
    "two_square_search",
    "__version__",
]
