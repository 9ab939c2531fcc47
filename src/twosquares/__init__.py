"""Deciding sums of two integral squares in Z[sqrt(-14)] and friends."""

from .criterion import DecisionStatus, decide_generic, decide_qsqrt_m14, decide_rational
from .errors import FactorizationError, ParameterError, ResourceLimitError
from .hunt import hunt_counterexamples
from .localsolve import locally_solvable_everywhere
from .numth import hilbert_symbol
from .ring import QuadInt
from .search import find_representation

__version__ = "0.1.0"

__all__ = [
    "QuadInt",
    "DecisionStatus",
    "decide_qsqrt_m14",
    "decide_rational",
    "decide_generic",
    "locally_solvable_everywhere",
    "find_representation",
    "hunt_counterexamples",
    "hilbert_symbol",
    "FactorizationError",
    "ParameterError",
    "ResourceLimitError",
    "__version__",
]
