"""Exact matrix factorizations of multivariate polynomials.

Build certified 2-matrix factorizations (P, Q) with P*Q = f*I, promote
them to 3-matrix factorizations (A1, A2, A3) with A1*A2*A3 = f*I by LU
decomposition over the fraction field, and combine 3-matrix factorizations
of f and g into one of f*g with the multiplicative tensor product. All
arithmetic is exact over the rationals and every constructed object is
certified by its defining matrix identity.
"""

from .category import (
    Morphism,
    Morphism3,
    commutativity_witness,
    tensor3,
    tensor3_morphism,
    violated_equation,
)
from .context import VarContext
from .errors import (
    CertificateError,
    ContextError,
    DimensionError,
    MorphismError,
    ParseError,
    PolymfError,
    SingularPivotError,
    StructurallySingularError,
    UnknownVariableError,
)
from .laws import run_laws
from .matrix import PermutationMatrix, RatMatrix, first_difference, perfect_shuffle
from .mf2 import (
    MF2,
    Factorization,
    TermSplit,
    add_factorizations,
    default_splits,
    splits_from_factors,
    standard_method,
)
from .mf3 import CROUT, DOOLITTLE, LUResult, MF3, Provenance, lu_decompose, promote
from .parsing import (
    infer_context,
    parse_polynomial,
    parse_rational_function,
    parse_summands,
)
from .poly import Monomial, Polynomial, gcd
from .ratfunc import RationalFunction

__version__ = "0.1.0"

__all__ = [
    "CROUT",
    "CertificateError",
    "ContextError",
    "DOOLITTLE",
    "DimensionError",
    "Factorization",
    "LUResult",
    "MF2",
    "MF3",
    "Monomial",
    "Morphism",
    "Morphism3",
    "MorphismError",
    "ParseError",
    "PermutationMatrix",
    "PolymfError",
    "Polynomial",
    "Provenance",
    "RatMatrix",
    "RationalFunction",
    "SingularPivotError",
    "StructurallySingularError",
    "TermSplit",
    "UnknownVariableError",
    "VarContext",
    "add_factorizations",
    "commutativity_witness",
    "default_splits",
    "first_difference",
    "gcd",
    "infer_context",
    "lu_decompose",
    "parse_polynomial",
    "parse_rational_function",
    "parse_summands",
    "perfect_shuffle",
    "promote",
    "run_laws",
    "splits_from_factors",
    "standard_method",
    "tensor3",
    "tensor3_morphism",
    "violated_equation",
]
