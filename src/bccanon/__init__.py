"""Canonical forms for self-adjoint boundary-condition matrix pairs.

Verifies the rank + Gram self-adjointness criterion, synthesizes pairs from
coupling unitaries, recovers the unique coupling unitary of a pair, and
assembles the CS-decomposition-based canonical factorizations for odd
(m = 2n+1) and even (m = 2n) matrix orders, together with rank prediction
and the mixed / coupled / separated classification.
"""

__version__ = "0.1.0"

from .csd import CsFactors, cs_core, cs_decompose, cs_reconstruct
from .errors import (
    BccanonError,
    ConvergenceFailure,
    DimensionMismatch,
    InvalidTarget,
    NotSelfAdjoint,
    NotUnitary,
    ParseError,
    PartitionMismatch,
    RankDeficient,
    UnsupportedOrder,
)
from .forms import (
    BoundaryPair,
    CanonicalForm,
    Classification,
    EvenCanonicalForm,
    SelfAdjointReport,
    canonical_decompose,
    check_self_adjoint,
    construct_even_from_W,
    construct_from_W,
    even_canonical_decompose,
    generate_random_pair,
    recover_W,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    haar_unitary,
    numerical_rank,
    random_unitary,
    row_space_angles,
    unitarity_residual,
)
from .structure import (
    EigenBasis,
    OrderSpec,
    eigenbasis,
    even_order_Z,
    q4_matrix,
    symplectic_matrix,
)

__all__ = [
    "__version__",
    "BccanonError",
    "BoundaryPair",
    "CanonicalForm",
    "Classification",
    "ConvergenceFailure",
    "CsFactors",
    "DEFAULT_TOL",
    "DimensionMismatch",
    "EigenBasis",
    "EvenCanonicalForm",
    "InvalidTarget",
    "NotSelfAdjoint",
    "NotUnitary",
    "OrderSpec",
    "ParseError",
    "PartitionMismatch",
    "RankDeficient",
    "SelfAdjointReport",
    "Tolerances",
    "UnsupportedOrder",
    "canonical_decompose",
    "check_self_adjoint",
    "construct_even_from_W",
    "construct_from_W",
    "cs_core",
    "cs_decompose",
    "cs_reconstruct",
    "eigenbasis",
    "even_canonical_decompose",
    "even_order_Z",
    "generate_random_pair",
    "haar_unitary",
    "numerical_rank",
    "q4_matrix",
    "random_unitary",
    "recover_W",
    "row_space_angles",
    "symplectic_matrix",
    "unitarity_residual",
]
