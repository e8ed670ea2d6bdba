"""Canonical forms for self-adjoint boundary-condition matrix pairs.

Verifies the rank + Gram self-adjointness criterion, synthesizes pairs from
coupling unitaries, recovers the unique coupling unitary of a pair, and
assembles the CS-decomposition-based canonical factorizations for odd
(m = 2n+1) and even (m = 2n) matrix orders, together with rank prediction
and the mixed / coupled / separated classification.
"""

__version__ = "0.1.0"

from . import csd, errors, forms, linalg, structure
from .csd import *
from .errors import *
from .forms import *
from .linalg import *
from .structure import *

__all__ = ["__version__", *csd.__all__, *errors.__all__, *forms.__all__, *linalg.__all__, *structure.__all__]
