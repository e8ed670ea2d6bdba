"""Every exported name resolves, in the package and in each module, and the package exports a pinned list."""

import importlib
import pkgutil

import pytest

import bccanon

# The package and each of its modules that defines __all__; a new module is checked with no edit here.
MODULES = [
    name
    for name in ["bccanon", *(f"bccanon.{info.name}" for info in pkgutil.iter_modules(bccanon.__path__))]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_public_api_is_pinned():
    # A new public name needs a caller, and an edit here that records it.
    assert sorted(bccanon.__all__) == [
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
        "__version__",
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
