"""Every exported name resolves, in the package and in each module."""

import importlib

import pytest

MODULES = [
    "bccanon",
    "bccanon.csd",
    "bccanon.forms",
    "bccanon.linalg",
    "bccanon.matio",
    "bccanon.selftest",
    "bccanon.structure",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
