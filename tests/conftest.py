import pathlib

import numpy as np
import pytest

from bccanon import BoundaryPair, OrderSpec, generate_random_pair, haar_unitary

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def _call_recorder(monkeypatch, name):
    """A function that starts recording the input shape of every ``np.linalg.<name>`` call and returns the record."""

    def start():
        calls = []
        original = getattr(np.linalg, name)

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
        return calls

    return start


@pytest.fixture
def count_svds(monkeypatch):
    return _call_recorder(monkeypatch, "svd")


@pytest.fixture
def count_choleskys(monkeypatch):
    return _call_recorder(monkeypatch, "cholesky")


@pytest.fixture
def count_solves(monkeypatch):
    return _call_recorder(monkeypatch, "solve")


@pytest.fixture
def ill_conditioned_pair():
    """An m = 5 pair mixed by a G with cond 1e10, whose coefficient matrix P is numerically singular."""
    spec = OrderSpec(5)
    pair = generate_random_pair(spec, 1, target_unit_cosines=1)
    rng = np.random.default_rng([5, 1])
    g = (haar_unitary(5, rng) * np.logspace(0, -10, 5)) @ haar_unitary(5, rng)
    return BoundaryPair(A=g @ pair.A, B=g @ pair.B, spec=spec)
