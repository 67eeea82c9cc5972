import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def farkas_vectors(monkeypatch):
    """The vectors that pass the QP solver's Farkas check, in order: those a
    PrimalInfeasible status is actually certified by."""
    from koopmpc import qp as qp_module

    certified, check = [], qp_module._farkas

    def recorded(qp, f, u, b_eq):
        mu = check(qp, f, u, b_eq)
        if mu is not None:
            certified.append(u.copy())
        return mu

    monkeypatch.setattr(qp_module, "_farkas", recorded)
    return certified
