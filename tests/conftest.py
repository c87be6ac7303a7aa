import threading

import numpy as np
import pytest

from levybank.bank import generate_bank
from levybank.core import ProblemSpec


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread running, such as an estimator's helper."""
    before = set(threading.enumerate())
    yield
    extra = [t for t in threading.enumerate() if t not in before]
    assert not extra, f"threads left running: {extra}"


@pytest.fixture(scope="session")
def spec3():
    """Small 3-mode problem shared by bank and estimator tests."""
    return ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=3,
                       lambdas=np.array([1.0, 4.0, 9.0]),
                       sigmas=np.ones(3), horizon=1.0)


@pytest.fixture(scope="session")
def bank3(spec3):
    return generate_bank(spec3, 1e-3, 1e-2, 400, 400, 99)


@pytest.fixture(scope="session")
def spec1():
    """One-mode problem where Gaussian closed forms are available."""
    return ProblemSpec(alpha=0.75, gamma_bar=1.0, dim=1,
                       lambdas=np.array([1.0]), sigmas=np.ones(1),
                       horizon=1.0)
