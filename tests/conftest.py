import numpy as np
import pytest
import scipy.sparse as sp

from ekstab import kernels, oracle
from ekstab.sysmodel import (
    DescriptorSystem,
    SyntheticSpec,
    Unstable,
    generate_synthetic,
)


@pytest.fixture(scope="session")
def sys60():
    return generate_synthetic(SyntheticSpec(60, 8, n_b=2, n_c=2, seed=7))


@pytest.fixture(scope="session")
def sys60u():
    return generate_synthetic(
        SyntheticSpec(60, 8, n_b=2, n_c=2, seed=7, unstable=Unstable(2, 0.5))
    )


@pytest.fixture(scope="session")
def sys200():
    return generate_synthetic(SyntheticSpec(200, 20, n_b=2, n_c=2, seed=11))


@pytest.fixture(scope="session")
def proj60(sys60):
    return oracle.build_projector(sys60)


@pytest.fixture(scope="session")
def proj60u(sys60u):
    return oracle.build_projector(sys60u)


def make_siso():
    """Unconstrained 1-state system M=1, A=-1, B=C=1 (n_p = 0)."""
    return DescriptorSystem(
        M=sp.csc_matrix(np.array([[1.0]])),
        A=sp.csc_matrix(np.array([[-1.0]])),
        G=sp.csc_matrix((1, 0)),
        B=np.array([[1.0]]),
        C=np.array([[1.0]]),
    )


@pytest.fixture
def siso():
    return make_siso()


@pytest.fixture
def kinds(monkeypatch):
    """The kind of every saddle factorization made while the test runs."""
    made = []
    real = kernels.factor_saddle

    def counting(*args, **kwargs):
        fact = real(*args, **kwargs)
        made.append(fact.kind)
        return fact

    monkeypatch.setattr(kernels, "factor_saddle", counting)
    return made
