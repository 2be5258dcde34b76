import pytest

from herdlearn import GaussianSpec, MixtureSpec, build_model


@pytest.fixture(scope="session")
def gauss_fat():
    """sigma=1, tau=2: noise has fatter tails than the informative laws."""
    return build_model(GaussianSpec(sigma=1.0, tau=2.0))


@pytest.fixture(scope="session")
def gauss_thin():
    """sigma=1, tau=0.5: noise has thinner tails."""
    return build_model(GaussianSpec(sigma=1.0, tau=0.5))


@pytest.fixture(scope="session")
def gauss_boundary():
    """sigma=tau=1, symmetric noise: neither fatter nor thinner."""
    return build_model(GaussianSpec(sigma=1.0, tau=1.0))


@pytest.fixture(scope="session")
def mixture_half():
    """Noise indistinguishable a priori from the informative marginal."""
    return build_model(MixtureSpec(sigma=1.0, alpha=0.5))
