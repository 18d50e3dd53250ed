import numpy as np
import pytest

import stepanneal as sa


@pytest.fixture(scope="session")
def spec():
    return sa.TokenProcessSpec()


@pytest.fixture(scope="session")
def cov(spec):
    return sa.joint_covariance(spec)


@pytest.fixture(scope="session")
def linear_schedule():
    return sa.build_linear_beta()


@pytest.fixture(scope="session")
def oracle():
    return sa.ExactDenoiser()


@pytest.fixture(scope="session")
def aniso_cond(spec):
    """Anisotropic 3-target conditional used across sampler tests."""
    rng = np.random.default_rng(0)
    obs = [(0, rng.standard_normal(4) * 0.8), (15, rng.standard_normal(4) * 0.8)]
    return sa.conditional(spec, obs, [5, 6, 10])


def isotropic_cond(mean=0.0, var=1.0, dim=4):
    return sa.ConditionalGaussian(
        target_positions=(0,),
        mean=np.full((1, dim), float(mean)),
        covariance=np.array([[float(var)]]),
    )


def dirac_cond(mean=0.7, dim=4):
    return sa.ConditionalGaussian(
        target_positions=(0,),
        mean=np.full((1, dim), float(mean)),
        covariance=np.array([[0.0]]),
    )
