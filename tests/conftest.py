import numpy as np
import pytest

import stepanneal as sa


def schur_solver(spec, observed, targets):
    """The targets' conditional on the observed positions by the Schur
    complement, independently of the package's conditioning plan: the
    reference.  With L the Cholesky factor of the observed block and
    ``B = L^-1 Sigma_ot``, the weights are ``(L^-T B)^T`` and the covariance
    is ``Sigma_tt - B^T B``."""
    obs = np.asarray(observed, dtype=int).reshape(-1)
    tgt = np.asarray(targets, dtype=int).reshape(-1)
    cov = sa.joint_covariance(spec)
    factor = np.linalg.cholesky(cov[np.ix_(obs, obs)])
    b = np.linalg.solve(factor, cov[np.ix_(obs, tgt)])
    cond_cov = cov[np.ix_(tgt, tgt)] - b.T @ b
    return sa.ConditionalSolver(
        observed_positions=tuple(obs.tolist()),
        target_positions=tuple(tgt.tolist()),
        weights=np.linalg.solve(factor.T, b).T,
        covariance=0.5 * (cond_cov + cond_cov.T),
    )


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
