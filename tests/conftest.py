"""Shared operating points and solve helpers for the test suite."""

import numpy as np
import pytest

from triheat import (
    SteadyStateResult,
    SystemParams,
    bath_channels,
    build_superoperator,
    gibbs_state,
    steady_state,
    total_hamiltonian,
)

# Transfer-curve operating point: hot left drain, cold gate and source.
TRANSFER_PARAMS = SystemParams(
    e1=1.0, e2=1.0, e3=3.0, e4=1.0,
    g_lm=0.1, g_mr=0.1,
    kappa_l=0.05, kappa_m=0.02, kappa_r=0.05,
    t_l=2.0, t_m=0.1, t_r=0.1,
)

# Output-characteristics base: warm right source as reference, swept left drain.
OUTPUT_PARAMS = SystemParams(
    g_lm=0.1, g_mr=0.1,
    kappa_l=0.05, kappa_m=0.02, kappa_r=0.05,
    t_l=1.0, t_m=0.2, t_r=1.0,
)

# Coupling-vs-gate map base: weak middle dissipation, hot left, cold right.
COUPLING_PARAMS = SystemParams(
    g_lm=0.05, g_mr=0.1,
    kappa_l=0.05, kappa_m=0.002, kappa_r=0.05,
    t_l=1.0, t_m=0.5, t_r=0.1,
)


def solve(params: SystemParams, tol: float = 1e-10) -> SteadyStateResult:
    h = total_hamiltonian(params)
    return steady_state(build_superoperator(h, bath_channels(params)), tol=tol)


def product_gibbs(params: SystemParams) -> np.ndarray:
    """Uncoupled-limit reference state: per-subsystem thermal factors."""
    return np.kron(
        gibbs_state([0.0, params.e1], params.t_l),
        np.kron(
            gibbs_state([0.0, params.e2, params.e3], params.t_m),
            gibbs_state([0.0, params.e4], params.t_r),
        ),
    )


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.fixture(scope="session", autouse=True)
def lapack_warmup() -> None:
    """Pay the threaded LAPACK start-up once, before any test times a solve.

    With a multi-threaded OpenBLAS on a 2-vCPU host, the first SVD or eig of
    a generator-sized (144x144) matrix in a process can take about 1 s while
    every later one takes about 0.01 s; with one BLAS thread the first takes
    0.01 s as well. That one-off cost belongs to the library, not to the
    solver, so it is paid here rather than inside a timed test.
    """
    np.linalg.svd(np.eye(144, dtype=complex) + 1e-3j)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
