"""Shared operating points and solve helpers for the test suite."""

import math

import numpy as np
import pytest

from triheat import (
    SteadyStateResult,
    SystemParams,
    chain_liouvillian,
    gibbs_state,
    steady_state,
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


def seeded_points(seed=2027, count=48, t_min=0.01):
    """Resonant and detuned levels, g = 0 on every fourth, T in [t_min, 30], kappa in [1e-5, 0.1]."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(count):
        e1, e2, e4 = (1.0, 1.0, 1.0) if i % 2 == 0 else rng.uniform(0.6, 1.6, 3)
        g = (0.0, 0.0) if i % 4 == 1 else rng.uniform(0.0, 0.3, 2)
        kappa = 10.0 ** rng.uniform(-5.0, -1.0, 3)
        temps = 10.0 ** rng.uniform(math.log10(t_min), math.log10(30.0), 3)
        points.append(SystemParams(
            e1=float(e1), e2=float(e2), e3=float(e2 + rng.uniform(0.8, 2.2)), e4=float(e4),
            g_lm=float(g[0]), g_mr=float(g[1]),
            kappa_l=float(kappa[0]), kappa_m=float(kappa[1]), kappa_r=float(kappa[2]),
            t_l=float(temps[0]), t_m=float(temps[1]), t_r=float(temps[2]),
        ))
    return points


def solve(params: SystemParams) -> SteadyStateResult:
    return steady_state(chain_liouvillian(params))


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
