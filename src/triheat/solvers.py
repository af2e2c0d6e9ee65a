"""Steady-state and time-domain solvers for the master equation.

Both solvers consume the one dense generator matrix from
``build_superoperator`` and differ only in algorithm: an algebraic
null-space solve (SVD, smallest singular vector) and a classical fixed-step
RK4 integration of d vec(rho)/dt = L vec(rho). The test suite cross-checks
the two algorithms against each other, and checks the matrix itself against
the operator form ``rhs_apply``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lindblad import Liouvillian, vec, unvec
from .observables import HeatCurrents, bath_currents

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10
DEGENERACY_TOL = 1e-10
TRACE_DRIFT_TOL = 1e-9


class SteadyStateError(RuntimeError):
    """Steady-state solve failed (residual, degeneracy, or invalid state)."""


class IntegrationError(RuntimeError):
    """Time integration left the space of valid states."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state. Validated on construction."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = self.mat
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > HERM_TOL:
            raise ValueError(f"density matrix not Hermitian: defect {herm:.3e}")
        tr_err = abs(np.trace(m) - 1.0)
        if tr_err > TRACE_TOL:
            raise ValueError(f"density matrix trace deviates from 1 by {tr_err:.3e}")
        min_eig = float(np.linalg.eigvalsh(m).min())
        if min_eig < EIG_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class SteadyStateResult:
    state: DensityMatrix
    residual: float
    currents: HeatCurrents


def trace_distance(a: np.ndarray | DensityMatrix, b: np.ndarray | DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of the (Hermitian) difference."""
    ma = a.mat if isinstance(a, DensityMatrix) else a
    mb = b.mat if isinstance(b, DensityMatrix) else b
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(ma - mb))))


def steady_state(liouvillian: Liouvillian, tol: float = 1e-10) -> SteadyStateResult:
    """Unique stationary state as the null vector of the superoperator.

    The smallest right singular vector is reshaped, Hermitized and
    trace-normalized. Raises SteadyStateError if the residual stays above
    ``tol``, if the null space is degenerate (second singular value below
    ``DEGENERACY_TOL``), or if the resulting state violates the density
    matrix invariants.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _, s, vh = np.linalg.svd(liouvillian.matrix)
    if s[-2] < DEGENERACY_TOL:
        raise SteadyStateError(
            f"non-unique steady state: second singular value {s[-2]:.3e} below {DEGENERACY_TOL:.1e}"
        )
    rho = unvec(vh[-1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-8:
        raise SteadyStateError("no steady state at tolerance: null vector has near-zero trace")
    rho = rho / tr
    residual = float(np.linalg.norm(liouvillian.matrix @ vec(rho)))
    if residual > tol:
        raise SteadyStateError(f"no steady state at tolerance: residual {residual:.3e} > {tol:.1e}")
    try:
        state = DensityMatrix(rho)
    except ValueError as exc:
        raise SteadyStateError(f"steady state violates state invariants: {exc}") from exc
    currents = bath_currents(liouvillian.hamiltonian, liouvillian.channels, rho)
    imbalance = abs(currents.total())
    if imbalance > 1e-10 * max(1.0, max(abs(currents.j_l), abs(currents.j_m), abs(currents.j_r))):
        raise SteadyStateError(f"steady-state currents do not balance: sum {imbalance:.3e}")
    return SteadyStateResult(state=state, residual=residual, currents=currents)


def _check_state(rho: np.ndarray) -> str | None:
    """Mid-integration sanity check at 10x the state tolerances."""
    if not np.all(np.isfinite(rho)):
        return "state is not finite"
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > 10 * HERM_TOL:
        return f"hermiticity defect {herm:.3e}"
    tr_err = abs(np.trace(rho) - 1.0)
    if tr_err > 10 * TRACE_DRIFT_TOL:
        return f"trace drift {tr_err:.3e}"
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < 10 * EIG_FLOOR:
        return f"negative eigenvalue {min_eig:.3e}"
    return None


def evolve(
    rho0: DensityMatrix,
    liouvillian: Liouvillian,
    t_final: float,
    dt_max: float = 0.01,
) -> DensityMatrix:
    """Classical fixed-step RK4 integration of the master equation.

    Integrates d vec(rho)/dt = L vec(rho) from ``rho0`` to ``t_final`` with a
    uniform step no larger than ``dt_max``. State validity is monitored
    during the run; a breach raises IntegrationError (typically an unstable
    step size).
    """
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if dt_max <= 0:
        raise ValueError("dt_max must be positive")
    if rho0.dim != liouvillian.dim:
        raise ValueError(f"state dimension {rho0.dim} does not match generator dimension {liouvillian.dim}")
    steps = max(1, math.ceil(t_final / dt_max))
    dt = t_final / steps
    mat = liouvillian.matrix
    v = vec(rho0.mat).astype(complex)
    check_every = max(1, steps // 200)
    for i in range(steps):
        k1 = mat @ v
        k2 = mat @ (v + (0.5 * dt) * k1)
        k3 = mat @ (v + (0.5 * dt) * k2)
        k4 = mat @ (v + dt * k3)
        v += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (i + 1) % check_every == 0 or i + 1 == steps:
            problem = _check_state(unvec(v))
            if problem is not None:
                raise IntegrationError(
                    f"integration failed at t={(i + 1) * dt:.4g}: {problem}; try a smaller dt_max"
                )
    rho = unvec(v)
    drift = abs(np.trace(rho) - 1.0)
    if drift > TRACE_DRIFT_TOL:
        raise IntegrationError(f"trace drifted by {drift:.3e} over the run; try a smaller dt_max")
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return DensityMatrix(rho)
