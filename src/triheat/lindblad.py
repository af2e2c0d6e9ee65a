"""Master-equation generator: thermal factors, dissipators, and the superoperator.

The density matrix evolves as

    drho/dt = -i[H, rho] + sum_P kappa_P ( n_B L[P^dag] rho + (n_B+1) L[P] rho )

with L[A] rho = A rho A^dag - (1/2){A^dag A, rho} and n_B the Bose factor of
the bath at the channel's transition energy. The matrix form acts on the
column-stacked vectorization of rho: vec(A rho B) = (B^T kron A) vec(rho).
The column-stacking convention is part of the contract; the row-stacked dual
would silently transpose every sandwich term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import BathChannel

# exp(700) is near the float64 overflow edge; beyond it the occupation is
# indistinguishable from zero anyway.
_EXP_ARG_MAX = 700.0


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Matrix form of the generator over vectorized states (dim^2 x dim^2)."""

    matrix: np.ndarray
    hamiltonian: np.ndarray
    channels: list[BathChannel]

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def occupation(delta_e: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(delta_e/temperature) - 1)."""
    if delta_e <= 0:
        raise ValueError(f"occupation: transition energy must be positive, got {delta_e}")
    if temperature <= 0:
        raise ValueError(f"occupation: temperature must be positive, got {temperature}")
    x = delta_e / temperature
    if x > _EXP_ARG_MAX:
        return 0.0
    return 1.0 / math.expm1(x)


def lindblad_term(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """L[A] rho = A rho A^dag - (1/2){A^dag A, rho}."""
    ad = a.conj().T
    ada = ad @ a
    return a @ rho @ ad - 0.5 * (ada @ rho + rho @ ada)


def dissipator_apply(ch: BathChannel, rho: np.ndarray) -> np.ndarray:
    """Thermal dissipator of one channel applied to rho."""
    if rho.shape != ch.jump.shape:
        raise ValueError(f"dissipator_apply: rho shape {rho.shape} vs jump {ch.jump.shape}")
    n = occupation(ch.delta_e, ch.temperature)
    return ch.kappa * (n * lindblad_term(ch.jump.conj().T, rho) + (n + 1.0) * lindblad_term(ch.jump, rho))


def rhs_apply(h: np.ndarray, channels: Sequence[BathChannel], rho: np.ndarray) -> np.ndarray:
    """Full right-hand side: -i[H, rho] plus every channel dissipator."""
    out = -1j * (h @ rho - rho @ h)
    for ch in channels:
        out = out + dissipator_apply(ch, rho)
    return out


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacked vectorization."""
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of ``vec``; a stack of vectors (..., dim*dim) gives a stack of matrices."""
    dim = math.isqrt(v.shape[-1])
    return np.swapaxes(v.reshape(v.shape[:-1] + (dim, dim)), -1, -2)


def hamiltonian_superoperator(h: np.ndarray) -> np.ndarray:
    """Matrix of rho -> -i[H, rho] over column-stacked states."""
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def dissipator_superoperator(a: np.ndarray) -> np.ndarray:
    """Matrix of L[A] over column-stacked states."""
    eye = np.eye(a.shape[0], dtype=complex)
    ada = a.conj().T @ a
    return np.kron(a.conj(), a) - 0.5 * np.kron(eye, ada) - 0.5 * np.kron(ada.T, eye)


def build_superoperator(h: np.ndarray, channels: Sequence[BathChannel]) -> Liouvillian:
    """Assemble the dense matrix generator over column-stacked states."""
    mat = hamiltonian_superoperator(h)
    for ch in channels:
        n = occupation(ch.delta_e, ch.temperature)
        mat += ch.kappa * (n + 1.0) * dissipator_superoperator(ch.jump)
        mat += ch.kappa * n * dissipator_superoperator(ch.jump.conj().T)
    return Liouvillian(matrix=mat, hamiltonian=h, channels=list(channels))
