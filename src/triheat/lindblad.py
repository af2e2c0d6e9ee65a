"""Master-equation generator: thermal factors, dissipators, and the superoperator.

The density matrix evolves as

    drho/dt = -i[H, rho] + sum_P kappa_P ( n_B L[P^dag] rho + (n_B+1) L[P] rho )

with L[A] rho = A rho A^dag - (1/2){A^dag A, rho} and n_B the Bose factor of
the bath at the channel's transition energy. ``rhs_apply`` is this operator
form, the reference for the matrix form. The matrix form acts on the
column-stacked vectorization of rho: vec(A rho B) = (B^T kron A) vec(rho).
The column-stacking convention is part of the contract; the row-stacked dual
would silently transpose every sandwich term.

The generator is affine in fixed terms, so every matrix is formed from one
sparse table: ``superoperator_terms`` gives each term's values at the
positions where some term is nonzero, ``generator_matrix`` scatters a
coefficient vector times that table into the dense matrix, and
``build_superoperator`` is that for one Hamiltonian and a list of channels.
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
NON_FINITE_GENERATOR = "generator has non-finite entries"


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


def channel_rates(delta_e: float, kappa: float, temperature: float) -> tuple[float, float]:
    """kappa*(n+1) for a channel's jump, then kappa*n for its adjoint (``superoperator_terms``' order)."""
    n = occupation(delta_e, temperature)
    return kappa * (n + 1.0), kappa * n


def lindblad_term(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """L[A] rho = A rho A^dag - (1/2){A^dag A, rho}."""
    ad = a.conj().T
    ada = ad @ a
    return a @ rho @ ad - 0.5 * (ada @ rho + rho @ ada)


def dissipator_apply(ch: BathChannel, rho: np.ndarray) -> np.ndarray:
    """Thermal dissipator of one channel applied to rho, or to each matrix of a stack (..., d, d)."""
    if rho.shape[-2:] != ch.jump.shape:
        raise ValueError(f"dissipator_apply: rho shape {rho.shape} vs jump {ch.jump.shape}")
    n = occupation(ch.delta_e, ch.temperature)
    return ch.kappa * (n * lindblad_term(ch.jump.conj().T, rho) + (n + 1.0) * lindblad_term(ch.jump, rho))


def rhs_apply(h: np.ndarray, channels: Sequence[BathChannel], rho: np.ndarray) -> np.ndarray:
    """Full right-hand side: -i[H, rho] plus every channel dissipator, of rho or of a stack (..., d, d)."""
    out = -1j * (h @ rho - rho @ h)
    for ch in channels:
        out = out + dissipator_apply(ch, rho)
    return out


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacked vectorization; a stack of matrices (..., d, d) gives a stack of vectors."""
    return np.swapaxes(rho, -1, -2).reshape(rho.shape[:-2] + (-1,))


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of ``vec``; a stack of vectors (..., dim*dim) gives a stack of matrices."""
    dim = math.isqrt(v.shape[-1])
    return np.swapaxes(v.reshape(v.shape[:-1] + (dim, dim)), -1, -2)


def superoperator_terms(
    hamiltonians: Sequence[np.ndarray], jumps: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of generator terms over column-stacked states, as one sparse table.

    The terms are -i[H, .] for each Hamiltonian, then L[A] and L[A^dag] for
    each jump A. Each is a sum of Kronecker products x kron y of d x d
    factors, whose entry (r, c) is x[r // d, c // d] * y[r % d, c % d]. The
    entries are read that way from the factors, only where both factor
    entries lie in the factors' joint nonzero pattern, so no d^2 x d^2 term
    is formed. Returns ``(positions, values)``: the ascending flat positions
    r * d^2 + c where some term is nonzero, and the (terms, positions) array
    of each term's values there. Every jump must have the Hamiltonians' shape.
    """
    shape = hamiltonians[0].shape
    for jump in jumps:
        if jump.shape != shape:
            raise ValueError(f"jump shape {jump.shape} does not match Hamiltonian shape {shape}")
    d = shape[0]
    eye = np.eye(d, dtype=complex)
    ops = [op for jump in jumps for op in (jump, jump.conj().T)]  # the A of each L[A] term
    # every factor below is the identity, an H, an A or an A^dag A, or the transpose or conjugate of one
    factors = [eye, *hamiltonians, *ops, *(a.conj().T @ a for a in ops)]
    support = np.logical_or.reduce([(f != 0) | (f.T != 0) for f in factors])
    flat = np.flatnonzero(np.kron(support, support))  # where some x kron y can be nonzero
    row, col = np.divmod(flat, d * d)

    def kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x[row // d, col // d] * y[row % d, col % d]

    values = [-1j * (kron(eye, h) - kron(h.T, eye)) for h in hamiltonians]
    for a in ops:
        ada = a.conj().T @ a
        values.append(kron(a.conj(), a) - 0.5 * kron(eye, ada) - 0.5 * kron(ada.T, eye))
    values = np.array(values)
    keep = values.any(axis=0)
    return flat[keep], values[:, keep]


def generator_matrix(positions: np.ndarray, values: np.ndarray, coef: Sequence[float], dim: int) -> np.ndarray:
    """The dense dim^2 x dim^2 matrix sum_c coef[c] * term_c of a ``superoperator_terms`` table.

    Raises ValueError if a coefficient is not finite, before the product
    would turn an infinite one times a zero entry into NaN.
    """
    coef = np.asarray(coef, dtype=complex)
    if not np.isfinite(coef).all():
        raise ValueError(NON_FINITE_GENERATOR)
    flat = np.zeros(dim**4, dtype=complex)
    flat[positions] = coef @ values
    return flat.reshape(dim * dim, dim * dim)


def build_superoperator(h: np.ndarray, channels: Sequence[BathChannel]) -> Liouvillian:
    """The dense matrix generator over column-stacked states, from ``superoperator_terms``."""
    coef = [1.0] + [rate for ch in channels for rate in channel_rates(ch.delta_e, ch.kappa, ch.temperature)]
    matrix = generator_matrix(*superoperator_terms([h], [ch.jump for ch in channels]), coef, h.shape[0])
    return Liouvillian(matrix=matrix, hamiltonian=h, channels=list(channels))
