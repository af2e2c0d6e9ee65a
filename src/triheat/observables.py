"""Heat currents and reduced-state diagnostics.

The current attributed to a bath is J = -Re Tr(H * D[rho]) summed over the
bath's channels (the middle bath owns two). With this sign, J > 0 means net
energy leaving the system into that bath. The imaginary part of the trace is
a pure numerical residue and is checked, not reported. Each subsystem's
populations are marginal sums of the state's real diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lindblad import dissipator_apply
from .model import BATHS, DIM, DIMS, BathChannel

IMAG_TOL = 1e-11


@dataclass(frozen=True)
class HeatCurrents:
    """Per-bath currents; at steady state they sum to zero."""

    j_l: float
    j_m: float
    j_r: float

    def total(self) -> float:
        return self.j_l + self.j_m + self.j_r


def heat_current(h: np.ndarray, channel_group: Sequence[BathChannel], rho: np.ndarray) -> float:
    """-Re Tr(H * sum of the group's dissipators applied to rho)."""
    d = np.zeros_like(rho)
    for ch in channel_group:
        d = d + dissipator_apply(ch, rho)
    val = -np.trace(h @ d)
    if abs(val.imag) > IMAG_TOL:
        raise ValueError(f"heat_current: imaginary residue {val.imag:.3e} exceeds {IMAG_TOL:.1e}; "
                         "inputs are numerically inconsistent")
    return float(val.real)


def bath_currents(h: np.ndarray, channels: Sequence[BathChannel], rho: np.ndarray) -> HeatCurrents:
    """Currents for the left bath, the middle bath (both transitions), and the right bath."""
    by_label = {ch.label: ch for ch in channels}
    return HeatCurrents(**{
        name: heat_current(h, [by_label[label] for label in labels], rho) for name, labels in BATHS.items()
    })


def reduced_populations(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level populations of the left, middle, and right subsystems, as marginal sums of rho's real diagonal."""
    if rho.shape != (DIM, DIM):
        raise ValueError(f"reduced_populations: rho must be {DIM}x{DIM}, got shape {rho.shape}")
    diagonal = np.real(np.diagonal(rho)).reshape(DIMS)
    return diagonal.sum(axis=(1, 2)), diagonal.sum(axis=(0, 2)), diagonal.sum(axis=(0, 1))
