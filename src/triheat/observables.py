"""Heat currents and reduced-state diagnostics.

The current attributed to a bath is J = -Re Tr(H * D[rho]) summed over the
bath's channels (the middle bath owns two). With this sign, J > 0 means net
energy leaving the system into that bath. The imaginary part of the trace is
a pure numerical residue and is checked, not reported.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lindblad import dissipator_apply
from .model import DIMS, BathChannel

_IMAG_TOL = 1e-11


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
    if abs(val.imag) > _IMAG_TOL:
        raise RuntimeError(
            f"heat_current: imaginary residue {val.imag:.3e} exceeds {_IMAG_TOL:.1e}; "
            "inputs are numerically inconsistent"
        )
    return float(val.real)


def bath_currents(h: np.ndarray, channels: Sequence[BathChannel], rho: np.ndarray) -> HeatCurrents:
    """Currents for the left bath, the middle bath (both transitions), and the right bath."""
    by_label = {ch.label: ch for ch in channels}
    return HeatCurrents(
        j_l=heat_current(h, [by_label["L"]], rho),
        j_m=heat_current(h, [by_label["M1"], by_label["M2"]], rho),
        j_r=heat_current(h, [by_label["R"]], rho),
    )


def partial_trace(rho: np.ndarray, dims: list[int], keep: int) -> np.ndarray:
    """Trace out every tensor factor except ``dims[keep]``.

    ``rho`` must act on the tensor-product space with factor dimensions
    ``dims`` (leftmost factor slowest, matching ``np.kron`` order). The result
    has dimension ``dims[keep]`` and the same trace as ``rho``.
    """
    dims = list(dims)
    n = len(dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(f"partial_trace: dims {dims} inconsistent with shape {rho.shape}")
    if not 0 <= keep < n:
        raise ValueError(f"partial_trace: keep index {keep} out of range for {n} subsystems")
    # rho as a 2n-index tensor: row indices a, b, c, ... and column indices
    # that repeat the row letters (summed) except at ``keep``.
    letters = string.ascii_lowercase
    rows = list(letters[:n])
    cols = [letters[n + i] if i == keep else rows[i] for i in range(n)]
    sub = "".join(rows) + "".join(cols) + "->" + rows[keep] + cols[keep]
    return np.einsum(sub, rho.reshape(tuple(dims) * 2))


def reduced_populations(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level populations of the left, middle, and right subsystems."""
    dims = list(DIMS)
    return tuple(np.real(np.diag(partial_trace(rho, dims, k))) for k in range(3))
