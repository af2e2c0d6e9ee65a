"""Model construction for the qubit-qutrit-qubit thermal chain.

The composite Hilbert space is 2 x 3 x 2 = 12 dimensional with basis
|L> ⊗ |M> ⊗ |R> ordered left factor slowest, right factor fastest:
basis index = (i*3 + j)*2 + k for left level i, middle level j, right
level k. Energies, couplings, rates and temperatures are all expressed
in units of the qubit level spacing (hbar = k_B = 1).

This module is the one place that states the chain's structure: the
parameters (``SystemParams``), the Hamiltonian as the affine sum
sum_c p.<HAMILTONIAN_FIELDS[c]> * H_c over the fixed ``hamiltonian_terms``,
the four channels (``CHANNEL_LABELS``, ``jump_operators``,
``channel_constants``) and which channels make up each bath (``BATHS``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np


DIMS = (2, 3, 2)
DIM = math.prod(DIMS)
# The parameters the Hamiltonian is linear in, in ``hamiltonian_terms`` order.
HAMILTONIAN_FIELDS = ("e1", "e2", "e3", "e4", "g_lm", "g_mr")
CHANNEL_LABELS = ("L", "M1", "M2", "R")
# The channels each bath's heat current sums over, keyed by the current's
# name: the middle bath drives both qutrit transitions.
BATHS = {"j_l": ("L",), "j_m": ("M1", "M2"), "j_r": ("R",)}


@dataclass(frozen=True)
class SystemParams:
    """All model constants.

    e1: left qubit excited level; e2, e3: middle qutrit levels 1 and 2;
    e4: right qubit excited level (ground levels sit at zero energy).
    g_lm, g_mr: nearest-neighbour exchange couplings. kappa_*: bath
    dissipation rates. t_*: bath temperatures.
    """

    e1: float = 1.0
    e2: float = 1.0
    e3: float = 3.0
    e4: float = 1.0
    g_lm: float = 0.1
    g_mr: float = 0.1
    kappa_l: float = 0.05
    kappa_m: float = 0.02
    kappa_r: float = 0.05
    t_l: float = 1.0
    t_m: float = 1.0
    t_r: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not (self.e1 > 0 and self.e2 > 0 and self.e4 > 0):
            raise ValueError("qubit/qutrit excitation energies must be positive")
        if not self.e3 > self.e2:
            raise ValueError("upper qutrit level e3 must lie above e2")
        if self.g_lm < 0 or self.g_mr < 0:
            raise ValueError("couplings must be nonnegative")
        if not (self.kappa_l > 0 and self.kappa_m > 0 and self.kappa_r > 0):
            raise ValueError("dissipation rates must be positive")
        if not (self.t_l > 0 and self.t_m > 0 and self.t_r > 0):
            raise ValueError("bath temperatures must be positive")


@dataclass(frozen=True, eq=False)
class BathChannel:
    """One thermal dissipation channel acting on the full 12-dim space.

    ``jump`` is the lifted lowering operator, ``delta_e`` the transition
    energy it carries, ``kappa`` the dissipation rate and ``temperature``
    the bath temperature.
    """

    label: str
    jump: np.ndarray
    delta_e: float
    kappa: float
    temperature: float

    def __post_init__(self) -> None:
        if self.delta_e <= 0 or self.kappa <= 0 or self.temperature <= 0:
            raise ValueError(f"channel {self.label}: delta_e, kappa, temperature must be positive")


class TransitionOps(NamedTuple):
    qubit_lower: np.ndarray      # |0><1| on a qubit
    qubit_raise: np.ndarray      # |1><0| on a qubit
    qutrit_lower_01: np.ndarray  # |0><1| on the qutrit
    qutrit_lower_12: np.ndarray  # |1><2| on the qutrit
    qutrit_raise_01: np.ndarray  # |1><0| on the qutrit
    qutrit_raise_12: np.ndarray  # |2><1| on the qutrit


def transition_ops() -> TransitionOps:
    """Bare lowering/raising operators for the qubit and qutrit factors."""
    sm = np.zeros((2, 2), dtype=complex)
    sm[0, 1] = 1.0
    o01 = np.zeros((3, 3), dtype=complex)
    o01[0, 1] = 1.0
    o12 = np.zeros((3, 3), dtype=complex)
    o12[1, 2] = 1.0
    return TransitionOps(sm, sm.conj().T, o01, o12, o01.conj().T, o12.conj().T)


def _lift(left: np.ndarray, mid: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Tensor product of one operator per factor, in basis order."""
    return np.kron(np.kron(left, mid), right)


def _exchange(left: np.ndarray, mid: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Hermitian exchange term T + T^dag with T the lifted product."""
    term = _lift(left, mid, right)
    return term + term.conj().T


def hamiltonian_terms() -> tuple[np.ndarray, ...]:
    """The fixed operators H_c of ``total_hamiltonian``, in ``HAMILTONIAN_FIELDS`` order.

    The projectors onto the excited levels carrying e1, e2, e3 and e4, then
    the unit-strength exchanges of the left qubit and of the right qubit with
    the qutrit's 0<->1 transition.
    """
    ops = transition_ops()
    i2 = np.eye(2, dtype=complex)
    i3 = np.eye(3, dtype=complex)
    up = np.diag([0.0, 1.0]).astype(complex)
    return (
        _lift(up, i3, i2),
        _lift(i2, np.diag([0.0, 1.0, 0.0]).astype(complex), i2),
        _lift(i2, np.diag([0.0, 0.0, 1.0]).astype(complex), i2),
        _lift(i2, i3, up),
        _exchange(ops.qubit_raise, ops.qutrit_lower_01, i2),
        _exchange(i2, ops.qutrit_lower_01, ops.qubit_raise),
    )


def total_hamiltonian(p: SystemParams) -> np.ndarray:
    """sum_c p.<HAMILTONIAN_FIELDS[c]> * H_c over ``hamiltonian_terms``; Hermitian by construction."""
    return sum(getattr(p, name) * term for name, term in zip(HAMILTONIAN_FIELDS, hamiltonian_terms()))


def jump_operators() -> tuple[np.ndarray, ...]:
    """Lifted lowering operators of the channels, in ``CHANNEL_LABELS`` order."""
    ops = transition_ops()
    i2 = np.eye(2, dtype=complex)
    i3 = np.eye(3, dtype=complex)
    return (
        _lift(ops.qubit_lower, i3, i2),
        _lift(i2, ops.qutrit_lower_01, i2),
        _lift(i2, ops.qutrit_lower_12, i2),
        _lift(i2, i3, ops.qubit_lower),
    )


def channel_constants(p: SystemParams) -> tuple[tuple[float, float, float], ...]:
    """(transition energy, rate, temperature) of each channel, in ``CHANNEL_LABELS`` order.

    The middle bath drives the two qutrit transitions separately (energies e2
    and e3 - e2) sharing one rate and one temperature.
    """
    return (
        (p.e1, p.kappa_l, p.t_l),
        (p.e2, p.kappa_m, p.t_m),
        (p.e3 - p.e2, p.kappa_m, p.t_m),
        (p.e4, p.kappa_r, p.t_r),
    )


def bath_channels(p: SystemParams) -> list[BathChannel]:
    """The four dissipation channels: left qubit, both qutrit transitions, right qubit."""
    return [
        BathChannel(label, jump, *constants)
        for label, jump, constants in zip(CHANNEL_LABELS, jump_operators(), channel_constants(p))
    ]


def gibbs_state(energies: list[float] | np.ndarray, temperature: float) -> np.ndarray:
    """Diagonal thermal state exp(-E_i/T)/Z for one subsystem."""
    w = np.exp(-np.asarray(energies, dtype=float) / temperature)
    return np.diag(w / w.sum()).astype(complex)
