"""Model construction for the qubit-qutrit-qubit thermal chain.

The composite Hilbert space is 2 x 3 x 2 = 12 dimensional with basis
|L> ⊗ |M> ⊗ |R> ordered left factor slowest, right factor fastest:
basis index = (i*3 + j)*2 + k for left level i, middle level j, right
level k. Energies, couplings, rates and temperatures are all expressed
in units of the qubit level spacing (hbar = k_B = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


DIMS = (2, 3, 2)
DIM = 12


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


def local_hamiltonians(p: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal subsystem Hamiltonians (2x2, 3x3, 2x2), ground levels at 0."""
    h_left = np.diag([0.0, p.e1]).astype(complex)
    h_mid = np.diag([0.0, p.e2, p.e3]).astype(complex)
    h_right = np.diag([0.0, p.e4]).astype(complex)
    return h_left, h_mid, h_right


def free_hamiltonian(p: SystemParams) -> np.ndarray:
    """Sum of the lifted subsystem Hamiltonians; diagonal on the 12-dim space."""
    h_left, h_mid, h_right = local_hamiltonians(p)
    i2 = np.eye(2, dtype=complex)
    i3 = np.eye(3, dtype=complex)
    return (
        np.kron(np.kron(h_left, i3), i2)
        + np.kron(np.kron(i2, h_mid), i2)
        + np.kron(np.kron(i2, i3), h_right)
    )


def interaction_lm(p: SystemParams) -> np.ndarray:
    """Excitation exchange between the left qubit and the qutrit 0<->1 transition."""
    ops = transition_ops()
    i2 = np.eye(2, dtype=complex)
    term = np.kron(np.kron(ops.qubit_raise, ops.qutrit_lower_01), i2)
    return p.g_lm * (term + term.conj().T)


def interaction_mr(p: SystemParams) -> np.ndarray:
    """Excitation exchange between the qutrit 0<->1 transition and the right qubit."""
    ops = transition_ops()
    i2 = np.eye(2, dtype=complex)
    term = np.kron(np.kron(i2, ops.qutrit_lower_01), ops.qubit_raise)
    return p.g_mr * (term + term.conj().T)


def total_hamiltonian(p: SystemParams) -> np.ndarray:
    """Free part plus both exchange interactions; Hermitian by construction."""
    return free_hamiltonian(p) + interaction_lm(p) + interaction_mr(p)


def bath_channels(p: SystemParams) -> list[BathChannel]:
    """The four dissipation channels: left qubit, both qutrit transitions, right qubit.

    The middle bath drives the two qutrit transitions separately (energies e2
    and e3 - e2) sharing one rate and one temperature.
    """
    ops = transition_ops()
    i2 = np.eye(2, dtype=complex)
    i3 = np.eye(3, dtype=complex)
    return [
        BathChannel("L", np.kron(np.kron(ops.qubit_lower, i3), i2), p.e1, p.kappa_l, p.t_l),
        BathChannel("M1", np.kron(np.kron(i2, ops.qutrit_lower_01), i2), p.e2, p.kappa_m, p.t_m),
        BathChannel("M2", np.kron(np.kron(i2, ops.qutrit_lower_12), i2), p.e3 - p.e2, p.kappa_m, p.t_m),
        BathChannel("R", np.kron(np.kron(i2, i3), ops.qubit_lower), p.e4, p.kappa_r, p.t_r),
    ]


def gibbs_state(energies: list[float] | np.ndarray, temperature: float) -> np.ndarray:
    """Diagonal thermal state exp(-E_i/T)/Z for one subsystem."""
    w = np.exp(-np.asarray(energies, dtype=float) / temperature)
    return np.diag(w / w.sum()).astype(complex)
