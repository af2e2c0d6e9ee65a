"""Steady-state and time-domain solvers for the master equation.

``steady_state`` and ``evolve`` consume the one dense generator matrix,
which ``chain_liouvillian`` forms from the chain's term table
``generator_table`` (``build_superoperator`` does so for any other system),
and differ only in algorithm: an algebraic null-space solve (SVD, smallest
singular vector) and a classical fixed-step RK4 integration of
d vec(rho)/dt = L vec(rho). L is linear, so ``evolve`` builds one real RK4
step matrix on the real coordinates (``StateSupport``) of the entries the
initial state can reach through L, powers it from one state check to the
next, and carries each interval's checked states on with one product.
``evolve`` and the block engine below judge a state by one check on its
real coordinates, ``StateSupport.broken_bounds``, which decides positivity
without eigenvalues: Gershgorin's discs clear most states, and LDL^H
pivots decide the rest; ``eigvalsh`` only words a failure. The states are
Hermitian by construction: the Hermiticity bound applies once per run to
``evolve``'s generator, and to every ``DensityMatrix``. The tests check
``evolve`` against the SVD solve, explicit RK4 steps and a loop of
one-interval ``evolve`` calls, and the matrix itself against ``rhs_apply``.

``steady_states`` is the batched engine that every steady state of the
CLI comes from (``sweep``, ``steady`` and ``check``); the SVD
``steady_state`` is its oracle in the tests. It returns one
``SteadyStates`` record of arrays, one row per point, which the sweep and
the CLI read by column. It uses two facts about the
chain. The generator is affine in the parameters: L(p) = sum_c coef_c(p) *
S_c over 14 fixed terms, the six Hamiltonian terms and kappa*(n+1), kappa*n
for each of the four channels. And the terms share a sparse nonzero
pattern, 544 of the 144^2 entries, where the term table holds them: its
connected components split the 144 entries of vec(rho) into
19 blocks that no coefficient can couple. One block of 26 entries holds
every population and so the steady state; the other 18 are nine pairs of
transpose mirrors (rho[a, b] and rho[b, a]) with equal singular values, of
which one each is kept. Each block lies inside one coherence order
N(a) - N(b), the excitation-number symmetry the chain's H and jumps
respect. The null block is held in the orthonormal Hermitian basis
{E_aa, (E_ab + E_ba)/sqrt 2, i (E_ab - E_ba)/sqrt 2}, where it is a real
matrix: the change of basis is unitary, so it keeps every singular value, and
the identity on populations, so it keeps the trace row. So a chunk of points
is assembled with two real matrix products, its null vectors come from one
batched real inverse of the trace-pinned 26-row block, and every check
``steady_state`` makes is kept per point with the same bound. Uniqueness
is certified rather than measured: the gap is a lower bound on the
generator's second singular value, the least of each block's floor. The
null block's floor is read off the inverse the solve forms
(``pinned_floors``), and a coherence block's is Johnson's bound on its
smallest singular value, read off its entries. A block's SVD runs
only at the points where its floor does not clear ``DEGENERACY_TOL``, so a
point is non-unique exactly when a computed singular value is below the
bound, as in ``steady_state``. On the shipped figure grids that is no
point and no block, so a figure pass makes no SVD.
With more than one thread, a pool maps the same chunks.

Every heat current of the CLI, ``triheat evolve``'s included, comes from
``BlockEngine.heat_currents``, whose linear functionals, one per
Hamiltonian and dissipator term, read only the null block's real
coordinates. So every such current is computed in real arithmetic, with
no imaginary residue to bound; the tests' operator form ``bath_currents``
still bounds its own.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lindblad import NON_FINITE_GENERATOR, Liouvillian, channel_rates, generator_matrix, superoperator_terms, unvec, vec
from .model import (
    BATHS,
    CHANNEL_LABELS,
    DIM,
    HAMILTONIAN_FIELDS,
    SystemParams,
    bath_channels,
    channel_constants,
    hamiltonian_terms,
    jump_operators,
    total_hamiltonian,
)
from .observables import HeatCurrents, bath_currents

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10
DEGENERACY_TOL = 1e-10
RESIDUAL_TOL = 1e-10  # ||L vec(rho)|| of the trace-normalized steady state
TRACE_DRIFT_TOL = 1e-9
NULL_TRACE_FLOOR = 1e-8  # |trace| of the unit-norm null vector below this: no state
BALANCE_TOL = 1e-10  # see balanced
# Points per batched solve. At one BLAS thread, `steady_states` on the 1160
# figure points took 55-60, 60-62 and 66-104 ms at 32, 64 and 16 points (best of 5,
# three rounds each). There the assembled null blocks of all 1160 points have
# the same bits at batch sizes 2, 3, 8, 16, 64, 128 and 1160 as at 32, but not
# at 1 (numpy's matrix-vector path): 20 rows match. The coherence entries match
# at 2 to 16 and differ at 64 and more, but they only bound singular values, and
# every point's state, residual and currents are bit-identical at CHUNK = 8, 16,
# 64 and 128. So only a lone point, `triheat steady`'s or the last of a grid of
# 32k + 1 points, can differ in its last bits from the same point in a chunk.
CHUNK = 32
_HALF_ROOT = math.sqrt(0.5)  # the Hermitian basis's coherence weight, 1 / sqrt 2


def balanced(currents: np.ndarray) -> np.ndarray:
    """Whether |J_L + J_M + J_R| <= BALANCE_TOL * max(1, max|J|), per (..., 3) row; a NaN imbalance fails."""
    return np.abs(currents.sum(axis=-1)) <= BALANCE_TOL * np.maximum(1.0, np.abs(currents).max(axis=-1))


class SteadyStateError(RuntimeError):
    """Steady-state solve failed; ``reason`` names the check that failed.

    Reasons: non_unique, zero_trace, residual, invalid_state, unbalanced,
    and from the batched engine also non_finite and singular.
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


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
        if not np.isfinite(m).all():
            raise ValueError("density matrix has non-finite entries")
        defects = _state_defects(m)
        broken = [not defects[0] <= HERM_TOL, not defects[1] <= TRACE_TOL, not defects[2] >= EIG_FLOOR]
        if any(broken):  # the first bound broken
            raise ValueError(_STATE_BOUNDS[broken.index(True)].format(defects[broken.index(True)]))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


def _state_defects(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermiticity defect, trace error and smallest eigenvalue of a matrix or a stack of them."""
    herm = np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), axis=(-2, -1))
    tr_err = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)
    return herm, tr_err, np.linalg.eigvalsh(m).min(axis=-1)


# each density-matrix bound's failure, in the order of _state_defects; StateSupport.broken_bounds checks the last two
_STATE_BOUNDS = ("density matrix not Hermitian: defect {:.3e}", "density matrix trace deviates from 1 by {:.3e}",
                 "density matrix has negative eigenvalue {:.3e}")


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


def steady_state(liouvillian: Liouvillian) -> SteadyStateResult:
    """Unique stationary state as the null vector of the superoperator.

    The smallest right singular vector is reshaped, Hermitized and
    trace-normalized. Raises SteadyStateError if the null space is
    degenerate (second singular value below ``DEGENERACY_TOL``), if the
    residual ||L vec(rho)|| is above ``RESIDUAL_TOL`` or overflows, if the resulting
    state violates the density matrix invariants, or if its currents do not
    balance within ``BALANCE_TOL``.
    """
    _, s, vh = np.linalg.svd(liouvillian.matrix)
    if s[-2] < DEGENERACY_TOL:
        raise SteadyStateError(_NON_UNIQUE.format(s[-2]), "non_unique")
    rho = unvec(vh[-1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < NULL_TRACE_FLOOR:
        raise SteadyStateError(_ZERO_TRACE, "zero_trace")
    rho = rho / tr
    with np.errstate(over="ignore", invalid="ignore"):  # finite entries can still overflow the product
        residual = float(np.linalg.norm(liouvillian.matrix @ vec(rho)))
    if not residual <= RESIDUAL_TOL:
        raise SteadyStateError(
            _RESIDUAL.format(residual, RESIDUAL_TOL) if math.isfinite(residual) else _RESIDUAL_OVERFLOW, "residual"
        )
    try:
        state = DensityMatrix(rho)
    except ValueError as exc:
        raise SteadyStateError(f"{_INVALID_STATE}{exc}", "invalid_state") from exc
    currents = bath_currents(liouvillian.hamiltonian, liouvillian.channels, rho)
    if not balanced(np.array([currents.j_l, currents.j_m, currents.j_r])):
        raise SteadyStateError(_UNBALANCED.format(abs(currents.total())), "unbalanced")
    return SteadyStateResult(state=state, residual=residual, currents=currents)


_NON_UNIQUE = "non-unique steady state: second singular value {:.3e} below " + f"{DEGENERACY_TOL:.1e}"
_ZERO_TRACE = "no steady state at tolerance: null vector has near-zero trace"
_RESIDUAL = "no steady state at tolerance: residual {:.3e} > {:.1e}"  # RESIDUAL_TOL is formatted in on raise
_RESIDUAL_OVERFLOW = "no steady state: the residual overflows; the generator's entries are too large"
_INVALID_STATE = "steady state violates state invariants: "
_UNBALANCED = "steady-state currents do not balance: sum {:.3e}"


@dataclass(frozen=True, eq=False)
class SteadyStates:
    """A batched solve's results as columns, one row per point.

    ``x`` (n, 26) holds each state's support vector on the engine's null
    block, and ``rho(k)`` scatters row k into the 12 x 12 state; 26 entries
    take a fifth of the memory of 144. ``currents`` (n, 3) holds J_L, J_M,
    J_R in ``BATHS`` order. ``errors[k]`` is the check point k failed, or
    None, and a failed point's ``x``, ``residual`` and ``currents`` are NaN.
    ``gap`` is a certified lower bound on the generator's second-smallest
    singular value, the least of its blocks' floors, where a block whose
    floor does not clear ``DEGENERACY_TOL`` counts with its computed
    singular value less that value's rounding allowance (NaN when the point
    failed before it was bounded).
    """

    x: np.ndarray
    residual: np.ndarray
    currents: np.ndarray
    gap: np.ndarray
    errors: list[SteadyStateError | None]

    def rho(self, k: int) -> np.ndarray:
        """Point k's steady state as a dim x dim matrix."""
        return block_engine().layout.matrices(self.x[k])


def generator_coefficients(p: SystemParams) -> list[float]:
    """coef_c(p) of the 14 generator terms, in ``generator_table`` order."""
    coef = [float(getattr(p, name)) for name in HAMILTONIAN_FIELDS]
    for delta_e, kappa, temperature in channel_constants(p):
        coef += channel_rates(delta_e, kappa, temperature)
    return coef


@functools.cache
def generator_table() -> tuple[np.ndarray, np.ndarray]:
    """The chain's 14 generator terms as one ``superoperator_terms`` table, built on first use.

    Term c is the c-th Hamiltonian term's commutator for c < 6, then the
    dissipators of each channel's jump and of its adjoint, the order of
    ``generator_coefficients``. Every caller shares the arrays, so they are
    read-only.
    """
    table = superoperator_terms(hamiltonian_terms(), jump_operators())
    for array in table:
        array.flags.writeable = False
    return table


def chain_liouvillian(p: SystemParams) -> Liouvillian:
    """The chain's generator at one parameter point, as coefficients times ``generator_table``."""
    matrix = generator_matrix(*generator_table(), generator_coefficients(p), DIM)
    return Liouvillian(matrix=matrix, hamiltonian=total_hamiltonian(p), channels=bath_channels(p))


# Each bath's dissipator terms, as a (3, 8) mask: channel k owns terms 2k (its jump) and 2k + 1 (the adjoint).
_BATH_TERMS = np.array([
    [CHANNEL_LABELS[d // 2] in labels for d in range(2 * len(CHANNEL_LABELS))] for labels in BATHS.values()
])


def connected_components(link: np.ndarray) -> list[np.ndarray]:
    """The connected components of the graph whose edges are the True entries of a square link matrix.

    An edge joins i and j when link[i, j] or link[j, i]. Each component is
    an ascending index array, and they come in the order of their lowest
    index; an index with no edge is a component of its own.
    """
    link = link | link.T
    label = np.arange(len(link))
    while True:  # each index takes the lowest label among its neighbours until none changes
        lowest = np.minimum(label, np.where(link, label, len(link)).min(axis=1))
        if np.array_equal(lowest, label):
            break
        label = lowest
    return [np.flatnonzero(label == root) for root in np.flatnonzero(label == np.arange(len(link)))]


class BlockEngine:
    """The chain's generator as the exact blocks of the 14 terms of ``generator_table``.

    The blocks are the connected components of the entries that are
    nonzero in some term, so no choice of coefficients couples two of them.
    L(rho^dagger) = L(rho)^dagger takes each component to its transpose
    mirror, whose block is the conjugate one with its entries reordered and
    so has the same singular values; one component of each mirror pair is
    kept, and every self-mirrored one. Block 0 is the null block, the one component that
    holds every population (26 rows for the chain); the others have 19,
    10, 10, 7, 5, 5, 1, 1 and 1 rows. The null block's terms are held as
    real matrices in the Hermitian basis of its support ``layout``, the
    coherence blocks' as their complex entries side by side.
    """

    def __init__(self) -> None:
        positions, values = generator_table()
        pattern = np.zeros((DIM * DIM, DIM * DIM), dtype=bool)
        pattern.flat[positions] = True
        row, col = (vec(m) for m in np.indices((DIM, DIM)))  # vec(rho)[v] = rho[row[v], col[v]]
        partner = vec(unvec(np.arange(DIM * DIM)).T)  # position of rho[b, a] for each entry rho[a, b]
        # a component is kept unless its mirror starts at a lower index
        kept = [c for c in connected_components(pattern) if partner[c].min() >= c[0]]
        holding = [c for c in kept if (row[c] == col[c]).any()]
        if len(holding) != 1:
            raise RuntimeError(f"the generator terms split the {DIM} populations over {len(holding)} blocks")
        self.index = holding + [c for c in kept if c is not holding[0]]
        self.sizes = [len(idx) for idx in self.index]
        self.bounds = np.cumsum([0] + [m * m for m in self.sizes])
        # every block's entries in one gather; an entry off the table reads the appended zero column
        column = np.full(DIM**4, len(positions))
        column[positions] = np.arange(len(positions))
        flat = np.concatenate([np.add.outer(idx * DIM * DIM, idx).ravel() for idx in self.index])
        terms = np.take(np.concatenate([values, np.zeros((len(values), 1))], axis=1), column[flat], axis=1)

        # The null block in its support's Hermitian basis U. Each term maps Hermitian matrices to Hermitian
        # ones, so U^H T_c U is real, and a population keeps its position, so the trace row and the pinned row
        # read the same indices in both.
        m = self.sizes[0]
        self.layout = StateSupport(self.index[0], DIM)  # the null block is its own mirror
        basis = self.layout.basis
        null = basis.conj().T @ terms[:, : m * m].reshape(-1, m, m) @ basis
        # both tables C-contiguous: assemble's products round a strided operand differently
        self.null_terms = np.ascontiguousarray(null.real.reshape(-1, m * m))
        self.coherence_terms = np.ascontiguousarray(terms[:, m * m:])
        # the kept coherence blocks' entries side by side, each block row by row, for singular_floors
        entries = [np.arange(lo, hi).reshape(m, m) - self.bounds[1]
                   for lo, hi, m in zip(self.bounds[1:-1], self.bounds[2:], self.sizes[1:])]
        self.row_starts = np.concatenate([e[:, 0] for e in entries])
        self.diagonal_entries = np.concatenate([np.diagonal(e) for e in entries])
        self.transposed_entries = np.concatenate([e.T.ravel() for e in entries])  # each block's columns as rows
        self.block_rows = np.cumsum([0] + self.sizes[1:-1])

        # functionals[c, d] . y = -Tr(H_c S_d[rho]) for Hamiltonian term c, dissipator term d and the real
        # coordinates y of rho: Tr(H X) = vec(H^T) . vec(X), every nonzero entry of H_c lies in the null block,
        # and there S_d = U N_d U^H, so the row is -r_c N_d with r_c = vec(H_c^T) U, real as H_c is Hermitian.
        r = (np.array([vec(h.T)[self.index[0]] for h in hamiltonian_terms()]) @ basis).real
        self.functionals = -np.einsum("ci,dij->cdj", r, self.null_terms[len(HAMILTONIAN_FIELDS):].reshape(-1, m, m))

    def heat_currents(self, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The real currents J_L, J_M, J_R of states given as null-block support vectors, one row per state.

        ``coef`` holds each state's 14 generator coefficients, one row per
        state or one row for all. J_P = sum_c sum_{d in P} coef_c coef_d *
        functionals[c, d] . y, with y = Re(U^H x) the state's real coordinates
        in the Hermitian basis, exact for any state, since no functional
        reads an entry outside the null block. A non-Hermitian x is read
        through its Hermitian part, whose coordinates y are.
        """
        y = self.layout.coordinates(x)
        h_coef, d_coef = coef[:, : len(HAMILTONIAN_FIELDS)], coef[:, len(HAMILTONIAN_FIELDS):]
        terms = np.einsum("cdk,nk->ncd", self.functionals, y) * h_coef[:, :, None] * d_coef[:, None, :]
        return np.stack([terms[:, :, bath].sum(axis=(1, 2)) for bath in _BATH_TERMS], axis=1)

    def assemble(self, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The real (n, m, m) null blocks and the (n, k) coherence entries of an (n, 14) coefficient array.

        The null blocks are in the Hermitian basis ``layout.basis``; the coherence
        entries are the kept coherence blocks side by side, each row by row,
        and ``coherence_blocks`` reads them as matrices.
        """
        # an infinite coefficient times a zero entry is NaN; solve_blocks fails that point alone.
        # A real coefficient times a complex table is one real product on the table's float view.
        with np.errstate(invalid="ignore", over="ignore"):
            null = coef @ self.null_terms
            coherence = (coef @ self.coherence_terms.view(float)).view(complex)
        return null.reshape(len(coef), self.sizes[0], self.sizes[0]), coherence

    def coherence_blocks(self, coherence: np.ndarray) -> list[np.ndarray]:
        """The (n, m, m) stacks of the kept coherence blocks, from ``assemble``'s (n, k) coherence entries."""
        offsets = self.bounds[1:] - self.bounds[1]
        return [coherence[:, lo:hi].reshape(-1, m, m) for lo, hi, m in zip(offsets, offsets[1:], self.sizes[1:])]

    def singular_floors(self, coherence: np.ndarray) -> np.ndarray:
        """Per point, a lower bound on each coherence block's smallest singular value, exact or computed.

        One row per point of ``assemble``'s coherence entries and one column
        per kept block after the null block.
        Johnson's bound (Linear Algebra Appl. 112, 1 (1989)): sigma_min(B) >=
        min_i (|b_ii| - (r_i + c_i) / 2), where r_i and c_i are the absolute
        sums of row i and column i off the diagonal. It is lowered by 8 m eps
        times the block's largest |b_ii| + r_i + c_i, which bounds ||B||_2:
        that covers the rounding of the sums, about 2 m eps of it, and the
        error of a computed SVD, a modest multiple of eps ||B||_2. Where a
        magnitude overflows, the floor is -inf or NaN, never a number that
        rules a block out. Every block of every point is bounded at once,
        from the blocks' entries side by side.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.abs(coherence)
            diagonal = a[:, self.diagonal_entries]
            a[:, self.diagonal_entries] = 0.0
            off = (np.add.reduceat(a, self.row_starts, axis=1)
                   + np.add.reduceat(a[:, self.transposed_entries], self.row_starts, axis=1))
            floor = np.minimum.reduceat(diagonal - 0.5 * off, self.block_rows, axis=1)
            size = np.maximum.reduceat(diagonal + off, self.block_rows, axis=1)
            return floor - 8 * np.finfo(float).eps * np.array(self.sizes[1:]) * size

    def solve_blocks(self, null: np.ndarray, coherence: np.ndarray, coef: np.ndarray) -> SteadyStates:
        """Steady states from ``assemble``'s blocks, one row per point; a point that fails any check fails alone.

        The checks and bounds are ``steady_state``'s, in its order, the state's
        by ``StateSupport.broken_bounds`` on its real coordinates: the state
        U y is Hermitian by construction. Each runs only on the points that
        passed the ones before it, so a bad point cannot spoil its neighbours.
        The null vector is solved for in the real Hermitian basis, whose
        change of basis U is unitary: every singular value, norm and floor is
        the one of the block on vec(rho)'s entries.
        """
        n = len(coef)
        errors: list[SteadyStateError | None] = [None] * n
        gaps = np.full(n, math.nan)
        alive = np.arange(n)

        def drop(bad: np.ndarray, reason: str, message) -> None:
            nonlocal alive
            if not bad.any():
                return
            for k in np.flatnonzero(bad):
                errors[alive[k]] = SteadyStateError(message(k), reason)
            alive = alive[~bad]

        finite = np.isfinite(null).all(axis=(1, 2)) & np.isfinite(coherence).all(axis=1)
        drop(~finite, "non_finite", lambda k: NON_FINITE_GENERATOR)

        # Null vector: replace one population's row by the trace condition. The
        # population rows sum to zero (L preserves the trace), so the row
        # dropped is implied by the rest, and column `pinned` of the inverse
        # is the null vector of unit trace. U is the identity on populations,
        # so this system is U^H S U for the trace-pinned system S on vec(rho).
        diagonal = self.layout.diagonal
        pinned = diagonal[0]
        system = null[alive]
        system[:, pinned, :] = 0.0
        system[:, pinned, diagonal] = 1.0
        inverse, singular = _batched_inverse(system)

        # The gap: a lower bound on the full generator's second-smallest
        # singular value, the least of the blocks' floors. A block is measured
        # only at the points where its floor does not clear DEGENERACY_TOL, so
        # every block that could break uniqueness is, and the verdict is that
        # of the computed singular values, as in steady_state.
        floors = np.column_stack([pinned_floors(system, inverse), self.singular_floors(coherence)[alive]])
        least = np.full(len(alive), np.inf)  # the least singular value measured
        for j in range(len(self.sizes)):
            measure = np.flatnonzero(~(floors[:, j] >= DEGENERACY_TOL))
            if measure.size:
                points = alive[measure]
                block = null[points] if j == 0 else self.coherence_blocks(coherence[points])[j - 1]
                s, floors[measure, j] = _measured(block, -2 if j == 0 else -1)
                least[measure] = np.minimum(least[measure], s)
        gaps[alive] = floors.min(axis=1)
        unique = ~(least < DEGENERACY_TOL)
        drop(~unique, "non_unique", lambda k: _NON_UNIQUE.format(least[k]))
        singular, inverse = singular[unique], inverse[unique]
        drop(singular, "singular", lambda k: "no steady state: the trace-pinned null-space system is singular")
        y = inverse[~singular, :, pinned]  # the real coordinates of the null vector

        tr = y[:, diagonal].sum(axis=1)
        unit_trace = np.abs(tr) / np.linalg.norm(y, axis=1)
        keep = unit_trace >= NULL_TRACE_FLOOR
        drop(~keep, "zero_trace", lambda k: _ZERO_TRACE)
        y = y[keep] / tr[keep, None]

        with np.errstate(over="ignore", invalid="ignore"):  # finite entries can still overflow the product
            residual = np.linalg.norm(np.einsum("nij,nj->ni", null[alive], y), axis=1)
        keep = residual <= RESIDUAL_TOL
        drop(~keep, "residual",
             lambda k: _RESIDUAL.format(residual[k], RESIDUAL_TOL) if np.isfinite(residual[k]) else _RESIDUAL_OVERFLOW)
        y, residual = y[keep], residual[keep]

        # the last two of _STATE_BOUNDS; only a failing state is measured, to word it
        broken = self.layout.broken_bounds(y, TRACE_TOL, EIG_FLOOR)
        bound, keep = 1 + broken.argmax(axis=0), ~broken.any(axis=0)
        drop(~keep, "invalid_state", lambda k: _INVALID_STATE + _STATE_BOUNDS[bound[k]].format(
            _state_defects(self.layout.matrices(self.layout.hermitian(y[k])))[bound[k]]))
        x, residual = self.layout.hermitian(y[keep]), residual[keep]

        currents = self.heat_currents(coef[alive], x)
        keep = balanced(currents)
        drop(~keep, "unbalanced", lambda k: _UNBALANCED.format(abs(currents[k].sum())))

        def rows(column: np.ndarray) -> np.ndarray:  # the survivors' values at their points, NaN at the failed ones
            out = np.full((n, *column.shape[1:]), math.nan, dtype=column.dtype)
            out[alive] = column[keep]
            return out

        if len(alive) < n:
            x, residual, currents = map(rows, (x, residual, currents))
        return SteadyStates(x, residual, currents, gaps, errors)


def pinned_floors(system: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Per point, a lower bound on the null block's second-smallest singular value, from its trace-pinned system.

    The trace-pinned system S is the null block B with one row replaced, a
    rank-one change, so the singular values interlace: sigma_2(B) >=
    sigma_min(S) >= 1 / ||S^-1||_F. The computed inverse X has a relative
    error of a modest multiple of m eps ||S|| ||S^-1||, so the bound is
    (1 - 8 m eps ||S||_F ||X||_F) / ||X||_F, which also covers the error of
    a computed SVD of B. A singular S (a NaN inverse) or an overflowing norm
    gives NaN or a floor at most 0, never a number that rules the block out.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        size = np.linalg.norm(inverse, axis=(1, 2))
        return 1.0 / size - 8 * system.shape[-1] * np.finfo(float).eps * np.linalg.norm(system, axis=(1, 2))


def _measured(stack: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Singular value k of each matrix of a stack as computed, and a lower bound on the exact one.

    A computed SVD is within a modest multiple of eps ||B||_2 of the exact
    values, which 8 m eps ||B||_F bounds, as in the floors; where the norm
    overflows, the bound is -inf.
    """
    s = np.linalg.svd(stack, compute_uv=False)[:, k]
    with np.errstate(over="ignore"):
        return s, s - 8 * stack.shape[-1] * np.finfo(float).eps * np.linalg.norm(stack, axis=(1, 2))


def _batched_inverse(system: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert a stack; numpy fails the whole stack on one singular matrix, so retry those alone, each left NaN."""
    singular = np.zeros(len(system), dtype=bool)
    try:
        return np.linalg.inv(system), singular
    except np.linalg.LinAlgError:
        pass
    inverse = np.full_like(system, np.nan)
    for k in range(len(system)):
        try:
            inverse[k] = np.linalg.inv(system[k])
        except np.linalg.LinAlgError:
            singular[k] = True
    return inverse, singular


@functools.cache
def block_engine() -> BlockEngine:
    """The one engine of the process, built on first use rather than at import."""
    return BlockEngine()


def steady_states(points: Sequence[SystemParams], threads: int = 1) -> SteadyStates:
    """Steady states of many points, solved in chunks of ``CHUNK`` by the block engine.

    The checks and bounds are ``steady_state``'s, the residual bound
    ``RESIDUAL_TOL`` included. A point that fails a check gets an
    ``errors`` entry that names the check and NaN rows; the others are
    unaffected. ``steady_state`` is the reference. With more than one
    thread, a pool of that many maps the same chunks, which are joined in
    the order of ``points``, so the rows never depend on the thread count.
    No points give no rows.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    engine = block_engine()  # built before the pool starts, so that the workers share one

    def solve(start: int) -> SteadyStates:
        chunk = points[start: start + CHUNK]
        coef = np.array([generator_coefficients(p) for p in chunk]).reshape(len(chunk), len(engine.null_terms))
        return engine.solve_blocks(*engine.assemble(coef), coef)

    starts = range(0, max(len(points), 1), CHUNK)  # no points are one empty chunk
    if threads == 1:
        chunks = list(map(solve, starts))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(solve, starts))
    if len(chunks) == 1:
        return chunks[0]
    columns = (np.concatenate([getattr(c, name) for c in chunks]) for name in ("x", "residual", "currents", "gap"))
    return SteadyStates(*columns, [error for c in chunks for error in c.errors])


class StateSupport:
    """The entries of vec(rho) a run can fill, their real coordinates, and the layout the state checks read.

    A vector x over ``index`` stands for the dim x dim state with those
    entries and exact zeros elsewhere, which ``invariant_support``
    guarantees. The support is closed under transposition, and x = U y has
    real coordinates y in the orthonormal Hermitian basis U (``basis``)
    {E_aa, (E_ab + E_ba) / sqrt 2, i (E_ab - E_ba) / sqrt 2}: rho[a, b]
    with a > b (at ``sym``) and rho[b, a] hold the pair's two coordinates,
    and a population keeps its position. The levels the entries link fall
    into components, over which the state is block-diagonal. For the
    maximally mixed start of the chain the blocks have sizes 1, 3, 3, 1, 2,
    1, 1; a state with full support is one block.
    """

    def __init__(self, index: np.ndarray, dim: int) -> None:
        self.index, self.dim = index, dim
        row, col = (vec(m)[index] for m in np.indices((dim, dim)))  # x[s] = rho[row[s], col[s]]
        where = np.full(dim * dim, len(index))  # position of each vec entry in [x, 0]
        where[index] = np.arange(len(index))
        where = unvec(where)  # where[a, b]: position of rho[a, b]
        self.partner = where[col, row]  # position of rho[b, a] for each entry rho[a, b]
        if (self.partner == len(index)).any():
            raise ValueError("the support is not closed under transposition: it holds no Hermitian state")
        self.diagonal = np.flatnonzero(row == col)
        self.sym = np.flatnonzero(np.arange(len(index)) < self.partner)  # vec order puts rho[a, b] first for a > b
        self.anti = self.partner[self.sym]
        self.basis = np.eye(len(index), dtype=complex)  # U, whose column k is basis element k on the support
        self.basis[self.sym, self.sym] = self.basis[self.anti, self.sym] = _HALF_ROOT
        self.basis[self.sym, self.anti], self.basis[self.anti, self.anti] = 1j * _HALF_ROOT, -1j * _HALF_ROOT
        link = np.zeros((dim, dim), dtype=bool)
        link[row, col] = True
        self.components = connected_components(link)  # the levels of each block
        # every block at once, padded to the largest with zero rows and columns, which add eigenvalues 0;
        # (k, k, count) positions, so that a gather holds each entry of every block and state in one row
        largest = max(map(len, self.components))
        self.squares = np.full((largest, largest, len(self.components)), len(index))
        for b, levels in enumerate(self.components):
            self.squares[: len(levels), : len(levels), b] = where[np.ix_(levels, levels)]
        # for coordinates y as columns, centres @ y holds each level's diagonal entry and radii @ hypot(y_sym,
        # y_anti) its disc's radius: |rho[a, b]| = hypot(y_sym, y_anti) / sqrt 2 counts in rows a and b
        self.centres = np.zeros((dim, len(index)))
        self.centres[row[self.diagonal], self.diagonal] = 1.0
        self.radii = np.zeros((dim, len(self.sym)))
        self.radii[row[self.sym], range(len(self.sym))] = self.radii[col[self.sym], range(len(self.sym))] = _HALF_ROOT

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """The dim x dim states that support vectors stand for; a stack (n, len(index)) gives a stack."""
        full = np.zeros(x.shape[:-1] + (self.dim * self.dim,), dtype=complex)
        full[..., self.index] = x
        return unvec(full)

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """The real coordinates Re(U^H x) of support vectors: those of each state's Hermitian part."""
        return (x @ self.basis.conj()).real

    def hermitian(self, y: np.ndarray) -> np.ndarray:
        """The support vectors U y of real coordinates, exactly Hermitian: each mirror entry is its partner's conjugate."""
        x = y.astype(complex)
        with np.errstate(invalid="ignore"):  # a non-finite coordinate gives a non-finite entry
            pair = _HALF_ROOT * (y[..., self.sym] + 1j * y[..., self.anti])
        x[..., self.sym], x[..., self.anti] = pair, pair.conj()
        return x

    def broken_bounds(self, y: np.ndarray, trace_tol: float, floor: float) -> np.ndarray:
        """Per state of a stack of real coordinates, whether it breaks each bound, as a (2, n) bool array.

        The rows: a trace error above ``trace_tol`` (the populations' sum,
        as ``_state_defects``) and ``bounded_below``'s refusal, which every
        state with a non-finite coordinate gets. U y is exactly Hermitian.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            tr_err = np.abs(y.T[self.diagonal].sum(axis=0) - 1.0)
        return np.array([~(tr_err <= trace_tol), ~self.bounded_below(y, floor)])

    def bounded_below(self, y: np.ndarray, floor: float) -> np.ndarray:
        """Whether each state of a stack of real coordinates has no eigenvalue below ``floor``, decided without eigenvalues.

        Gershgorin's discs clear most states first: lambda_min >= min_i
        (a_ii - R_i), where R_i is the absolute sum of row i off the
        diagonal, each |a_ij| = hypot(y_sym, y_anti) / sqrt 2. A state is
        cleared when that bound, less 8 k eps times its largest |a_ii| + R_i
        (k the largest block's size), is at least ``floor``: the allowance
        covers the rounding of the sums, about k eps of it, and the error of
        a computed eigenvalue, a modest multiple of eps ||A||_2, which the
        same largest sum bounds. Only the states the discs cannot clear are
        factored, as U y, by ``pivots_bounded_below``. A non-finite
        coordinate makes a disc or the allowance inf or NaN, which clears
        nothing, and the pivots refuse it.
        """
        # states as columns, so that each sum over a row's entries runs across every state at once
        yt = y.T
        with np.errstate(over="ignore", invalid="ignore"):
            centre = self.centres @ yt
            radius = self.radii @ np.hypot(yt[self.sym], yt[self.anti])
            allowance = 8 * len(self.squares) * np.finfo(float).eps * (np.abs(centre) + radius).max(axis=0)
            ok = (centre - radius).min(axis=0) - allowance >= floor
        if not ok.all():
            rest = np.flatnonzero(~ok)
            ok[rest] = self.pivots_bounded_below(self.hermitian(y[rest]), floor)
        return ok

    def pivots_bounded_below(self, x: np.ndarray, floor: float) -> np.ndarray:
        """``bounded_below``'s decision from the LDL^H pivots of support vectors alone, with no disc clearing any state.

        A Hermitian block has lambda_min >= floor exactly when the block
        minus floor * I is positive semidefinite, which its LDL^H pivots
        decide: by Sylvester's law of inertia none is negative, and below a
        zero pivot its column is zero. Every block of every state is
        factored at once with elementwise operations, reading only the lower
        triangle and the real diagonal, as ``eigvalsh`` does; ``floor`` must
        not be positive, so the padding's eigenvalues 0 pass. A state with
        a non-finite entry is not bounded below.
        """
        a = np.vstack([x.T, np.zeros(len(x), dtype=x.dtype)])[self.squares]  # (k, k, blocks, n)
        ok = np.ones(a.shape[2:], dtype=bool)
        # an overflowing pivot reads inf or NaN and fails its state
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(len(a)):
                d = a[j, j].real - floor  # the shift reaches each diagonal entry once, when it pivots
                col = a[j + 1:, j]
                ok &= (d > 0) | ((d == 0) & (col == 0).all(axis=0))
                factor = col / np.where(d > 0, d, np.inf)  # a failed pivot eliminates nothing
                a[j + 1:, j + 1:] -= factor[:, None] * col[None, :].conj()
        return ok.all(axis=0) & np.isfinite(x).all(axis=1)


_SAMPLE_CHECKS = ("trace drift {:.3e}", "negative eigenvalue {:.3e}")
_SMALLER_STEP = "try a smaller dt_max"
_ROUNDING = "rounding built up over {} steps, and a smaller dt_max would add steps"


def _first_bad_sample(y: np.ndarray, support: StateSupport) -> tuple[int, str, bool] | None:
    """The first state of a stack of real coordinates that fails the mid-integration checks, and every check it fails.

    The checks are ``StateSupport.broken_bounds`` at 10x a density
    matrix's tolerances, in the order finite, trace drift, smallest
    eigenvalue; the failed ones are listed in that order, and the flag says
    whether the state is non-finite or has a negative eigenvalue, what a
    smaller step can mend. None if all states pass. Only a finite failing
    state's full matrix is measured, by ``_state_defects``, to word the
    message, so a blow-up never reaches LAPACK.
    """
    bad = support.broken_bounds(y, 10 * TRACE_DRIFT_TOL, 10 * EIG_FLOOR)
    if not bad.any():
        return None
    k = int(bad.any(axis=0).argmax())
    if not np.isfinite(y[k]).all():
        return k, "state is not finite", True
    values = _state_defects(support.matrices(support.hermitian(y[k])))[1:]
    problem = ", ".join(message.format(value) for failed, message, value in zip(bad, _SAMPLE_CHECKS, values)
                        if failed[k])
    return k, problem, bool(bad[1, k])


def invariant_support(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Indices of the smallest set that holds v's nonzero entries and is closed under matrix's pattern.

    matrix[i, j] == 0 for every i outside the set and j inside it, so any
    polynomial in matrix, applied to a vector supported on the set, is
    exactly zero outside it.
    """
    pattern = matrix != 0
    reach = v != 0
    while True:
        grown = reach | pattern[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def evolve(
    rho0: DensityMatrix,
    liouvillian: Liouvillian,
    t_final: float,
    samples: int,
    dt_max: float = 0.01,
) -> list[DensityMatrix]:
    """States at t_final * i / samples for i = 0..samples, from one fixed-step RK4 propagation.

    Integrates d vec(rho)/dt = L vec(rho) from ``rho0``'s Hermitian part;
    each of the ``samples`` output intervals takes the same whole number of
    uniform steps h no larger than ``dt_max``. The state is held on the
    invariant support of vec(rho0), which is exact (26 of the chain's 144
    entries for the maximally mixed state at the shipped operating points),
    by its real coordinates y in the support's Hermitian basis U, where the
    generator G = U^H L U is real, as L keeps states Hermitian. So the
    Hermiticity bound applies to G, once: an imaginary part above the
    rounding bound 8 m eps ||L||_F (m entries) is a ValueError. One RK4 step
    is the real matrix P = I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24. The
    state is checked every ``max(1, steps // 200)`` steps and at each
    interval's end: the first interval's checked states come from P powered
    to that stride, each later one's from the previous ones times P^steps,
    and an interval's are checked at once by ``StateSupport.broken_bounds``.
    A breach raises IntegrationError naming the first failing state's time
    since ``rho0`` and every check it fails. Only a non-finite state or a
    negative eigenvalue, what an unstable step gives, advises a smaller
    dt_max; a trace drift is rounding built up over the steps taken.

    Each output state must keep its trace within ``TRACE_DRIFT_TOL`` of 1
    since ``rho0``; it is then renormalized and validated as a
    ``DensityMatrix``. U y is exactly Hermitian, and the propagation itself
    is never renormalized. The first output is ``rho0``.
    """
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final}")
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if not dt_max > 0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    try:
        per_interval = t_final / samples / dt_max  # steps per output interval, before rounding up
    except OverflowError:  # a samples too large for a float
        per_interval = math.inf
    if not math.isfinite(per_interval):
        raise ValueError(f"the step count t_final / samples / dt_max = {t_final} / {samples} / {dt_max} overflows")
    if rho0.dim != liouvillian.dim:
        raise ValueError(f"state dimension {rho0.dim} does not match generator dimension {liouvillian.dim}")
    steps = max(1, math.ceil(per_interval))
    dt = t_final / samples / steps
    start = vec(0.5 * (rho0.mat + rho0.mat.conj().T))  # rho0's Hermitian part: its entries come in transpose pairs
    support = StateSupport(invariant_support(liouvillian.matrix, start), rho0.dim)
    l_sub = liouvillian.matrix[np.ix_(support.index, support.index)]
    eye = np.eye(len(support.index))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite G fails the step matrix's check
        g = support.basis.conj().T @ l_sub @ support.basis
        discarded, bound = np.linalg.norm(g.imag), 8 * len(l_sub) * np.finfo(float).eps * np.linalg.norm(l_sub)
        hg = dt * g.real
        step = eye + hg @ (eye + (hg / 2) @ (eye + (hg / 3) @ (eye + hg / 4)))
    if discarded > bound:
        raise ValueError(f"the generator does not preserve Hermiticity: its matrix in the Hermitian basis has an "
                         f"imaginary part of norm {discarded:.3e}, above the rounding bound {bound:.3e}")
    if not np.isfinite(step).all():
        raise IntegrationError(f"the RK4 step matrix is not finite: the generator times the step {dt:.3g} overflows")

    check_every = max(1, steps // 200)
    check_steps = [*range(check_every, steps, check_every), steps]  # the last stride may be shorter
    y = support.coordinates(start[support.index])
    checked = np.empty((len(y), len(check_steps)))  # the interval's checked states as columns
    # an unstable step overflows to inf and then NaN; the checks report where it began
    with np.errstate(over="ignore", invalid="ignore"):
        stride = np.linalg.matrix_power(step, check_every)
        last = np.linalg.matrix_power(step, steps - check_every * (len(check_steps) - 1))
        for k in range(len(check_steps) - 1):
            y = checked[:, k] = stride @ y
        checked[:, -1] = last @ y
        to_next = np.linalg.matrix_power(step, steps) if samples > 1 else None  # one interval on

    states = [rho0]
    for i in range(samples):
        if i > 0:
            with np.errstate(over="ignore", invalid="ignore"):
                checked = to_next @ checked
        failed = _first_bad_sample(checked.T, support)
        if failed is not None:
            k, problem, unstable = failed
            taken = i * steps + check_steps[k]
            advice = _SMALLER_STEP if unstable else _ROUNDING.format(taken)
            raise IntegrationError(f"integration failed at t={taken * dt:.4g}: {problem}; {advice}")
        tr = checked[support.diagonal, -1].sum()
        if abs(tr - 1.0) > TRACE_DRIFT_TOL:
            raise IntegrationError(f"trace drifted by {abs(tr - 1.0):.3e} over the run; {_ROUNDING.format((i + 1) * steps)}")
        try:
            states.append(DensityMatrix(support.matrices(support.hermitian(checked[:, -1] / tr))))
        except ValueError as exc:  # the run checks at 10x the bounds each output state is held to
            raise IntegrationError(f"integration failed at t={(i + 1) * steps * dt:.4g}: {exc}; {_SMALLER_STEP}") from None
    return states
