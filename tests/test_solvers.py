import dataclasses
import math

import numpy as np
import pytest

from triheat import (
    BathChannel,
    DensityMatrix,
    IntegrationError,
    SteadyStateError,
    SystemParams,
    bath_channels,
    build_superoperator,
    evolve,
    occupation,
    steady_state,
    total_hamiltonian,
    trace_distance,
)
from conftest import TRANSFER_PARAMS, product_gibbs, random_density, solve

QUBIT_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)


class TestDensityMatrix:
    def test_maximally_mixed(self):
        dm = DensityMatrix.maximally_mixed(12)
        assert dm.dim == 12
        assert abs(np.trace(dm.mat) - 1.0) < 1e-15

    def test_rejects_non_hermitian(self):
        bad = np.eye(2, dtype=complex) / 2
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError):
            DensityMatrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


class TestTraceDistance:
    def test_zero_for_identical(self, rng):
        rho = random_density(rng, 6)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)


class TestSteadyState:
    def test_uncoupled_chain_thermalizes_to_product_gibbs(self):
        p = dataclasses.replace(TRANSFER_PARAMS, g_lm=0.0, g_mr=0.0)
        result = solve(p)
        assert trace_distance(result.state.mat, product_gibbs(p)) <= 1e-10
        for j in (result.currents.j_l, result.currents.j_m, result.currents.j_r):
            assert abs(j) <= 1e-12

    def test_reference_point_contract(self):
        result = solve(TRANSFER_PARAMS)
        assert result.residual <= 1e-10
        cur = result.currents
        bound = 1e-10 * max(1.0, max(abs(cur.j_l), abs(cur.j_m), abs(cur.j_r)))
        assert abs(cur.total()) <= bound

    def test_degenerate_null_space_rejected(self):
        # no dissipation at all: every diagonal state is stationary
        h = np.diag([0.0, 1.0, 3.0]).astype(complex)
        liou = build_superoperator(h, [])
        with pytest.raises(SteadyStateError, match="non-unique"):
            steady_state(liou)

    def test_unreachable_tolerance_rejected(self):
        p = TRANSFER_PARAMS
        liou = build_superoperator(total_hamiltonian(p), bath_channels(p))
        with pytest.raises(SteadyStateError, match="tolerance"):
            steady_state(liou, tol=1e-18)

    def test_unique_at_figure_operating_points(self):
        from conftest import COUPLING_PARAMS, OUTPUT_PARAMS

        for p in (TRANSFER_PARAMS, OUTPUT_PARAMS, COUPLING_PARAMS):
            liou = build_superoperator(total_hamiltonian(p), bath_channels(p))
            s = np.linalg.svd(liou.matrix, compute_uv=False)
            assert s[-2] > 1e-8 * s[0]
            state = steady_state(liou).state
            assert np.linalg.eigvalsh(state.mat).min() >= -1e-10


def single_qubit_liouvillian(kappa=1.0, delta_e=1.0, temperature=0.5):
    h = np.diag([0.0, delta_e]).astype(complex)
    ch = BathChannel("X", QUBIT_LOWER, delta_e, kappa, temperature)
    return build_superoperator(h, [ch])


def transfer_liouvillian():
    p = TRANSFER_PARAMS
    return build_superoperator(total_hamiltonian(p), bath_channels(p))


class TestEvolve:
    def test_stationary_under_commuting_dynamics(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        rho0 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        out = evolve(rho0, build_superoperator(h, []), t_final=5.0, dt_max=0.05)
        assert np.max(np.abs(out.mat - rho0.mat)) < 1e-14

    def test_relaxation_matches_rate_equation(self):
        # two-level closed form: p1(t) = p_inf + (p1(0) - p_inf) exp(-k(2n+1)t)
        kappa, de, temp = 1.0, 1.0, 0.5
        liou = single_qubit_liouvillian(kappa, de, temp)
        n = occupation(de, temp)
        p_inf = n / (2 * n + 1)
        p1 = 0.9
        state = DensityMatrix(np.diag([1 - p1, p1]).astype(complex))
        rate = kappa * (2 * n + 1)
        previous = p1
        for t_seg in (0.5, 0.5, 1.0, 2.0):
            state = evolve(state, liou, t_final=t_seg, dt_max=0.01)
            current = state.mat[1, 1].real
            assert current < previous  # monotone approach from above
            previous = current
        elapsed = 4.0
        expected = p_inf + (p1 - p_inf) * math.exp(-rate * elapsed)
        assert current == pytest.approx(expected, abs=1e-9)

    def test_final_gibbs_ratio(self):
        kappa, de, temp = 1.0, 1.0, 0.5
        liou = single_qubit_liouvillian(kappa, de, temp)
        state = DensityMatrix(np.diag([0.1, 0.9]).astype(complex))
        state = evolve(state, liou, t_final=1e3 / kappa, dt_max=0.01)
        ratio = state.mat[1, 1].real / state.mat[0, 0].real
        assert ratio == pytest.approx(math.exp(-de / temp), abs=1e-6)

    def test_step_halving_is_fourth_order(self):
        liou = single_qubit_liouvillian(kappa=0.8, temperature=1.2)
        rho0 = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]], dtype=complex)
        start = DensityMatrix(rho0)
        finals = [evolve(start, liou, t_final=2.0, dt_max=dt).mat for dt in (0.2, 0.1, 0.05)]
        e1 = np.max(np.abs(finals[0] - finals[1]))
        e2 = np.max(np.abs(finals[1] - finals[2]))
        assert 10.0 < e1 / e2 < 24.0

    def test_unstable_step_raises(self):
        # coherences between far-separated levels are the unstable modes at
        # large steps, so start from a state that populates them
        psi = np.ones(12) / math.sqrt(12)
        rho0 = DensityMatrix(0.5 * np.outer(psi, psi).astype(complex) + 0.5 * np.eye(12) / 12)
        with pytest.raises(IntegrationError, match="dt_max"):
            evolve(rho0, transfer_liouvillian(), t_final=400.0, dt_max=1.0)

    def test_argument_validation(self):
        liou = single_qubit_liouvillian()
        mm = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            evolve(mm, liou, t_final=-1.0)
        with pytest.raises(ValueError):
            evolve(mm, liou, t_final=1.0, dt_max=0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension 2 does not match generator dimension 12"):
            evolve(DensityMatrix.maximally_mixed(2), transfer_liouvillian(), t_final=1.0)

    def test_positivity_preserved_from_random_states(self, rng):
        liou = transfer_liouvillian()
        for _ in range(3):
            rho0 = DensityMatrix(random_density(rng, 12))
            out = evolve(rho0, liou, t_final=20.0, dt_max=0.01)
            assert np.linalg.eigvalsh(out.mat).min() >= -1e-10


class TestSolverAgreement:
    def test_null_space_and_time_evolution_agree_on_random_grid(self):
        # 5x5 grid of random valid parameter sets; the integration horizon is
        # set from the computed relaxation gap so every run is converged.
        rng = np.random.default_rng(99)
        for _ in range(25):
            e2 = rng.uniform(0.6, 1.6)
            p = SystemParams(
                e1=rng.uniform(0.6, 1.6),
                e2=e2,
                e3=e2 + rng.uniform(0.8, 2.2),
                e4=rng.uniform(0.6, 1.6),
                g_lm=rng.uniform(0.05, 0.3),
                g_mr=rng.uniform(0.05, 0.3),
                kappa_l=rng.uniform(0.1, 0.5),
                kappa_m=rng.uniform(0.1, 0.5),
                kappa_r=rng.uniform(0.1, 0.5),
                t_l=rng.uniform(0.3, 2.5),
                t_m=rng.uniform(0.3, 2.5),
                t_r=rng.uniform(0.3, 2.5),
            )
            liou = build_superoperator(total_hamiltonian(p), bath_channels(p))
            reference = steady_state(liou).state
            ev = np.linalg.eigvals(liou.matrix)
            gap = -np.max(ev.real[np.abs(ev) > 1e-8])
            radius = np.max(np.abs(ev))
            t_final = min(max(18.0 / gap, 50.0), 5e4)
            dt = min(0.05, 1.5 / radius)
            evolved = evolve(DensityMatrix.maximally_mixed(12), liou, t_final, dt_max=dt)
            assert trace_distance(evolved, reference) <= 1e-6
