import dataclasses
import math
import re
import warnings
from pathlib import Path

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
    chain_liouvillian,
    evolve,
    hamiltonian_terms,
    load_params,
    occupation,
    rhs_apply,
    steady_state,
    steady_states,
    total_hamiltonian,
    trace_distance,
    unvec,
    vec,
)
from triheat import solvers
from triheat.cli import DEFAULT_PARAMS, cli_main
from triheat.config import load_sweep
from triheat.solvers import (
    DEGENERACY_TOL,
    EIG_FLOOR,
    TRACE_DRIFT_TOL,
    StateSupport,
    _first_bad_sample,
    _state_defects,
    block_engine,
    connected_components,
    generator_coefficients,
    invariant_support,
)
from triheat.observables import bath_currents
from triheat.lindblad import channel_rates
from triheat.model import HAMILTONIAN_FIELDS, PARAM_FIELDS
from triheat.sweep import grid_points
from conftest import TRANSFER_PARAMS, param_rows, product_gibbs, random_density, random_hermitian, seeded_points, solve

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_entries_by_name(self, value):
        # named before any arithmetic: inf - inf in the Hermiticity check
        # would warn, and NaN would read as a Hermiticity defect of nan
        bad = np.eye(2, dtype=complex) / 2
        bad[0, 0] = value
        with pytest.raises(ValueError, match="^density matrix has non-finite entries$"):
            DensityMatrix(bad)


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

    def test_unreachable_tolerance_rejected(self, monkeypatch):
        monkeypatch.setattr(solvers, "RESIDUAL_TOL", 1e-18)
        p = TRANSFER_PARAMS
        liou = build_superoperator(total_hamiltonian(p), bath_channels(p))
        with pytest.raises(SteadyStateError, match=r"^no steady state at tolerance: residual .* > 1\.0e-18$") as exc:
            steady_state(liou)
        assert exc.value.reason == "residual"

    @pytest.mark.parametrize("inputs", ["kappa_m", "temperatures", "couplings", "energies"])
    def test_overflowing_residual_is_named_without_a_warning(self, inputs):
        # every generator entry is finite, but ||L vec(rho)|| overflows; the
        # engine names the first three the same way and solves the fourth
        p = TRANSFER_PARAMS
        p = {
            "kappa_m": dataclasses.replace(p, kappa_m=1e308),
            "temperatures": dataclasses.replace(p, t_l=1e300, t_m=1e300, t_r=1e300),
            "couplings": dataclasses.replace(p, g_lm=1e200, g_mr=1e200),
            "energies": dataclasses.replace(p, e1=1e200, e2=1e200, e3=3e200, e4=1e200),
        }[inputs]
        with pytest.raises(SteadyStateError, match=f"^{re.escape(solvers._RESIDUAL_OVERFLOW)}$") as exc:
            steady_state(chain_liouvillian(p))
        assert exc.value.reason == "residual"

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


def coherent_mixture():
    """Half the uniform superposition, half maximally mixed: every coherence is populated.

    Coherences between far-separated levels are the unstable modes at large
    steps, so this state shows an unstable step size.
    """
    psi = np.ones(12) / math.sqrt(12)
    return DensityMatrix(0.5 * np.outer(psi, psi).astype(complex) + 0.5 * np.eye(12) / 12)


def rk4_loop(rho0, liou, t_final, dt_max):
    """Reference: explicit four-stage RK4 steps on the full generator, one at a time."""
    steps = max(1, math.ceil(t_final / dt_max))
    dt = t_final / steps
    mat = liou.matrix
    v = vec(rho0).astype(complex)
    for _ in range(steps):
        k1 = mat @ v
        k2 = mat @ (v + (0.5 * dt) * k1)
        k3 = mat @ (v + (0.5 * dt) * k2)
        k4 = mat @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return unvec(v), steps


class TestEvolve:
    def test_stationary_under_commuting_dynamics(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        rho0 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        out = evolve(rho0, build_superoperator(h, []), t_final=5.0, samples=1, dt_max=0.05)[-1]
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
            state = evolve(state, liou, t_final=t_seg, samples=1, dt_max=0.01)[-1]
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
        state = evolve(state, liou, t_final=1e3 / kappa, samples=1, dt_max=0.01)[-1]
        ratio = state.mat[1, 1].real / state.mat[0, 0].real
        assert ratio == pytest.approx(math.exp(-de / temp), abs=1e-6)

    def test_step_halving_is_fourth_order(self):
        liou = single_qubit_liouvillian(kappa=0.8, temperature=1.2)
        rho0 = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]], dtype=complex)
        start = DensityMatrix(rho0)
        finals = [evolve(start, liou, t_final=2.0, samples=1, dt_max=dt)[-1].mat for dt in (0.2, 0.1, 0.05)]
        e1 = np.max(np.abs(finals[0] - finals[1]))
        e2 = np.max(np.abs(finals[1] - finals[2]))
        assert 10.0 < e1 / e2 < 24.0

    def test_unstable_step_raises(self):
        # the first sample that fails, and the check it fails, are named
        with pytest.raises(IntegrationError, match=r"at t=2: negative eigenvalue .*dt_max"):
            evolve(coherent_mixture(), transfer_liouvillian(), t_final=400.0, samples=1, dt_max=1.0)

    @pytest.mark.parametrize("t_final, first", [
        # every check the first failing sample fails is named, so the blow-up
        # reads as a negative eigenvalue, not only as a round-off-sized
        # Hermiticity defect
        pytest.param(4000.0, r"t=20: .*negative eigenvalue -2\.343e\+05;", id="4000.0-negative-eigenvalue"),
        (1e6, "t=5000: state is not finite"),
    ])
    def test_blow_up_reports_first_sample_without_warnings(self, t_final, first):
        # the state overflows to inf and then NaN long before the run ends;
        # every sample is still propagated and checked in one batch
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IntegrationError, match=first):
                evolve(coherent_mixture(), transfer_liouvillian(), t_final=t_final, samples=1, dt_max=20.0)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("case, support", [("random", 144), ("mixed", 26), ("qubit", 4)])
    def test_matches_explicit_rk4_steps(self, rng, case, support):
        if case == "qubit":
            liou = single_qubit_liouvillian(kappa=0.8, temperature=1.2)
            rho0 = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]], dtype=complex)
        else:
            liou = transfer_liouvillian()
            rho0 = random_density(rng, 12) if case == "random" else np.eye(12, dtype=complex) / 12
        assert len(invariant_support(liou.matrix, vec(rho0))) == support
        t_final, dt_max = 30.5, 0.05
        reference, steps = rk4_loop(rho0, liou, t_final, dt_max)
        assert steps % (steps // 200) != 0  # the run ends with a partial stride
        first, last = evolve(DensityMatrix(rho0), liou, t_final, 1, dt_max)
        assert np.array_equal(first.mat, rho0)
        assert np.max(np.abs(last.mat - reference)) <= 1e-12

    def test_argument_validation(self):
        liou = single_qubit_liouvillian()
        mm = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError, match="^samples must be at least 1, got 0$"):
            evolve(mm, liou, 1.0, 0)
        with pytest.raises(ValueError, match="^t_final must be positive, got -1.0$"):
            evolve(mm, liou, -1.0, 3)
        with pytest.raises(ValueError, match="^t_final must be positive, got 0.0$"):
            evolve(mm, liou, 0.0, 3)
        with pytest.raises(ValueError, match="^t_final must be finite, got inf$"):
            evolve(mm, liou, math.inf, 3)
        with pytest.raises(ValueError, match="^t_final must be positive, got nan$"):
            evolve(mm, liou, math.nan, 3)
        with pytest.raises(ValueError, match="^dt_max must be positive, got 0.0$"):
            evolve(mm, liou, 1.0, 3, 0.0)
        with pytest.raises(ValueError, match="^dt_max must be positive, got nan$"):
            evolve(mm, liou, 1.0, 3, math.nan)

    @pytest.mark.parametrize("t_final, samples, dt_max", [
        (2.0, 1, 1e-320),
        (1e308, 1, 0.001),
        pytest.param(2.0, 10**400, 0.01, id="400-digit-samples"),  # too large for a float
    ])
    def test_rejects_an_overflowing_step_count(self, t_final, samples, dt_max):
        # every value is finite and positive, but the steps per interval overflow to inf
        message = f"the step count t_final / samples / dt_max = {t_final} / {samples} / {dt_max} overflows"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evolve(DensityMatrix.maximally_mixed(2), single_qubit_liouvillian(), t_final, samples, dt_max)

    def test_output_trace_drift_is_named(self):
        # the leaky generator L + 5e-10 I scales the trace by e^(5e-10 t), 1 + 5e-9 at t = 10: inside the
        # run's checks at 10 TRACE_DRIFT_TOL, outside the output state's bound of TRACE_DRIFT_TOL. A smaller
        # step would add steps, so the message names the steps taken rather than advising one
        liou = single_qubit_liouvillian()
        leaky = dataclasses.replace(liou, matrix=liou.matrix + 5e-10 * np.eye(4))
        with pytest.raises(IntegrationError, match=(
            r"^trace drifted by 5\.000e-09 over the run; rounding built up over 1000 steps, "
            r"and a smaller dt_max would add steps$"
        )):
            evolve(DensityMatrix.maximally_mixed(2), leaky, t_final=10.0, samples=1, dt_max=0.01)

    def test_mid_run_trace_drift_names_the_steps_taken(self):
        # L + 1.5e-7 I scales the trace by e^(1.5e-7 t): past 10 TRACE_DRIFT_TOL from t = 0.067, which
        # the run's check after step 7 (of 20, each checked) is the first to see
        liou = single_qubit_liouvillian()
        leaky = dataclasses.replace(liou, matrix=liou.matrix + 1.5e-7 * np.eye(4))
        with pytest.raises(IntegrationError, match=(
            r"^integration failed at t=0\.07: trace drift 1\.050e-08; rounding built up over 7 steps, "
            r"and a smaller dt_max would add steps$"
        )):
            evolve(DensityMatrix.maximally_mixed(2), leaky, t_final=0.2, samples=1, dt_max=0.01)

    def test_generator_that_breaks_hermiticity_is_refused(self):
        # the Hermiticity bound applies once per run, to the generator in the Hermitian basis:
        # L + 1e-6j I maps a Hermitian state to one with an anti-Hermitian part; on the maximally mixed
        # start's support, the two populations, its imaginary part is 1e-6j I_2
        liou = single_qubit_liouvillian()
        bent = dataclasses.replace(liou, matrix=liou.matrix + 1e-6j * np.eye(4))
        with pytest.raises(ValueError, match=(
            r"^the generator does not preserve Hermiticity: its matrix in the Hermitian basis has an imaginary "
            r"part of norm 1\.414e-06, above the rounding bound \d\.\d{3}e-1\d$"
        )):
            evolve(DensityMatrix.maximally_mixed(2), bent, t_final=1.0, samples=1)
        # a generator that feeds rho[1, 0] from a population but never rho[0, 1]: its support holds no
        # Hermitian state
        lopsided = liou.matrix.copy()
        lopsided[1, 0] += 1e-3
        with pytest.raises(ValueError, match="^the support is not closed under transposition"):
            evolve(DensityMatrix.maximally_mixed(2), dataclasses.replace(liou, matrix=lopsided), 1.0, 1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension 2 does not match generator dimension 12"):
            evolve(DensityMatrix.maximally_mixed(2), transfer_liouvillian(), t_final=1.0, samples=1)

    def test_positivity_preserved_from_random_states(self, rng):
        liou = transfer_liouvillian()
        for _ in range(3):
            rho0 = DensityMatrix(random_density(rng, 12))
            out = evolve(rho0, liou, t_final=20.0, samples=1, dt_max=0.01)[-1]
            assert np.linalg.eigvalsh(out.mat).min() >= -1e-10


def evolve_loop(rho0, liou, t_final, samples, dt_max):
    """Reference: a one-interval ``evolve`` call per output interval, each from the last returned state.

    The intervals are the differences of ``np.linspace(0, t_final, samples + 1)``.
    On a failure, returns the interval's start time and the error instead.
    """
    times = np.linspace(0.0, t_final, samples + 1)
    states = [DensityMatrix(rho0) if isinstance(rho0, np.ndarray) else rho0]
    for start, end in zip(times[:-1], times[1:]):
        try:
            states.append(evolve(states[-1], liou, float(end - start), 1, dt_max)[-1])
        except IntegrationError as exc:
            return float(start), exc
    return states


def first_bad_full(rho):
    """Reference: the mid-integration checks on a stack of full Hermitian matrices."""
    finite = np.isfinite(rho).all(axis=(-2, -1))
    n = len(rho) if finite.all() else int(np.argmin(finite))
    _, tr_err, min_eig = _state_defects(rho[:n])
    checks = (
        (tr_err > 10 * TRACE_DRIFT_TOL, "trace drift {:.3e}", tr_err),
        (min_eig < 10 * EIG_FLOOR, "negative eigenvalue {:.3e}", min_eig),
    )
    failing = np.flatnonzero(np.logical_or.reduce([bad for bad, _, _ in checks]))
    if failing.size:
        k = int(failing[0])
        return k, ", ".join(message.format(value[k]) for bad, message, value in checks if bad[k])
    return None if n == len(rho) else (n, "state is not finite")


def block_diagonal_states(rng, components, count):
    """Random unit-trace states, block-diagonal over ``components`` (lists of levels), zero elsewhere."""
    states = np.zeros((count, 12, 12), dtype=complex)
    for n in range(count):
        for levels in components:
            states[n][np.ix_(levels, levels)] = random_density(rng, len(levels)) * rng.uniform(0.5, 1.5)
        states[n] /= np.trace(states[n]).real
    return states


class TestTrajectory:
    @pytest.mark.parametrize("case", ["mixed", "random"])
    def test_matches_a_loop_of_evolve_calls(self, rng, case):
        liou = transfer_liouvillian()
        rho0 = np.eye(12, dtype=complex) / 12 if case == "mixed" else random_density(rng, 12)
        # 20 intervals of 2.0 at dt_max 0.01: 200 steps each, every one checked
        reference = evolve_loop(rho0, liou, 40.0, 20, 0.01)
        states = evolve(DensityMatrix(rho0), liou, 40.0, 20, 0.01)
        assert len(states) == 21 and np.array_equal(states[0].mat, rho0)
        assert max(np.max(np.abs(a.mat - b.mat)) for a, b in zip(states, reference)) <= 1e-12

    @pytest.mark.parametrize("case", ["random", "mixed"])
    def test_one_interval_matches_explicit_rk4_steps(self, rng, case):
        liou = transfer_liouvillian()
        rho0 = random_density(rng, 12) if case == "random" else np.eye(12, dtype=complex) / 12
        reference, steps = rk4_loop(rho0, liou, 40.0, 0.05)
        assert steps % (steps // 200) == 0  # the run ends on a whole stride
        first, last = evolve(DensityMatrix(rho0), liou, 40.0, 1, 0.05)
        assert np.array_equal(first.mat, rho0)
        assert np.max(np.abs(last.mat - reference)) <= 1e-12

    def test_argument_validation(self):
        # samples is checked before it divides the horizon: 0 is a ValueError, not a ZeroDivisionError
        liou = single_qubit_liouvillian()
        mm = DensityMatrix.maximally_mixed(2)
        for samples in (0, -2):
            with pytest.raises(ValueError, match=f"^samples must be at least 1, got {samples}$"):
                evolve(mm, liou, 1.0, samples)
        with pytest.raises(ValueError, match="^state dimension 2 does not match generator dimension 12$"):
            evolve(mm, transfer_liouvillian(), 40.0, 20)

    @pytest.mark.parametrize("interval, start", [(8.0, 192.0), (12.0, 12.0)])
    def test_blow_up_in_a_later_interval_matches_the_loop(self, interval, start):
        # The coherent mixture breaks positivity within the first step at
        # every unstable step size, so only the maximally mixed start has
        # its first failure after the first interval. One step per interval.
        liou = transfer_liouvillian()
        mixed = DensityMatrix.maximally_mixed(12)
        failed_at, loop_error = evolve_loop(mixed, liou, 40 * interval, 40, dt_max=20.0)
        assert failed_at == start
        # the loop's times count from its interval's start, the run's from rho0
        expected = re.sub(r"t=(\S+):", lambda m: f"t={failed_at + float(m.group(1)):.4g}:", str(loop_error))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IntegrationError) as exc:
                evolve(mixed, liou, 40 * interval, 40, dt_max=20.0)
        assert str(exc.value) == expected
        assert "negative eigenvalue" in expected
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_checks_each_interval_at_the_evolve_cadence(self, monkeypatch):
        checked = []

        def counting(x, support):
            checked.append(len(x))
            return _first_bad_sample(x, support)

        monkeypatch.setattr(solvers, "_first_bad_sample", counting)
        liou = transfer_liouvillian()
        # one interval of 9.05 at dt_max 0.01 is 905 steps, checked every 4 steps and after the last
        evolve(DensityMatrix.maximally_mixed(12), liou, 9.05, 1, 0.01)
        assert checked == [len(range(4, 905, 4)) + 1] == [227]
        checked.clear()
        evolve(DensityMatrix.maximally_mixed(12), liou, 3 * 9.05, 3, 0.01)
        assert checked == [227] * 3

    def test_output_state_that_fails_its_check_is_an_integration_error(self):
        # A nearly pure start: after one step an eigenvalue lies between the
        # run's floor (10x EIG_FLOOR) and the output state's (EIG_FLOOR)
        rng = np.random.default_rng(0)
        u = np.linalg.qr(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))[0]
        w = np.array([1.0] + [1e-12] * 11)
        rho0 = DensityMatrix((u * (w / w.sum())) @ u.conj().T)
        with pytest.raises(IntegrationError, match=(
            r"^integration failed at t=0\.0546: density matrix has negative eigenvalue -\d\.\d{3}e-10; "
            r"try a smaller dt_max$"
        )):
            evolve(rho0, chain_liouvillian(TRANSFER_PARAMS), 0.0546, 1, 0.0546)


class TestStateSupport:
    def test_maximally_mixed_blocks(self):
        support = StateSupport(invariant_support(transfer_liouvillian().matrix, vec(np.eye(12))), 12)
        assert len(support.index) == 26
        assert sorted(map(len, support.components)) == [1, 1, 1, 1, 2, 3, 3]

    @pytest.mark.parametrize("layout", ["mixed-support", "partial-cover"])
    def test_checks_match_the_full_matrix_form(self, rng, layout):
        if layout == "mixed-support":
            # the maximally mixed start's support: single-excitation exchanges link levels
            components = [[0], [1, 2, 6], [3, 7, 8], [4], [5, 10], [9], [11]]
        else:  # levels 2, 6 and 9 are never touched: zero rows, eigenvalue 0
            components = [[0, 5, 11], [1], [3, 4, 7, 8], [10]]
        pattern = np.zeros((12, 12), dtype=bool)
        for levels in components:
            pattern[np.ix_(levels, levels)] = True
        support = StateSupport(np.flatnonzero(vec(pattern)), 12)
        if layout == "mixed-support":
            mixed = StateSupport(invariant_support(transfer_liouvillian().matrix, vec(np.eye(12))), 12)
            assert np.array_equal(support.index, mixed.index)

        def compare(states):
            result = _first_bad_sample(support.coordinates(vec_stack(states)[:, support.index]), support)
            result = result and result[:2]  # the failure, without whether a smaller step can mend it
            assert result == first_bad_full(states)
            return result

        states = block_diagonal_states(rng, components, 40)
        assert compare(states) is None
        for k in (0, 17, 39):
            bad = states.copy()
            # a negative eigenvalue in one block, with the trace kept by another
            levels, other = components[2], components[0][0]
            w, u = np.linalg.eigh(bad[k][np.ix_(levels, levels)])
            shift = w[0] + 1e-6
            bad[k][np.ix_(levels, levels)] -= shift * (u[:, :1] @ u[:, :1].conj().T)
            bad[k][other, other] += shift
            result = compare(bad)
            assert result[0] == k and result[1].startswith("negative eigenvalue -")
        # real coordinates hold no non-Hermitian state: the states are exactly Hermitian by construction
        # (test_states_are_exactly_hermitian), and the generator's Hermiticity is bounded once per run
        # (TestEvolve.test_generator_that_breaks_hermiticity_is_refused)
        bad = states.copy()
        a, b = components[2][0], components[2][-1]
        bad[9][b, b] += 1e-6
        bad[11] *= 1.0 + 1e-5
        assert compare(bad)[0] == 9 and "trace drift" in compare(bad)[1]
        bad[9] = states[9]
        assert compare(bad)[0] == 11
        bad[3][a, a] = np.nan
        assert compare(bad) == (3, "state is not finite")

    def test_states_are_exactly_hermitian(self, rng):
        # every output of a run on all 144 entries, and U y at coordinates near the largest floats:
        # each mirror entry is written as its partner's conjugate
        liou = transfer_liouvillian()
        rho0 = random_density(rng, 12)
        assert len(invariant_support(liou.matrix, vec(rho0))) == 144
        states = evolve(DensityMatrix(rho0), liou, 40.0, 20, 0.01)
        assert all(np.array_equal(s.mat, s.mat.conj().T) for s in states[1:])
        support = StateSupport(np.arange(144), 12)
        y = rng.choice([-1.0, 1.0], size=(5, 144)) * rng.uniform(0.5, 1.7, size=(5, 144)) * 1e300
        full = support.matrices(support.hermitian(y))
        assert np.isfinite(full).all() and np.array_equal(full, np.swapaxes(full, -1, -2).conj())

    @pytest.mark.parametrize("layout", ["blocks-1-2-3", "full-support", "null-block"])
    def test_bounded_below_matches_eigvalsh_at_the_bound(self, layout):
        rng = np.random.default_rng(41)
        floor = 10 * EIG_FLOOR
        if layout == "blocks-1-2-3":
            # levels 6 to 11 are never touched: zero rows outside the support
            components, zero_levels = [[0], [1, 2], [3, 4, 5]], []
        elif layout == "full-support":
            # the random start's support is every entry, one 12-level block;
            # three of its levels hold zero rows inside the block
            components, zero_levels = [list(range(12))], [2, 7, 11]
        else:
            # the engine's null block, checked at the steady state's own floor
            floor = EIG_FLOOR
            components, zero_levels = [list(c) for c in block_engine().layout.components], []
        pattern = np.zeros((12, 12), dtype=bool)
        for levels in components:
            pattern[np.ix_(levels, levels)] = True
        support = StateSupport(np.flatnonzero(vec(pattern)), 12)
        assert set(map(len, support.components)) == set(map(len, components))
        if layout == "null-block":
            assert np.array_equal(support.index, block_engine().layout.index)

        states = []
        for levels in components:  # each block in turn holds the smallest eigenvalue
            filled = [lvl for lvl in levels if lvl not in zero_levels]
            for factor in (1.0 - 1e-4, 1.0 + 1e-4):
                for _ in range(4):
                    state = block_diagonal_states(rng, components, 1)[0]
                    state[zero_levels, :] = 0.0
                    state[:, zero_levels] = 0.0
                    w, u = np.linalg.eigh(state[np.ix_(filled, filled)])
                    w[0] = floor * factor
                    state[np.ix_(filled, filled)] = (u * w) @ u.conj().T
                    states.append(state)
        a, b = max(components, key=len)[:2]
        overflowing = np.zeros((12, 12), dtype=complex)
        overflowing[b, b] = 1.0
        overflowing[a, b] = overflowing[b, a] = 1e300  # pivot 1e300 / 1e-9 overflows
        positive = block_diagonal_states(rng, components, 1)[0]
        states += [1e150 * positive, -1e200 * positive, overflowing]  # blow-up scales
        states = np.array(states)
        full = np.linalg.eigvalsh(states).min(axis=1)
        # the constructed eigenvalue sits 1e-4 of the bound on either side of it
        assert np.all(np.abs(full[:-3] - floor) >= 0.9e-4 * abs(floor))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ours = support.bounded_below(support.coordinates(vec_stack(states)[:, support.index]), floor)
            blown = np.full((3, len(support.index)), 0.1)
            blown[0, 3], blown[1, -1], blown[2, support.diagonal[-1]] = np.inf, np.nan, np.inf
            assert not support.bounded_below(blown, floor).any()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert np.array_equal(ours, full >= floor)
        assert ours[:-3].sum() == len(states[:-3]) // 2
        assert ours[-3:].tolist() == [True, False, False]

    @pytest.mark.parametrize("scale", [1, 10], ids=["1x-floor", "10x-floor"])
    @pytest.mark.parametrize("layout", ["null-block", "mixed-support"])
    def test_disc_certificate_agrees_with_the_pivots(self, layout, scale):
        # the engine's layout and evolve's support, at the steady state's floor and at 10x it
        rng = np.random.default_rng(43)
        floor = scale * EIG_FLOOR
        if layout == "null-block":
            support = block_engine().layout
        else:
            support = StateSupport(invariant_support(transfer_liouvillian().matrix, vec(np.eye(12))), 12)
        components = [list(c) for c in support.components]
        states = []
        for _ in range(60):  # from diagonally dominant to strongly coherent
            state = block_diagonal_states(rng, components, 1)[0]
            weight = rng.uniform(0.0, 1.0) ** 3
            states.append(weight * state + (1 - weight) * np.diag(np.diag(state)))
        for k in range(40):  # one eigenvalue 1e-4 of the floor on either side of it
            state = states[k].copy()
            levels = max(components, key=len) if k % 2 else components[k % len(components)]
            w, u = np.linalg.eigh(state[np.ix_(levels, levels)])
            w[0] = floor * (1.0 + (1e-4 if k % 4 < 2 else -1e-4))
            state[np.ix_(levels, levels)] = (u * w) @ u.conj().T
            states.append(state)
        for k in range(12):  # a diagonal state with one population at the floor, up to rounding
            state = np.diag(np.diag(states[k])).astype(complex)
            state[k, k] = floor * (1.0 + (k - 6) * 1e-6)
            states.append(state)
        x = vec_stack(np.array(states))[:, support.index]
        # one triangle of a block kept and the other emptied, read as the lower triangle's Hermitian
        # completion, as the pivots and eigvalsh read a matrix: real coordinates hold no other state
        levels = max(components, key=len)
        mask = np.zeros((12, 12), dtype=bool)
        mask[np.ix_(levels, levels)] = True
        upper, lower = vec(np.triu(mask, 1))[support.index], vec(np.tril(mask, -1))[support.index]
        bent = []
        for k in range(20):
            entries = x[k].copy()
            entries[support.diagonal] *= rng.uniform(0.2, 5.0, len(support.diagonal))
            entries[upper if k % 2 else lower] = 0.0
            bent.append(entries)
        a, b = levels[:2]  # rho[b, a] is in the lower triangle
        for c in (0.05, 0.2, 0.4):  # indefinite for c > 0.1; row a's disc is wide only through rho[b, a]
            state = np.diag(np.diag(states[0])).astype(complex)
            state[a, a], state[b, b], state[b, a] = 0.01, 1.0, c
            bent.append(vec(state)[support.index])
        x = np.vstack([x, bent])

        # Hermitian completion of the lower triangle, as the pivots and eigvalsh read it
        full = support.matrices(x)
        hermitian = np.tril(full, -1) + np.swapaxes(np.tril(full, -1), -1, -2).conj()
        hermitian[:, range(12), range(12)] = np.diagonal(full, axis1=1, axis2=2).real
        y = support.coordinates(vec_stack(hermitian)[:, support.index])
        lowest = np.linalg.eigvalsh(hermitian).min(axis=1)
        centre = np.diagonal(hermitian, axis1=1, axis2=2).real
        radius = np.abs(hermitian).sum(axis=2) - np.abs(centre)
        allowance = 8 * len(support.squares) * np.finfo(float).eps * (np.abs(centre) + radius).max(axis=1)

        ours = support.bounded_below(y, floor)
        alone = support.pivots_bounded_below(support.hermitian(y), floor)
        factored = []
        pivots = StateSupport.pivots_bounded_below
        with pytest.MonkeyPatch.context() as m:
            m.setattr(StateSupport, "pivots_bounded_below",
                      lambda self, x, floor: factored.append(len(x)) or pivots(self, x, floor))
            assert np.array_equal(support.bounded_below(y, floor), ours)
        assert 0 < sum(factored) < len(x)  # the discs clear some states and leave others to the pivots
        clear = np.abs(lowest - floor) > allowance
        assert np.array_equal(ours[clear], alone[clear])
        assert np.array_equal(ours[clear], lowest[clear] >= floor)
        assert not ours[lowest < floor - allowance].any()
        assert 0 < ours.sum() < len(x)

    def test_evolve_at_the_shipped_configs_factors_no_state(self, tmp_path, monkeypatch):
        # every checked state of `triheat evolve --t-final 200` is cleared by its discs
        factored = []
        pivots = StateSupport.pivots_bounded_below
        monkeypatch.setattr(StateSupport, "pivots_bounded_below",
                            lambda self, x, floor: factored.append(len(x)) or pivots(self, x, floor))
        checked = []
        broken_bounds = StateSupport.broken_bounds
        monkeypatch.setattr(StateSupport, "broken_bounds",
                            lambda self, x, *bounds: checked.append(len(x)) or broken_bounds(self, x, *bounds))
        for name in ("transfer_curve", "output_curves", "coupling_gate_map"):
            out = tmp_path / f"{name}.csv"
            assert cli_main(["evolve", "--config", str(SCRIPTS / f"{name}.cfg"), "--out", str(out),
                             "--t-final", "200"]) == 0
        assert sum(checked) == 3 * 100 * 200
        assert factored == []


def vec_stack(states):
    """Column-stacked vectors of a stack of matrices."""
    return np.swapaxes(states, -1, -2).reshape(len(states), -1)


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
            evolved = evolve(DensityMatrix.maximally_mixed(12), liou, t_final, samples=1, dt_max=dt)[-1]
            assert trace_distance(evolved, reference) <= 1e-6


def pinned_systems(points, scale=None):
    """The points' blocks, with the null block times ``scale`` per point, and its trace-pinned systems and their inverses."""
    engine = block_engine()
    blocks = engine.assemble(generator_coefficients(param_rows(points)))
    if scale is not None:
        blocks[0][...] *= scale[:, None, None]
    system = blocks[0].copy()
    system[:, engine.layout.diagonal[0], :] = 0.0
    system[:, engine.layout.diagonal[0], engine.layout.diagonal] = 1.0
    return blocks, system, np.linalg.inv(system)


def coherence_orders():
    """N(a) - N(b) of each column-stacked generator index, N = i + j + k of state (i*3 + j)*2 + k."""
    n = np.array([i + j + k for i in range(2) for j in range(3) for k in range(2)])
    v = np.arange(144)
    return n[v % 12] - n[v // 12]


class TestBlockEngine:
    def test_matches_oracle_on_seeded_points(self):
        # two points with every rate below the degeneracy bound must fail in both
        tiny = dataclasses.replace(TRANSFER_PARAMS, kappa_l=1e-12, kappa_m=1e-12, kappa_r=1e-12)
        points = seeded_points() + [tiny, dataclasses.replace(tiny, g_lm=0.0, g_mr=0.0)]
        solved = steady_states(param_rows(points))
        oracle = []
        for p in points:
            try:
                oracle.append(solve(p))
            except SteadyStateError as exc:
                oracle.append(exc)
        # currents with g = 0 are roundoff, so the bound is on the set's max|J|,
        # as the benchmark bounds each grid's
        scale = max(max(abs(r.currents.j_l), abs(r.currents.j_m), abs(r.currents.j_r))
                    for r in oracle if not isinstance(r, SteadyStateError))
        for k, (p, error, ref) in enumerate(zip(points, solved.errors, oracle)):
            if isinstance(ref, SteadyStateError):
                assert error is not None and error.reason == ref.reason, p
                continue
            assert error is None, (p, error)
            for ours, key in zip(solved.currents[k], ("j_l", "j_m", "j_r")):
                assert abs(ours - getattr(ref.currents, key)) <= 1e-9 * scale, p
            assert trace_distance(solved.rho(k), ref.state) <= 1e-10, p
        assert sum(isinstance(r, SteadyStateError) for r in oracle) == 2

    def test_gap_is_a_lower_bound_on_the_full_second_singular_value(self):
        # with level spacings below the rates, an order-1 coherence block, not
        # the 0-block, holds the second-smallest singular value
        slow = [
            SystemParams(e1=e, e2=e, e3=3 * e, e4=e, g_lm=g, g_mr=g, kappa_l=0.1, kappa_m=0.1, kappa_r=0.1,
                         t_l=t, t_m=t, t_r=t)
            for e, g, t in ((1e-3, 1e-4, 1e-5), (0.05, 0.01, 0.005))
        ]
        for p in seeded_points(count=12) + slow:
            full = np.linalg.svd(build_superoperator(total_hamiltonian(p), bath_channels(p)).matrix,
                                 compute_uv=False)
            ours = steady_states(param_rows([p]))
            (error,) = ours.errors
            assert ours.gap[0] <= full[-2], p
            assert (error is not None and error.reason == "non_unique") == (full[-2] < DEGENERACY_TOL), p

    def test_gap_gate_measures_every_block_that_could_break_uniqueness(self, monkeypatch):
        # detuned levels, g up to 0.3, T down to 5e-4 and kappa down to 1e-5,
        # and the slow points of the test above: some coherence blocks there
        # lie near or below the null block's second singular value
        slow = [
            SystemParams(e1=e, e2=e, e3=3 * e, e4=e, g_lm=g, g_mr=g, kappa_l=0.1, kappa_m=0.1, kappa_r=0.1,
                         t_l=t, t_m=t, t_r=t)
            for e, g, t in ((1e-3, 1e-4, 1e-5), (0.05, 0.01, 0.005))
        ]
        points = seeded_points(seed=14, count=48, t_min=5e-4) + slow
        engine = block_engine()
        _, coherence = engine.assemble(generator_coefficients(param_rows(points)))
        smallest = np.stack([np.linalg.svd(b, compute_uv=False)[:, -1] for b in engine.coherence_blocks(coherence)],
                            axis=1)
        assert np.all(engine.singular_floors(coherence) <= smallest)

        measured = []  # the points each coherence-block SVD of the engine is given
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            if a.shape[-1] != engine.sizes[0]:
                measured.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        solved = steady_states(param_rows(points))
        monkeypatch.undo()
        for p, gap, error in zip(points, solved.gap, solved.errors):
            full = np.linalg.svd(build_superoperator(total_hamiltonian(p), bath_channels(p)).matrix,
                                 compute_uv=False)
            assert gap <= full[-2], p
            assert (error is not None and error.reason == "non_unique") == (full[-2] < DEGENERACY_TOL), p
        # both branches: some (point, block) pairs are measured and some ruled out
        assert 0 < sum(measured) < (len(engine.sizes) - 1) * len(points)

    def test_pinned_floor_bounds_the_null_block(self):
        # sigma_2(B) >= sigma_min(S) >= the floor, with S the trace-pinned system;
        # at these points every floor clears the bound
        blocks, system, inverse = pinned_systems(seeded_points(seed=14, count=48, t_min=5e-4))
        floors = solvers.pinned_floors(system, inverse)
        assert np.all(floors <= np.linalg.svd(system, compute_uv=False)[:, -1])
        assert np.all(floors <= np.linalg.svd(blocks[0], compute_uv=False)[:, -2])
        assert np.all(floors >= DEGENERACY_TOL)

    def test_floor_below_the_bound_by_its_allowance_falls_back_to_the_svd(self, monkeypatch):
        # point 2's null block scaled by c, so that 1 / ||S^-1||_F lands half
        # the rounding allowance above DEGENERACY_TOL: the floor, less the
        # allowance, does not clear the bound, and the measured sigma_2 does
        engine = block_engine()
        points = seeded_points(count=5)
        coef = generator_coefficients(param_rows(points))
        _, system, inverse = pinned_systems(points)
        # S(c) is diag(c, .., 1 at the pinned row, .., c) S(1), so S(c)^-1 has every column but pinned over c
        pinned = engine.layout.diagonal[0]
        columns = np.sum(np.abs(inverse[2]) ** 2, axis=0)
        allowance = 8 * engine.sizes[0] * np.finfo(float).eps * math.sqrt(len(engine.layout.diagonal))
        target = DEGENERACY_TOL + 0.5 * allowance
        c = math.sqrt((columns.sum() - columns[pinned]) / (target ** -2 - columns[pinned]))
        scale = np.array([1.0, 1.0, c, 1.0, 1.0])
        blocks, system, inverse = pinned_systems(points, scale)
        assert 1.0 / np.linalg.norm(inverse[2]) >= DEGENERACY_TOL
        assert solvers.pinned_floors(system, inverse)[2] < DEGENERACY_TOL
        sigma = np.linalg.svd(blocks[0][2], compute_uv=False)[-2]
        assert sigma >= DEGENERACY_TOL

        measured = []  # the null blocks each SVD of the engine is given
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            if a.shape[-1] == engine.sizes[0]:
                measured.append(a.copy())
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        solved = engine.solve_blocks(*blocks, coef)
        monkeypatch.undo()
        assert len(measured) == 1 and np.array_equal(measured[0], blocks[0][2:3])
        reference = steady_states(param_rows(points))
        assert solved.errors == [None] * 5
        assert solved.gap[2] <= sigma
        for k in (0, 1, 3, 4):
            assert np.array_equal(solved.currents[k], reference.currents[k])
            assert solved.gap[k] == reference.gap[k]

    def test_shipped_grids_make_no_svd_call(self, monkeypatch):
        # every null block's pinned floor and every coherence block's floor clear the bound
        rows = np.concatenate([grid_points(load_sweep(SCRIPTS / f"{name}.cfg"))
                               for name in ("transfer_curve", "output_curves", "coupling_gate_map")])
        assert rows.shape == (1160, 12)
        calls, inverses = [], []
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: calls.append(a.shape))
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a.dtype) or inv(a))
        solved = steady_states(rows)
        assert calls == []
        assert inverses and set(inverses) == {np.dtype(float)}  # the null blocks are real
        assert solved.errors == [None] * 1160

    def test_coupling_map_factors_some_states(self, monkeypatch):
        # the transfer and output curves' states are all cleared by their discs; the
        # coupling map's strongly coupled points are not, so the LDL^H path runs there
        factored = []
        pivots = StateSupport.pivots_bounded_below
        monkeypatch.setattr(StateSupport, "pivots_bounded_below",
                            lambda self, x, floor: factored.append(len(x)) or pivots(self, x, floor))
        counts = {}
        for name in ("transfer_curve", "output_curves", "coupling_gate_map"):
            factored.clear()
            rows = grid_points(load_sweep(SCRIPTS / f"{name}.cfg"))
            assert steady_states(rows).errors == [None] * len(rows)
            counts[name] = sum(factored)
        assert counts["transfer_curve"] == counts["output_curves"] == 0
        assert 0 < counts["coupling_gate_map"] < 900

    def test_shipped_grids_make_no_eigvalsh_call(self, monkeypatch):
        # every state passes StateSupport.broken_bounds, so no point's full matrix is measured
        rows = np.concatenate([grid_points(load_sweep(SCRIPTS / f"{name}.cfg"))
                               for name in ("transfer_curve", "output_curves", "coupling_gate_map")])
        assert rows.shape == (1160, 12)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args, **kwargs: calls.append(a.shape) or eigvalsh(a, *args, **kwargs))
        solved = steady_states(rows)
        assert calls == []
        assert solved.errors == [None] * 1160

    def test_refused_pivots_fail_every_point_naming_the_eigenvalue_check(self, monkeypatch):
        # the message names the bound the state check broke, even where the measured eigenvalue clears it
        monkeypatch.setattr(StateSupport, "bounded_below", lambda self, x, floor: np.zeros(len(x), dtype=bool))
        solved = steady_states(param_rows(seeded_points(count=20)))
        assert [e.reason for e in solved.errors] == ["invalid_state"] * 20
        for error in solved.errors:
            assert re.fullmatch(r"steady state violates state invariants: "
                                r"density matrix has negative eigenvalue -?\d\.\d{3}e[-+]\d+", str(error))

    def test_wide_points_measure_some_coherence_blocks_and_no_null_block(self, monkeypatch):
        engine = block_engine()
        points = [p for seed in range(5) for p in seeded_points(seed=seed, t_min=5e-4)]
        measured = {"null": 0, "coherence": 0}  # matrices given to the engine's SVDs
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            measured["null" if a.shape[-1] == engine.sizes[0] else "coherence"] += len(a)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        solved = steady_states(param_rows(points))
        monkeypatch.undo()
        assert solved.errors == [None] * len(points)
        assert measured["null"] == 0
        assert 0 < measured["coherence"] < (len(engine.sizes) - 1) * len(points)

    def test_overflowing_floor_rules_nothing_out(self):
        engine = block_engine()
        _, coherence = engine.assemble(generator_coefficients(param_rows(seeded_points(count=2))))
        first, second = engine.coherence_blocks(coherence)[:2]  # views of the entries
        first[1, 0, 0] = 1.7e308 * (1 + 1j)  # its magnitude overflows
        second[1, 0, 1] = second[1, 0, 2] = 1.7e308  # so does the row's sum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floors = engine.singular_floors(coherence)
        assert not np.isfinite(floors[1, :2]).any() and not (floors[1, :2] > -np.inf).any()
        assert np.isfinite(floors[0]).all() and np.isfinite(floors[1, 2:]).all()

    def test_affine_blocks_match_the_generator(self):
        engine = block_engine()
        order = coherence_orders()
        v = np.arange(144)
        transpose = v // 12 + 12 * (v % 12)  # position of rho[b, a] for each entry rho[a, b]
        mirrors = [np.sort(transpose[idx]) for idx in engine.index]
        # the kept components and the mirrors not kept partition the 144 entries
        components = engine.index + [m for m, idx in zip(mirrors, engine.index) if not np.array_equal(m, idx)]
        assert np.array_equal(np.sort(np.concatenate(components)), v)
        assert sorted(engine.sizes) == [1, 1, 1, 5, 5, 7, 10, 10, 19, 26]
        label = np.empty(144, dtype=int)
        for k, idx in enumerate(components):
            label[idx] = k
            # the physics cross-check: each component lies inside one coherence order
            assert np.all(order[idx] == order[idx[0]])
        # the null block is the maximally mixed state's invariant support
        mixed = invariant_support(transfer_liouvillian().matrix, vec(np.eye(12)))
        assert len(mixed) == 26 and np.array_equal(engine.index[0], mixed)
        # the Hermitian basis is orthonormal, and holds each population at its own position
        basis = engine.layout.basis
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(engine.sizes[0]))) <= 1e-15
        assert np.array_equal(basis[:, engine.layout.diagonal], np.eye(engine.sizes[0])[:, engine.layout.diagonal])
        for p in seeded_points(count=8):
            full = build_superoperator(total_hamiltonian(p), bath_channels(p)).matrix
            # no coupling between components, exactly
            assert np.all(full[label[:, None] != label[None, :]] == 0)
            null, coherence = engine.assemble(generator_coefficients(param_rows([p])))
            assert null.dtype == float and coherence.shape == (1, sum(m * m for m in engine.sizes[1:]))
            # the null block is U^H B U of the generator's, whose imaginary part is rounding
            block = full[np.ix_(engine.index[0], engine.index[0])]
            hermitian = basis.conj().T @ block @ basis
            assert np.max(np.abs(hermitian.imag)) <= 1e-15 * np.max(np.abs(block))
            assert np.max(np.abs(null[0] - hermitian.real)) <= 1e-14
            np.testing.assert_allclose(np.linalg.svd(null[0], compute_uv=False),
                                       np.linalg.svd(block, compute_uv=False), rtol=1e-12, atol=1e-15)
            blocks = engine.coherence_blocks(coherence)
            assert len(blocks) == len(engine.index) - 1
            for block, idx, mirror in zip(blocks, engine.index[1:], mirrors[1:]):
                assert np.max(np.abs(block[0] - full[np.ix_(idx, idx)])) <= 1e-14
                np.testing.assert_allclose(
                    np.linalg.svd(full[np.ix_(mirror, mirror)], compute_uv=False),
                    np.linalg.svd(block[0], compute_uv=False), rtol=1e-10, atol=1e-15,
                )

    def test_every_block_counts_in_the_gap(self):
        # one point's block scaled until its smallest relevant singular value
        # (the second-smallest for the null block) is below the bound
        engine = block_engine()
        points = seeded_points(count=5)
        coef = generator_coefficients(param_rows(points))
        reference = steady_states(param_rows(points))
        for b in range(len(engine.index)):
            null, coherence = engine.assemble(coef)
            block = null if b == 0 else engine.coherence_blocks(coherence)[b - 1]  # a view of the entries
            s = np.linalg.svd(block[2], compute_uv=False)
            block[2] *= 0.5 * DEGENERACY_TOL / s[-2 if b == 0 else -1]
            solved = engine.solve_blocks(null, coherence, coef)
            assert solved.errors[2] is not None and solved.errors[2].reason == "non_unique", b
            for k in (0, 1, 3, 4):
                assert solved.errors[k] is None, b
                assert np.array_equal(solved.currents[k], reference.currents[k]), b

    def test_split_populations_fail_at_build(self, monkeypatch):
        # without jumps only the two exchange terms link populations: the
        # 0/1 exchanges of equal excitation number, and no qutrit level 2.
        # The table is cached, so it is rebuilt without jumps here, and
        # dropped again so that no later test reads it.
        solvers.generator_table.cache_clear()
        monkeypatch.setattr(solvers, "jump_operators", lambda: [])
        try:
            with pytest.raises(RuntimeError, match="^the generator terms split the 12 populations over 8 blocks$"):
                solvers.BlockEngine()
        finally:
            solvers.generator_table.cache_clear()

    def test_unreachable_tolerance_fails_every_point_with_residual(self, monkeypatch):
        monkeypatch.setattr(solvers, "RESIDUAL_TOL", 1e-40)
        solved = steady_states(param_rows(seeded_points(count=4)))
        assert [e.reason for e in solved.errors] == ["residual"] * 4
        assert isinstance(solved.errors[0], SteadyStateError)
        assert re.search(r"residual .* > 1\.0e-40$", str(solved.errors[0]))

    def test_unreachable_balance_fails_every_point_as_unbalanced(self, monkeypatch):
        # the engine and the oracle decide conservation by one function, which reads the bound at call time
        monkeypatch.setattr(solvers, "BALANCE_TOL", 1e-40)
        points = seeded_points(count=4)
        solved = steady_states(param_rows(points))
        assert [e.reason for e in solved.errors] == ["unbalanced"] * 4
        unbalanced = r"^steady-state currents do not balance: sum \d\.\d{3}e[-+]\d+$"
        assert isinstance(solved.errors[0], SteadyStateError)
        assert re.search(unbalanced, str(solved.errors[0]))
        for p in points:
            with pytest.raises(SteadyStateError, match=unbalanced) as exc:
                solve(p)
            assert exc.value.reason == "unbalanced"

    def test_balance_check_fails_a_nan_imbalance(self):
        currents = np.array([[1.0, -0.5, -0.5], [1.0, -1.0, 1e-11], [1.0, -1.0, 1e-9], [np.nan, 0.0, 0.0]])
        assert solvers.balanced(currents).tolist() == [True, True, False, False]

    @pytest.mark.parametrize("inject, reason", [("nan", "non_finite"), ("singular", "singular"),
                                                ("indefinite", "invalid_state"), ("traceless", "zero_trace")])
    def test_bad_matrix_fails_alone(self, inject, reason):
        engine = block_engine()
        points = seeded_points(count=5)
        coef = generator_coefficients(param_rows(points))
        null, coherence = engine.assemble(coef)
        x = np.zeros(null.shape[1], dtype=complex)
        if inject == "nan":
            coherence[2, 0] = np.nan  # entry (0, 0) of the first coherence block
        elif inject == "indefinite":
            # a projector whose null vector has unit trace, a clear gap and a
            # negative population: every check before the state's passes
            x[engine.layout.diagonal[:3]] = 0.7, 0.5, -0.2
        elif inject == "traceless":
            # a projector with a clear gap whose null vector is a unit coherence
            # beside two populations that cancel to 1e-9: its trace is near zero
            x[engine.layout.diagonal[:2]] = 1e-3, -1e-3 + 1e-9
            off = np.setdiff1d(np.arange(len(x)), engine.layout.diagonal)[0]
            x[[off, engine.layout.partner[off]]] = 1.0
        else:
            # a null vector of zero trace (a coherence's coordinate in the Hermitian
            # basis) with a clear spectral gap: the trace-pinned system is exactly singular
            off = np.setdiff1d(np.arange(len(x)), engine.layout.diagonal)[0]
            null[2] = np.diag([0.0 if k == off else 1.0 for k in range(len(x))])
        if inject in ("indefinite", "traceless"):
            # I - y y^T / |y|^2 in the Hermitian basis, for the real coordinates y = U^H x of the
            # Hermitian x: its null vector is y, and its other singular values are 1
            y = (engine.layout.basis.conj().T @ x).real
            null[2] = np.eye(len(y)) - np.outer(y, y) / (y @ y)
        solved = engine.solve_blocks(null, coherence, coef)
        reference = steady_states(param_rows(points))
        assert solved.errors[2] is not None and solved.errors[2].reason == reason
        if inject == "indefinite":
            assert str(solved.errors[2]) == ("steady state violates state invariants: "
                                             "density matrix has negative eigenvalue -2.000e-01")
        if inject == "traceless":
            assert str(solved.errors[2]) == "no steady state at tolerance: null vector has near-zero trace"
        for k in (0, 1, 3, 4):
            assert solved.errors[k] is None
            assert np.array_equal(solved.currents[k], reference.currents[k])

    def test_infinite_rate_fails_alone(self):
        # every field is finite and valid, but kappa_l * (n + 1) overflows to an infinite rate
        rows = param_rows(seeded_points(count=3))
        rows[1, [PARAM_FIELDS.index("kappa_l"), PARAM_FIELDS.index("t_l")]] = 1e308, 1e3
        assert generator_coefficients(rows[1:2])[0, 6] == math.inf
        solved = steady_states(rows)
        assert [e.reason if e else "ok" for e in solved.errors] == ["ok", "non_finite", "ok"]

    def test_threads_match_one_thread_over_three_chunks(self):
        # two full chunks and 8 points; the point with every rate below the
        # degeneracy bound fails in the middle chunk
        points = seeded_points(count=2 * solvers.CHUNK + 8)
        points[solvers.CHUNK + 4] = dataclasses.replace(TRANSFER_PARAMS, kappa_l=1e-12, kappa_m=1e-12, kappa_r=1e-12)
        serial, threaded = steady_states(param_rows(points), threads=1), steady_states(param_rows(points), threads=3)
        assert [e.reason if e else "ok" for e in serial.errors].count("non_unique") == 1
        assert serial.errors[solvers.CHUNK + 4] is not None
        for name in ("x", "residual", "currents", "gap"):
            ours, theirs = getattr(threaded, name), getattr(serial, name)
            assert len(theirs) == len(points) and ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
        assert ([(e.reason, str(e)) if e else None for e in threaded.errors]
                == [(e.reason, str(e)) if e else None for e in serial.errors])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_points_give_no_rows(self, threads):
        solved = steady_states(np.empty((0, 12)), threads=threads)
        assert solved.x.shape == (0, 26) and solved.x.dtype == complex
        assert solved.currents.shape == (0, 3) and solved.residual.shape == solved.gap.shape == (0,)
        assert solved.errors == []

    def test_threads_below_one_are_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(solvers, "block_engine", lambda: pytest.fail("solved with no threads"))
        with pytest.raises(ValueError, match="^threads must be at least 1$"):
            steady_states(param_rows([TRANSFER_PARAMS]), threads=0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_invalid_row_is_named_before_any_solve(self, monkeypatch, threads):
        # a negative rate in the second chunk: no chunk is solved, not even the first
        rows = param_rows(seeded_points(count=2 * solvers.CHUNK))
        rows[solvers.CHUNK + 3, PARAM_FIELDS.index("kappa_m")] = -0.02
        monkeypatch.setattr(solvers, "block_engine", lambda: pytest.fail("solved an invalid grid"))
        monkeypatch.setattr(solvers, "generator_coefficients", lambda rows: pytest.fail("solved an invalid grid"))
        message = f"^parameter row {solvers.CHUNK + 3}: dissipation rates must be positive$"
        with pytest.raises(ValueError, match=message):
            steady_states(rows, threads=threads)

    def test_batch_of_one_result_is_a_density_matrix(self):
        solved = steady_states(param_rows([TRANSFER_PARAMS]))
        assert solved.errors == [None] and np.isfinite(solved.currents).all()
        state = DensityMatrix(solved.rho(0))
        assert trace_distance(state, solve(TRANSFER_PARAMS).state) <= 1e-10


class TestGeneratorTable:
    def test_rows_are_the_fields_and_channel_rates_bit_for_bit(self):
        # the figure rows, and a row at t_m = 1e-3, where e2 / t_m = 1000 > 700 makes both
        # middle occupations exactly 0: each row is its Hamiltonian fields, then channel_rates
        # of each channel of its record, and an n-row call holds the one-row calls' bits
        rows = np.concatenate([grid_points(load_sweep(SCRIPTS / f"{name}.cfg"))
                               for name in ("transfer_curve", "output_curves", "coupling_gate_map")]
                              + [param_rows([dataclasses.replace(TRANSFER_PARAMS, t_m=1e-3)])])
        coef = generator_coefficients(rows)
        assert coef.shape == (1161, 14) and coef.dtype == float
        assert coef[-1, [9, 11]].tolist() == [0.0, 0.0] and coef[-1, [8, 10]].tolist() == [0.02, 0.02]
        for k, row in enumerate(rows.tolist()):
            p = SystemParams(*row)
            expected = [getattr(p, name) for name in HAMILTONIAN_FIELDS]
            for channel in bath_channels(p):
                expected += channel_rates(channel.delta_e, channel.kappa, channel.temperature)
            assert np.array(expected).tobytes() == coef[k].tobytes(), k
            assert generator_coefficients(rows[k: k + 1]).tobytes() == coef[k].tobytes(), k

    def test_holds_the_joint_pattern_of_the_14_terms(self):
        positions, values = solvers.generator_table()
        assert positions.shape == (544,) and values.shape == (14, 544)
        assert np.all(np.diff(positions) > 0)
        assert np.all(values.any(axis=0))

    def test_matches_operator_form_and_general_builder(self, rng):
        # seeded_points alternate resonant and detuned levels and set g = 0 on
        # every fourth; the same points at T = 5e-4 have every x = dE/T above
        # 700, so n = 0 in all four channels
        points = seeded_points(count=12)
        cold = [dataclasses.replace(p, t_l=5e-4, t_m=5e-4, t_r=5e-4) for p in points]
        assert np.all(generator_coefficients(param_rows(cold))[:, 7::2] == 0.0)
        for p in points + cold:
            liou = chain_liouvillian(p)
            scale = np.max(np.abs(liou.matrix))
            for _ in range(5):
                rho = random_hermitian(rng, 12)
                diff = unvec(liou.matrix @ vec(rho)) - rhs_apply(liou.hamiltonian, liou.channels, rho)
                assert np.max(np.abs(diff)) <= 1e-14 * scale * np.max(np.abs(rho)), p
            general = build_superoperator(total_hamiltonian(p), bath_channels(p)).matrix
            assert np.max(np.abs(liou.matrix - general)) <= 1e-15 * scale, p


class TestCurrentTable:
    def test_functionals_are_zero_outside_the_null_block(self):
        # -vec(H_c^T) S_d over all 144 entries of vec(rho), from dense terms: every
        # column the engine drops is exactly zero, so its currents hold for any state
        engine = block_engine()
        positions, values = solvers.generator_table()
        dissipators = np.zeros((8, 144 * 144), dtype=complex)
        dissipators[:, positions] = values[6:]
        h_rows = np.array([vec(h.T) for h in hamiltonian_terms()])
        full = -np.einsum("ci,dij->cdj", h_rows, dissipators.reshape(8, 144, 144))
        assert full.shape == (6, 8, 144)
        outside = np.setdiff1d(np.arange(144), engine.index[0])
        assert np.max(np.abs(full[..., outside])) == 0.0
        assert np.count_nonzero(full.any(axis=(0, 1))) == 20
        # the engine's table reads the real coordinates y of x = U y: each H_c lies in the
        # null block, and r_c = vec(H_c^T) U is real there, as H_c is Hermitian
        assert np.max(np.abs(h_rows[:, outside])) == 0.0
        r = h_rows[:, engine.index[0]] @ engine.layout.basis
        assert np.max(np.abs(r.imag)) <= 1e-15 * np.max(np.abs(r))
        inside = full[..., engine.index[0]] @ engine.layout.basis
        assert engine.functionals.dtype == float and engine.functionals.shape == (6, 8, 26)
        assert np.max(np.abs(engine.functionals - inside)) <= 1e-15 * np.max(np.abs(inside))

    @pytest.mark.parametrize("start", ["mixed", "random"])
    def test_matches_bath_currents_on_every_trajectory_sample(self, rng, start):
        # resonant and detuned levels, g = 0 on every fourth point, and the
        # same points at T = 5e-4, where n = 0 in all four channels; the
        # random start fills all 144 entries of vec(rho)
        engine = block_engine()
        points = seeded_points(count=8)
        points += [dataclasses.replace(p, t_l=5e-4, t_m=5e-4, t_r=5e-4) for p in points]
        worst = 0.0
        for p in points:
            liou = chain_liouvillian(p)
            rho0 = DensityMatrix.maximally_mixed(12) if start == "mixed" else DensityMatrix(random_density(rng, 12))
            states = evolve(rho0, liou, 50.0, 10, 0.05)
            expected = [bath_currents(liou.hamiltonian, liou.channels, s.mat) for s in states]
            expected = np.array([[c.j_l, c.j_m, c.j_r] for c in expected])
            scale = np.max(np.abs(expected))
            x = np.array([vec(s.mat)[engine.layout.index] for s in states])
            ours = engine.heat_currents(generator_coefficients(param_rows([p])), x)
            worst = max(worst, np.max(np.abs(ours - expected)) / scale)
        # measured 4.4e-15 from the mixed start and 2.4e-14 from the random one, whose
        # (c, d) terms reach about 20 times the largest current and cancel
        assert worst <= 1e-13

    def test_non_hermitian_state_reads_as_its_hermitian_part(self, rng):
        engine = block_engine()
        solved = steady_states(param_rows([TRANSFER_PARAMS]))
        coef = generator_coefficients(param_rows([TRANSFER_PARAMS]))
        # an anti-Hermitian part on the null block's support, whose largest entry is 1e-3
        skew = engine.layout.matrices(rng.normal(size=26) + 1j * rng.normal(size=26))
        skew = vec(skew - skew.conj().T)[engine.layout.index]
        x = np.array([solved.x[0], solved.x[0] + 1e-3 * skew / np.max(np.abs(skew))])
        currents = engine.heat_currents(coef, x)
        assert currents.dtype == float and currents.shape == (2, 3)
        assert np.array_equal(currents[0], solved.currents[0])
        assert np.max(np.abs(currents[1] - currents[0])) <= 1e-15 * np.max(np.abs(currents[0]))


class TestUnitScale:
    @pytest.mark.parametrize("scale", [
        1e-6, 1e-3, 1e3, 3e5,
        pytest.param(1e8, marks=pytest.mark.xfail(
            raises=SteadyStateError, strict=True,
            reason="the absolute RESIDUAL_TOL (1e-10): the residual's rounding, about 6e-10 here, grows with the scale",
        )),
    ])
    def test_currents_scale_with_the_units(self, scale):
        # every energy, coupling, rate and temperature times s leaves the state as it is
        # and multiplies each current, an energy times a rate, by s^2 (measured <= 4.2e-15)
        points = [load_params(SCRIPTS / f"{name}.cfg") for name in ("transfer_curve", "output_curves",
                                                                     "coupling_gate_map")] + [DEFAULT_PARAMS]
        scaled = scale * param_rows(points)
        unit, solved = steady_states(param_rows(points)), steady_states(scaled)
        for k, p in enumerate(scaled):
            if solved.errors[k] is not None:
                raise solved.errors[k]
            ours, expected = solved.currents[k], scale**2 * unit.currents[k]
            assert np.max(np.abs(ours - expected)) <= 1e-13 * np.max(np.abs(ours)), p


class TestConnectedComponents:
    def test_hand_built_link(self):
        link = np.zeros((8, 8), dtype=bool)
        # one direction suffices, and a self-link changes nothing
        for i, j in ((5, 0), (3, 5), (1, 6), (7, 7), (4, 7)):
            link[i, j] = True
        components = connected_components(link)
        assert [c.tolist() for c in components] == [[0, 3, 5], [1, 6], [2], [4, 7]]


class TestBlockEigenvalues:
    @pytest.mark.parametrize("case", ["default", "transfer", "uncoupled", "coupling_map_x1e-6"])
    def test_gap_and_radius_match_the_full_spectrum(self, case):
        # triheat check's horizon and step come from the kept blocks' eigenvalues;
        # each dropped mirror block holds their complex conjugates. At a millionth
        # of the coupling map's scales the gap is about 2e-9, so no fixed cut-off
        # on |eigenvalue| could tell the zero eigenvalue apart
        coupling = load_params(SCRIPTS / "coupling_gate_map.cfg")
        p = {"default": DEFAULT_PARAMS, "transfer": TRANSFER_PARAMS,
             "uncoupled": dataclasses.replace(TRANSFER_PARAMS, g_lm=0.0, g_mr=0.0),
             "coupling_map_x1e-6": SystemParams(*(1e-6 * v for v in dataclasses.astuple(coupling)))}[case]
        matrix = build_superoperator(total_hamiltonian(p), bath_channels(p)).matrix
        null, coherence = block_engine().assemble(generator_coefficients(param_rows([p])))
        blocks = [null, *block_engine().coherence_blocks(coherence)]  # U^H B U has B's eigenvalues
        ours, full = np.concatenate([np.linalg.eigvals(b[0]) for b in blocks]), np.linalg.eigvals(matrix)
        assert len(ours) == sum(block_engine().sizes) == 85
        # check's rule: the solve certified a unique steady state, so the one
        # eigenvalue of least modulus is the zero one
        gaps = [-np.max(np.delete(ours.real, np.argmin(np.abs(ours)))), -np.sort(full.real)[-2]]
        if case == "coupling_map_x1e-6":
            assert 1e-9 < gaps[1] < 1e-8
        radii = [np.max(np.abs(ev)) for ev in (ours, full)]
        assert gaps[0] == pytest.approx(gaps[1], rel=1e-10)
        assert radii[0] == pytest.approx(radii[1], rel=1e-10)
        # the uncoupled chain's pattern splits further than the coupled one's
        count = len(connected_components(matrix != 0))
        assert count > 19 if case == "uncoupled" else count == 19
