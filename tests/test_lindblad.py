import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triheat import (
    BathChannel,
    bath_channels,
    build_superoperator,
    dissipator_apply,
    gibbs_state,
    occupation,
    rhs_apply,
    total_hamiltonian,
    unvec,
    vec,
)
from conftest import TRANSFER_PARAMS, random_hermitian

QUBIT_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)


def qubit_channel(delta_e=1.0, kappa=0.5, temperature=1.0):
    return BathChannel("X", QUBIT_LOWER, delta_e, kappa, temperature)


class TestOccupation:
    def test_unit_gap_unit_temperature(self):
        # 1/(e - 1), frozen from a 50-digit evaluation
        assert occupation(1.0, 1.0) == pytest.approx(0.58197670686932642439, rel=1e-14)

    def test_unit_gap_double_temperature(self):
        # 1/(e^0.5 - 1)
        assert occupation(1.0, 2.0) == pytest.approx(1.5414940825367982841, rel=1e-14)

    def test_cold_limit_clamps_to_zero(self):
        val = occupation(1.0, 1e-3)
        assert val == 0.0
        assert val < 1e-300

    def test_near_clamp_boundary_finite(self):
        assert 0.0 < occupation(699.0, 1.0) < 1e-300

    @pytest.mark.parametrize("de,t", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, de, t):
        with pytest.raises(ValueError):
            occupation(de, t)

    def test_monotone_grid(self):
        temps = np.linspace(0.2, 5.0, 25)
        gaps = np.linspace(0.2, 5.0, 25)
        for de in gaps:
            vals = [occupation(float(de), float(t)) for t in temps]
            assert all(b > a for a, b in zip(vals, vals[1:]))
        for t in temps:
            vals = [occupation(float(de), float(t)) for de in gaps]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    @settings(max_examples=50, deadline=None)
    @given(
        de=st.floats(min_value=0.05, max_value=20.0),
        t=st.floats(min_value=0.05, max_value=20.0),
        bump=st.floats(min_value=0.01, max_value=5.0),
    )
    def test_monotone_property(self, de, t, bump):
        assert occupation(de, t + bump) > occupation(de, t)
        assert occupation(de + bump, t) < occupation(de, t)


class TestDissipator:
    def test_zero_temperature_pure_decay(self):
        ch = qubit_channel(temperature=1e-6)  # occupation clamps to zero
        d = dissipator_apply(ch, np.eye(2, dtype=complex) / 2)
        assert d[0, 0].real > 0  # ground gains
        assert d[1, 1].real < 0  # excited manifold drains
        assert abs(np.trace(d)) < 1e-15

    def test_traceless_on_random_hermitian(self, rng):
        p = TRANSFER_PARAMS
        chans = bath_channels(p)
        for _ in range(5):
            rho = random_hermitian(rng, 12)
            for ch in chans:
                assert abs(np.trace(dissipator_apply(ch, rho))) < 1e-13

    def test_gibbs_state_is_fixed_point(self):
        # detailed balance: absorption/emission ratio equals the Boltzmann factor
        ch = qubit_channel(delta_e=1.3, kappa=0.7, temperature=0.9)
        rho_g = gibbs_state([0.0, 1.3], 0.9)
        assert np.max(np.abs(dissipator_apply(ch, rho_g))) <= 1e-13

    def test_qutrit_pair_fixes_three_level_gibbs(self):
        p = TRANSFER_PARAMS
        ops_m1 = np.zeros((3, 3), dtype=complex)
        ops_m1[0, 1] = 1.0
        ops_m2 = np.zeros((3, 3), dtype=complex)
        ops_m2[1, 2] = 1.0
        m1 = BathChannel("M1", ops_m1, p.e2, p.kappa_m, 0.6)
        m2 = BathChannel("M2", ops_m2, p.e3 - p.e2, p.kappa_m, 0.6)
        rho_g = gibbs_state([0.0, p.e2, p.e3], 0.6)
        resid = dissipator_apply(m1, rho_g) + dissipator_apply(m2, rho_g)
        assert np.max(np.abs(resid)) <= 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dissipator_apply(qubit_channel(), np.eye(3, dtype=complex) / 3)


class TestRhs:
    def test_commuting_diagonal_case_is_zero(self):
        h = np.diag([0.0, 1.0, 3.0]).astype(complex)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        assert np.max(np.abs(rhs_apply(h, [], rho))) == 0.0

    def test_traceless(self, rng):
        p = TRANSFER_PARAMS
        h = total_hamiltonian(p)
        chans = bath_channels(p)
        for _ in range(5):
            rho = random_hermitian(rng, 12)
            assert abs(np.trace(rhs_apply(h, chans, rho))) < 1e-12


class TestVectorization:
    def test_column_stacking_order(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        assert np.array_equal(vec(m), np.array([1.0, 3.0, 2.0, 4.0], dtype=complex))
        assert np.array_equal(unvec(vec(m)), m)

    def test_sandwich_identity(self, rng):
        # vec(A X B) == (B^T kron A) vec(X), the convention everything relies on
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ vec(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestSuperoperator:
    def test_trivial_generator_is_zero(self):
        liou = build_superoperator(np.zeros((3, 3), dtype=complex), [])
        assert liou.matrix.shape == (9, 9)
        assert np.max(np.abs(liou.matrix)) == 0.0

    def test_matrix_matches_direct_application(self, rng):
        p = TRANSFER_PARAMS
        h = total_hamiltonian(p)
        chans = bath_channels(p)
        liou = build_superoperator(h, chans)
        assert liou.matrix.shape == (144, 144)
        for _ in range(50):
            rho = random_hermitian(rng, 12)
            diff = unvec(liou.matrix @ vec(rho)) - rhs_apply(h, chans, rho)
            assert np.max(np.abs(diff)) <= 1e-12

    def test_hermiticity_preserved(self, rng):
        p = TRANSFER_PARAMS
        liou = build_superoperator(total_hamiltonian(p), bath_channels(p))
        for _ in range(10):
            out = unvec(liou.matrix @ vec(random_hermitian(rng, 12)))
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_trace_functional_annihilated(self):
        p = TRANSFER_PARAMS
        liou = build_superoperator(total_hamiltonian(p), bath_channels(p))
        row = vec(np.eye(12, dtype=complex)) @ liou.matrix
        assert np.max(np.abs(row)) <= 1e-12

    def test_spectrum_supports_unique_steady_state(self):
        p = TRANSFER_PARAMS
        liou = build_superoperator(total_hamiltonian(p), bath_channels(p))
        ev = np.linalg.eigvals(liou.matrix)
        assert np.min(np.abs(ev)) <= 1e-10
        assert np.max(ev.real) <= 1e-10
