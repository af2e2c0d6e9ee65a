import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triheat import (
    SystemParams,
    bath_channels,
    gibbs_state,
    hamiltonian_terms,
    total_hamiltonian,
    transition_ops,
)
from triheat.model import HAMILTONIAN_FIELDS
from conftest import TRANSFER_PARAMS

energy = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
rate = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
temp = st.floats(min_value=0.05, max_value=10.0, allow_nan=False)
coupling = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def valid_params(draw):
    e2 = draw(energy)
    return SystemParams(
        e1=draw(energy), e2=e2, e3=e2 + draw(energy), e4=draw(energy),
        g_lm=draw(coupling), g_mr=draw(coupling),
        kappa_l=draw(rate), kappa_m=draw(rate), kappa_r=draw(rate),
        t_l=draw(temp), t_m=draw(temp), t_r=draw(temp),
    )


class TestSystemParams:
    @pytest.mark.parametrize(
        "bad",
        [
            {"e1": 0.0},
            {"e1": -1.0},
            {"e3": 0.5},  # must exceed e2=1.0
            {"g_lm": -0.1},
            {"kappa_m": 0.0},
            {"t_r": -0.2},
            {"t_l": 0.0},
        ],
    )
    def test_invariants_rejected(self, bad):
        with pytest.raises(ValueError):
            dataclasses.replace(TRANSFER_PARAMS, **bad)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SystemParams)])
    def test_non_finite_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            dataclasses.replace(TRANSFER_PARAMS, **{name: value})


def basis_index(i, j, k):
    return (i * 3 + j) * 2 + k


def hamiltonian(p, **couplings):
    """total_hamiltonian at p with the given couplings; both are 0 unless given."""
    return total_hamiltonian(dataclasses.replace(p, **{"g_lm": 0.0, "g_mr": 0.0, **couplings}))


def off_diagonal(h):
    return h - np.diag(np.diag(h))


class TestLocalHamiltonians:
    """The level energies of each factor, read off total_hamiltonian's g = 0 diagonal."""

    def test_reference_energies(self):
        d = np.diag(hamiltonian(TRANSFER_PARAMS))
        assert np.array_equal([d[basis_index(i, 0, 0)] for i in range(2)], [0.0, 1.0])
        assert np.array_equal([d[basis_index(0, j, 0)] for j in range(3)], [0.0, 1.0, 3.0])
        assert np.array_equal([d[basis_index(0, 0, k)] for k in range(2)], [0.0, 1.0])

    @settings(max_examples=25, deadline=None)
    @given(p=valid_params())
    def test_diagonal_with_zero_ground(self, p):
        h = hamiltonian(p)
        assert np.max(np.abs(off_diagonal(h))) == 0.0
        assert np.max(np.abs(h.imag)) == 0.0
        assert h[0, 0] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(p=valid_params())
    def test_middle_trace(self, p):
        d = np.diag(hamiltonian(p))
        assert abs(d[basis_index(0, 1, 0)] + d[basis_index(0, 2, 0)] - (p.e2 + p.e3)) < 1e-12


class TestFreeHamiltonian:
    """total_hamiltonian with both couplings off."""

    def test_reference_diagonal(self):
        # Enumerated by hand: E_L(i) + E_M(j) + E_R(k), right index fastest.
        expected = [0, 1, 1, 2, 3, 4, 1, 2, 2, 3, 4, 5]
        h0 = hamiltonian(TRANSFER_PARAMS)
        assert np.max(np.abs(h0 - np.diag(expected).astype(complex))) == 0.0

    def test_vanishing_energies_limit(self):
        tiny = dataclasses.replace(TRANSFER_PARAMS, e1=1e-15, e2=1e-15, e3=2e-15, e4=1e-15)
        assert np.max(np.abs(hamiltonian(tiny))) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(p=valid_params())
    def test_trace_multiplicities(self, p):
        expected = 6 * p.e1 + 4 * p.e2 + 4 * p.e3 + 6 * p.e4
        assert abs(np.trace(hamiltonian(p)) - expected) < 1e-10


class TestTransitionOps:
    def test_qubit_projector_algebra(self):
        ops = transition_ops()
        assert np.array_equal(ops.qubit_lower @ ops.qubit_raise, np.diag([1.0, 0.0]))
        assert np.array_equal(ops.qubit_raise @ ops.qubit_lower, np.diag([0.0, 1.0]))

    def test_qutrit_projector(self):
        ops = transition_ops()
        proj = ops.qutrit_lower_01.conj().T @ ops.qutrit_lower_01
        assert np.array_equal(proj, np.diag([0.0, 1.0, 0.0]))

    def test_qutrit_double_lowering(self):
        ops = transition_ops()
        hop = ops.qutrit_lower_01 @ ops.qutrit_lower_12
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = 1.0
        assert np.array_equal(hop, expected)

    def test_daggers_consistent(self):
        ops = transition_ops()
        assert np.array_equal(ops.qutrit_raise_01, ops.qutrit_lower_01.conj().T)
        assert np.array_equal(ops.qutrit_raise_12, ops.qutrit_lower_12.conj().T)


class TestInteractions:
    """The off-diagonal part of total_hamiltonian: the two exchange couplings."""

    def test_zero_coupling(self):
        assert np.max(np.abs(off_diagonal(hamiltonian(TRANSFER_PARAMS)))) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(p=valid_params())
    def test_hermitian(self, p):
        lm = off_diagonal(hamiltonian(p, g_lm=p.g_lm))
        mr = off_diagonal(hamiltonian(p, g_mr=p.g_mr))
        for h in (lm, mr, total_hamiltonian(p)):
            assert np.max(np.abs(h - h.conj().T)) <= 1e-14

    def test_lm_connects_expected_states(self):
        # exchange |1,0,k> <-> |0,1,k| only, with amplitude g_lm
        h = off_diagonal(hamiltonian(TRANSFER_PARAMS, g_lm=TRANSFER_PARAMS.g_lm))
        expected = {
            (basis_index(1, 0, k), basis_index(0, 1, k)) for k in (0, 1)
        } | {
            (basis_index(0, 1, k), basis_index(1, 0, k)) for k in (0, 1)
        }
        nz = {tuple(idx) for idx in np.argwhere(np.abs(h) > 0)}
        assert nz == expected
        for idx in expected:
            assert h[idx] == TRANSFER_PARAMS.g_lm

    def test_mr_connects_expected_states(self):
        # exchange |i,1,0> <-> |i,0,1| only, with amplitude g_mr
        h = off_diagonal(hamiltonian(TRANSFER_PARAMS, g_mr=TRANSFER_PARAMS.g_mr))
        expected = {
            (basis_index(i, 0, 1), basis_index(i, 1, 0)) for i in (0, 1)
        } | {
            (basis_index(i, 1, 0), basis_index(i, 0, 1)) for i in (0, 1)
        }
        nz = {tuple(idx) for idx in np.argwhere(np.abs(h) > 0)}
        assert nz == expected
        for idx in expected:
            assert h[idx] == TRANSFER_PARAMS.g_mr


class TestTotalHamiltonian:
    def test_reduces_to_free_part(self):
        # with g = 0 the diagonal is E_L(i) + E_M(j) + E_R(k), built here from the levels
        p = TRANSFER_PARAMS
        left, mid, right = (0.0, p.e1), (0.0, p.e2, p.e3), (0.0, p.e4)
        free = [left[i] + mid[j] + right[k] for i in range(2) for j in range(3) for k in range(2)]
        assert np.array_equal(hamiltonian(p), np.diag(free).astype(complex))

    def test_real_spectrum(self):
        ev = np.linalg.eigvals(total_hamiltonian(TRANSFER_PARAMS))
        assert np.max(np.abs(ev.imag)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(p=valid_params())
    def test_interactions_traceless(self, p):
        assert abs(np.trace(total_hamiltonian(p)) - np.trace(hamiltonian(p))) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(p=valid_params())
    def test_sum_of_fixed_terms(self, p):
        terms = hamiltonian_terms()
        assert len(terms) == len(HAMILTONIAN_FIELDS)
        h = sum(getattr(p, name) * term for name, term in zip(HAMILTONIAN_FIELDS, terms))
        np.testing.assert_allclose(h, total_hamiltonian(p), rtol=0, atol=1e-15 * np.max(np.abs(h)))

    def test_resonant_exchange_commutes(self):
        # e1 == e2 and e2 == e4 at the reference point, so both interaction
        # terms conserve the free energy
        p = TRANSFER_PARAMS
        h0 = hamiltonian(p)
        for v in (off_diagonal(hamiltonian(p, g_lm=p.g_lm)), off_diagonal(hamiltonian(p, g_mr=p.g_mr))):
            assert np.max(np.abs(h0 @ v - v @ h0)) <= 1e-12

    def test_detuned_exchange_does_not_commute(self):
        p = dataclasses.replace(TRANSFER_PARAMS, e1=1.7)
        h0 = hamiltonian(p)
        v = off_diagonal(hamiltonian(p, g_lm=p.g_lm))
        assert np.max(np.abs(h0 @ v - v @ h0)) > 1e-3


class TestBathChannels:
    def test_exactly_four_unique_labels(self):
        chans = bath_channels(TRANSFER_PARAMS)
        assert [c.label for c in chans] == ["L", "M1", "M2", "R"]

    def test_transition_energies(self):
        chans = bath_channels(TRANSFER_PARAMS)
        assert [c.delta_e for c in chans] == [1.0, 1.0, 2.0, 1.0]

    def test_rates_and_temperatures(self):
        p = TRANSFER_PARAMS
        by_label = {c.label: c for c in bath_channels(p)}
        assert by_label["L"].kappa == p.kappa_l and by_label["L"].temperature == p.t_l
        assert by_label["M1"].kappa == p.kappa_m and by_label["M1"].temperature == p.t_m
        assert by_label["M2"].kappa == p.kappa_m and by_label["M2"].temperature == p.t_m
        assert by_label["R"].kappa == p.kappa_r and by_label["R"].temperature == p.t_r

    def test_jumps_nilpotent(self):
        for c in bath_channels(TRANSFER_PARAMS):
            assert np.max(np.abs(c.jump @ c.jump)) == 0.0

    def test_jump_entry_counts(self):
        # Kronecker lifting: the qubit lowering operators carry one nonzero
        # entry per middle-times-right (or left-times-middle) basis state.
        counts = {c.label: int(np.count_nonzero(c.jump)) for c in bath_channels(TRANSFER_PARAMS)}
        assert counts == {"L": 6, "M1": 4, "M2": 4, "R": 6}
        for c in bath_channels(TRANSFER_PARAMS):
            nz = c.jump[np.abs(c.jump) > 0]
            assert np.all(nz == 1.0)

    @settings(max_examples=25, deadline=None)
    @given(p=valid_params())
    def test_middle_energy_split(self, p):
        by_label = {c.label: c for c in bath_channels(p)}
        assert abs(by_label["M1"].delta_e - p.e2) < 1e-15
        assert abs(by_label["M2"].delta_e - (p.e3 - p.e2)) < 1e-12


class TestGibbsState:
    def test_normalized_with_boltzmann_ratios(self):
        rho = gibbs_state([0.0, 1.0, 3.0], 0.7)
        d = np.real(np.diag(rho))
        assert abs(d.sum() - 1.0) < 1e-14
        assert abs(d[1] / d[0] - np.exp(-1.0 / 0.7)) < 1e-12
        assert abs(d[2] / d[1] - np.exp(-2.0 / 0.7)) < 1e-12
