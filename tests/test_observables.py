import dataclasses
import re

import numpy as np
import pytest

from triheat import (
    bath_channels,
    bath_currents,
    dissipator_apply,
    heat_current,
    reduced_populations,
    total_hamiltonian,
)
from conftest import TRANSFER_PARAMS, product_gibbs, random_density, solve


class TestHeatCurrent:
    def test_uncoupled_currents_vanish(self):
        p = dataclasses.replace(TRANSFER_PARAMS, g_lm=0.0, g_mr=0.0)
        cur = solve(p).currents
        for j in (cur.j_l, cur.j_m, cur.j_r):
            assert abs(j) <= 1e-12

    def test_conservation_at_reference_point(self):
        cur = solve(TRANSFER_PARAMS).currents
        bound = 1e-10 * max(1.0, max(abs(cur.j_l), abs(cur.j_m), abs(cur.j_r)))
        assert abs(cur.total()) <= bound

    def test_linearity_in_channel_group(self):
        p = TRANSFER_PARAMS
        h = total_hamiltonian(p)
        chans = {c.label: c for c in bath_channels(p)}
        rho = solve(p).state.mat
        combined = heat_current(h, [chans["M1"], chans["M2"]], rho)
        split = heat_current(h, [chans["M1"]], rho) + heat_current(h, [chans["M2"]], rho)
        assert abs(combined - split) <= 1e-12

    def test_matches_trace_formula(self):
        p = TRANSFER_PARAMS
        h = total_hamiltonian(p)
        ch = bath_channels(p)[0]
        rho = solve(p).state.mat
        expected = -np.trace(h @ dissipator_apply(ch, rho)).real
        assert heat_current(h, [ch], rho) == pytest.approx(expected, rel=1e-14)

    def test_imaginary_residue_rejected(self, rng):
        p = TRANSFER_PARAMS
        h = total_hamiltonian(p)
        ch = bath_channels(p)[0]
        from conftest import random_hermitian

        rho = 1j * random_hermitian(rng, 12)  # anti-Hermitian: pure imaginary trace
        with pytest.raises(ValueError, match="imaginary"):
            heat_current(h, [ch], rho)

    def test_equal_temperature_residual_bounded(self):
        # local-master-equation artifact currents; at the resonant reference
        # energies the product thermal state is exactly stationary, so these
        # sit at numerical zero, far below the documented 1e-3 envelope
        p = dataclasses.replace(TRANSFER_PARAMS, t_l=1.0, t_m=1.0, t_r=1.0)
        cur = solve(p).currents
        for j in (cur.j_l, cur.j_m, cur.j_r):
            assert abs(j) <= 1e-3

    def test_detuned_equal_temperature_residual_bounded(self):
        p = dataclasses.replace(
            TRANSFER_PARAMS, e1=1.3, e4=0.8, t_l=1.0, t_m=1.0, t_r=1.0
        )
        cur = solve(p).currents
        assert 0.0 < max(abs(cur.j_l), abs(cur.j_m), abs(cur.j_r)) <= 1e-3

    def test_left_current_sign_regression(self):
        # hot left bath, cold gate and source: the left bath feeds the chain,
        # which is a negative left current under the J = -Tr(H D[rho]) sign
        cur = solve(TRANSFER_PARAMS).currents
        assert cur.j_l < 0
        assert cur.j_l == pytest.approx(-0.014517639985135083, rel=1e-6)


class TestReducedPopulations:
    def test_maximally_mixed(self):
        pops = reduced_populations(np.eye(12, dtype=complex) / 12)
        assert np.allclose(pops[0], [0.5, 0.5], atol=1e-14)
        assert np.allclose(pops[1], [1 / 3, 1 / 3, 1 / 3], atol=1e-14)
        assert np.allclose(pops[2], [0.5, 0.5], atol=1e-14)

    def test_maximally_mixed_reduction(self):
        # the middle qutrit of the maximally mixed state is uniform to rounding,
        # and each factor comes back as a real vector of its own dimension
        pops = reduced_populations(np.eye(12, dtype=complex) / 12)
        assert [v.shape for v in pops] == [(2,), (3,), (2,)]
        assert all(np.isrealobj(v) for v in pops)
        assert np.max(np.abs(pops[1] - 1 / 3)) < 1e-15

    def test_each_sums_to_one(self, rng):
        pops = reduced_populations(random_density(rng, 12))
        for v in pops:
            assert abs(v.sum() - 1.0) < 1e-12

    def test_uncoupled_steady_state_matches_gibbs_factors(self):
        p = dataclasses.replace(TRANSFER_PARAMS, g_lm=0.0, g_mr=0.0)
        pops = reduced_populations(solve(p).state.mat)
        ref = reduced_populations(product_gibbs(p))
        for got, want in zip(pops, ref):
            assert np.allclose(got, want, atol=1e-10)

    def test_populations_within_unit_interval(self, rng):
        for _ in range(5):
            pops = reduced_populations(random_density(rng, 12))
            for v in pops:
                assert np.all(v >= -1e-10)
                assert np.all(v <= 1 + 1e-10)

    def test_recovers_factors_of_triple_product(self, rng):
        factors = [random_density(rng, d) for d in (2, 3, 2)]
        pops = reduced_populations(np.kron(np.kron(factors[0], factors[1]), factors[2]))
        for got, factor in zip(pops, factors):
            assert np.max(np.abs(got - np.diag(factor).real)) < 1e-12

    def test_unnormalised_product_scales_by_the_other_traces(self, rng):
        # the populations are marginal sums, so each factor's diagonal is
        # weighted by the traces of the two it is summed over
        factors = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in (2, 3, 2)]
        traces = [np.trace(f) for f in factors]
        pops = reduced_populations(np.kron(np.kron(factors[0], factors[1]), factors[2]))
        for k, got in enumerate(pops):
            others = np.prod([t for j, t in enumerate(traces) if j != k])
            assert np.max(np.abs(got - (np.diag(factors[k]) * others).real)) < 1e-12

    def test_each_sums_to_the_trace(self, rng):
        rho = 0.37 * random_density(rng, 12)
        for v in reduced_populations(rho):
            assert abs(v.sum() - np.trace(rho).real) < 1e-12

    def test_wrong_shape_rejected(self):
        for shape in ((6, 6), (12, 6), (144,)):
            with pytest.raises(ValueError, match=re.escape(f"rho must be 12x12, got shape {shape}")):
                reduced_populations(np.zeros(shape, dtype=complex))


class TestBathCurrents:
    def test_groups_middle_channels(self):
        p = TRANSFER_PARAMS
        h = total_hamiltonian(p)
        chans = bath_channels(p)
        rho = solve(p).state.mat
        cur = bath_currents(h, chans, rho)
        by_label = {c.label: c for c in chans}
        assert cur.j_m == pytest.approx(
            heat_current(h, [by_label["M1"], by_label["M2"]], rho), rel=1e-14
        )
        assert cur.j_l == pytest.approx(heat_current(h, [by_label["L"]], rho), rel=1e-14)
