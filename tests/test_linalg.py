"""Partial trace over the qubit-qutrit-qubit factors (`triheat.observables`)."""

import numpy as np
import pytest

from triheat import partial_trace
from conftest import random_density


class TestPartialTrace:
    def test_product_state_factorization(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        reduced = partial_trace(np.kron(a, b), [2, 3], keep=0)
        assert np.max(np.abs(reduced - a * np.trace(b))) < 1e-13

    def test_trace_preserved(self, rng):
        rho = random_density(rng, 12)
        for k in range(3):
            assert abs(np.trace(partial_trace(rho, [2, 3, 2], k)) - np.trace(rho)) < 1e-12

    def test_maximally_mixed_reduction(self):
        reduced = partial_trace(np.eye(12, dtype=complex) / 12, [2, 3, 2], keep=1)
        assert np.max(np.abs(reduced - np.eye(3) / 3)) < 1e-15

    def test_recovers_factors_of_triple_product(self, rng):
        factors = [random_density(rng, d) for d in (2, 3, 2)]
        rho = np.kron(np.kron(factors[0], factors[1]), factors[2])
        for k in range(3):
            assert np.max(np.abs(partial_trace(rho, [2, 3, 2], k) - factors[k])) < 1e-12

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(12, dtype=complex), [2, 3], keep=0)
        with pytest.raises(ValueError):
            partial_trace(np.eye(12, dtype=complex), [2, 3, 2], keep=3)
