"""The moving-boundary oracles against closed forms, and against themselves
on a finer grid where no closed form exists."""

import math

import numpy as np
import pytest

from oracles import (default_pair_g, default_pair_h, dirichlet_survival_spectral,
                     moving_boundary_survival, periodic_quasi_ergodic_law, qed_cell_masses)

EDGES = np.linspace(-1.25, 1.25, 81)  # qed_comparison's mesh for the default pair


def _const(c):
    return lambda t: np.full(np.shape(t), c)


@pytest.mark.parametrize("radius, x, T", [(1.0, 0.0, 2.0), (1.3, 0.4, 2.0), (0.8, -0.5, 2.0)])
def test_survival_solve_matches_the_spectral_series(radius, x, T):
    exact = dirichlet_survival_spectral(x, T, radius)
    assert abs(moving_boundary_survival(_const(radius), x, 0.0, T) - exact) <= 2e-6


def test_survival_solve_of_the_default_pair():
    # P[tau_h(. + k) > 2] for k = 0, 2, 5 and P[tau_g > 2] from x = 0; m = 800
    # at half the step agreed with these to 1e-6
    for k, want in ((0, 0.031242), (2, 0.057479), (5, 0.067369)):
        got = moving_boundary_survival(lambda u: default_pair_h(u + k), 0.0, 0.0, 2.0)
        assert abs(got - want) <= 2e-6
    assert abs(moving_boundary_survival(default_pair_g, 0.0, 0.0, 2.0) - 0.068840) <= 2e-6


def test_floquet_pair_of_the_unit_radius_is_the_squared_cosine_law():
    beta, lam = periodic_quasi_ergodic_law(_const(1.0), 1.0, EDGES)
    assert 0.5 * np.abs(beta - qed_cell_masses(EDGES)).sum() <= 1e-4
    assert abs(lam - math.pi ** 2 / 8.0) <= 1e-4


def test_floquet_pair_of_the_default_envelope_converges_in_the_grid():
    (b400, lam400), (b800, lam800) = (periodic_quasi_ergodic_law(default_pair_g, 1.0, EDGES,
                                                                 m=m, n=n)
                                      for m, n in ((400, 1000), (800, 2000)))
    assert 0.5 * np.abs(b400 - b800).sum() <= 1e-4
    assert abs(lam400 - lam800) <= 1e-4
    assert abs(b400.sum() - 1.0) <= 1e-12
