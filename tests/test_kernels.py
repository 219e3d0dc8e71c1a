import numpy as np

from riskcbf.distributions import lattice_coeffs, lattice_masses


def test_grid_probs_sum_and_symmetry():
    for m in (2, 5, 10, 33):
        probs = lattice_masses(m)
        assert abs(probs.sum() - 1.0) <= 1e-14
        assert np.allclose(probs, probs[::-1], atol=1e-15)


def test_grid_coeffs_span_truncation():
    g = lattice_coeffs(6)
    assert np.allclose(g, [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0])
