"""Plumbing of the finite-difference checker itself.

The fast tests pin down the comparison helpers the suite is built from and
run every op family at one seed. The full suite over five seeds and the
micro model (``pmtk gradcheck --model``) runs as a slow test:
``pytest -m slow tests/test_gradcheck.py``.
"""

import numpy as np
import pytest

from pmtk import precision
from pmtk.cli import main
from pmtk.gradcheck import (FAMILIES, FAST_FAMILIES, check_scalar_fn,
                            finite_diff_grad, max_rel_err, noise_floor_coeff,
                            run_gradient_suite, tolerance)
from pmtk.tensor import matmul, tsum


def test_finite_diff_on_quadratic_is_exact_to_truncation():
    # f(x) = sum(x^2) has gradient 2x and zero third derivative, so the
    # central difference is exact up to quotient roundoff.
    x = np.array([0.5, -1.25, 2.0])
    g = finite_diff_grad(lambda v: float((v ** 2).sum()), x)
    np.testing.assert_allclose(g, 2 * x, atol=1e-9)


def test_max_rel_err_ignores_jointly_tiny_entries():
    a = np.array([1.0, 1e-12])
    b = np.array([1.0, -1e-12])  # sign flip, but both under the floor
    assert max_rel_err(a, b, floor=1e-8) == 0.0


def test_max_rel_err_reports_entries_above_floor():
    a = np.array([1.0, 2.0])
    b = np.array([1.0, 1.0])
    assert max_rel_err(a, b, floor=1e-8) == 0.5


def test_check_scalar_fn_small_on_correct_gradient():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    err = check_scalar_fn(lambda ts: tsum(matmul(ts[0], ts[1])), [a, b])
    assert err < tolerance()


def test_tolerances_depend_on_precision_mode():
    with precision.use("f64"):
        assert tolerance() == 1e-6
        assert noise_floor_coeff() == 1e-4
    with precision.use("f32"):
        assert tolerance() == 1e-3
        assert noise_floor_coeff() == 1e-3


def test_fast_families_is_a_subset_of_the_registry():
    assert set(FAST_FAMILIES) <= set(FAMILIES)


def test_suite_returns_one_row_per_requested_family():
    # every family at one seed, so each hand-written adjoint is checked here
    # and not only by the slow full suite
    rows = run_gradient_suite(families=list(FAMILIES), seeds=(0,))
    assert [name for name, _ in rows] == list(FAMILIES)
    for name, err in rows:
        assert err <= tolerance(), f"{name}: max_rel_err {err:.3e}"


@pytest.mark.slow
def test_full_suite_with_model_passes():
    assert main(["gradcheck", "--model"]) == 0
