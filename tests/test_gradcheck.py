"""Plumbing of the finite-difference checker itself.

The fast tests pin down the comparison helpers the suite is built from and
run every op family at one seed. The full suite over five seeds and the
micro model (``pmtk gradcheck --model``) runs as a slow test:
``pytest -m slow``.
"""

import numpy as np
import pytest

from pmtk.cli import main
from pmtk.gradcheck import (FD_STEP, FAMILIES, TOL, central_diff, check_scalar_fn,
                            max_rel_err, run_gradient_suite)
from pmtk.tensor import Tensor, linear, mul, record_op, tsum


def test_finite_diff_on_quadratic_is_exact_to_truncation():
    # f(x) = sum(x^2) has gradient 2x and zero third derivative, so the
    # central difference is exact up to quotient roundoff.
    x = Tensor(np.array([0.5, -1.25, 2.0]), dtype=np.float64)
    (g,) = central_diff(lambda: float((x.data ** 2).sum()), [x], [range(3)], FD_STEP)
    np.testing.assert_allclose(g, 2 * x.data, atol=1e-9)


def test_central_diff_probes_only_the_picked_elements_in_64_bit():
    x = Tensor(np.array([[0.5, -1.25], [2.0, 3.0]]), dtype=np.float64)
    data, values = x.data, x.data.copy()
    probed = []

    def objective():
        probed.append(tuple(np.flatnonzero(x.data != values)))
        return float((x.data ** 2).sum())

    (g,) = central_diff(objective, [x], [[3, 0]], FD_STEP)
    np.testing.assert_allclose(g, [6.0, 1.0], atol=1e-9)
    assert probed == [(3,), (3,), (0,), (0,)]
    assert x.data is data
    np.testing.assert_array_equal(x.data, values)


def test_central_diff_rejects_leaves_not_in_64_bit():
    x = Tensor(np.array([1.0, 2.0]), dtype=np.float32)
    with pytest.raises(TypeError, match="float32"):
        central_diff(lambda: float(x.data.sum()), [x], [[0]], FD_STEP)


def test_central_diff_restores_leaves_when_the_objective_raises():
    a = Tensor(np.array([1.0, 2.0, 3.0]), dtype=np.float64)
    b = Tensor(np.array([[4.0, 5.0]]), dtype=np.float64)
    originals = [a.data, b.data]
    saved = [d.copy() for d in originals]
    calls = []

    def objective():
        calls.append(1)
        if len(calls) == 3:  # mid-probe: a[1] is perturbed by +h
            raise RuntimeError("objective failed")
        return float(a.data.sum() + b.data.sum())

    with pytest.raises(RuntimeError, match="objective failed"):
        central_diff(objective, [a, b], [range(3), range(2)], FD_STEP)
    for t, data, values in zip((a, b), originals, saved):
        assert t.data is data
        np.testing.assert_array_equal(t.data, values)


def test_wrong_adjoint_is_flagged():
    # identity whose backward returns 2g: through sum(op(x) * x) the tape
    # gives 3x where the true gradient is 2x, a relative error of 1/3
    def doubled_adjoint(x):
        return record_op((x,), x.data.copy(), lambda g: (2.0 * g,))

    x = np.random.default_rng(0).uniform(0.5, 1.5, (3, 4))
    err = check_scalar_fn(lambda ts: tsum(mul(doubled_adjoint(ts[0]), ts[0])), [x])
    assert err >= 100 * TOL


def test_adjoint_off_by_1e_4_is_flagged():
    # identity whose backward returns (1 + 1e-4) g: through sum(op(x) * r)
    # every entry of the gradient is off by a relative 1e-4, which a
    # tolerance of 1e-3 would let through
    dtypes = set()

    def scaled_adjoint(x):
        dtypes.add(x.data.dtype)
        return record_op((x,), x.data.copy(), lambda g: ((1 + 1e-4) * g,))

    rng = np.random.default_rng(0)
    x = rng.uniform(0.5, 1.5, (3, 4))
    r = rng.uniform(0.5, 1.5, (3, 4))
    err = check_scalar_fn(
        lambda ts: tsum(mul(scaled_adjoint(ts[0]), Tensor(r, np.float64))), [x])
    assert dtypes == {np.dtype(np.float64)}
    assert err > TOL
    assert err == pytest.approx(1e-4, rel=1e-3)


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
    err = check_scalar_fn(lambda ts: tsum(linear(ts[0], ts[1])), [a, b])
    assert err < TOL


def test_suite_returns_one_row_per_requested_family():
    # every family at one seed, so each hand-written adjoint is checked here
    # and not only by the slow full suite
    rows = run_gradient_suite(seeds=(0,))
    assert [name for name, _ in rows] == list(FAMILIES)
    for name, err in rows:
        assert err <= TOL, f"{name}: max_rel_err {err:.3e}"


@pytest.mark.slow
def test_full_suite_with_model_passes():
    assert main(["gradcheck", "--model"]) == 0
