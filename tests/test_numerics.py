import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzlab.errors import NumericalError, ValidationError
from syzlab.numerics import (DecayFit, Grid2, find_root, fit_decay, pairwise_sum,
                             quad_periodic)

TWO_PI = 2.0 * math.pi


class TestQuadPeriodic:
    def test_constant(self):
        grid = Grid2(16, TWO_PI)
        assert quad_periodic(lambda a, b: 1.0, grid) == pytest.approx(TWO_PI)

    def test_orthogonality(self):
        grid = Grid2(16, TWO_PI)
        val = quad_periodic(lambda t1, t2: np.exp(2j * math.pi * t1), grid)
        assert abs(val) <= 1e-12

    def test_trig_polynomial_exact(self):
        # rectangle rule is exact below the grid Nyquist degree
        grid = Grid2(16, TWO_PI)

        def f(t1, t2):
            return 2.0 + np.cos(2 * TWO_PI * t1) * np.sin(3.0 * t2)

        assert quad_periodic(f, grid) == pytest.approx(2.0 * TWO_PI, rel=1e-12)

    def test_nonfinite_rejected(self):
        grid = Grid2(4, 1.0)
        with pytest.raises(Exception):
            quad_periodic(lambda a, b: math.inf, grid)

    def test_grid_too_small(self):
        with pytest.raises(ValidationError):
            Grid2(2, 1.0)


class TestPairwiseSum:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_fsum(self, xs):
        assert pairwise_sum(np.array(xs)) == pytest.approx(math.fsum(xs),
                                                           abs=1e-6)

    def test_deterministic_order(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=1001)
        assert pairwise_sum(xs) == pairwise_sum(xs.copy())


class TestFitDecay:
    def test_exact_power(self):
        r = np.array([10.0, 20.0, 40.0, 80.0])
        fit = fit_decay(r, r ** -2.0)
        assert fit.exponent == pytest.approx(-2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_exact_four_thirds(self):
        r = np.linspace(5.0, 60.0, 9)
        fit = fit_decay(r, 5.0 * r ** (-4.0 / 3.0))
        assert fit.exponent == pytest.approx(-4.0 / 3.0, abs=1e-9)

    def test_stretched_exp(self):
        r = np.linspace(5.0, 60.0, 9)
        fit = fit_decay(r, 3.0 * np.exp(-0.7 * r ** (2.0 / 3.0)),
                        model="stretched_exp")
        assert fit.model == "stretched_exp"
        assert fit.exponent == pytest.approx(-0.7, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            fit_decay(np.array([1.0, 2.0]), np.array([1.0, 0.5]))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_sample_is_numerical(self, bad):
        # the samples are computed, so an underflow is no bad input
        with pytest.raises(NumericalError, match="positive"):
            fit_decay(np.array([1.0, 2.0, 3.0]), np.array([1.0, bad, 0.5]))

    @given(st.integers(3, 40), st.floats(-3.0, 3.0), st.floats(0.0, 0.3),
           st.sampled_from(["power", "stretched_exp"]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_polyfit(self, n, exponent, noise, model, seed):
        rng = np.random.default_rng(seed)
        r = np.cumsum(rng.uniform(0.1, 5.0, n)) + 1.0
        x = np.log(r) if model == "power" else r ** (2.0 / 3.0)
        vals = np.exp(exponent * x + noise * rng.standard_normal(n))
        fit = fit_decay(r, vals, model=model)
        n_drop = min(int(0.2 * n), n - 3)
        xs, ys = x[n_drop:], np.log(vals[n_drop:])
        slope, intercept = np.polyfit(xs, ys, 1)
        assert fit.exponent == pytest.approx(slope, rel=1e-12, abs=1e-12)
        ss_res = np.sum((ys - (slope * xs + intercept)) ** 2)
        ss_tot = np.sum((ys - np.mean(ys)) ** 2)
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
        assert fit.r_squared == pytest.approx(r2, rel=1e-12, abs=1e-12)
        assert fit.n_samples == n - n_drop

    # each bad sample's exception class and message: the CLI maps
    # ValidationError to exit 1 and NumericalError to exit 2
    @pytest.mark.parametrize("r,values,model,error,message", [
        ([1.0, 2.0, 2.0, 3.0], [1.0, 0.5, 0.4, 0.3], "power", ValidationError,
         "r must be strictly increasing"),
        ([1.0, 3.0, 2.0], [1.0, 0.5, 0.4], "power", ValidationError,
         "r must be strictly increasing"),
        # NaN compares false, so it passes the increasing check and its log fails
        ([1.0, math.nan, 3.0, 4.0], [1.0, 0.5, 0.4, 0.3], "power", NumericalError,
         "non-finite values in decay fit"),
        ([1.0, 2.0, 3.0, 4.0], [1.0, math.nan, 0.4, 0.3], "power", NumericalError,
         "non-finite values in decay fit"),
        ([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, math.inf, 0.3], "power", NumericalError,
         "non-finite values in decay fit"),
        # a NaN or an infinity among the fitted coordinates, log r or r^(2/3) and log values,
        # caught from the centring's two sums, +inf in one and -inf in the other included
        *(([1.0, 2.0, 3.0, bad], [1.0, 0.5, 0.4, 0.3], model, NumericalError,
           "non-finite values in decay fit")
          for bad in (math.nan, math.inf) for model in ("power", "stretched_exp")),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.4, 0.3], "power", NumericalError,
         "non-finite values in decay fit"),
        ([-1.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.4, 0.3], "stretched_exp", NumericalError,
         "non-finite values in decay fit"),
        ([0.0, 1.0, 2.0, math.inf], [1.0, 0.5, 0.4, 0.3], "power", NumericalError,
         "non-finite values in decay fit"),
        ([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.4, math.nan], "stretched_exp", NumericalError,
         "non-finite values in decay fit"),
        ([1.0, 2.0, 3.0, 4.0], [math.inf, 0.5, 0.4, 0.3], "stretched_exp", NumericalError,
         "non-finite values in decay fit"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.4, math.inf], "power", NumericalError,
         "non-finite values in decay fit"),
        ([1.0, 2.0, 3.0, math.inf], [1.0, 0.5, math.inf, math.nan], "stretched_exp",
         NumericalError, "non-finite values in decay fit"),
        ([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.0, 0.3], "power", NumericalError,
         "decay samples must be positive for a log fit"),
        ([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.4], "power", ValidationError,
         "r and values must be 1-d arrays of equal length"),
        ([[1.0, 2.0, 3.0]], [[1.0, 0.5, 0.4]], "power", ValidationError,
         "r and values must be 1-d arrays of equal length"),
        ([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.4, 0.3], "exp", ValidationError,
         "unknown decay model 'exp'"),
    ], ids=["equal-r", "decreasing-r", "nan-r", "nan-value", "inf-value",
            "nan-last-r", "nan-last-r23", "inf-last-r", "inf-last-r23", "zero-r", "negative-r23",
            "zero-and-inf-r", "nan-value-r23", "inf-value-r23", "zero-r-inf-value",
            "inf-r23-inf-and-nan-value", "zero-value", "shape-mismatch", "two-d",
            "unknown-model"])
    def test_failure_modes(self, r, values, model, error, message):
        # log(0) and a negative r's r^(2/3) warn before the fit reads them
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(error) as info:
            fit_decay(np.array(r), np.array(values), model=model)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_fields(self):
        r = np.array([10.0, 20.0, 40.0, 80.0])
        fit = fit_decay(r, r ** -1.0)
        assert isinstance(fit, DecayFit)
        assert fit.n_samples >= 3
        assert 0.0 <= fit.r_squared <= 1.0


class TestFindRoot:
    def test_affine_exact(self):
        assert find_root(lambda a: 3.0 - a, 0.0, 10.0) == pytest.approx(
            3.0, rel=1e-14)

    def test_sqrt2(self):
        root = find_root(lambda a: a * a - 2.0, 1.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_no_sign_change(self):
        with pytest.raises(ValidationError):
            find_root(lambda a: a * a + 1.0, -1.0, 1.0)

    @given(st.floats(-50.0, 50.0), st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_affine_roots_property(self, root, slope):
        f = lambda a: slope * (a - root)
        assert find_root(f, root - 1.0, root + 1.0) == pytest.approx(
            root, abs=1e-12)
