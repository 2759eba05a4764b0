from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from fracopt import _selfcheck as sc
from fracopt import specfun
from fracopt.errors import GammaPoleError, MittagLefflerError, OrderRangeError, SolverConfigError
from fracopt.fdesolve import FdeProblem, linear_relaxation_solution
from fracopt.specfun import gamma, mittag_leffler

SQRT_PI = 1.7724538509055160


class TestGamma:
    def test_factorials(self):
        assert gamma(1.0) == 1.0
        assert gamma(5.0) == 24.0

    def test_half(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, abs=1e-15)

    @pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -37.0])
    def test_poles_raise(self, pole):
        with pytest.raises(GammaPoleError) as err:
            gamma(pole)
        assert f"{pole:g}" in str(err.value)

    def test_recurrence(self, rng):
        assert sc.gamma_recurrence_error(rng.uniform(0.1, 20.0, 200)) <= sc.GAMMA_RECURRENCE_BOUND

    def test_recurrence_error_keeps_a_later_nan(self):
        assert math.isnan(sc.gamma_recurrence_error([2.5, math.nan]))

    def test_twelve_digits_on_range(self, rng):
        # reference values from arbitrary-precision evaluation
        xs = list(rng.uniform(-170.0, 170.0, 60)) + [-169.5, -0.5, 150.25, 170.0]
        with mpmath.workdps(40):
            for x in xs:
                if x <= 0 and float(x).is_integer():
                    continue
                ref = float(mpmath.gamma(x))
                assert gamma(float(x)) == pytest.approx(ref, rel=1e-12)


class TestMittagLeffler:
    def test_exponential_point(self):
        assert mittag_leffler(1.0, 1.0, -1.0) == pytest.approx(1.0 / math.e, abs=1e-12)

    def test_zero_argument_normalization(self):
        assert mittag_leffler(0.9, 1.0, 0.0) == 1.0
        assert mittag_leffler(0.7, 2.0, 0.0) == pytest.approx(1.0 / gamma(2.0), abs=0)

    def test_cosine_zero(self):
        z = -((math.pi / 2.0) ** 2)
        assert abs(mittag_leffler(2.0, 1.0, z)) <= 1e-10

    def test_exponential_identity(self):
        assert sc.ml_exp_error(np.arange(0.0, 5.01, 0.1)) <= sc.ML_EXP_BOUND

    def test_cosine_identity(self):
        assert sc.ml_cos_error(np.arange(0.0, 5.01, 0.25)) <= sc.ML_COS_BOUND

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 1.0])
    def test_monotone_decay_on_unit_interval_orders(self, alpha):
        ts = np.arange(0.1, 20.01, 0.1)
        values = [mittag_leffler(alpha, 1.0, -(t**alpha)) for t in ts]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_small_order_large_negative_argument(self):
        # the series would need more than the term budget here; the contour
        # inversion does not (reference: Talbot inversion at 40 digits)
        assert mittag_leffler(0.3, 1.0, -60.0) == pytest.approx(0.01271499032058585, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.2, 1.5, 1.7, 1.9, 2.0])
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_against_laplace_inversion_oracle(self, alpha, beta):
        zs = (-1e-3, -0.5, -2.0, -4.9, -10.0, -31.7, -60.0, -100.0)
        values = mittag_leffler(alpha, beta, np.array(zs))
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            for z, value in zip(zs, values):
                ref = mpmath.invertlaplace(lambda s: s ** (a - beta) / (s**a - z), 1, method="talbot")
                assert abs(value - float(ref)) <= 1e-10, (z, value, ref)

    # at alpha <= 1 the one shared contour has strength p = 2 (1 - alpha) > 0
    # for beta = 2 and p = 0 for beta = 1; a beta = 2 case is named by its order
    @pytest.mark.parametrize("alpha, beta", [
        pytest.param(alpha, beta, id=f"{alpha}" if beta == 2.0 else f"{alpha}-beta1")
        for beta in (2.0, 1.0) for alpha in (0.3, 0.9, 1.0, 1.5, 2.0)])
    def test_array_call_equals_scalar_calls(self, alpha, beta, rng):
        # every path in one array, longer than one evaluation block
        z = np.concatenate((-(10.0 ** rng.uniform(-4.0, 2.5, 700)), [0.0, -0.0, -0.5]))
        rng.shuffle(z)
        values = mittag_leffler(alpha, beta, z)
        scalars = [mittag_leffler(alpha, beta, x) for x in z.tolist()]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(values.view(np.int64), np.array(scalars).view(np.int64))
        grid = mittag_leffler(alpha, beta, z[:12].reshape(3, 4))
        assert grid.shape == (3, 4)
        assert np.array_equal(grid.ravel(), values[:12])
        assert type(mittag_leffler(alpha, beta, np.float64(-3.0))) is float

    @pytest.mark.parametrize("alpha", [0.9, 1.5])
    def test_series_only_call_builds_no_node_table(self, alpha, rng, monkeypatch):
        # no point below -1/2: every value comes from the series, none from a contour
        z = np.concatenate((-rng.uniform(0.0, 0.5, 300), [0.0, -0.0, -0.5]))
        scalars = [mittag_leffler(alpha, 1.0, x) for x in z.tolist()]

        def no_table(*args):
            raise AssertionError("contour node table built for |z| <= 1/2")

        monkeypatch.setattr(specfun, "_nodes", no_table)
        values = mittag_leffler(alpha, 1.0, z)
        assert np.array_equal(values.view(np.int64), np.array(scalars).view(np.int64))

    @pytest.mark.parametrize("alpha", [0.9, 1.2])
    def test_work_memory_stays_small(self, alpha):
        # blocks of about 6 400 contour nodes: the traced peak of a 10 001-point
        # call is its output array plus one block's work
        z = -2.0 * np.linspace(0.0, 10.0, 10001) ** alpha
        tracemalloc.start()
        try:
            mittag_leffler(alpha, 1.0, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_rejected(self, z):
        with pytest.raises(MittagLefflerError, match="finite"):
            mittag_leffler(0.9, 1.0, z)
        with pytest.raises(MittagLefflerError, match="finite"):
            mittag_leffler(0.9, 1.0, np.array([-1.0, z, 1.0]))

    def test_orders_above_two_rejected(self):
        # the solver's order range; above it E_(a,b) may grow without bound
        with pytest.raises(OrderRangeError, match="alpha <= 2"):
            mittag_leffler(3.5, 1.0, -1e12)
        with pytest.raises(OrderRangeError, match="beta <= 2"):
            mittag_leffler(0.9, 2.5, -1.0)

    def test_order_two_stays_bounded(self):
        # E_(2,1)(-x) = cos(sqrt(x)): the pole pair sits on the imaginary axis,
        # where rounding once put it to the right and grew its residue
        values = mittag_leffler(2.0, 1.0, -np.logspace(30, 300, 541))
        assert np.all(np.abs(values) <= 1.0)

    def test_order_two_is_the_cosine(self):
        t = np.linspace(0.0, 50.0, 1001)
        assert np.max(np.abs(mittag_leffler(2.0, 1.0, -t * t) - np.cos(t))) <= 2e-16

    def test_large_argument_within_term_budget(self):
        with mpmath.workdps(60):
            ref = mpmath.nsum(
                lambda k: mpmath.mpf(-60) ** k / mpmath.gamma(mpmath.mpf(0.9) * k + 1),
                [0, mpmath.inf],
            )
        assert mittag_leffler(0.9, 1.0, -60.0) == pytest.approx(float(ref), abs=1e-10)

    def test_positive_argument_rejected(self):
        # the supported domain is z <= 0, where every caller evaluates
        with pytest.raises(MittagLefflerError, match="z <= 0"):
            mittag_leffler(1.0, 1.0, 1e-300)
        with pytest.raises(MittagLefflerError, match=r"\(0\.5\) is evaluated for z <= 0"):
            mittag_leffler(0.9, 2.0, np.array([-1.0, 0.0, 0.5, 3.0]))

    def test_positive_overflow_rejected(self):
        # E_{1,1}(800) = e^800 overflows a float; it is outside z <= 0 too
        with pytest.raises(MittagLefflerError, match="z <= 0"):
            mittag_leffler(1.0, 1.0, 800.0)

    def test_against_reference_values(self, rng):
        # arbitrary-precision series as the independent oracle; small orders
        # only admit small arguments before the term count explodes
        for _ in range(25):
            alpha = rng.uniform(0.3, 2.0)
            beta = rng.choice([1.0, 2.0])
            z = rng.uniform(-30.0 if alpha >= 0.6 else -5.0, 0.0)
            with mpmath.workdps(60):
                ref = mpmath.nsum(
                    lambda k: mpmath.mpf(z) ** k / mpmath.gamma(alpha * k + beta),
                    [0, mpmath.inf],
                )
            assert mittag_leffler(alpha, beta, z) == pytest.approx(
                float(ref), abs=1e-10
            )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            mittag_leffler(0.9, -1.0, 0.5)


def test_one_order_range_for_solver_and_mittag_leffler():
    # the solver, its closed form and E_(a,b) all cover 0 < a <= 2
    def problem(alpha):
        return FdeProblem(alpha=alpha, field=lambda u: -u, u0=np.ones(1), t_end=1.0, h=0.1, v0=0.0)

    times = np.linspace(0.0, 1.0, 5)
    assert problem(2.0).alpha == 2.0
    assert np.all(np.isfinite(linear_relaxation_solution(2.0, 1.0, 0.0, 1.0, times, v0=1.0)))
    assert mittag_leffler(2.0, 2.0, -1.0) == pytest.approx(math.sin(1.0), abs=1e-15)
    for alpha in (math.nextafter(2.0, 3.0), 0.0):
        with pytest.raises(SolverConfigError):
            problem(alpha)
        with pytest.raises(SolverConfigError):
            linear_relaxation_solution(alpha, 1.0, 0.0, 1.0, times)
        with pytest.raises(OrderRangeError):
            mittag_leffler(alpha, 1.0, -1.0)
    for beta in (0.0, math.nextafter(2.0, 3.0)):
        with pytest.raises(OrderRangeError):
            mittag_leffler(1.0, beta, -1.0)


def test_runtime_import_leaves_out_mpmath(fresh_python):
    # mpmath is a test dependency only: the package and its CLI must not load it
    assert fresh_python("import fracopt.cli, sys; sys.exit('mpmath' in sys.modules)") == 0


NO_SCIPY_PROBE = """
import sys
sys.modules['scipy'] = None  # any import of scipy now raises ImportError
from fracopt import cli

def loaded():
    return sorted(m for m, mod in sys.modules.items() if mod is not None and m.split('.')[0] == 'scipy')

out, *specs = sys.argv[1:]
assert loaded() == [], loaded()
assert cli.main(['check']) == 0
for spec in specs:
    assert cli.main(['--out', out, 'run', spec]) == 0, spec
assert loaded() == [], loaded()
"""


def test_no_cli_path_loads_scipy(tmp_path, fresh_python):
    # numpy is the one runtime dependency: with scipy blocked, the CLI import,
    # `fracopt check`, CGM runs (adaptive steps and a fixed grid) and a GDM +
    # FCTM run all succeed
    quadratic = "[experiment]\nname = {}\nproblem = quadratic\nthresholds = 0.1\n\n"
    specs = {
        "flows": "[method.gdm]\nmethod = gdm\nomega = 0.1\nk_max = 20\n\n"
                 "[method.fctm]\nmethod = fctm\nalpha = 0.9\ngain = 1.0\nh = 0.1\nt_end = 2.0\n",
        "cgm": "[method.cgm]\nmethod = cgm\ngain = 1.0\nt_end = 2.0\n",
        "cgm_grid": "[method.cgm]\nmethod = cgm\ngain = 1.0\nh = 0.01\nt_end = 2.0\n",
    }
    for name, methods in specs.items():
        (tmp_path / f"{name}.ini").write_text(quadratic.format(name) + methods)
    paths = [str(tmp_path / f"{name}.ini") for name in specs]
    assert fresh_python(NO_SCIPY_PROBE, str(tmp_path / "out"), *paths) == 0
