from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from fracopt import _selfcheck as sc
from fracopt.errors import OperatorDomainError
from fracopt.fracops import MemoryWindow, Polynomial, caputo_poly_derivative, rl_poly_derivative
from fracopt.specfun import gamma

QUAD = Polynomial((1.0, -6.0, 9.0))  # (u - 3)^2


class TestPolynomial:
    def test_normalization_strips_leading_zeros(self):
        p = Polynomial((0.0, 0.0, 2.0, 1.0))
        assert p.coefficients == (2.0, 1.0)
        assert p.degree == 1

    def test_shifted_expansion_matches_direct_evaluation(self, rng):
        for _ in range(20):
            coeffs = rng.uniform(-2, 2, rng.integers(1, 6))
            a = rng.uniform(-3, 3)
            u = rng.uniform(-3, 3)
            p = Polynomial(coeffs)
            b = p.shifted(a)
            direct = sum(bj * (u - a) ** j for j, bj in enumerate(b))
            assert direct == pytest.approx(p(u), abs=1e-10, rel=1e-10)


class TestMemoryWindow:
    def test_effective_limit(self):
        w = MemoryWindow(lower_limit=1.0, memory_length=0.5)
        assert w.effective_lower_limit(3.0) == 2.5
        assert w.effective_lower_limit(1.2) == 1.0

    def test_infinite_memory_keeps_fixed_limit(self):
        w = MemoryWindow(lower_limit=0.25)
        assert w.effective_lower_limit(100.0) == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryWindow(memory_length=-1.0)


class TestGrunwaldLetnikov:
    def test_weights_match_binomial_definition(self):
        alpha = 0.6
        w = sc._gl_weights(alpha, 6)
        for k in range(7):
            ref = (-1) ** k * gamma(alpha + 1) / (gamma(k + 1) * gamma(alpha - k + 1))
            assert w[k] == pytest.approx(ref, abs=1e-14)

    def test_first_derivative_of_identity(self):
        assert sc._gl_derivative(lambda x: x, 1.0, 2.0, 0.0, 1e-5) == pytest.approx(1.0, abs=1e-4)

    def test_half_derivative_of_square(self):
        # power rule oracle: Gamma(3)/Gamma(2.5) * u^1.5 at u = 1
        expected = gamma(3.0) / gamma(2.5)
        assert sc._gl_derivative(lambda x: x * x, 0.5, 1.0, 0.0, 1e-5) == pytest.approx(
            expected, abs=1e-3
        )

    def test_order_zero_returns_input(self):
        assert sc._gl_derivative(np.sin, 0.0, 3.0, 0.0, 1e-5) == math.sin(3.0)


class TestClosedFormRules:
    def test_caputo_zero_at_shifted_equilibrium(self):
        assert caputo_poly_derivative(QUAD, 0.9, 3.3, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_caputo_integer_order_is_classical(self):
        assert caputo_poly_derivative(QUAD, 1.0, 5.0, 0.0) == pytest.approx(4.0, abs=1e-12)

    def test_caputo_constant_is_zero(self):
        assert caputo_poly_derivative(Polynomial((7.0,)), 0.5, 2.0, 0.0) == 0.0

    def test_rl_constant_is_nonzero(self):
        expected = 9.0 / gamma(0.5)  # power rule with the gamma oracle
        assert rl_poly_derivative(Polynomial((9.0,)), 0.5, 1.0, 0.0) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(5.077706251929807, abs=1e-12)

    def test_rl_near_integer_order_recovers_derivative(self):
        assert rl_poly_derivative(QUAD, 1.0 - 1e-8, 5.0, 0.0) == pytest.approx(4.0, abs=1e-5)

    def test_rl_quadratic_roots_match_bracket_oracle(self):
        # bracket coefficients G(3)/G(3-a) u^2 - 2c G(2)/G(2-a) u + c^2/G(1-a)
        alpha, c = 0.9, 3.0
        a2 = gamma(3.0) / gamma(3.0 - alpha)
        a1 = -2.0 * c * gamma(2.0) / gamma(2.0 - alpha)
        a0 = c * c / gamma(1.0 - alpha)
        disc = math.sqrt(a1 * a1 - 4.0 * a2 * a0)
        roots = sorted(((-a1 - disc) / (2 * a2), (-a1 + disc) / (2 * a2)))
        for r in roots:
            assert abs(r - c) > 0.1
            assert rl_poly_derivative(QUAD, alpha, r, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(OperatorDomainError):
            caputo_poly_derivative(QUAD, 0.9, 0.0, 0.0)
        with pytest.raises(OperatorDomainError):
            rl_poly_derivative(QUAD, 0.9, 1.0, 2.0)
        with pytest.raises(OperatorDomainError):
            caputo_poly_derivative(QUAD, 0.9, 1.0, -0.5)


class TestCaputoTaylorSeries:
    def test_matches_closed_form_at_equilibrium(self):
        assert sc._caputo_series(QUAD, 0.9, 3.3, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_matches_closed_form_short_window(self):
        a = 3.005 - 0.01
        value = sc._caputo_series(QUAD, 0.5, 3.005, a)
        ref = caputo_poly_derivative(QUAD, 0.5, 3.005, a)
        assert value == pytest.approx(ref, abs=1e-6)


class TestOperatorProperties:
    def test_gl_matches_rl_on_random_polynomials(self, rng):
        def case():
            p = Polynomial(rng.uniform(-1.0, 1.0, int(rng.integers(0, 5)) + 1))
            alpha = rng.uniform(0.05, 0.95)
            a = rng.uniform(0.0, 2.0)
            return p, alpha, a + rng.uniform(0.5, 3.0), a

        assert sc.gl_power_rule_error([case() for _ in range(50)]) <= sc.GL_POWER_RULE_BOUND

    def test_series_errors_keep_a_later_nan(self):
        # a NaN coefficient turns the second case's error NaN; max() would drop it
        cases = [(QUAD, 0.5, 2.0, 0.0), (Polynomial((1.0, math.nan, 9.0)), 0.5, 2.0, 0.0)]
        assert math.isnan(sc.gl_power_rule_error(cases))
        assert math.isnan(sc.caputo_series_error(cases))

    def test_caputo_rl_differ_by_constant_image(self, rng):
        for _ in range(20):
            alpha = rng.uniform(0.05, 0.95)
            a = rng.uniform(0.0, 2.0)
            u = a + rng.uniform(0.2, 3.0)
            cap = caputo_poly_derivative(QUAD, alpha, u, a)
            rl = rl_poly_derivative(QUAD, alpha, u, a)
            const_image = QUAD(a) * (u - a) ** (-alpha) / gamma(1.0 - alpha)
            assert abs(cap - rl + const_image) <= 1e-10

    def test_shifted_equilibrium_location(self, rng):
        # zero of the fixed-limit Caputo derivative of (u-c)^2 sits at
        # a + (c-a)(2-alpha); root-found, then compared to the closed form
        for _ in range(20):
            alpha = rng.uniform(0.1, 0.9)
            c = rng.uniform(1.0, 5.0)
            a = rng.uniform(0.0, 0.8 * c)
            p = Polynomial((1.0, -2.0 * c, c * c))
            expected = a + (c - a) * (2.0 - alpha)
            root = brentq(
                lambda u: caputo_poly_derivative(p, alpha, u, a),
                c + 1e-9,
                expected + c,
                xtol=1e-12,
            )
            assert root == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4])
    def test_short_memory_equilibrium_limit(self, h):
        alpha, c = 0.6, 3.0
        p = Polynomial((1.0, -2.0 * c, c * c))
        expected = c + h * (1.0 - alpha) / (2.0 - alpha)
        root = brentq(
            lambda u: caputo_poly_derivative(p, alpha, u, u - h),
            c + 1e-15,
            c + h,
            xtol=1e-15,
        )
        assert abs(root - expected) <= 1e-3 * h + 1e-12
