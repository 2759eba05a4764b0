"""Special functions: Euler gamma and the two-parameter Mittag-Leffler function.

E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha*k + beta) is evaluated in
double precision for real z, scalar or array, along one of three paths:

* z = 0 gives 1/Gamma(beta).
* z > 0, and z < 0 with |z| <= 1/2, sum the Taylor series directly.  The
  positive series never cancels; for |z| <= 1/2 every term is below
  1.13 * 2^-k, so the alternating sum does not cancel either.
* z < -1/2 inverts the Laplace transform s^(alpha-beta) / (s^alpha - z) at
  t = 1 with the trapezoidal rule on an optimal parabolic contour, and adds
  the residues of the transform's poles that lie to the right of the
  contour (these exist for orders above 1).  R. Garrappa, "Numerical
  evaluation of two and three parameter Mittag-Leffler functions", SIAM J.
  Numer. Anal. 53(3), 2015.  The contour holds at most 2*200 + 1 nodes, so
  the cost per point does not grow with |z|.

Arrays are evaluated in blocks of fixed size, so the work memory does not
grow with the number of points, and each point's value does not depend on
the other points of the call.  A positive argument whose series needs more
than the term budget or whose value overflows, a negative argument whose
value overflows (orders above 2 grow without bound), and a non-finite
argument raise a typed error rather than returning a degraded value.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import GammaPoleError, MittagLefflerError

__all__ = ["gamma", "mittag_leffler"]

_EPS = 2.220446049250313e-16
_LOG_EPS = math.log(_EPS)
# stop after two consecutive terms below _TERM_TOLERANCE; reject beyond _MAX_TERMS
_TERM_TOLERANCE = 1e-15
_MAX_TERMS = 10000
# Negative arguments up to this radius are summed directly; 56 terms leave a
# tail below 1.13 * 2^-55 < 1e-16.
_SERIES_RADIUS = 0.5
_SERIES_TERMS = 56
# Contour quadrature: target accuracy (log), node cap per half contour (the
# target is relaxed by a decade until the cheapest admissible contour fits),
# and points per array block.
_LOG_TARGET = math.log(1e-15)
_MAX_NODES = 200
_BLOCK = 256


def gamma(x: float) -> float:
    """Euler gamma function on the real line.

    Delegates to the C library implementation, which is accurate to a few
    ulp across [-170, 170]; poles raise :class:`GammaPoleError` instead of
    the bare ``ValueError`` the stdlib produces.
    """
    if x <= 0 and float(x).is_integer():
        raise GammaPoleError(x)
    return math.gamma(x)


def _recip_gamma(x: float) -> float:
    """1/Gamma(x), with the poles of Gamma mapped to exact zeros."""
    if x <= 0 and float(x).is_integer():
        return 0.0
    return 1.0 / math.gamma(x)


def _scan_terms(alpha: float, beta: float, z: float):
    """Locate the series' peak term and stopping index in log space.

    Works entirely with lgamma, so it never overflows.  Returns
    (n_terms, max_log_term) or raises if the term budget is hit first.
    """
    log_abs_z = math.log(abs(z))
    max_log = 0.0  # k = 0 term is 1/Gamma(beta); close enough for scaling
    log_tol = math.log(_TERM_TOLERANCE)
    small_run = 0
    for k in range(_MAX_TERMS):
        log_term = k * log_abs_z - math.lgamma(alpha * k + beta)
        if log_term > max_log:
            max_log = log_term
        if log_term < log_tol:
            small_run += 1
            if small_run >= 2:
                return k + 1, max_log
        else:
            small_run = 0
    raise MittagLefflerError(
        f"series for E_({alpha:g},{beta:g})({z:g}) needs more than "
        f"{_MAX_TERMS} terms",
        achieved_tolerance=math.exp(min(log_term, 700.0)),
    )


def _sum_float(alpha: float, beta: float, z: float, n_terms: int) -> float:
    # Kahan-compensated summation; terms built in log space to avoid
    # overflow in z**k and Gamma separately.
    log_abs_z = math.log(abs(z))
    negative = z < 0
    total = 1.0 / math.gamma(beta)
    comp = 0.0
    for k in range(1, n_terms):
        term = math.exp(k * log_abs_z - math.lgamma(alpha * k + beta))
        if negative and (k & 1):
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _series(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for z >= -1/2 by the Taylor series."""
    if z == 0.0:
        return 1.0 / math.gamma(beta)
    if z < 0:
        return _sum_float(alpha, beta, z, _SERIES_TERMS)
    n_terms, max_log_term = _scan_terms(alpha, beta, z)
    # the positive series never cancels, but the value itself can overflow
    if max_log_term > 700.0:
        raise MittagLefflerError(
            f"E_({alpha:g},{beta:g})({z:g}) overflows double precision",
            achieved_tolerance=math.inf,
        )
    return _sum_float(alpha, beta, z, n_terms)


def _bounded_region(phi0: float, phi1: float, p: float, log_tol: float):
    """Contour (mu, h, n) between singularities at phi0 < phi1.

    Garrappa's OptimalParam_RB at t = 1, for a right boundary that is a
    simple pole (strength q = 1); p is the strength of the left one.
    Returns n = inf when the region cannot reach the tolerance.
    """
    f_max = math.exp(log_tol - _LOG_EPS)
    sq0 = math.sqrt(phi0)
    sq1 = min(math.sqrt(phi1), 2.0 * math.sqrt(log_tol - _LOG_EPS) - sq0)
    if p < 1e-14:
        # only the origin has strength 0, so sq0 = 0 and f_min = 1.01 < f_max
        f_bar = 1.01 + 1.01 / f_max * (f_max - 1.01)
        sqb0 = 0.0
        sqb1 = 2.0 * sq1 / (2.0 + 1.0 / f_bar)
    else:
        f_min = 1.01 * (sq0 + sq1) / (sq1 - sq0) ** max(p, 1.0)
        if f_min >= f_max:
            return 0.0, 0.0, math.inf
        f_min = max(f_min, 1.5)
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp = f_bar ** (-1.0 / p)
        fq = 1.0 / f_bar
        w = -phi1 / log_tol
        den = 2.0 + w - (1.0 + w) * fp + fq
        sqb0 = ((2.0 + w + fq) * sq0 + fp * sq1) / den
        sqb1 = (-(1.0 + w) * fq * sq0 + (2.0 + w - (1.0 + w) * fp) * sq1) / den
    log_tol -= math.log(f_bar)
    w = -sqb1 * sqb1 / log_tol
    mu = (((1.0 + w) * sqb0 + sqb1) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (sqb1 - sqb0) / ((1.0 + w) * sqb0 + sqb1)
    return mu, h, math.ceil(math.sqrt(1.0 - log_tol / mu) / h)


def _unbounded_region(phi0: float, p: float, log_tol: float):
    """Contour (mu, h, n) to the right of the singularity at phi0.

    Garrappa's OptimalParam_RU at t = 1; p is the singularity's strength.
    Returns n = inf when round-off would exceed the tolerance.
    """
    sq0 = math.sqrt(phi0)
    phib = 1.01 * phi0 if phi0 > 0 else 0.01
    sqb = math.sqrt(phib)
    while True:
        ratio = log_tol / phib
        n = math.ceil(phib / math.pi * (1.0 - 1.5 * ratio + math.sqrt(1.0 - 2.0 * ratio)))
        a = math.pi * n / phib
        sq_mu = sqb * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        f_bar = ((sqb - sq0) / sq_mu) ** (-p)
        if p < 1e-14 or 1.0 < f_bar < 10.0:
            break
        sqb = 5.0 ** (-1.0 / p) * sq_mu + sq0
        phib = sqb * sqb
    mu = sq_mu * sq_mu
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    # keep exp(s) on the contour small enough for round-off to stay in budget
    threshold = log_tol - _LOG_EPS
    if mu > threshold:
        q = 0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * math.sqrt(mu)
        phib = (q + sq0) ** 2
        if phib >= threshold:
            return 0.0, 0.0, math.inf
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = math.sqrt(-phib / _LOG_EPS)
        mu = threshold
        n = math.ceil(w * log_tol / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return mu, h, n


def _contour(alpha: float, beta: float, z: float):
    """Optimal contour for E_{alpha,beta}(z), z < 0, and the poles beyond it.

    The poles s = |z|^(1/alpha) e^(+-i psi), psi = (2j+1) pi / alpha < pi, of
    the transform split the right half plane into regions by phi(s) =
    (Re s + |s|)/2.  Each region whose left end keeps round-off in budget
    admits a contour; the one with the fewest nodes wins, and the poles to
    its right contribute residues.  Returns (mu, h, n, upper-half-plane
    poles beyond the contour).
    """
    r = (-z) ** (1.0 / alpha)
    poles = []  # upper-half-plane poles by increasing phi
    for j in range(math.ceil((alpha - 1.0) / 2.0) - 1, -1, -1):
        psi = (2 * j + 1) * math.pi / alpha
        phi = r * (1.0 + math.cos(psi)) / 2.0
        if phi > 1e-15:
            poles.append((phi, cmath.rect(r, psi)))
    levels = [0.0] + [phi for phi, _ in poles]
    strengths = [max(0.0, -2.0 * (alpha - beta + 1.0))] + [1.0] * len(poles)
    admissible = [j for j, phi in enumerate(levels) if phi < _LOG_TARGET - _LOG_EPS]
    log_tol = _LOG_TARGET
    while True:
        best = (0.0, 0.0, math.inf, 0)
        for j in admissible:
            if j + 1 < len(levels):
                mu, h, n = _bounded_region(levels[j], levels[j + 1], strengths[j], log_tol)
            else:
                mu, h, n = _unbounded_region(levels[j], strengths[j], log_tol)
            if n < best[2]:
                best = (mu, h, n, j)
        if best[2] <= _MAX_NODES:
            mu, h, n, j = best
            return mu, h, n, [pole for _, pole in poles[j:]]
        log_tol += math.log(10.0)


def _invert(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for z < -1/2 by contour inversion plus residues.

    For alpha <= 1 there are no poles, so one contour serves every z and
    the node factors other than 1/(s^alpha - z) are computed once.
    """
    if alpha <= 1:
        contours = [_contour(alpha, beta, -1.0)]
    else:
        contours = [_contour(alpha, beta, x) for x in z.tolist()]
    mu = np.array([c[0] for c in contours])[:, None]
    h = np.array([c[1] for c in contours])
    n = np.array([c[2] for c in contours])
    k = np.arange(n.max() + 1)
    u = h[:, None] * k
    s = mu * (1.0 - u * u) + 2j * mu * u  # mu (1 + iu)^2
    log_s = np.log(s)
    ds = 2.0 * mu * (1j - u)
    terms = (np.exp(s + (alpha - beta) * log_s) / (np.exp(alpha * log_s) - z[:, None]) * ds).imag
    # node -k mirrors node k: together they give twice its imaginary part
    terms[:, 1:] *= 2.0
    terms = np.where(k <= n[:, None], terms, 0.0)
    # summed in node order, so zero padding leaves each point's value as is
    values = np.cumsum(terms, axis=1)[:, -1] * h / (2.0 * math.pi)
    if alpha <= 1:
        return values
    for i, (x, (*_, poles)) in enumerate(zip(z.tolist(), contours)):
        # each pole s and its conjugate add 2 Re(s^(1-beta) e^s) / alpha
        try:
            residues = sum(cmath.exp((1.0 - beta) * cmath.log(pole) + pole).real for pole in poles)
        except OverflowError:
            raise MittagLefflerError(
                f"E_({alpha:g},{beta:g})({x:g}) overflows double precision",
                achieved_tolerance=math.inf,
            ) from None
        values[i] += 2.0 * residues / alpha
    return values


def mittag_leffler(alpha: float, beta: float, z: float | np.ndarray) -> float | np.ndarray:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z.

    ``z`` is a scalar, which returns a float, or an array, which returns an
    array of its shape.  Raises :class:`MittagLefflerError` for a non-finite
    argument, when the series for z > 0 does not reach the term tolerance
    within the term budget (large z, small alpha), and when the value
    overflows double precision.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha:g}")
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta:g}")
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        raise MittagLefflerError(
            f"E_({alpha:g},{beta:g})({flat[~finite][0]:g}) needs a finite argument",
            achieved_tolerance=math.inf,
        )
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start:start + _BLOCK]
        values = out[start:start + _BLOCK]  # a view: filled in place
        far = block < -_SERIES_RADIUS
        for i in np.flatnonzero(~far).tolist():
            values[i] = _series(alpha, beta, float(block[i]))
        if far.any():
            values[far] = _invert(alpha, beta, block[far])
    if zs.ndim == 0:
        return float(out[0])
    return out.reshape(zs.shape)
