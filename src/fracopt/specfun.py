"""Special functions: the two-parameter Mittag-Leffler function.

E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha*k + beta) is evaluated in
double precision for 0 < alpha, beta <= 2, the order range of the solver,
and real z <= 0, scalar or array, along one of three paths:

* z = 0 gives 1/Gamma(beta).
* -1/2 <= z < 0 sums the Taylor series directly: every term is below
  1.13 * 2^-k, so the alternating sum does not cancel.
* z < -1/2 inverts the Laplace transform s^(alpha-beta) / (s^alpha - z) at
  t = 1 with the trapezoidal rule on an optimal parabolic contour, and adds
  the residue of the transform's pole pair when it lies to the right of
  the contour (the pair exists for orders above 1).  R. Garrappa,
  "Numerical evaluation of two and three parameter Mittag-Leffler
  functions", SIAM J. Numer. Anal. 53(3), 2015.  The contour holds at most
  2*200 + 1 nodes, so the cost per point does not grow with |z|.

Arrays are evaluated in blocks of about 6 400 contour nodes: 32 points of
up to 201 nodes each for alpha > 1, where every point has its own contour,
and more points of the one contour that serves a whole call for alpha <= 1.
The work memory, about 100 KB per complex temporary and under 1 MiB in all,
does not grow with the number of points, and each point's value does not
depend on the other points of the call.  An order outside the range, and a
positive or non-finite argument, raise a typed error before any work.
Inside the range no value overflows: the pole pair has Re s <= 0.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import MittagLefflerError, OrderRangeError

__all__ = ["mittag_leffler"]

_EPS = 2.220446049250313e-16
_LOG_EPS = math.log(_EPS)
# Negative arguments up to this radius are summed directly; 56 terms leave a
# tail below 1.13 * 2^-55 < 1e-16.
_SERIES_RADIUS = 0.5
_SERIES_TERMS = 56
# Contour quadrature: target accuracy (log), node cap per half contour (the
# target is relaxed by a decade until the cheapest admissible contour fits),
# and nodes per array block: 32 points at the cap, so one complex temporary
# of a block takes about 100 KB and stays in a core's L2 cache.
_LOG_TARGET = math.log(1e-15)
_MAX_NODES = 200
_BLOCK_NODES = 32 * (_MAX_NODES + 1)


def _recip_gamma(x: float) -> float:
    """1/Gamma(x), with the poles of Gamma mapped to exact zeros."""
    if x <= 0 and float(x).is_integer():
        return 0.0
    return 1.0 / math.gamma(x)


def _series(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for -1/2 <= z <= 0 by the Taylor series."""
    total = 1.0 / math.gamma(beta)
    if z == 0.0:
        return total
    # Kahan-compensated summation; terms built in log space to avoid
    # overflow in z**k and Gamma separately.
    log_abs_z = math.log(-z)
    comp = 0.0
    for k in range(1, _SERIES_TERMS):
        term = math.exp(k * log_abs_z - math.lgamma(alpha * k + beta))
        if k & 1:
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _bounded_region(phi1: float, log_tol: float):
    """Contour (mu, h, n) between the origin and a pole at phi1.

    Garrappa's OptimalParam_RB at t = 1, for a left boundary at the origin
    with strength 0 and a right boundary that is a simple pole.
    """
    f_max = math.exp(log_tol - _LOG_EPS)
    sq1 = min(math.sqrt(phi1), 2.0 * math.sqrt(log_tol - _LOG_EPS))
    f_bar = 1.01 + 1.01 / f_max * (f_max - 1.01)
    sqb1 = 2.0 * sq1 / (2.0 + 1.0 / f_bar)
    log_tol -= math.log(f_bar)
    w = -sqb1 * sqb1 / log_tol
    mu = (sqb1 / (2.0 + w)) ** 2
    # Garrappa's (sqb1 - sqb0) / ((1 + w) sqb0 + sqb1) at sqb0 = 0, left
    # unreduced: x * sqb1 / sqb1 can differ from x in the last bit
    h = -2.0 * math.pi / log_tol * sqb1 / sqb1
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
    """Optimal contour for E_{alpha,beta}(z), z < 0, and the pole beyond it.

    For 1 < alpha <= 2 the transform has one pole pair s = |z|^(1/alpha)
    e^(+-i pi/alpha), at phi(s) = (Re s + |s|)/2 > 0 (none for alpha <= 1).
    A pole splits the right half plane: the contour runs left of it, with
    its residue added, or right of it when round-off stays in budget there;
    the one with fewer nodes wins.  Returns (mu, h, n, the upper-half-plane
    pole beyond the contour or None).
    """
    r = (-z) ** (1.0 / alpha)
    psi = math.pi / alpha
    phi = r * (1.0 + math.cos(psi)) / 2.0
    log_tol = _LOG_TARGET
    while True:
        if alpha <= 1 or phi <= 1e-15:
            mu, h, n = _unbounded_region(0.0, max(0.0, -2.0 * (alpha - beta + 1.0)), log_tol)
            pole = None
        else:
            pole = cmath.rect(r, psi)
            # Re s <= 0 exactly for alpha <= 2; cos(pi/2) rounds to 6e-17 > 0
            pole = complex(min(pole.real, 0.0), pole.imag)
            mu, h, n = _bounded_region(phi, log_tol)
            if phi < _LOG_TARGET - _LOG_EPS:
                right = _unbounded_region(phi, 1.0, log_tol)
                if right[2] < n:
                    (mu, h, n), pole = right, None
        if n <= _MAX_NODES:
            return mu, h, n, pole
        log_tol += math.log(10.0)


def _nodes(alpha: float, beta: float, contours):
    """Node table of the contours: (h, padding mask, s^alpha, e^s s^(alpha-beta), ds).

    Row i holds nodes k = 0 .. max n of contour i; nodes past its own n are
    masked out.  Every factor of a node but 1/(s^alpha - z) is in the table.
    """
    mu = np.array([c[0] for c in contours])[:, None]
    h = np.array([c[1] for c in contours])
    n = np.array([c[2] for c in contours])
    k = np.arange(n.max() + 1)
    u = h[:, None] * k
    s = mu * (1.0 - u * u) + 2j * mu * u  # mu (1 + iu)^2
    log_s = np.log(s)
    num = np.exp(s + (alpha - beta) * log_s)
    return h, k <= n[:, None], np.exp(alpha * log_s), num, 2.0 * mu * (1j - u)


def _invert(alpha: float, beta: float, z: np.ndarray, table=None) -> np.ndarray:
    """E_{alpha,beta}(z) for z < -1/2 by contour inversion plus residues.

    ``table`` holds the nodes of one contour that serves every z (alpha <= 1,
    no poles); without it each z gets its own contour and pole.
    """
    poles = ()
    if table is None:
        contours = [_contour(alpha, beta, x) for x in z.tolist()]
        poles = [c[3] for c in contours]
        table = _nodes(alpha, beta, contours)
    h, mask, s_alpha, num, ds = table
    terms = (num / (s_alpha - z[:, None]) * ds).imag
    # node -k mirrors node k: together they give twice its imaginary part
    terms[:, 1:] *= 2.0
    terms = np.where(mask, terms, 0.0)
    # summed in node order, so zero padding leaves each point's value as is
    values = np.cumsum(terms, axis=1)[:, -1] * h / (2.0 * math.pi)
    for i, pole in enumerate(poles):
        if pole is not None:
            # the pole s and its conjugate add 2 Re(s^(1-beta) e^s) / alpha
            values[i] += 2.0 * cmath.exp((1.0 - beta) * cmath.log(pole) + pole).real / alpha
    return values


def mittag_leffler(alpha: float, beta: float, z: float | np.ndarray) -> float | np.ndarray:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z.

    ``z`` is a scalar, which returns a float, or an array, which returns an
    array of its shape.  Raises :class:`OrderRangeError` unless 0 < alpha <= 2
    and 0 < beta <= 2, the solver's order range, and
    :class:`MittagLefflerError` for a non-finite or positive argument.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (0 < alpha <= 2 and 0 < beta <= 2):
        raise OrderRangeError(
            f"E_(alpha,beta) needs 0 < alpha <= 2 and 0 < beta <= 2, got ({alpha!r}, {beta!r})")
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        raise MittagLefflerError(
            f"E_({alpha:g},{beta:g})({flat[~finite][0]:g}) needs a finite argument")
    positive = flat > 0
    if positive.any():
        raise MittagLefflerError(
            f"E_({alpha:g},{beta:g})({flat[positive][0]:g}) is evaluated for z <= 0 only")
    out = np.empty(flat.shape)
    # for alpha <= 1 there are no poles, so one contour serves every z; a
    # block holds as many points as fit _BLOCK_NODES nodes of their contours
    shared = None
    width = _MAX_NODES + 1
    if alpha <= 1 and flat.size and flat.min() < -_SERIES_RADIUS:
        shared = _nodes(alpha, beta, [_contour(alpha, beta, -1.0)])
        width = shared[1].shape[1]
    size = _BLOCK_NODES // width
    for start in range(0, flat.size, size):
        block = flat[start:start + size]
        values = out[start:start + size]  # a view: filled in place
        far = block < -_SERIES_RADIUS
        for i in np.flatnonzero(~far).tolist():
            values[i] = _series(alpha, beta, float(block[i]))
        if far.any():
            values[far] = _invert(alpha, beta, block[far], shared)
    if zs.ndim == 0:
        return float(out[0])
    return out.reshape(zs.shape)
