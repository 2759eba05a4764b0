"""Benchmark objectives with analytic gradients.

Three problems: the scalar shifted quadratic, least squares for a
polynomial-interpolation (Vandermonde) linear system, and the Thomson
point-charge energy on the unit sphere parameterized by spherical angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._csvfile import write_csv
from .errors import SampleRetryError, SingularPairError
from .fracops import Polynomial

__all__ = [
    "Objective",
    "VandermondeSpec",
    "ThomsonSpec",
    "make_quadratic",
    "make_vandermonde",
    "make_thomson",
    "random_sphere_configuration",
    "THOMSON_REFERENCE_ENERGIES",
]

# Best known minimum energies for small charge counts.
THOMSON_REFERENCE_ENERGIES = {
    4: 3.674234614,
    5: 6.474691495,
    6: 9.985281374,
    12: 49.165253058,
}

_COINCIDENCE_TOL = 1e-12


@dataclass(frozen=True)
class Objective:
    """Evaluatable cost with analytic gradient and optional known optimum.

    ``progress_metric`` is the problem's progress statistic for stopping
    and first-passage bookkeeping (distance to optimum, residual norm, or
    raw energy).  ``polynomial`` is set for scalar objectives that admit
    exact closed-form fractional derivatives.
    """

    name: str
    dimension: int
    f: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    known_optimum: np.ndarray | None = None
    known_minimum: float | None = None
    progress_metric: Callable[[np.ndarray], float] | None = None
    polynomial: Polynomial | None = None

    def metric(self, u: np.ndarray) -> float:
        if self.progress_metric is not None:
            return float(self.progress_metric(u))
        return float(self.f(u))


def make_quadratic(c: float) -> Objective:
    """f(u) = (u - c)^2 in one variable; optimum u* = c, f* = 0."""
    c = float(c)

    def f(u: np.ndarray) -> float:
        return float((u[0] - c) ** 2)

    def gradient(u: np.ndarray) -> np.ndarray:
        return np.array([2.0 * (u[0] - c)])

    return Objective(
        name=f"quadratic(c={c:g})",
        dimension=1,
        f=f,
        gradient=gradient,
        known_optimum=np.array([c]),
        known_minimum=0.0,
        progress_metric=lambda u: abs(float(u[0]) - c),
        polynomial=Polynomial((1.0, -2.0 * c, c * c)),
    )


@dataclass(frozen=True)
class VandermondeSpec:
    """Interpolation system X u = g with X[i, j] = x_i^(m-j)."""

    degree: int
    nodes: np.ndarray
    u_true: np.ndarray
    matrix: np.ndarray
    target: np.ndarray

    def __post_init__(self) -> None:
        for name in ("nodes", "u_true", "matrix", "target"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def residual_norm(self, u: np.ndarray) -> float:
        return float(np.linalg.norm(self.matrix @ u - self.target))

    def condition_number(self) -> float:
        return float(np.linalg.cond(self.matrix))


def make_vandermonde(
    m: int,
    node_rule: str = "uniform-interior",
    u_true: np.ndarray | int | None = None,
) -> tuple[Objective, VandermondeSpec]:
    """Least-squares objective f(u) = ||Xu - g||^2 for the degree-m system.

    Nodes default to x_j = (j+1)/(m+2), strictly inside (0, 1).  The target
    is generated as g = X u_true so the exact solution is known; u_true
    defaults to the alternating +-1 pattern, or is drawn from a seed when
    an int is given.
    """
    if m < 1:
        raise ValueError("degree m must be >= 1")
    if node_rule != "uniform-interior":
        raise ValueError(f"unknown node rule: {node_rule!r}")
    n = m + 1
    nodes = (np.arange(n) + 1.0) / (m + 2.0)
    if np.unique(nodes).size != n:
        raise ValueError("nodes must be distinct (singular system)")

    if u_true is None:
        coeffs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    elif isinstance(u_true, (int, np.integer)):
        coeffs = np.random.default_rng(int(u_true)).uniform(-1.0, 1.0, size=n)
    else:
        coeffs = np.asarray(u_true, dtype=float)
        if coeffs.shape != (n,):
            raise ValueError(f"u_true must have shape ({n},)")

    powers = m - np.arange(n)
    matrix = nodes[:, None] ** powers[None, :]
    target = matrix @ coeffs
    spec = VandermondeSpec(
        degree=m, nodes=nodes, u_true=coeffs, matrix=matrix, target=target
    )
    mat, tgt = spec.matrix, spec.target

    def f(u: np.ndarray) -> float:
        r = mat @ u - tgt
        return float(r @ r)

    def gradient(u: np.ndarray) -> np.ndarray:
        return 2.0 * (mat.T @ (mat @ u - tgt))

    objective = Objective(
        name=f"vandermonde(m={m})",
        dimension=n,
        f=f,
        gradient=gradient,
        known_optimum=spec.u_true,
        known_minimum=0.0,
        progress_metric=spec.residual_norm,
    )
    return objective, spec


@dataclass(frozen=True)
class ThomsonSpec:
    """N point charges on the unit sphere, parameterized by 2N angles.

    The parameter vector is u = [theta_1..theta_N, phi_1..phi_N] with
    azimuth theta and polar angle phi (z = cos phi), so the unit-norm
    constraint holds by construction.
    """

    charges: int

    def split(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.charges
        u = np.asarray(u, dtype=float)
        return u[:n], u[n:]

    def cartesian(self, u: np.ndarray) -> np.ndarray:
        theta, phi = self.split(u)
        sin_phi = np.sin(phi)
        return np.column_stack(
            (sin_phi * np.cos(theta), sin_phi * np.sin(theta), np.cos(phi))
        )

    def pole_proximity(self, u: np.ndarray, tol: float = 1e-6) -> np.ndarray:
        """Indices of charges within ``tol`` of a coordinate pole, where the
        azimuthal gradient component degenerates."""
        _, phi = self.split(u)
        return np.flatnonzero(np.abs(np.sin(phi)) < tol)

    def to_csv(self, u: np.ndarray, path) -> None:
        """Write final Cartesian coordinates as `i,x,y,z` rows."""
        write_csv(path, ["i", "x", "y", "z"],
                  ([i, *row] for i, row in enumerate(self.cartesian(u).tolist())))


def make_thomson(n_charges: int) -> tuple[Objective, ThomsonSpec]:
    """Coulomb energy sum_{i<j} 1/d_ij over the 2N spherical angles.

    The analytic gradient follows from the chain rule through the angle
    parameterization.  Coincident charges raise
    :class:`SingularPairError` with the offending pair.
    """
    if n_charges < 2:
        raise ValueError("need at least 2 charges")
    spec = ThomsonSpec(charges=n_charges)
    n = n_charges
    iu = np.triu_indices(n, k=1)

    def _dots_and_check(u: np.ndarray):
        theta, phi = spec.split(u)
        sin_phi, cos_phi = np.sin(phi), np.cos(phi)
        dth = theta[:, None] - theta[None, :]
        dot = sin_phi[:, None] * sin_phi[None, :] * np.cos(dth) \
            + cos_phi[:, None] * cos_phi[None, :]
        d2 = np.maximum(2.0 - 2.0 * dot, 0.0)
        dist = np.sqrt(d2)
        small = dist[iu] < _COINCIDENCE_TOL
        if np.any(small):
            which = np.argmax(small)
            raise SingularPairError(int(iu[0][which]), int(iu[1][which]))
        return theta, phi, sin_phi, cos_phi, dth, dist

    def f(u: np.ndarray) -> float:
        dist = _dots_and_check(u)[5]
        return float(np.sum(1.0 / dist[iu]))

    def gradient(u: np.ndarray) -> np.ndarray:
        theta, phi, sin_phi, cos_phi, dth, dist = _dots_and_check(u)
        inv_d3 = np.zeros_like(dist)
        mask = dist > 0
        inv_d3[mask] = dist[mask] ** -3
        np.fill_diagonal(inv_d3, 0.0)
        # d(1/d_ij)/dq = (d dot_ij / dq) / d_ij^3
        ddot_dtheta = -sin_phi[:, None] * sin_phi[None, :] * np.sin(dth)
        ddot_dphi = cos_phi[:, None] * sin_phi[None, :] * np.cos(dth) \
            - sin_phi[:, None] * cos_phi[None, :]
        g_theta = np.sum(ddot_dtheta * inv_d3, axis=1)
        g_phi = np.sum(ddot_dphi * inv_d3, axis=1)
        return np.concatenate((g_theta, g_phi))

    objective = Objective(
        name=f"thomson(N={n})",
        dimension=2 * n,
        f=f,
        gradient=gradient,
        known_minimum=THOMSON_REFERENCE_ENERGIES.get(n),
        progress_metric=f,
    )
    return objective, spec


def random_sphere_configuration(n_charges: int, seed: int, max_retries: int = 100) -> np.ndarray:
    """Seeded uniform sample of N charges, as the 2N-angle parameter vector.

    Each point is a normalized triple of independent standard normals.
    Draws are rejected until no two points are closer than 1e-3 in angular
    distance; a pathological seed exhausting the budget raises
    :class:`SampleRetryError`.
    """
    if n_charges < 2:
        raise ValueError("need at least 2 charges")
    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        xyz = rng.standard_normal((n_charges, 3))
        norms = np.linalg.norm(xyz, axis=1)
        if np.any(norms < 1e-12):
            continue
        xyz /= norms[:, None]
        dots = np.clip(xyz @ xyz.T, -1.0, 1.0)
        np.fill_diagonal(dots, -1.0)
        if math.acos(float(np.max(dots))) < 1e-3:
            continue
        theta = np.arctan2(xyz[:, 1], xyz[:, 0])
        phi = np.arccos(np.clip(xyz[:, 2], -1.0, 1.0))
        return np.concatenate((theta, phi))
    raise SampleRetryError(
        f"could not place {n_charges} separated charges in {max_retries} draws"
    )
