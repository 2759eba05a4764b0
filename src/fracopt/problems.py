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

    ``f``, ``gradient`` and ``progress_metric`` take one state (d,) or a
    stack of states (R, d).  For a state they return a float (``f``,
    ``progress_metric``) or a (d,) array (``gradient``); for a stack, the
    same per row, as an (R,) or (R, d) array, bit for bit equal to the
    single-state calls.  ``progress_metric`` is the problem's progress
    statistic for stopping and first-passage bookkeeping (distance to
    optimum, residual norm, or raw energy).  ``polynomial`` is set for
    scalar objectives that admit exact closed-form fractional derivatives.
    """

    name: str
    dimension: int
    f: Callable[[np.ndarray], float | np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    known_optimum: np.ndarray | None = None
    known_minimum: float | None = None
    progress_metric: Callable[[np.ndarray], float | np.ndarray] | None = None
    polynomial: Polynomial | None = None

    def metric(self, u: np.ndarray) -> float | np.ndarray:
        """Progress metric of a state as a float, or of a stack per row."""
        value = (self.progress_metric if self.progress_metric is not None else self.f)(u)
        return float(value) if np.ndim(u) == 1 else np.asarray(value, dtype=float)


def _rowwise(fn: Callable[[np.ndarray], float | np.ndarray]):
    """Extend a single-state function to stacks by calling it per row, for
    problems whose batched BLAS calls would round differently."""
    def stacked(u: np.ndarray):
        u = np.asarray(u, dtype=float)
        return fn(u) if u.ndim == 1 else np.array([fn(row) for row in u])
    return stacked


def make_quadratic(c: float) -> Objective:
    """f(u) = (u - c)^2 in one variable; optimum u* = c, f* = 0."""
    c = float(c)

    # per row: a numpy scalar squares by pow(), an array by x * x
    @_rowwise
    def f(u: np.ndarray) -> float:
        return float((u[0] - c) ** 2)

    def gradient(u: np.ndarray) -> np.ndarray:
        return 2.0 * (np.asarray(u, dtype=float)[..., :1] - c)

    def metric(u: np.ndarray) -> float | np.ndarray:
        value = np.abs(np.asarray(u, dtype=float)[..., 0] - c)
        return float(value) if value.ndim == 0 else value

    return Objective(
        name=f"quadratic(c={c:g})",
        dimension=1,
        f=f,
        gradient=gradient,
        known_optimum=np.array([c]),
        known_minimum=0.0,
        progress_metric=metric,
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
    u_true: np.ndarray | int | None = None,
) -> tuple[Objective, VandermondeSpec]:
    """Least-squares objective f(u) = ||Xu - g||^2 for the degree-m system.

    Nodes are x_j = (j+1)/(m+2), strictly inside (0, 1).  The target
    is generated as g = X u_true so the exact solution is known; u_true
    defaults to the alternating +-1 pattern, or is drawn from a seed when
    an int is given.
    """
    if m < 1:
        raise ValueError("degree m must be >= 1")
    n = m + 1
    nodes = (np.arange(n) + 1.0) / (m + 2.0)

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

    # one matrix-vector product per state: gemm on a stack rounds differently
    @_rowwise
    def f(u: np.ndarray) -> float:
        r = mat @ u - tgt
        return float(r @ r)

    @_rowwise
    def gradient(u: np.ndarray) -> np.ndarray:
        return 2.0 * (mat.T @ (mat @ u - tgt))

    objective = Objective(
        name=f"vandermonde(m={m})",
        dimension=n,
        f=f,
        gradient=gradient,
        known_optimum=spec.u_true,
        known_minimum=0.0,
        progress_metric=_rowwise(spec.residual_norm),
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
    parameterization.  ``f`` and ``gradient`` take one parameter vector
    (2N,) or a stack (R, 2N) and broadcast over the leading axis; every
    row of a stack gets the same bits as its single-state call.
    Coincident charges raise :class:`SingularPairError` with the offending
    pair (of the first such row of a stack).
    """
    if n_charges < 2:
        raise ValueError("need at least 2 charges")
    spec = ThomsonSpec(charges=n_charges)
    n = n_charges
    iu0, iu1 = np.triu_indices(n, k=1)
    diag = np.arange(n)

    def _geometry(u: np.ndarray):
        u = np.asarray(u, dtype=float)
        theta, phi = u[..., :n], u[..., n:]
        sin_phi, cos_phi = np.sin(phi), np.cos(phi)
        dth = theta[..., None] - theta[..., None, :]
        cos_dth = np.cos(dth)
        sin_sin = sin_phi[..., None] * sin_phi[..., None, :]
        dot = sin_sin * cos_dth + cos_phi[..., None] * cos_phi[..., None, :]
        dist = np.sqrt(np.maximum(2.0 - 2.0 * dot, 0.0))
        # a contiguous copy, so each row is summed by numpy's pairwise rule
        # exactly as a single state's pairs are
        pairs = np.ascontiguousarray(dist[..., iu0, iu1])
        small = pairs < _COINCIDENCE_TOL
        if small.any():
            which = int(np.argmax(small.reshape(-1))) % iu0.size
            raise SingularPairError(int(iu0[which]), int(iu1[which]))
        return sin_phi, cos_phi, dth, cos_dth, sin_sin, dist, pairs

    def f(u: np.ndarray) -> float | np.ndarray:
        energy = (1.0 / _geometry(u)[-1]).sum(axis=-1)
        return float(energy) if energy.ndim == 0 else energy

    def gradient(u: np.ndarray) -> np.ndarray:
        sin_phi, cos_phi, dth, cos_dth, sin_sin, dist, _ = _geometry(u)
        # only the diagonal can be 0 (coincident pairs raised above)
        dist[..., diag, diag] = 1.0
        inv_d3 = dist ** -3
        inv_d3[..., diag, diag] = 0.0
        # d(1/d_ij)/dq = (d dot_ij / dq) / d_ij^3, with d dot_ij / d theta_i
        # = -sin_sin * sin(dth); negating the sum gives the same bits as
        # summing the negated terms
        ddot_dphi = cos_phi[..., None] * sin_phi[..., None, :] * cos_dth \
            - sin_phi[..., None] * cos_phi[..., None, :]
        g_theta = -(sin_sin * np.sin(dth) * inv_d3).sum(axis=-1)
        g_phi = (ddot_dphi * inv_d3).sum(axis=-1)
        return np.concatenate((g_theta, g_phi), axis=-1)

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
