from __future__ import annotations

import math

import numpy as np
import pytest

from fracopt import _selfcheck as sc
from fracopt import problems
from fracopt._csvfile import write_csv
from fracopt.errors import SampleRetryError, SingularPairError
from fracopt.optimizers import Method, OptimizerConfig, run_gdm
from fracopt.problems import (
    THOMSON_REFERENCE_ENERGIES,
    make_quadratic,
    make_thomson,
    make_vandermonde,
    random_sphere_configuration,
)


def random_rotation(rng) -> np.ndarray:
    m = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestQuadratic:
    def test_values_and_gradient(self):
        obj = make_quadratic(3.0)
        assert obj.f(np.array([1.0])) == 4.0
        assert obj.gradient(np.array([1.0]))[0] == -4.0
        assert obj.f(np.array([3.0])) == 0.0

    def test_symmetry_at_zero_center(self):
        obj = make_quadratic(0.0)
        assert obj.f(np.array([2.0])) == obj.f(np.array([-2.0]))

    def test_polynomial_attached(self):
        obj = make_quadratic(3.0)
        assert obj.polynomial.coefficients == (1.0, -6.0, 9.0)

    def test_metric_is_distance_to_optimum(self):
        obj = make_quadratic(3.0)
        assert obj.progress_metric(np.array([1.0])) == 2.0


def test_quadratic_and_vandermonde_stacks_keep_single_state_bits(rng):
    quad = make_quadratic(3.0)
    vand, _ = make_vandermonde(10)
    # a stack of one start too, as GDM and FGDM step one start
    for obj, stack in ((quad, rng.normal(3.0, 2.0, (50, 1))), (vand, rng.normal(0.0, 1.0, (50, 11))),
                       (quad, rng.normal(3.0, 2.0, (1, 1))), (vand, rng.normal(0.0, 1.0, (1, 11)))):
        f, g, m = obj.f(stack), obj.gradient(stack), obj.progress_metric(stack)
        for i, u in enumerate(stack):
            assert np.float64(obj.f(u)).tobytes() == f[i].tobytes()
            assert obj.gradient(u).tobytes() == g[i].tobytes()
            assert np.float64(obj.progress_metric(u)).tobytes() == m[i].tobytes()


class TestVandermonde:
    def test_exact_solve_degree_one(self):
        obj, spec = make_vandermonde(1, u_true=np.array([1.0, 0.0]))
        assert np.allclose(spec.nodes, [1.0 / 3.0, 2.0 / 3.0])
        assert obj.f(spec.u_true) == 0.0
        assert np.allclose(obj.gradient(spec.u_true), 0.0)

    def test_values_at_origin(self):
        obj, spec = make_vandermonde(10)
        g = spec.target
        assert obj.f(np.zeros(11)) == pytest.approx(float(g @ g), rel=1e-14)
        assert np.allclose(obj.gradient(np.zeros(11)), -2.0 * spec.matrix.T @ g)

    def test_condition_number_exceeds_1e4(self):
        # singular-value oracle on the constructed matrix
        _, spec = make_vandermonde(10)
        s = np.linalg.svd(spec.matrix, compute_uv=False)
        assert s[0] / s[-1] > 1e4
        assert np.linalg.cond(spec.matrix) == pytest.approx(s[0] / s[-1], rel=1e-10)

    def test_vandermonde_structure(self):
        _, spec = make_vandermonde(3)
        for i, x in enumerate(spec.nodes):
            assert np.allclose(spec.matrix[i], [x**3, x**2, x, 1.0])
        assert np.all((spec.nodes > 0) & (spec.nodes < 1))
        assert np.all(np.diff(spec.nodes) > 0)

    def test_target_consistency(self):
        _, spec = make_vandermonde(6)
        assert np.allclose(spec.matrix @ spec.u_true, spec.target, rtol=0, atol=1e-15)

    def test_positive_away_from_solution(self, rng):
        obj, spec = make_vandermonde(5)
        for _ in range(10):
            u = spec.u_true + rng.uniform(-1, 1, 6)
            if not np.allclose(u, spec.u_true):
                assert obj.f(u) > 0.0

    def test_gradient_against_finite_differences(self, rng):
        obj, _ = make_vandermonde(10)
        points = [rng.uniform(-1.5, 1.5, obj.dimension) for _ in range(20)]
        assert sc.gradient_error(obj, points) <= sc.GRADIENT_BOUND

    def test_validation(self):
        with pytest.raises(ValueError):
            make_vandermonde(0)
        with pytest.raises(ValueError):
            make_vandermonde(3, u_true=np.ones(7))



def test_gradient_error_keeps_a_later_nan():
    # the gradient of u^2, except NaN at the second point; max() would drop it
    obj = problems.Objective(dimension=1, f=lambda u: float(u[0] ** 2),
                             gradient=lambda u: np.where(u > 1.5, np.nan, 2.0 * u),
                             progress_metric=lambda u: float(u[0]))
    assert sc.gradient_error(obj, [[1.0]]) <= sc.GRADIENT_BOUND
    assert math.isnan(sc.gradient_error(obj, [[1.0], [2.0]]))


class TestThomson:
    def test_antipodal_pair(self):
        obj, _ = make_thomson(2)
        u = np.array([0.0, 0.0, 0.0, math.pi])
        assert obj.f(u) == pytest.approx(0.5, abs=1e-14)

    def test_equilateral_triangle(self):
        # analytic geometry: all pair distances are sqrt(3) on a great circle
        obj, _ = make_thomson(3)
        u = np.concatenate(([0.0, 2 * math.pi / 3, 4 * math.pi / 3], [math.pi / 2] * 3))
        assert obj.f(u) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    # the vertices of each reference minimum's polyhedron, as (theta, phi)
    POLYHEDRA = {
        4: [(0.0, 0.0)] + [(2 * math.pi * k / 3, math.acos(-1 / 3)) for k in range(3)],
        5: [(0.0, 0.0), (0.0, math.pi)] + [(2 * math.pi * k / 3, math.pi / 2) for k in range(3)],
        6: [(0.0, 0.0), (0.0, math.pi)] + [(math.pi * k / 2, math.pi / 2) for k in range(4)],
        12: [(0.0, 0.0), (0.0, math.pi)]
        + [(2 * math.pi * k / 5, math.atan(2.0)) for k in range(5)]
        + [(2 * math.pi * k / 5 + math.pi / 5, math.pi - math.atan(2.0)) for k in range(5)],
    }

    @pytest.mark.parametrize("n", sorted(POLYHEDRA))
    def test_reference_minimum_attached(self, n):
        # the references are the energies of the tetrahedron, triangular
        # bipyramid, octahedron and icosahedron
        obj, _ = make_thomson(n)
        theta, phi = zip(*self.POLYHEDRA[n])
        energy = obj.f(np.array(theta + phi))
        assert energy == pytest.approx(THOMSON_REFERENCE_ENERGIES[n], rel=1e-14, abs=0.0)

    def test_unit_sphere_by_construction(self, rng):
        _, spec = make_thomson(6)
        u = random_sphere_configuration(6, seed=11)
        xyz = spec.cartesian(u)
        assert np.allclose(np.sum(xyz * xyz, axis=1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("n", [4, 12])
    def test_gradient_against_finite_differences(self, n, rng):
        obj, _ = make_thomson(n)
        points = [np.concatenate((rng.uniform(-math.pi, math.pi, n),
                                  rng.uniform(0.1, math.pi - 0.1, n))) for _ in range(20)]
        assert sc.gradient_error(obj, points) <= sc.GRADIENT_BOUND

    def test_rotation_invariance(self, rng):
        obj, spec = make_thomson(6)
        u = random_sphere_configuration(6, seed=3)
        base = obj.f(u)
        for _ in range(10):
            xyz = spec.cartesian(u) @ random_rotation(rng).T
            theta = np.arctan2(xyz[:, 1], xyz[:, 0])
            phi = np.arccos(np.clip(xyz[:, 2], -1.0, 1.0))
            assert abs(obj.f(np.concatenate((theta, phi))) - base) <= 1e-10

    def test_coincident_charges_raise_with_pair(self):
        obj, _ = make_thomson(3)
        u = np.concatenate(([0.2, 0.2, 1.0], [1.0, 1.0, 2.0]))
        with pytest.raises(SingularPairError) as err:
            obj.f(u)
        assert err.value.pair == (0, 1)

    def test_coincident_pair_in_a_stack(self):
        obj, _ = make_thomson(3)
        good = random_sphere_configuration(3, seed=1)
        bad = np.concatenate(([0.3, 1.0, 0.3], [2.0, 1.0, 2.0]))
        with pytest.raises(SingularPairError) as err:
            obj.gradient(np.stack((good, bad, good)))
        assert err.value.pair == (0, 2)

    @pytest.mark.parametrize("n", [2, 4, 5, 12])
    def test_stack_rows_equal_single_states_bitwise(self, n, rng):
        obj, _ = make_thomson(n)
        starts = [random_sphere_configuration(n, seed=int(s)) for s in rng.integers(0, 10**6, 3)]
        # a long stack, as the stacked metric sees a trace, and a stack of one
        # start, as GDM steps one start
        long = np.concatenate([u + rng.normal(0.0, 1e-2, (100, 2 * n)) for u in starts])
        for stack in (long, long[:1]):
            f, g, m = obj.f(stack), obj.gradient(stack), obj.progress_metric(stack)
            assert f.shape == m.shape == (len(stack),) and g.shape == (len(stack), 2 * n)
            for i, u in enumerate(stack):
                assert np.float64(obj.f(u)).tobytes() == f[i].tobytes()
                assert obj.gradient(u).tobytes() == g[i].tobytes()
                assert np.float64(obj.progress_metric(u)).tobytes() == m[i].tobytes()

    @pytest.mark.parametrize("n", [4, 12])
    def test_known_minima_dominance(self, n):
        # no seeded descent may report energy below the reference minimum
        obj, _ = make_thomson(n)
        ref = THOMSON_REFERENCE_ENERGIES[n]
        cfg = OptimizerConfig(method=Method.GDM, omega=0.005, k_max=2000)
        for seed in (1, 2, 3):
            u0 = random_sphere_configuration(n, seed=seed)
            result = run_gdm(obj, u0, cfg)
            assert result.final_metric >= ref - 1e-6
            assert float(np.min(result.iterations.costs)) >= ref - 1e-6

    def test_geometry_csv(self, tmp_path):
        # the table-2 geometry file: one Cartesian row per charge
        _, spec = make_thomson(2)
        u = np.array([0.0, 0.0, 0.0, math.pi])
        xyz = spec.cartesian(u)
        np.testing.assert_allclose(xyz, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], atol=1e-15)
        path = tmp_path / "geom.csv"
        write_csv(path, ["i", "x", "y", "z"], ([i, *row] for i, row in enumerate(xyz.tolist())))
        lines = path.read_text().splitlines()
        assert lines[0] == "i,x,y,z"
        assert len(lines) == 3


class TestSphereSampler:
    def test_deterministic(self):
        assert np.array_equal(
            random_sphere_configuration(4, seed=1),
            random_sphere_configuration(4, seed=1),
        )

    def test_unit_norm_invariant(self):
        _, spec = make_thomson(5)
        for seed in range(10):
            xyz = spec.cartesian(random_sphere_configuration(5, seed=seed))
            assert np.allclose(np.linalg.norm(xyz, axis=1), 1.0, atol=1e-14)

    def test_minimum_separation(self):
        _, spec = make_thomson(8)
        for seed in range(10):
            xyz = spec.cartesian(random_sphere_configuration(8, seed=seed))
            dots = np.clip(xyz @ xyz.T, -1, 1)
            np.fill_diagonal(dots, -1.0)
            assert math.acos(float(np.max(dots))) >= 1e-3

    def test_uniform_mean_z(self):
        # Monte Carlo uniformity oracle over 10^4 points
        zs = []
        for seed in range(2500):
            u = random_sphere_configuration(4, seed=seed)
            zs.extend(np.cos(u[4:]))
        assert -0.02 <= float(np.mean(zs)) <= 0.02

    def test_first_start_of_seed_one_is_pinned(self):
        # the sampler's stream: random.Random(1).random() in vector order
        expected = [-2.2973572091724623, 2.1829905511425176, 1.6573448103607549,
                    -1.538946698747247, 1.579926279449929, 1.6719867989958908,
                    1.2627621325062262, 0.9551985072702256]
        assert np.allclose(random_sphere_configuration(4, seed=1), expected, rtol=0, atol=1e-12)

    def test_angle_ranges(self):
        for seed in range(200):
            u = random_sphere_configuration(5, seed=seed)
            theta, phi = u[:5], u[5:]
            assert np.all((-math.pi <= theta) & (theta < math.pi))
            assert np.all((0.0 <= phi) & (phi <= math.pi))

    def test_numpy_integer_seed(self):
        assert np.array_equal(
            random_sphere_configuration(4, seed=np.int64(5)),
            random_sphere_configuration(4, seed=5),
        )

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            random_sphere_configuration(4, seed=-1)

    def test_retry_budget(self, monkeypatch):
        monkeypatch.setattr(problems, "_SAMPLE_RETRIES", 0)
        with pytest.raises(SampleRetryError):
            random_sphere_configuration(4, seed=0)

    def test_needs_two_charges(self):
        with pytest.raises(ValueError):
            random_sphere_configuration(1, seed=0)
