"""Acceptance gate. Run with ``pytest -v tests/test_acceptance.py``.

Each test is one acceptance criterion; pytest -v prints one pass/fail
line per criterion. Random families are seeded, so the gate is
reproducible run to run.
"""

import time

import numpy as np

from oracles import (augmented_jacobian, derivative_check,
                     endpoint_order_ratios, jacobi_singular_values, pinv_apply,
                     random_surjective)
from regsel.control import (ControlProblem, kalman_rank, linearize,
                            reachable_interior, steer, steering_setup)
from regsel.convex import AffineSet, Box
from regsel.moduli import (SampledMapping, counterexample_mapping, lg_bound_check,
                           lsc_probe, reg_linear, truncated_counterexample,
                           verify_aubin, verify_metric_regularity)
from regsel.selection import (GeneralizedEquation, IterationConfig, compute_tau,
                              solve, sweep)
from regsel.smooth import SmoothProblem

UNIT_BOX = Box([-1.0], [1.0])


# ---------------------------------------------------------------------------
# shared fixture families


def affine_problem():
    finv = lambda y: AffineSet([[1.3]], [float(np.atleast_1d(y)[0])])
    eq = GeneralizedEquation(finv=finv, g=None, x_base=[0.0], y_base=[0.0],
                             radius_x=1.0, radius_y=1.0, radius_graph=4.0)
    return eq, IterationConfig(kappa=1.0, lam=0.0, alpha=2.0, tol=1e-10)


def perturbed_problem():
    finv = lambda y: AffineSet([[1.3]], [float(np.atleast_1d(y)[0])])
    eq = GeneralizedEquation(finv=finv, g=lambda x: 0.3 * x, x_base=[0.0],
                             y_base=[0.0], radius_x=1.0, radius_y=1.0,
                             radius_graph=4.0)
    return eq, IterationConfig(kappa=1.0, lam=0.36, alpha=1.8, tol=1e-10)


def sin_problem():
    finv = lambda y: AffineSet([[1.0, 1.0]], [float(np.atleast_1d(y)[0])])
    eq = GeneralizedEquation(finv=finv, g=lambda x: np.array([0.05 * np.sin(x[0])]),
                             x_base=[0.0, 0.0], y_base=[0.0], radius_x=1.0,
                             radius_y=1.0, radius_graph=4.0)
    return eq, IterationConfig(kappa=0.8, lam=0.06, alpha=2.0, tol=1e-10)


def planar_problem():
    finv = lambda y: AffineSet(np.eye(2), y)
    g = lambda x: np.array([0.04 * np.sin(x[0] + x[1]), 0.0])
    eq = GeneralizedEquation(finv=finv, g=g, x_base=[0.0, 0.0],
                             y_base=[0.0, 0.0], radius_x=1.0, radius_y=1.0,
                             radius_graph=4.0)
    return eq, IterationConfig(kappa=1.05, lam=0.07, alpha=7.0, tol=1e-10)


FIXTURES = {
    "affine": (affine_problem, [0.45]),
    "perturbed": (perturbed_problem, [0.15]),
    "sin": (sin_problem, [0.3]),
    "planar": (planar_problem, [0.12, -0.08]),
}


def double_integrator(mesh):
    def f(x, u):
        return np.array([x[1], u[0]])

    return ControlProblem(dynamics=f, control_set=UNIT_BOX, state_dim=2,
                          control_dim=1, mesh_size=mesh)


def pendulum(mesh):
    def f(x, u):
        return np.array([x[1], u[0] - np.sin(x[0])])

    return ControlProblem(dynamics=f, control_set=UNIT_BOX, state_dim=2,
                          control_dim=1, mesh_size=mesh)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_regularity_modulus_matches_svd_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    for _ in range(500):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(m, 9))
        b = random_surjective(rng, m, n)
        reg = reg_linear(b)
        smin_oracle = float(jacobi_singular_values(b).min())
        assert abs(reg - 1.0 / smin_oracle) <= 1e-8 * reg

        # sampled sup of least-norm solutions over 10^4 unit rhs; a short
        # inverse-power refinement of the best draw replaces the cap mass
        # a uniform sample cannot reach in 8 dimensions
        draws = rng.normal(size=(m, 9900))
        draws /= np.linalg.norm(draws, axis=0)
        sup = float(np.linalg.norm(pinv_apply(b, draws), axis=0).max())
        gram = b @ b.T
        y = draws[:, int(np.argmax(np.linalg.norm(
            pinv_apply(b, draws), axis=0)))].copy()
        refined = []
        for _ in range(100):
            y = np.linalg.solve(gram, y)
            y /= np.linalg.norm(y)
            refined.append(y.copy())
        sup_ref = np.linalg.norm(
            pinv_apply(b, np.stack(refined, axis=1)), axis=0).max()
        sup = max(sup, float(sup_ref))
        assert 0.98 * reg <= sup <= 1.02 * reg
    assert time.perf_counter() - start < 10.0


def test_criterion_02_perturbation_bound_holds_on_random_family():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    for i in range(200):
        n = int(rng.integers(1, 5))
        a = random_surjective(rng, n, n, smin=0.4, smax=3.0)
        kappa = reg_linear(a) * (1.05 + 0.5 * rng.random())
        lam = (0.9 / kappa) * (0.3 + 0.7 * rng.random())
        scale = 0.8 * lam
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))

        def g(x, scale=scale, q=q):
            return scale * np.sin(q @ x)

        report, lip = lg_bound_check(a, g, np.zeros(n), kappa=kappa, lam=lam,
                                     radius=0.4, grid=5, samples=300, seed=i)
        assert lip.value < lam
        assert report.ok, (i, report.detail)
    assert time.perf_counter() - start < 60.0


def test_criterion_03_increments_contract_geometrically():
    counts = {}
    for name, (build, y) in FIXTURES.items():
        eq, cfg = build()
        _, cert = solve(eq, cfg, y)
        counts[name] = cert.iterate_count
        inc = cert.increments
        for k in range(1, len(inc)):
            assert inc[k] <= cfg.contraction ** k * inc[0] * (1.0 + 1e-6)
        assert inc[-1] <= cfg.tol
    assert counts["sin"] >= 5  # a genuinely iterative nonlinear fixture


def test_criterion_04_calmness_certificate_on_tau_ball():
    rng = np.random.default_rng(12)
    for name, (build, _) in FIXTURES.items():
        eq, cfg = build()
        tau = compute_tau(cfg, (eq.radius_x, eq.radius_y))
        dim = eq.y_base.size
        for _ in range(100):
            direction = rng.normal(size=dim)
            direction /= np.linalg.norm(direction)
            dev = 0.99 * tau * rng.random() ** (1.0 / dim)
            y = eq.y_base + dev * direction
            x, cert = solve(eq, cfg, y)
            gap = np.linalg.norm(x - eq.x_base)
            assert gap <= cfg.gamma * dev + 1e-9
            assert cert.calm_ok

    # the unperturbed affine case must realize the sharper kappa rate
    eq, cfg = affine_problem()
    tau = compute_tau(cfg, (eq.radius_x, eq.radius_y))
    ys = np.linspace(0.0, 0.99 * tau, 101).reshape(-1, 1)
    res = sweep(eq, cfg, ys)
    assert all(row.error == "" for row in res.rows)
    assert res.empirical_clm <= cfg.kappa + 1e-6


def test_criterion_05_selection_derivative_is_pseudoinverse():
    rng = np.random.default_rng(13)
    for trial in range(20):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 6))
        b = random_surjective(rng, m, n, smin=0.6, smax=2.0)
        eps = 0.05 if trial < 5 else 0.05 * rng.random()
        q = rng.normal(size=(m, n))
        q /= np.linalg.norm(q, axis=1, keepdims=True)

        def f(x, b=b, eps=eps, q=q):
            return b @ x + eps * np.sin(q @ x)

        def jac(x, b=b, eps=eps, q=q):
            return b + eps * np.cos(q @ x)[:, None] * q

        problem = SmoothProblem(f=f, x_base=np.zeros(n), jacobian=jac,
                                radius=0.8)
        _, deviation = derivative_check(problem)
        assert deviation <= 1e-4, (trial, deviation)


def test_criterion_06_augmented_system_tracks_surjectivity():
    rng = np.random.default_rng(14)
    disagreements = 0
    for _ in range(500):
        coin = rng.random()
        if coin < 0.4:
            m = int(rng.integers(1, 7))
            n = int(rng.integers(m, 7))
            b = random_surjective(rng, m, n)
            expected = True
        elif coin < 0.8:
            m = int(rng.integers(2, 7))
            n = int(rng.integers(m, 7))
            r = int(rng.integers(0, m))
            u, _ = np.linalg.qr(rng.normal(size=(m, m)))
            v, _ = np.linalg.qr(rng.normal(size=(n, n)))
            s = 0.5 + 1.5 * rng.random(r)
            b = u[:, :r] @ (s[:, None] * v.T[:r])
            expected = False
        else:
            n = int(rng.integers(1, 6))
            m = int(rng.integers(n + 1, 8))
            b = rng.normal(size=(m, n))
            expected = False
        _, verdict = augmented_jacobian(b)
        disagreements += int(verdict != expected)
    assert disagreements == 0


def test_criterion_07_semicontinuity_probes():
    # truncation kills lower semicontinuity: the probed branch point keeps
    # its distance above the floor along the whole converged tail
    report = lsc_probe(truncated_counterexample(),
                       at=(np.zeros(1), np.array([0.05])),
                       approach=[np.array([10.0 ** -j]) for j in range(1, 15)])
    assert report.violated
    tail = report.distances[3:]
    assert len(tail) >= 10
    assert all(d > 1e-3 for d in tail)

    # the convex-valued affine construction stays consistent everywhere
    rng = np.random.default_rng(15)
    m0 = lambda y: AffineSet([[1.0, 1.0]], [float(np.atleast_1d(y)[0])])
    for _ in range(50):
        y = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(-0.5, 0.5))
        x = np.array([y / 2.0 + t, y / 2.0 - t])
        probe = lsc_probe(m0, at=(np.array([y]), x),
                          approach=[np.array([y + 10.0 ** -j])
                                    for j in range(1, 15)])
        assert not probe.violated
        assert probe.verdict == "lsc-consistent"


def test_criterion_08_steering_certificates():
    start = time.perf_counter()
    problem = double_integrator(64)
    sys = linearize(problem)
    rank, rank_ok = kalman_rank(sys)
    assert rank == 2 and rank_ok
    interior_ok, margin = reachable_interior(sys, problem.control_set)
    assert interior_ok and margin > 0.0

    setup = steering_setup(problem, sys)
    for angle in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
        b = 0.05 * np.array([np.cos(angle), np.sin(angle)])
        res = steer(problem, sys, b, setup)
        assert res.endpoint_error <= 1e-6
        assert np.all(np.abs(res.controls) <= 1.0 + 1e-7)
        assert res.calm_ratio <= res.calm_bound

    swing = pendulum(64)
    # the tau target 1.3 |b| = 0.065 is steering_setup's default
    setup = steering_setup(swing)
    res = steer(swing, setup.sys, [0.05, 0.0], setup)
    assert res.endpoint_error <= 1e-5
    assert np.all(np.abs(res.controls) <= 1.0 + 1e-7)
    assert res.calm_ratio <= res.calm_bound
    assert time.perf_counter() - start < 120.0


def criterion_09_cases():
    """(mapping, grid, kappa, expected verdict) for the twelve graph checks."""
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    shear = np.array([[1.0, 0.5], [0.0, 1.0]])
    diag = np.array([[2.0, 0.0], [0.0, 0.5]])

    def mk(forward, dim_x, dim_y, rx=0.5, ry=2.5):
        return SampledMapping(forward=forward, x_base=np.zeros(dim_x),
                              y_base=np.zeros(dim_y), radius_x=rx, radius_y=ry)

    branches = lambda y: counterexample_mapping(float(y[0]), 5).reshape(-1, 1)
    return [
        (mk(lambda x: x, 1, 1), 11, 1.05, True),
        (mk(lambda x: 2.0 * x, 1, 1), 11, 0.55, True),
        (mk(lambda x: 2.0 * x, 1, 1), 11, 0.4, False),
        (mk(lambda x: 0.5 * x, 1, 1), 11, 2.1, True),
        (mk(lambda x: diag @ x, 2, 2), 11, 2.05, True),
        (mk(lambda x: diag @ x, 2, 2), 11, 1.0, False),
        (mk(lambda x: rot @ x, 2, 2), 11, 1.05, True),
        (mk(lambda x: shear @ x, 2, 2), 11, 1.35, True),
        (mk(lambda x: x ** 3, 1, 1), 21, 100.0, False),
        # radius_x + radius_y < min branch gap 0.2 keeps the central branch
        # nearest in both scans; wider windows would truncate fiber mates of
        # the sampled branch values and skew the regularity denominator
        (SampledMapping(forward=branches, x_base=[0.0], y_base=[0.0],
                        radius_x=0.06, radius_y=0.03), 11, 1.0, True),
        (SampledMapping(forward=branches, x_base=[0.0], y_base=[0.0],
                        radius_x=0.06, radius_y=0.03), 11, 0.9, False),
        # image ball capped: sums beyond 0.25 are only realized near the
        # domain boundary where the fiber lines are clipped by the ball
        (mk(lambda x: np.array([x[0] + x[1]]), 2, 1, ry=0.25), 11, 1.05, True),
    ]


def test_criterion_09_regularity_and_aubin_agree():
    cases = criterion_09_cases()
    assert len(cases) == 12
    for i, (mapping, grid, kappa, expected) in enumerate(cases):
        mr = verify_metric_regularity(mapping, kappa, grid=grid)
        au = verify_aubin(mapping, kappa, grid=grid)
        assert mr.ok == au.ok, (i, mr.detail, au.detail)
        assert mr.ok is expected, (i, mr.detail)


def test_criterion_10_trapezoid_endpoint_is_second_order():
    _, ratios = endpoint_order_ratios(pendulum(64), [0.05],
                                      meshes=(32, 64, 128), ref_mesh=4096)
    assert ratios.shape == (2,)
    assert np.all(ratios >= 3.5)
    assert np.all(ratios <= 4.5)
