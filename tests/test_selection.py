from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bisect_root, random_surjective, three_phase_solve
from regsel import convex
from regsel.convex import AffineSet, Box, Intersection
from regsel.errors import (ContractError, LocalityError, NumericBreakdownError,
                           RegularityError, ShapeError)
from regsel.selection import (GeneralizedEquation, IterationConfig,
                              _corrector_step, _project_truncated, compute_tau,
                              default_config, solve, solve_implicit, sweep)


def singleton_inverse(y):
    # inverse of F(x) = x in one dimension
    return AffineSet([[1.0]], [float(np.atleast_1d(y)[0])])


def line_inverse(y):
    # inverse of F(x) = x1 + x2
    return AffineSet([[1.0, 1.0]], [float(np.atleast_1d(y)[0])])


def scalar_problem(g=None):
    return GeneralizedEquation(finv=singleton_inverse, g=g, x_base=[0.0],
                               y_base=[0.0], radius_x=1.0, radius_y=1.0,
                               radius_graph=4.0)


def scalar_config(**kw):
    # F = identity has modulus 1; g below is 0.3-Lipschitz
    args = dict(kappa=1.05, lam=0.35, alpha=2.0)
    args.update(kw)
    return IterationConfig(**args)


def g_third(x):
    return 0.3 * x


def recursion_oracle(y, tol):
    # the truncated projections reduce to z -> y - 0.3 z for this fixture
    z_prev = y
    z = y - 0.3 * z_prev
    increments = [abs(z - z_prev)]
    while increments[-1] > tol:
        z_prev, z = z, y - 0.3 * z
        increments.append(abs(z - z_prev))
    return z, increments


def line_problem(g=None):
    return GeneralizedEquation(finv=line_inverse, g=g, x_base=[0.0, 0.0],
                               y_base=[0.0], radius_x=1.0, radius_y=1.0,
                               radius_graph=4.0)


def line_config():
    return IterationConfig(kappa=1.0, lam=0.0, alpha=2.0)


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_bad_constants():
    with pytest.raises(ContractError):
        IterationConfig(kappa=0.0, lam=0.1, alpha=1.0)
    with pytest.raises(ContractError):
        IterationConfig(kappa=1.0, lam=-0.1, alpha=2.0)
    with pytest.raises(ContractError):
        IterationConfig(kappa=1.0, lam=0.1, alpha=1.0)  # alpha <= kappa
    with pytest.raises(ContractError):
        IterationConfig(kappa=0.5, lam=1.0, alpha=1.0)  # alpha >= 1/lam
    with pytest.raises(ContractError):
        IterationConfig(kappa=1.0, lam=0.1, alpha=2.0, tol=0.0)
    with pytest.raises(ContractError):
        IterationConfig(kappa=1.0, lam=0.1, alpha=2.0, max_iter=0)


def test_config_contraction_and_gamma():
    cfg = IterationConfig(kappa=1.0, lam=0.25, alpha=2.0)
    assert cfg.contraction == pytest.approx(0.5)
    assert cfg.gamma == pytest.approx(2.0 * 1.0 / (1.0 - 0.5))


def test_default_config_midpoint_alpha():
    cfg = default_config(1.0, 0.5)
    assert cfg.kappa == pytest.approx(1.1)
    assert cfg.lam == pytest.approx(0.6)
    assert cfg.alpha == pytest.approx(0.5 * (1.1 + 1.0 / 0.6))


def test_default_config_zero_lip():
    cfg = default_config(1.0, 0.0)
    assert cfg.lam == 0.0
    assert cfg.alpha == pytest.approx(2.2)


def test_default_config_rejects_tight_product():
    with pytest.raises(ContractError, match="kappa\\*lambda"):
        default_config(1.0, 0.75)
    with pytest.raises(ContractError):
        default_config(float("inf"), 0.1)


def test_compute_tau_hand_values():
    cfg = IterationConfig(kappa=1.0, lam=0.0, alpha=2.0)
    assert compute_tau(cfg, (0.2, 1.0)) == pytest.approx(0.1)
    cfg = IterationConfig(kappa=1.0, lam=0.25, alpha=2.0)
    assert compute_tau(cfg, (2.0, 2.0)) == pytest.approx(0.5)


def test_compute_tau_shrinks_with_domain_radius():
    cfg = IterationConfig(kappa=1.0, lam=0.25, alpha=2.0)
    assert compute_tau(cfg, (1e-9, 1.0)) == pytest.approx(0.5 * 1e-9 / 2.0)
    with pytest.raises(ContractError):
        compute_tau(cfg, (0.0, 1.0))


# ---------------------------------------------------------------------------
# problem validation


def test_problem_rejects_base_off_graph():
    with pytest.raises(ContractError, match="x_base"):
        GeneralizedEquation(finv=singleton_inverse, g=None, x_base=[0.5],
                            y_base=[0.0], radius_x=1.0, radius_y=1.0,
                            radius_graph=4.0)


def test_problem_rejects_small_graph_radius():
    with pytest.raises(ContractError, match="radius_graph"):
        GeneralizedEquation(finv=singleton_inverse, g=None, x_base=[0.0],
                            y_base=[0.0], radius_x=1.0, radius_y=1.0,
                            radius_graph=0.5)


def test_problem_rejects_non_set_inverse():
    with pytest.raises(ContractError, match="ConvexSet"):
        GeneralizedEquation(finv=lambda y: np.zeros(1), g=None, x_base=[0.0],
                            y_base=[0.0], radius_x=1.0, radius_y=1.0,
                            radius_graph=4.0)


# ---------------------------------------------------------------------------
# truncated projections


def test_truncated_projection_keeps_feasible_center():
    z = _project_truncated(AffineSet([[1.0, 1.0]], [0.0]), np.array([0.3, 0.1]),
                           1.0, line_config(), "test")
    np.testing.assert_allclose(z, [0.1, -0.1], atol=1e-12)


def test_truncated_projection_empty_intersection_is_regularity_error():
    # distance from the origin to {x1+x2=2} is sqrt(2) > 1
    with pytest.raises(RegularityError,
                       match=r"distance 1.41 > allowed radius 1;"):
        _project_truncated(AffineSet([[1.0, 1.0]], [2.0]), np.zeros(2), 1.0,
                           line_config(), "test")


def test_truncated_projection_radius_zero_feasible_center_is_singleton():
    z = _project_truncated(AffineSet([[1.0, 1.0]], [0.0]),
                           np.array([0.5, -0.5]), 0.0, line_config(), "test")
    np.testing.assert_allclose(z, [0.5, -0.5], atol=1e-10)


class NanFibre(convex.ConvexSet):
    """A set whose projection of any point holds a nan."""

    dim = 2

    def project(self, x):
        return np.array([np.nan, 0.0])


@pytest.mark.parametrize("base_set", [
    NanFibre(), Intersection([NanFibre()]),
    Intersection([NanFibre(), Box([-1.0, -1.0], [1.0, 1.0])]),
    Intersection([NanFibre(), AffineSet([[1.0, 1.0]], [0.0])])],
    ids=["bare", "one-member", "with-box", "with-affine"])
def test_truncated_projection_refuses_a_nan_point(base_set):
    # a gap of nan passes gap > 10*tol, so the validation of the measured
    # point is what stops the step, with or without other members; the
    # final residual's gap refuses a nan point too
    for measure in (lambda: _project_truncated(base_set, np.zeros(2), 1.0,
                                               line_config(), "test"),
                    lambda: base_set.gap([np.nan, 0.0])):
        with pytest.raises(ShapeError) as err:
            measure()
        assert str(err.value) == "vector has non-finite entries"


def test_a_constrained_step_measures_each_member_once(monkeypatch):
    # An inactive box: each corrector step projects onto the fibre once,
    # the box measures that projection once (dykstra's exact exit) and the
    # fibre once (the gap); the final residual measures each member once more.
    rng = np.random.default_rng(4)
    mat = random_surjective(rng, 2, 3, smin=0.5, smax=2.0)
    w = rng.standard_normal((2, 3))
    w /= np.linalg.norm(w, 2)
    smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
    eps = 0.25 * smin
    box = Box(-2.0 * np.ones(3), 2.0 * np.ones(3))

    def g(x):
        return eps * np.sin(w @ x + 1.0)

    p = GeneralizedEquation(
        finv=lambda y: Intersection([AffineSet(mat, y), box]), g=g,
        x_base=np.zeros(3), y_base=np.zeros(2), radius_x=1.0, radius_y=1.0,
        radius_graph=2.0)
    cfg = default_config(1.0 / smin, eps)
    y = g(np.zeros(3)) + 0.5 * compute_tau(cfg, (1.0, 1.0)) * np.array([0.6, 0.8])
    counts = {"project": 0, "offset": 0, "box": 0}

    def counting(cls, name, key):
        original = getattr(cls, name)

        def counted(self, *args):
            counts[key] += 1
            return original(self, *args)
        monkeypatch.setattr(cls, name, counted)

    counting(AffineSet, "project", "project")
    counting(AffineSet, "_offset", "offset")
    counting(Box, "_distance", "box")
    _, cert = solve(p, cfg, y)
    steps = cert.iterate_count + 1
    assert cert.iterate_count >= 3
    assert counts == {"project": steps, "box": steps + 1,
                      "offset": 2 * steps + 1}


# ---------------------------------------------------------------------------
# starting selection and single steps: the initial selection is the corrector
# step from x_base with radius kappa*|y - y_base|, an iterate step the one
# from z_curr with radius alpha*lambda*|z_curr - z_prev|


def initial_step(p, cfg, y):
    # a query for the unperturbed part, as solve passes y - g(x_base)
    y = np.asarray(y, dtype=float)
    radius = cfg.kappa * float(np.linalg.norm(y - p.y_base))
    return _corrector_step(p, cfg, y, p.x_base, radius, "initial selection")


def iterate(p, cfg, y, z_prev, z_curr):
    z_prev, z_curr = np.asarray(z_prev, dtype=float), np.asarray(z_curr, dtype=float)
    radius = cfg.contraction * float(np.linalg.norm(z_curr - z_prev))
    return _corrector_step(p, cfg, np.asarray(y, dtype=float) - p.g_value(z_curr),
                           z_curr, radius, "iterate step")


def test_initial_selection_at_base_returns_base():
    p = scalar_problem()
    z = initial_step(p, scalar_config(), [0.0])
    np.testing.assert_array_equal(z, [0.0])


def test_initial_selection_projects_to_line():
    p = line_problem()
    p2 = GeneralizedEquation(finv=line_inverse, g=None, x_base=[0.0, 0.0],
                             y_base=[0.0], radius_x=4.0, radius_y=3.0,
                             radius_graph=16.0)
    z = initial_step(p2, line_config(), [2.0])
    np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-9)
    assert p.radius_y < 2.0  # the tighter problem would reject this query


def test_initial_selection_least_norm_in_three_dims():
    def finv(y):
        return AffineSet([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], np.atleast_1d(y))

    p = GeneralizedEquation(finv=finv, g=None, x_base=[0.0, 0.0, 0.0],
                            y_base=[0.0, 0.0], radius_x=8.0, radius_y=8.0,
                            radius_graph=32.0)
    cfg = IterationConfig(kappa=1.2, lam=0.0, alpha=2.4)
    z = initial_step(p, cfg, [2.0, 3.0])
    np.testing.assert_allclose(z, [1.0, 3.0, 1.0], atol=1e-9)


def test_initial_selection_rejects_far_query():
    p = scalar_problem()
    with pytest.raises(LocalityError, match="corrected target is"):
        initial_step(p, scalar_config(), [5.0])


def test_iterate_step_fixed_point_is_stationary():
    p = scalar_problem(g=g_third)
    cfg = scalar_config()
    z_star = np.array([0.1 / 1.3])
    out = iterate(p, cfg, [0.1], z_star, z_star)
    np.testing.assert_allclose(out, z_star, atol=1e-12)


def test_iterate_step_scalar_hand_value():
    p = scalar_problem(g=g_third)
    cfg = scalar_config()
    out = iterate(p, cfg, [0.1], [0.1], [0.07])
    np.testing.assert_allclose(out, [0.1 - 0.3 * 0.07], atol=1e-10)


def test_iterate_step_rejects_drifted_iterate():
    p = scalar_problem(g=g_third)
    with pytest.raises(LocalityError, match="drifted"):
        iterate(p, scalar_config(), [0.1], [0.0], [3.0])


def test_iterate_step_rejects_far_corrected_target():
    p = scalar_problem(g=g_third)
    with pytest.raises(LocalityError, match="corrected target"):
        iterate(p, scalar_config(), [5.0], [0.0], [0.0])


# ---------------------------------------------------------------------------
# full solves


def test_solve_at_base_is_trivial():
    p = scalar_problem(g=g_third)
    x, cert = solve(p, scalar_config(), [0.0])
    np.testing.assert_array_equal(x, [0.0])
    assert cert.increments == [0.0]
    assert cert.iterate_count == 1
    assert cert.residual == 0.0
    assert cert.calm_ok


def test_solve_scalar_matches_recursion_oracle():
    p = scalar_problem(g=g_third)
    cfg = scalar_config()
    x, cert = solve(p, cfg, [0.1])
    x_rec, inc_rec = recursion_oracle(0.1, cfg.tol)
    assert abs(x[0] - 0.1 / 1.3) <= 1e-9
    assert abs(x[0] - x_rec) <= 1e-9
    np.testing.assert_allclose(cert.increments, inc_rec, atol=1e-9)
    assert cert.tau == pytest.approx(compute_tau(cfg, (1.0, 1.0)))


def test_solve_rejects_query_outside_tau():
    p = scalar_problem(g=g_third)
    cfg = scalar_config()
    tau = compute_tau(cfg, (1.0, 1.0))
    with pytest.raises(LocalityError, match="tau"):
        solve(p, cfg, [tau * 1.5])


def test_solve_surfaces_misdeclared_lipschitz_constant():
    # true slope 0.5 exceeds the declared 0.2, so the truncation ball is too
    # tight to contain the next projection
    p = scalar_problem(g=lambda x: 0.5 * x)
    cfg = IterationConfig(kappa=1.05, lam=0.2, alpha=2.0)
    with pytest.raises(RegularityError,
                       match=r"distance 0.025 > allowed radius 0.02;.*kappa"):
        solve(p, cfg, [0.1])


def test_solve_nonlinear_two_dim_fixture():
    # F(x) = x1 + x2 with perturbation 0.05 sin(x1); the orbit stays in the
    # span of (1, 1), so the answer solves 2t + 0.05 sin(t) = y
    def g_sin(x):
        return 0.05 * np.sin(x[:1])

    p = GeneralizedEquation(finv=line_inverse, g=g_sin, x_base=[0.0, 0.0],
                            y_base=[0.0], radius_x=1.0, radius_y=1.0,
                            radius_graph=4.0)
    cfg = IterationConfig(kappa=0.8, lam=0.06, alpha=2.0)
    x, cert = solve(p, cfg, [0.1])

    f_val = x[0] + x[1] + 0.05 * np.sin(x[0])
    assert abs(f_val - 0.1) <= 1e-8
    t_star = bisect_root(lambda t: 2.0 * t + 0.05 * np.sin(t) - 0.1, 0.0, 0.1)
    np.testing.assert_allclose(x, [t_star, t_star], atol=1e-6)
    assert cert.iterate_count >= 5

    # geometric decay of the step lengths at the certified rate
    inc = cert.increments
    for n in range(1, len(inc)):
        assert inc[n] <= cfg.contraction * inc[n - 1] * (1 + 1e-6) + 1e-15
    assert cert.residual <= 10.0 * cfg.tol
    assert cert.tail_bound == pytest.approx(inc[-1] / (1.0 - cfg.contraction))
    assert cert.calm_ok


@given(st.floats(min_value=-0.14, max_value=0.14))
@settings(max_examples=25, deadline=None)
def test_solve_scalar_calm_and_contracting(y):
    p = scalar_problem(g=g_third)
    cfg = scalar_config()
    x, cert = solve(p, cfg, [y])
    dev = abs(y)
    assert np.linalg.norm(x - p.x_base) <= cfg.gamma * dev + 1e-9
    inc = cert.increments
    for n in range(1, len(inc)):
        assert inc[n] <= cfg.contraction * inc[n - 1] * (1 + 1e-6) + 1e-15


def outcome(fn, *args):
    """(x, certificate) of a solve, or the type and text of its failure."""
    try:
        return fn(*args)
    except (LocalityError, RegularityError, NumericBreakdownError) as exc:
        return type(exc), str(exc)


@given(st.tuples(st.integers(1, 3), st.integers(1, 5)).filter(lambda s: s[0] <= s[1]),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0), st.booleans())
@settings(max_examples=60, deadline=None)
def test_solve_matches_three_phase_solve_bit_for_bit(shape, seed, t, boxed):
    # a random surjective matrix, a sin perturbation that moves the base
    # output, and a query anywhere in the certified ball, with and without
    # a box constraint; the single corrector loop must reproduce the three
    # separate phases it replaced in every bit, or fail with the same error
    rows, cols = shape
    rng = np.random.default_rng(seed)
    mat = random_surjective(rng, rows, cols, smin=0.3, smax=3.0)
    w = rng.standard_normal((rows, cols))
    w /= np.linalg.norm(w, 2)
    phase = rng.uniform(-1.0, 1.0, rows)
    smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
    eps = 0.25 * smin  # g is eps-Lipschitz, so kappa*lambda stays near 0.33

    def g(x):
        return eps * np.sin(w @ x + phase)

    box = Box(-0.4 * np.ones(cols), 0.4 * np.ones(cols))

    def finv(y):
        fibre = AffineSet(mat, y)
        return Intersection([fibre, box]) if boxed else fibre

    p = GeneralizedEquation(finv=finv, g=g, x_base=np.zeros(cols),
                            y_base=np.zeros(rows), radius_x=1.0, radius_y=1.0,
                            radius_graph=4.0)
    cfg = default_config(1.0 / smin, eps)
    tau = compute_tau(cfg, (1.0, 1.0))
    u = rng.standard_normal(rows)
    y = g(p.x_base) + t * tau * u / np.linalg.norm(u)

    got, want = outcome(solve, p, cfg, y), outcome(three_phase_solve, p, cfg, y)
    if isinstance(want[0], type):
        assert got == want
        return
    (x, cert), (x_ref, cert_ref) = got, want
    assert x.tobytes() == x_ref.tobytes()
    assert np.array(cert.increments).tobytes() == np.array(cert_ref.increments).tobytes()
    assert cert == cert_ref


@pytest.mark.parametrize("boxed", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_has_the_same_bits_with_a_cold_and_a_warm_cache(monkeypatch, seed,
                                                              boxed,
                                                              cold_factor_cache):
    # finv builds a new AffineSet of the same matrix on every call, so a
    # warm cache serves every fibre; a maxsize=0 stand-in factors each one
    # afresh
    rng = np.random.default_rng([seed, 7])
    rows, cols = (2, 3) if boxed else (3, 5)
    mat = random_surjective(rng, rows, cols, smin=0.3, smax=3.0)
    w = rng.standard_normal((rows, cols))
    w /= np.linalg.norm(w, 2)
    phase = rng.uniform(-1.0, 1.0, rows)
    smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
    eps = 0.25 * smin
    box = Box(-2.0 * np.ones(cols), 2.0 * np.ones(cols))

    def finv(y):
        fibre = AffineSet(mat, y)
        return Intersection([fibre, box]) if boxed else fibre

    def g(x):
        return eps * np.sin(w @ x + phase)

    cfg = default_config(1.0 / smin, eps)
    tau = compute_tau(cfg, (1.0, 1.0))
    u = rng.standard_normal(rows)
    y = g(np.zeros(cols)) + 0.8 * tau * u / np.linalg.norm(u)
    results = []
    uncached = lru_cache(maxsize=0)(cold_factor_cache.__wrapped__)
    # the stand-in, then the real cache cold, then warm
    for factors in (uncached, cold_factor_cache, cold_factor_cache):
        monkeypatch.setattr(convex, "_cached_factors", factors)
        p = GeneralizedEquation(finv=finv, g=g, x_base=np.zeros(cols),
                                y_base=np.zeros(rows), radius_x=1.0,
                                radius_y=1.0, radius_graph=4.0)
        results.append(solve(p, cfg, y))
    info = cold_factor_cache.cache_info()
    assert info.currsize == 1 and info.hits > 0
    (x_ref, cert_ref) = results[0]
    assert cert_ref.iterate_count >= 3
    for x, cert in results[1:]:
        assert x.tobytes() == x_ref.tobytes()
        assert (np.array(cert.increments).tobytes()
                == np.array(cert_ref.increments).tobytes())
        assert cert == cert_ref


# ---------------------------------------------------------------------------
# additive parameter shift


def test_solve_implicit_at_base_parameter():
    x, cert = solve_implicit(scalar_problem(g=g_third), scalar_config(), [0.0])
    np.testing.assert_array_equal(x, [0.0])
    assert cert.iterate_count == 1


def test_solve_implicit_linear_parameter_response():
    x, _ = solve_implicit(scalar_problem(g=g_third), scalar_config(), [0.05])
    # x + 0.3 x + p = 0
    np.testing.assert_allclose(x, [-0.05 / 1.3], atol=1e-9)


def test_solve_implicit_reports_parameter_on_locality():
    with pytest.raises(LocalityError, match="parameter p="):
        solve_implicit(scalar_problem(g=g_third), scalar_config(), [2.0])


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_affine_matches_initial_selection():
    p = line_problem()
    cfg = line_config()
    ys = [[v] for v in np.linspace(-0.4, 0.4, 11)]
    res = sweep(p, cfg, ys)
    assert len(res.rows) == 11
    assert all(r.error == "" for r in res.rows)
    for r, y in zip(res.rows, ys):
        # the corrector pass re-projects onto the same line, so it can move
        # the start point by float dust only
        np.testing.assert_allclose(r.x, initial_step(p, cfg, y),
                                   atol=1e-14)
        assert r.certificate.iterate_count == 1
        assert r.certificate.increments[0] <= 1e-14
    # least-norm selection along a line moves at rate 1/sqrt(2) per unit y
    assert res.max_continuity_ratio == pytest.approx(2.0 ** -0.5, rel=1e-9)
    assert res.empirical_clm == pytest.approx(2.0 ** -0.5, rel=1e-9)
    assert res.empirical_clm <= cfg.kappa + 1e-6
    assert res.jump_indices == []


def test_sweep_singleton_grid():
    p = scalar_problem(g=g_third)
    res = sweep(p, scalar_config(), [[0.0]])
    assert len(res.rows) == 1
    assert res.max_continuity_ratio == 0.0
    assert res.jump_indices == []
    assert res.empirical_clm == 0.0


def test_sweep_rejects_grid_point_outside_tau():
    p = scalar_problem(g=g_third)
    cfg = scalar_config()
    tau = compute_tau(cfg, (1.0, 1.0))
    with pytest.raises(LocalityError, match="grid point 1"):
        sweep(p, cfg, [[0.0], [2.0 * tau]])


def test_sweep_rejects_empty_grid():
    with pytest.raises(ContractError):
        sweep(scalar_problem(), scalar_config(), [])


def test_sweep_records_per_point_failures():
    # declared lambda is too small, so nonzero queries fail while the base
    # query succeeds; failures must not abort the sweep
    p = scalar_problem(g=lambda x: 0.5 * x)
    cfg = IterationConfig(kappa=1.05, lam=0.2, alpha=2.0)
    res = sweep(p, cfg, [[0.0], [0.1]])
    assert res.rows[0].error == ""
    assert res.rows[0].x is not None
    assert res.rows[1].x is None
    assert res.rows[1].certificate is None
    assert res.rows[1].error != ""
    assert res.max_continuity_ratio == 0.0
