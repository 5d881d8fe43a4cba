import numpy as np
import pytest

from oracles import (augmented_jacobian, derivative_check, pinv_apply,
                     sampled_calm_bound)
from regsel.errors import ContractError, RegularityError, ShapeError
from regsel.linalg import least_norm_solve
from regsel.moduli import lip_estimate, reg_linear
from regsel.problems import PolynomialMap
from regsel.selection import GeneralizedEquation, compute_tau, sweep
from regsel.smooth import SmoothProblem, config_for, smooth_selection, split

B_WIDE = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])


def sin_problem():
    # one equation in two unknowns with a small smooth wrinkle
    def f(x):
        return np.array([x[0] + x[1] + 0.05 * np.sin(x[0])])

    def jac(x):
        return np.array([[1.0 + 0.05 * np.cos(x[0]), 1.0]])

    return SmoothProblem(f=f, x_base=[0.0, 0.0], jacobian=jac)


def linear_problem(b=B_WIDE, x_base=(0.3, -0.2, 0.5)):
    b = np.asarray(b, dtype=float)

    def f(x):
        return b @ x

    def jac(x):
        return b

    return SmoothProblem(f=f, x_base=np.asarray(x_base, float), jacobian=jac)


# ---------------------------------------------------------------------------
# problem validation


def test_rejects_more_outputs_than_inputs():
    with pytest.raises(ShapeError, match="outputs"):
        SmoothProblem(f=lambda x: np.array([x[0], x[0]]), x_base=[0.0],
                      jacobian=lambda x: np.ones((2, 1)))


def test_rejects_flat_jacobian():
    with pytest.raises(RegularityError, match="surjective"):
        SmoothProblem(f=lambda x: np.array([0.0 * x[0]]), x_base=[0.0, 0.0],
                      jacobian=lambda x: np.zeros((1, 2)))


def test_rejects_bad_radius():
    with pytest.raises(ContractError):
        SmoothProblem(f=lambda x: x, x_base=[0.0], jacobian=lambda x: np.eye(1),
                      radius=0.0)


def test_rejects_misshapen_jacobian_callable():
    with pytest.raises(ShapeError, match="jacobian"):
        SmoothProblem(f=lambda x: np.array([x[0] + x[1]]), x_base=[0.0, 0.0],
                      jacobian=lambda x: np.eye(2))


def test_smooth_problem_requires_a_jacobian():
    # the derivative is problem data: there is no finite-difference fallback
    with pytest.raises(TypeError, match="jacobian"):
        SmoothProblem(f=lambda x: np.array([np.sin(x[0]) + x[1]]),
                      x_base=[0.0, 0.0])


# ---------------------------------------------------------------------------
# the linearization split


def test_split_linear_map_has_constant_remainder():
    # the remainder absorbs the constant f(x_base); what vanishes is its
    # variation
    p = linear_problem()
    ge = split(p)
    base_val = B_WIDE @ p.x_base
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = p.x_base + 0.5 * rng.standard_normal(3)
        np.testing.assert_allclose(ge.g_value(x), base_val, atol=1e-12)


def test_split_fibers_pass_through_least_norm_points():
    p = linear_problem()
    ge = split(p)
    w = np.array([0.05, -0.02])
    fiber = ge.finv(w)
    # the fiber of w is x_base + {B x = w}
    assert fiber.gap(p.x_base + least_norm_solve(B_WIDE, w)) <= 1e-9
    assert ge.y_base.shape == (2,)
    assert np.all(ge.y_base == 0.0)
    assert ge.radius_graph == pytest.approx(2.0 * p.radius)


def test_split_is_built_once_per_problem(monkeypatch):
    # every query reuses the problem's equation instead of rebuilding and
    # re-validating it
    p = sin_problem()
    cfg = config_for(p)
    builds = []
    post_init = GeneralizedEquation.__post_init__

    def counting(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(GeneralizedEquation, "__post_init__", counting)
    ge = split(p)
    for y in (0.01, -0.02):
        smooth_selection(p, [y], cfg)
    assert split(p) is ge
    assert builds == [ge]


def test_stacked_remainder_columns_have_the_bits_of_single_points():
    # a 3 -> 2 polynomial with a dense Jacobian, so B (x - x_base) sums three
    # products per row
    terms = (((1.0, np.array([1, 0, 0])), (0.7, np.array([0, 1, 0])),
              (-0.4, np.array([0, 0, 1])), (0.3, np.array([2, 0, 1]))),
             ((0.2, np.array([1, 0, 0])), (1.1, np.array([0, 1, 0])),
              (0.9, np.array([0, 0, 1])), (-0.5, np.array([1, 1, 0]))))
    poly = PolynomialMap(input_dim=3, output_dim=2, terms=terms)
    p = SmoothProblem(f=poly, x_base=[0.3, -0.2, 0.1], jacobian=poly.jacobian)
    x = np.random.default_rng(4).standard_normal((3, 7))
    stacked = p.remainder(x)
    assert stacked.shape == (2, 7)
    for j in range(7):
        assert stacked[:, j].tobytes() == p.remainder(x[:, j]).tobytes()


def test_remainder_profile_decays_with_radius():
    # f(x) = x + x^2/2: the remainder x^2/2 has lip about r on a ball of
    # radius r
    p = SmoothProblem(f=lambda x: x + 0.5 * x ** 2, x_base=[0.0],
                      jacobian=lambda x: np.diag(1.0 + x))
    vals = [lip_estimate(p.remainder, p.x_base, r, samples=1500).value
            for r in (0.1, 0.01, 0.001)]
    for v, r in zip(vals, (0.1, 0.01, 0.001)):
        assert 0.8 * r <= v <= 1.05 * r
    assert vals[0] > vals[1] > vals[2]


# ---------------------------------------------------------------------------
# the right inverse


def test_selection_at_base_output_returns_base():
    p = sin_problem()
    x, cert = smooth_selection(p, [0.0], config_for(p))
    np.testing.assert_array_equal(x, [0.0, 0.0])
    assert cert.iterate_count == 1


def test_selection_scalar_double_map():
    p = SmoothProblem(f=lambda x: 2.0 * x, x_base=[0.0],
                      jacobian=lambda x: np.array([[2.0]]))
    x, _ = smooth_selection(p, [0.2], config_for(p))
    np.testing.assert_allclose(x, [0.1], atol=1e-12)


def test_selection_solves_sin_fixture():
    p = sin_problem()
    x, cert = smooth_selection(p, [0.1], config_for(p))
    f_val = x[0] + x[1] + 0.05 * np.sin(x[0])
    assert abs(f_val - 0.1) <= 1e-8
    assert np.linalg.norm(x) <= cert.config.gamma * 0.1 + 1e-9
    assert cert.calm_ok


def test_selection_refuses_an_answer_off_f_under_a_loose_tol():
    # tol 1e-4 stops the steps with f(x) - y at 6.6e-7: solve's membership
    # check (10*tol) passes it, smooth_selection's f(x) = y check does not
    p = SmoothProblem(f=lambda x: x + 0.3 * x ** 2, x_base=[0.0],
                      jacobian=lambda x: np.array([[1.0 + 0.6 * x[0]]]), radius=0.5)
    with pytest.raises(RegularityError, match="does not satisfy f.x. = y: residual 6.600e-07"):
        smooth_selection(p, [0.05], config_for(p, tol=1e-4))


def test_selection_matches_least_norm_for_linear_maps():
    p = linear_problem()
    cfg = config_for(p)
    rng = np.random.default_rng(5)
    tau = compute_tau(cfg, (p.radius, p.radius))
    for _ in range(10):
        y = p.y_base + 0.9 * tau * rng.standard_normal(2) / np.sqrt(2.0)
        y = p.y_base + (y - p.y_base) * min(
            1.0, 0.9 * tau / max(np.linalg.norm(y - p.y_base), 1e-12))
        x, _ = smooth_selection(p, y, cfg)
        expect = p.x_base + least_norm_solve(B_WIDE, y - p.y_base)
        np.testing.assert_allclose(x, expect, atol=1e-9)


def test_smooth_problem_factors_its_jacobian_once(monkeypatch, cold_factor_cache):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    p = sin_problem()
    cfg = config_for(p)
    for t in (0.01, 0.02, -0.03):
        smooth_selection(p, p.y_base + t, cfg)
    assert calls == [(1, 2)]


def test_config_for_uses_measured_constants():
    cfg = config_for(sin_problem())
    sigma = np.sqrt(1.05 ** 2 + 1.0)
    assert cfg.kappa == pytest.approx(1.1 / sigma, rel=1e-6)
    assert cfg.lam < 0.05


# ---------------------------------------------------------------------------
# differentiability diagnostics


def test_derivative_check_linear():
    p = linear_problem()
    j_fd, dev = derivative_check(p)
    assert dev <= 1e-8
    np.testing.assert_allclose(j_fd, pinv_apply(B_WIDE, np.eye(2)), atol=1e-8)


def test_derivative_check_scalar_double_map():
    p = SmoothProblem(f=lambda x: 2.0 * x, x_base=[0.0],
                      jacobian=lambda x: np.array([[2.0]]))
    j_fd, dev = derivative_check(p)
    assert dev <= 1e-8
    np.testing.assert_allclose(j_fd, [[0.5]], atol=1e-8)


def test_derivative_check_sin_fixture():
    p = sin_problem()
    j_fd, dev = derivative_check(p)
    assert dev <= 1e-4
    denom = 1.05 ** 2 + 1.0
    np.testing.assert_allclose(j_fd[:, 0], [1.05 / denom, 1.0 / denom],
                               atol=1e-4)


# ---------------------------------------------------------------------------
# augmented systems and calm bounds


def test_augmented_jacobian_scalar():
    j, ok = augmented_jacobian([[1.0]])
    np.testing.assert_array_equal(j, [[1.0, 1.0], [1.0, 0.0]])
    assert ok


def test_augmented_jacobian_row():
    j, ok = augmented_jacobian([[1.0, 0.0]])
    assert j.shape == (3, 3)
    assert ok
    assert np.linalg.det(j) == pytest.approx(-1.0)


def test_augmented_jacobian_detects_rank_loss():
    _, ok = augmented_jacobian([[0.0, 0.0]])
    assert not ok
    _, ok = augmented_jacobian([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert not ok


# The selection of a linear surjection B is calm with constant
# 2 * reg_linear(B) = 2 / sigma_min(B).


def test_calm_bound_linear_values():
    assert 2.0 * reg_linear(np.eye(2)) == pytest.approx(2.0)
    assert 2.0 * reg_linear([[2.0, 0.0], [0.0, 0.5]]) == pytest.approx(4.0)
    assert 2.0 * reg_linear([[1.0, 1.0]]) == pytest.approx(np.sqrt(2.0))


def test_calm_bound_linear_cross_check():
    # the sampled sup approaches the bound from below, within 5%
    for b in ([[2.0, 0.0], [0.0, 0.5]], B_WIDE):
        bound = 2.0 * reg_linear(b)
        sampled = sampled_calm_bound(b)
        assert 0.95 * bound <= sampled <= bound * (1.0 + 1e-9)
    assert 2.0 * reg_linear([[2.0, 0.0], [0.0, 0.5]]) == pytest.approx(4.0)


def test_calm_bound_linear_non_surjective():
    assert 2.0 * reg_linear([[1.0, 0.0], [1.0, 0.0]]) == float("inf")


def test_sweep_respects_linear_calm_bound():
    p = sin_problem()
    ge = split(p)
    cfg = config_for(p)
    tau = compute_tau(cfg, (p.radius, p.radius))
    ys = [[v] for v in np.linspace(-0.8 * tau, 0.8 * tau, 21)]
    res = sweep(ge, cfg, ys)
    assert all(r.error == "" for r in res.rows)
    assert res.empirical_clm <= 2.0 * reg_linear(p.base_fibre) + 1e-3
