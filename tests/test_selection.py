import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from console_cases import BY_NAME, CASES
from oracles import bisect_root, random_surjective, three_phase_solve
from test_cli import COMMITTED, PINNED_STDOUT
from regsel import control, convex, linalg, problems, selection
from regsel.cli import main
from regsel.convex import AffineSet, Box, Intersection
from regsel.errors import (ContractError, LocalityError, NumericBreakdownError,
                           RegselError, RegularityError, ShapeError)
from regsel.linalg import as_vector
from regsel.selection import (STEP_SLACK, GeneralizedEquation, IterationConfig,
                              _corrector_step, compute_tau, default_config, solve,
                              solve_implicit, sweep)


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


def test_config_refuses_a_step_check_that_certifies_no_contraction():
    # alpha < 1/lambda and kappa*lambda < 1 hold, but alpha*lambda*(1 + 1e-6)
    # >= 1: the step check would accept steps that never shrink
    with pytest.raises(ContractError, match="step check's slack"):
        IterationConfig(kappa=1.0, lam=0.9999995, alpha=1.0000001)
    assert IterationConfig(kappa=1.0, lam=0.999, alpha=1.0009).step_ratio < 1.0


def test_step_budget_hand_values():
    # q = 0 or a first step already below t/2 leaves one step and one for
    # rounding after it
    assert IterationConfig(kappa=1.0, lam=0.0, alpha=2.0).step_budget(0.1) == 3
    cfg = IterationConfig(kappa=1.0, lam=0.1, alpha=5.0)  # q = 0.5(1 + 1e-6)
    assert cfg.step_budget(0.25 * cfg.tol) == 3
    # 0.5**j * 0.1 <= 0.5e-10 first at j = 31
    assert cfg.step_budget(0.1) == 2 + 31


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
    # a rejected schedule is a regularity failure; bad input stays a contract one
    with pytest.raises(RegularityError, match="kappa\\*lambda"):
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
    # a base off its fibre, and a fibre whose gap at the base is nan
    for finv, x_base in ((singleton_inverse, [0.5]), (lambda y: NanFibre(), [0.0, 0.0])):
        with pytest.raises(ContractError, match="x_base"):
            GeneralizedEquation(finv=finv, g=None, x_base=x_base,
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
# truncated projections: the corrector step onto a given fibre


def step_onto(base_set, center, allowed):
    """The corrector step from ``center`` onto base_set, whose inverse image
    of the target 1 is base_set and of y_base = 0 the line x1 + x2 = 0."""
    p = GeneralizedEquation(finv=lambda w: base_set if w[0] else line_inverse(w),
                            g=None, x_base=[0.0, 0.0], y_base=[0.0], radius_x=1.0,
                            radius_y=1.0, radius_graph=4.0)
    return _corrector_step(p, line_config(), np.ones(1), np.asarray(center, dtype=float),
                           allowed, "test")


def test_truncated_projection_keeps_feasible_center():
    z, dist = step_onto(AffineSet([[1.0, 1.0]], [0.0]), [0.3, 0.1], 1.0)
    np.testing.assert_allclose(z, [0.1, -0.1], atol=1e-12)
    assert dist == np.linalg.norm(z - [0.3, 0.1])


def test_truncated_projection_empty_intersection_is_regularity_error():
    # distance from the origin to {x1+x2=2} is sqrt(2) > 1
    with pytest.raises(RegularityError,
                       match=r"distance 1.41 > allowed radius 1 by 0.414;"):
        step_onto(AffineSet([[1.0, 1.0]], [2.0]), np.zeros(2), 1.0)


def test_refused_step_names_an_excess_that_three_digits_hide():
    # distance 0.025 to {x1+x2=0.025*sqrt(2)} against a radius of 0.02499:
    # both sides read 0.025 to 3 digits, the excess 1e-05 tells them apart
    with pytest.raises(RegularityError,
                       match=r"distance 0.025 > allowed radius 0.025 by 1e-05;"):
        step_onto(AffineSet([[1.0, 1.0]], [0.025 * np.sqrt(2.0)]), np.zeros(2), 0.02499)


def test_truncated_projection_radius_zero_feasible_center_is_singleton():
    # a radius of 0 allows the slack alone, which the projection's rounding uses
    z, dist = step_onto(AffineSet([[1.0, 1.0]], [0.0]), [0.5, -0.5],
                        0.0 + line_config().slack)
    np.testing.assert_allclose(z, [0.5, -0.5], atol=1e-10)
    assert dist <= line_config().slack


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
    for measure in (lambda: step_onto(base_set, np.zeros(2), 1.0),
                    lambda: base_set.gap([np.nan, 0.0])):
        with pytest.raises(ShapeError) as err:
            measure()
        assert str(err.value) == "vector has non-finite entries"


def test_a_constrained_step_measures_each_member_once(monkeypatch):
    # An inactive box: each corrector step projects onto the fibre once and
    # the box measures that projection once (dykstra's exact exit); the
    # fibre's gap is proved, not measured (no offset of the projection); the
    # final residual measures each member once more.
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

    counting(AffineSet, "_project_within", "project")
    counting(AffineSet, "_offset", "offset")
    counting(Box, "_distance", "box")
    _, cert = solve(p, cfg, y)
    steps = cert.iterate_count + 1
    assert cert.iterate_count >= 3
    assert counts == {"project": steps, "box": steps + 1, "offset": 1}


# ---------------------------------------------------------------------------
# starting selection and single steps: the initial selection is the corrector
# step from x_base allowed kappa*|y - y_base| + 10*tol, an iterate step the
# one from z_curr allowed step_ratio*|z_curr - z_prev| + STEP_SLACK


def initial_step(p, cfg, y):
    # a query for the unperturbed part, as solve passes y - g(x_base)
    y = np.asarray(y, dtype=float)
    allowed = cfg.kappa * float(np.linalg.norm(y - p.y_base)) + cfg.slack
    return _corrector_step(p, cfg, y, p.x_base, allowed, "initial selection")[0]


def iterate(p, cfg, y, z_prev, z_curr):
    z_prev, z_curr = np.asarray(z_prev, dtype=float), np.asarray(z_curr, dtype=float)
    allowed = cfg.step_ratio * float(np.linalg.norm(z_curr - z_prev)) + STEP_SLACK
    return _corrector_step(p, cfg, np.asarray(y, dtype=float) - p.g_value(z_curr),
                           z_curr, allowed, "iterate step")[0]


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


# A value that comes from outside the library on the solve path (a query, a
# value of the caller's g, or of a smooth map's f in tests/test_smooth.py),
# by kind: how a float64 vector v of the right length is spoilt, and the
# error of the solve, (class, message) for a value of length 2, or None when
# the value is converted, as as_vector converts it, and solved.
EDGE_VALUES = {
    "short": (lambda v: v[:1], (ShapeError, "expected a vector of length 2, got 1")),
    "long": (lambda v: np.append(v, 0.0), (ShapeError, "expected a vector of length 2, got 3")),
    "column": (lambda v: v[:, None], (ShapeError, "expected a vector, got array of shape (2, 1)")),
    "list": (list, None),
    "int": (lambda v: v.astype(int), None),
    "nan": (lambda v: v + np.nan, (ShapeError, "vector has non-finite entries")),
    "inf": (lambda v: v - np.inf, (ShapeError, "vector has non-finite entries")),
    "overflow": (lambda v: v + 1e200, (LocalityError, "{what} is inf from")),
}


def edge_outcome(kind, run, what):
    """run(spoil) solves with a value spoilt by ``spoil``; the outcome must
    be EDGE_VALUES's error, or for a converted kind that of the same solve
    with the value converted first: the same bits, or the same error."""
    spoil, error = EDGE_VALUES[kind]
    if error is None:
        def outcome(spoil):
            try:
                x, cert = run(spoil)
            except RegselError as exc:
                return type(exc), str(exc)
            return x.tobytes(), cert.increments

        assert outcome(spoil) == outcome(lambda v: np.asarray(spoil(v), dtype=float))
        return
    cls, message = error
    with np.errstate(over="ignore"), pytest.raises(cls) as err:
        run(spoil)
    assert str(err.value).startswith(message.format(what=what))


def edge_equation(g, box=False):
    """M x + g(x) in F(x) for a 2 x 3 matrix M, F^{-1}(w) its fibre of w, cut
    by a box wide enough never to be active when ``box``."""
    mat = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5]])
    cut = Box(-np.ones(3), np.ones(3))
    return GeneralizedEquation(
        finv=(lambda w: Intersection([AffineSet(mat, w), cut])) if box else
        (lambda w: AffineSet(mat, w)), g=g, x_base=np.zeros(3), y_base=np.zeros(2),
        radius_x=0.5, radius_y=0.5, radius_graph=1.0)


EDGE_CONFIG = IterationConfig(kappa=2.0, lam=0.2, alpha=2.5)
EDGE_QUERY = np.array([0.03, -0.02])


def edge_g(x):
    return 0.05 * np.sin(x[:2] + 1.0)


@pytest.mark.parametrize("kind", EDGE_VALUES)
def test_solve_checks_the_perturbation_as_as_vector_does(kind):
    # g's value at x_base, read once per equation, is validated in full; at
    # a step's point it passes on its shape, and the step's w_dev decides
    # whether it is finite
    def run(spoil):
        def g(x):
            return spoil(edge_g(x)) if np.any(x) else edge_g(x)

        return solve(edge_equation(g), EDGE_CONFIG, edge_g(np.zeros(3)) + EDGE_QUERY)

    edge_outcome(kind, run, "corrected target")


@pytest.mark.parametrize("kind", EDGE_VALUES)
def test_solve_checks_its_query_as_as_vector_does(kind):
    def run(spoil):
        return solve(edge_equation(edge_g), EDGE_CONFIG,
                     spoil(edge_g(np.zeros(3)) + EDGE_QUERY))

    edge_outcome(kind, run, "query")


@pytest.mark.parametrize("box", [False, True], ids=["fibre", "boxed"])
def test_a_solve_validates_its_query_once_and_no_step(monkeypatch, box):
    # a float64 query passes on its shape and its distance from the base
    # output; the steps and the final residual take the solver's own
    # vectors and the g values of the right shape as given, so as_vector
    # runs only in the fibres' constructors (AffineSet._set_rhs), and once
    # more for a query that needs converting
    p = edge_equation(edge_g, box)
    y = edge_g(np.zeros(3)) + EDGE_QUERY
    p.g_base  # validated on the equation's first query
    callers = []

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return as_vector(*args, **kwargs)

    for module in (linalg, convex, selection):
        monkeypatch.setattr(module, "as_vector", counted)
    _, cert = solve(p, EDGE_CONFIG, y)
    assert cert.iterate_count >= 3
    assert set(callers) == {"_set_rhs"}
    callers.clear()
    solve(p, EDGE_CONFIG, list(y))
    assert [c for c in callers if c != "_set_rhs"] == ["shaped_vector"]


def test_solve_runs_a_slow_contraction_to_its_derived_budget():
    # alpha*lambda = 0.997: far more steps than a fixed cap of 200 allowed,
    # all within the budget the first corrector step derives
    p = scalar_problem(g=lambda x: 0.99 * x)
    cfg = IterationConfig(kappa=1.0, lam=0.995, alpha=1.002)
    x, cert = solve(p, cfg, [0.001])
    assert 200 < cert.iterate_count <= cfg.step_budget(cert.increments[0])
    assert abs(x[0] - 0.001 / 1.99) <= 1e-7
    assert cert.calm_ok


def noisy_third(y):
    """0.3 x plus a kick of 4e-16 away from the fixed point y/1.3: a noise
    at the rounding floor that holds the steps near 1.1e-15 for good, each
    within the step check's slack."""
    def g(x):
        x = np.asarray(x, dtype=float)
        return 0.3 * x + 4e-16 * np.sign(x - y / 1.3)
    return g


def test_solve_names_a_stall_at_the_rounding_floor():
    p = scalar_problem(g=noisy_third(0.1))
    cfg = scalar_config(tol=1e-16)  # below the floor 3.3e-15
    assert cfg.step_floor > 10 * cfg.tol
    with pytest.raises(NumericBreakdownError,
                       match=r"stalled after 86 steps, .* increment .* is above "
                             r"tol=1\.000e-16 at the rounding floor 3\.333e-15"):
        solve(p, cfg, [0.1])
    # the same noise passes at the default tol, above the floor
    x, _ = solve(p, scalar_config(), [0.1])
    assert abs(x[0] - 0.1 / 1.3) <= 1e-9


def test_solve_surfaces_misdeclared_lipschitz_constant():
    # true slope 0.5 exceeds the declared 0.2, so the truncation ball is too
    # tight to contain the next projection
    p = scalar_problem(g=lambda x: 0.5 * x)
    cfg = IterationConfig(kappa=1.05, lam=0.2, alpha=2.0)
    with pytest.raises(RegularityError,
                       match=r"distance 0.025 > allowed radius 0.02 by 0.005;.*kappa"):
        solve(p, cfg, [0.1])


def test_solve_refuses_a_step_ratio_above_alpha_lambda():
    # lambda = 0 declares g constant, but 1e-3 x moves the second step by
    # 1e-3 of the first: 1e-12, within 10*tol but above the STEP_SLACK an
    # iterate step is allowed past step_ratio = 0 times the step before
    p = GeneralizedEquation(finv=singleton_inverse, g=lambda x: 1e-3 * x,
                            x_base=[0.0], y_base=[0.0], radius_x=1.0,
                            radius_y=1.0, radius_graph=2.0)
    with pytest.raises(RegularityError,
                       match=r"iterate step: truncated inverse image is empty, "
                             r"distance 1e-12 > allowed radius 1e-15 by 9.99e-13;"):
        solve(p, IterationConfig(kappa=1.1, lam=0.0, alpha=2.2), [1e-6])


# alpha*lambda = 0.5 for F = identity; g = s x makes every step s times the
# one before, so the iterate steps test s against step_ratio = 0.5(1 + 1e-6)
STEP_RULE_CONFIG = IterationConfig(kappa=1.0, lam=0.4, alpha=1.25)


def test_solve_accepts_an_iterate_step_within_step_ratio():
    # s = 0.5(1 + 5e-7): the second step, s^2 * 0.1, exceeds alpha*lambda
    # times the first by 1.25e-8, more than 10*tol, and stays below
    # step_ratio times it; one rule accepts it, and every step after
    cfg = STEP_RULE_CONFIG
    s = cfg.contraction * (1 + 5e-7)
    x, cert = solve(scalar_problem(g=lambda x: s * x), cfg, [0.1])
    inc = cert.increments
    assert inc[1] > cfg.contraction * inc[0] + cfg.slack
    assert all(b <= cfg.step_ratio * a + STEP_SLACK for a, b in zip(inc, inc[1:]))
    assert abs(x[0] - 0.1 / (1.0 + s)) <= 1e-9


def test_solve_refuses_an_iterate_step_above_step_ratio():
    # s = 0.5(1 + 2e-6): the second step exceeds step_ratio times the first
    # by 2.5e-8, and the refusal names the allowed distance
    cfg = STEP_RULE_CONFIG
    s = cfg.contraction * (1 + 2e-6)
    first = s * 0.1  # the first corrector step, from x = 0.1 to 0.1 - s 0.1
    allowed = cfg.step_ratio * first + STEP_SLACK
    with pytest.raises(RegularityError) as err:
        solve(scalar_problem(g=lambda x: s * x), cfg, [0.1])
    assert str(err.value).startswith(
        f"iterate step: truncated inverse image is empty, distance {s * first:.3g} > "
        f"allowed radius {allowed:.3g} by {s * first - allowed:.3g};")


def test_solve_refuses_a_final_residual_above_ten_tol():
    # g = -0.3 x but for a jump of 1e-6 between the last two iterates: the
    # steps converge, and the membership check at the last iterate sees it
    cfg = IterationConfig(kappa=1.1, lam=0.5, alpha=1.2)
    x, cert = solve(scalar_problem(g=lambda x: -0.3 * x), cfg, [0.1])
    cut = x[0] - 0.5 * cert.increments[-1]  # the iterates increase to x
    p = scalar_problem(g=lambda x: -0.3 * x + (1e-6 if x[0] > cut else 0.0))
    with pytest.raises(NumericBreakdownError,
                       match="final membership residual 1.000e-06 exceeds 10[*]tol"):
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
        assert inc[n] <= cfg.step_ratio * inc[n - 1] + STEP_SLACK
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
        assert inc[n] <= cfg.step_ratio * inc[n - 1] + STEP_SLACK


def outcome(fn, *args):
    """(x, certificate) of a solve, or the type and text of its failure."""
    try:
        return fn(*args)
    except (LocalityError, RegularityError, NumericBreakdownError) as exc:
        return type(exc), str(exc)


@given(st.tuples(st.integers(1, 3), st.integers(1, 5)).filter(lambda s: s[0] <= s[1]),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0), st.booleans())
@settings(max_examples=60, deadline=None)
@example(shape=(1, 1), seed=0, t=1.0, boxed=False)
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


def test_solve_implicit_is_solve_of_the_shifted_target():
    p = scalar_problem(g=lambda x: 0.3 * x + 0.01)
    cfg = scalar_config()
    x, cert = solve_implicit(p, cfg, [0.05])
    x_ref, cert_ref = solve(p, cfg, p.y_base + p.g_value(p.x_base) - 0.05)
    assert x.tobytes() == x_ref.tobytes()
    assert cert == cert_ref


def test_solve_implicit_reports_parameter_on_locality():
    with pytest.raises(LocalityError, match="parameter p="):
        solve_implicit(scalar_problem(g=g_third), scalar_config(), [2.0])


def test_g_is_read_at_the_base_once_per_equation():
    # every query reads the equation's one g(x_base): three solves, a
    # shifted solve and a sweep evaluate g there once in all
    base_reads = []

    def g(x):
        base_reads.append(x is p.x_base)
        return 0.3 * x + 0.01

    p = scalar_problem(g=g)
    cfg = scalar_config()
    for y in (0.05, 0.1, -0.02):
        solve(p, cfg, [y])
    solve_implicit(p, cfg, [0.05])
    sweep(p, cfg, [[0.0], [0.05]])
    assert sum(base_reads) == 1
    assert p.g_base.tobytes() == p.g_value(p.x_base).tobytes()
    assert not p.g_base.flags.writeable


def test_an_equation_without_g_holds_the_zero_map():
    p = scalar_problem()
    # one point, or points stacked as columns, as the samplers take them
    assert p.g(np.ones(1)).tobytes() == np.zeros(1).tobytes()
    assert p.g(np.ones((1, 3))).tobytes() == np.zeros((1, 3)).tobytes()


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


def test_sweep_flags_a_jump_between_branches():
    # F^{-1}(w) is the point (w, 0) below w = 0.1 and (0, w) from there on:
    # each query is solved, and the switch is a jump of ratio ~1.4e5
    def finv(w):
        w = float(np.asarray(w)[0])
        return AffineSet(np.eye(2), [w, 0.0] if w < 0.1 else [0.0, w])

    p = GeneralizedEquation(finv=finv, g=None, x_base=[0.0, 0.0], y_base=[0.0],
                            radius_x=1.0, radius_y=1.0, radius_graph=2.0)
    cfg = line_config()
    res = sweep(p, cfg, [[0.09], [0.1 - 1e-6], [0.1]])
    assert [r.error for r in res.rows] == ["", "", ""]
    assert res.jump_indices == [1]
    assert res.max_continuity_ratio > 10.0 * cfg.gamma


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


# ---------------------------------------------------------------------------
# the projection gap of a corrector step: proved where the fibre's operator
# is proved and the bound is at most the slack, measured everywhere else; no
# verdict moves with the proof

@pytest.fixture
def gap_counts(monkeypatch):
    """The fibre projections of corrector steps, and how many of them
    measured their gap; ``run`` takes a CLI command with the gap proof on or
    off, each on a cold factor cache."""
    counts = {"steps": 0, "measured": 0}
    within, measured = AffineSet._project_within, AffineSet._measured_gap

    def counted_within(self, v, slack):
        counts["steps"] += 1
        return within(self, v, slack)

    def counted_measured(self, z):
        counts["measured"] += 1
        return measured(self, z)

    monkeypatch.setattr(AffineSet, "_project_within", counted_within)
    monkeypatch.setattr(AffineSet, "_measured_gap", counted_measured)
    proof = convex._gap_proof

    def run(capsys, argv, proved=True):
        counts.update(steps=0, measured=0)
        monkeypatch.setattr(convex, "_gap_proof", proof if proved else lambda *args: None)
        convex._cached_factors.cache_clear()
        try:
            code = main(list(argv))
        finally:
            convex._cached_factors.cache_clear()
        out, err = capsys.readouterr()
        return code, out, err

    counts["run"] = run
    yield counts
    convex._cached_factors.cache_clear()


def _argv(command, file, *flags, where):
    return (command, "--input", str(where / file), *flags)


# the console cases that take corrector steps (moduli and verify take
# none) and either have their stdout pinned or read a problem file of the
# tests, whose constraints and control sets are edge cases of the gap proof
GAP_CASES = [case.name for case in CASES
             if case.args.split()[0] in ("solve", "sweep", "control")
             and (case.name in PINNED_STDOUT or "tests/fixtures/" in case.args)]


@pytest.mark.parametrize("name", GAP_CASES)
def test_no_verdict_moves_when_every_gap_is_measured(capsys, gap_counts, name):
    # solve, steer, sweep and calm_sweep behind the CLI: the same bytes on
    # stdout and stderr (x, increments, residual, error type and message)
    # and the same exit code with the proof and with every gap measured
    argv = BY_NAME[name].argv()
    proved = gap_counts["run"](capsys, argv)
    measured = gap_counts["run"](capsys, argv, proved=False)
    assert proved == measured
    assert gap_counts["measured"] == gap_counts["steps"]


@pytest.mark.parametrize("argv", [
    ("control", "pendulum.json", "--target", "0.05,0", "--mesh", "128"),
    ("control", "double_integrator.json", "--target", "0.05,0", "--mesh", "128"),
    ("solve", "generalized.json", "--target", "0.1"),
    ("solve", "smooth.json", "--target", "0.08"),
    ("sweep", "generalized.json", "--target", "0.15", "--grid", "21"),
    ("sweep", "smooth.json", "--target", "0.19", "--grid", "5"),
], ids=["pendulum-128", "double-integrator-128", "solve-generalized", "solve-smooth",
        "sweep-generalized", "sweep-smooth"])
def test_proved_fibres_measure_no_corrector_gap(capsys, gap_counts, argv):
    code, _, err = gap_counts["run"](capsys, _argv(*argv, where=COMMITTED))
    assert code == 0 and err == ""
    assert gap_counts["steps"] > 0 and gap_counts["measured"] == 0


def test_a_mesh_512_steer_measures_every_gap(capsys, gap_counts):
    # no proof covers the mesh-512 collocation operator
    argv = ("control", "double_integrator.json", "--target", "0.05,0", "--mesh", "512")
    code, _, err = gap_counts["run"](capsys, _argv(*argv, where=COMMITTED))
    assert code == 0 and err == ""
    assert gap_counts["steps"] > 0 and gap_counts["measured"] == gap_counts["steps"]


def test_a_tol_below_the_rounding_fails_on_the_measured_gap(capsys, gap_counts):
    # the bound does not settle a slack of 1e-17, so the step measures its
    # gap and the error quotes the measurement
    argv = ("solve", "generalized.json", "--target", "0.1", "--tol", "1e-18")
    code, out, err = gap_counts["run"](capsys, _argv(*argv, where=COMMITTED))
    assert (code, out) == (3, "")
    assert err == ("regsel: numeric breakdown: iterate step: projection gap 1.068e-17 "
                   "exceeds 10*tol\n")
    assert gap_counts["measured"] >= 1


@pytest.mark.parametrize("name", ["pendulum", "double_integrator"])
def test_mesh_128_steers_around_a_ring_measure_no_gap(gap_counts, name):
    # targets |b| = 0.02 and 0.05 in eight directions, with the schedule of
    # a 0.065 tau target: every step's bound is below the slack of 1e-10
    dynamics, n, m = problems.DYNAMICS_FIXTURES[name]
    prob = control.ControlProblem(dynamics=dynamics, control_set=Box([-1.0], [1.0]),
                                  state_dim=n, control_dim=m, mesh_size=128)
    sys_ = control.linearize(prob)
    setup = control.steering_setup(prob, sys_, tau_target=0.065)
    for radius in (0.02, 0.05):
        for angle in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            control.steer(prob, sys_, radius * np.array([np.cos(angle), np.sin(angle)]),
                          setup=setup)
    assert gap_counts["steps"] >= 32 and gap_counts["measured"] == 0
