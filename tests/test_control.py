import copy
import ctypes
import glob
import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from oracles import (collocation_remainder_loop, control_membership_loop,
                     endpoint_order_ratios, linearize_loop,
                     reachable_interior_expm_loop,
                     reachable_interior_node_loop,
                     simulate_trapezoidal, trapezoid_residual,
                     transported_calm_bound_dense)
from regsel import control, convex
from regsel.control import (ControlProblem, DiscretizedSystem, calm_sweep,
                            kalman_rank, linearize, reachable_interior, steer,
                            steering_setup)
from regsel.convex import AffineSet, Ball, Box, Halfspaces
from regsel.errors import (ContractError, LocalityError,
                           NumericBreakdownError, RegularityError, ShapeError,
                           UncontrollableError)
from regsel.linalg import svd
from regsel.problems import parse_problem
from regsel.selection import default_config

UNIT_BOX = Box([-1.0], [1.0])


def double_integrator(mesh=16):
    def f(x, u):
        return np.array([x[1], u[0]])

    return ControlProblem(dynamics=f, control_set=UNIT_BOX, state_dim=2,
                          control_dim=1, mesh_size=mesh)


def pendulum(mesh=64):
    def f(x, u):
        return np.array([x[1], u[0] - np.sin(x[0])])

    return ControlProblem(dynamics=f, control_set=UNIT_BOX, state_dim=2,
                          control_dim=1, mesh_size=mesh)


def steer_fresh(p, b):
    """steer with the set-up ``regsel control`` builds for the one target
    b: tau target _default_tau_target(|b|), tol 1e-11, seed 0."""
    size = float(np.linalg.norm(b))
    setup = steering_setup(p, tau_target=control._default_tau_target(size))
    return steer(p, setup.sys, b, setup)


def segment_problem(mesh=16):
    # x' = (cos 0.3, sin 0.3) u, u in [-1, 1], as polynomial dynamics: every
    # trajectory stays on one line, so the Kalman rank is 1
    c, s = np.cos(0.3), np.sin(0.3)
    return parse_problem({
        "version": "1", "kind": "control", "state_dim": 2, "control_dim": 1,
        "mesh": mesh, "control_set": {"type": "box", "lower": [-1.0], "upper": [1.0]},
        "dynamics": {"input_dim": 3, "output_dim": 2,
                     "terms": [[{"coef": c, "powers": [0, 0, 1]}],
                               [{"coef": s, "powers": [0, 0, 1]}]]}}).control


def polynomial_file_problem(mesh=32):
    # x1' = x2 + 0.5 x1^2 u, x2' = u - x1^3 / 6 + x1 x2
    dyn = {"input_dim": 3, "output_dim": 2,
           "terms": [[{"coef": 1.0, "powers": [0, 1, 0]},
                      {"coef": 0.5, "powers": [2, 0, 1]}],
                     [{"coef": 1.0, "powers": [0, 0, 1]},
                      {"coef": -1.0 / 6.0, "powers": [3, 0, 0]},
                      {"coef": 1.0, "powers": [1, 1, 0]}]]}
    return parse_problem({"version": "1", "kind": "control", "dynamics": dyn,
                          "state_dim": 2, "control_dim": 1,
                          "control_set": {"type": "box", "lower": [-1.0],
                                          "upper": [1.0]},
                          "mesh": mesh}).control


TRIANGLE = Halfspaces([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [0.5, 1.0, 1.0])


def triangle_problem(mesh=8):
    # two controls, one per state derivative, in a triangle around 0
    return ControlProblem(dynamics=lambda x, u: np.array([u[0], u[1]]),
                          control_set=TRIANGLE, state_dim=2, control_dim=2,
                          mesh_size=mesh)


def negated_control(mesh=16):
    # x1' = x2, x2' = -u: -u of a zero control is -0.0, so A's zeros carry
    # the signs of the difference points
    return ControlProblem(dynamics=lambda x, u: np.array([x[1], -u[0]]),
                          control_set=UNIT_BOX, state_dim=2, control_dim=1,
                          mesh_size=mesh)


def raw_system(a, b, mesh=16):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return DiscretizedSystem(a_matrix=a, b_matrix=b, state_dim=a.shape[0],
                             control_dim=b.shape[1], mesh_size=mesh)


# ---------------------------------------------------------------------------
# problem validation and linearization


def test_problem_rejects_nonvanishing_dynamics():
    with pytest.raises(ContractError, match="rest point"):
        ControlProblem(dynamics=lambda x, u: x + 1.0, control_set=UNIT_BOX,
                       state_dim=1, control_dim=1)


def test_problem_rejects_mismatched_control_set():
    with pytest.raises(ShapeError, match="control set"):
        ControlProblem(dynamics=lambda x, u: 0.0 * x, control_set=UNIT_BOX,
                       state_dim=1, control_dim=2)


def test_problem_rejects_set_without_zero():
    with pytest.raises(ContractError, match="zero control"):
        ControlProblem(dynamics=lambda x, u: 0.0 * x,
                       control_set=Box([0.5], [1.0]), state_dim=1,
                       control_dim=1)


def test_problem_rejects_unbounded_control_set():
    half = Halfspaces([[1.0]], [1.0])  # u <= 1, no lower bound
    with pytest.raises(ContractError, match="compact"):
        ControlProblem(dynamics=lambda x, u: 0.0 * x, control_set=half,
                       state_dim=1, control_dim=1)
    # the first unbounded axis is named
    strip = Box([-1.0, -np.inf, -1.0], [1.0, 1.0, np.inf])
    with pytest.raises(ContractError, match="unbounded along axis 1;"):
        ControlProblem(dynamics=lambda x, u: 0.0 * x, control_set=strip,
                       state_dim=1, control_dim=3)


def test_problem_rejects_an_unbounded_polytope_naming_a_recession_direction():
    # nonempty (it holds 0) and unbounded: 4 rows in R^3 that do not
    # positively span; an LP's status codes called it empty
    half = Halfspaces(
        [[0.9737736192884713, 1.0121394561996544, 1.6394168320140663],
         [-0.7345404675412041, -0.1878214805116942, -0.37222757090140723],
         [-0.5097499981351498, 0.5384100252314712, 0.676328386958752],
         [-0.15036554748527867, 0.10575080137124572, 1.192499289624071]],
        [1.7885432250481188, 0.9402808144317926, 0.8126172266109374,
         0.4164766272751579])
    with pytest.raises(ContractError, match=r"unbounded along the direction "
                       r"\[.*\] \(normals @ d <= 0\); it must be compact$") as exc:
        ControlProblem(dynamics=lambda x, u: np.asarray(u, dtype=float),
                       control_set=half, state_dim=3, control_dim=3,
                       mesh_size=8)
    assert exc.value.field == "control_set"


def test_problem_rejects_unsupported_control_set():
    with pytest.raises(ContractError,
                       match="^control set of type Ball is not supported; "
                             "use a box or halfspaces$"):
        ControlProblem(dynamics=lambda x, u: 0.0 * x,
                       control_set=Ball([0.0], 1.0), state_dim=1, control_dim=1)


def test_problem_rejects_degenerate_sizes():
    with pytest.raises(ContractError):
        ControlProblem(dynamics=lambda x, u: x, control_set=UNIT_BOX,
                       state_dim=0, control_dim=1)
    with pytest.raises(ContractError):
        ControlProblem(dynamics=lambda x, u: 0.0 * x, control_set=UNIT_BOX,
                       state_dim=1, control_dim=1, mesh_size=1)


def test_problem_rejects_wrong_dynamics_dimension():
    with pytest.raises(ShapeError, match="dynamics"):
        ControlProblem(dynamics=lambda x, u: np.zeros(3), control_set=UNIT_BOX,
                       state_dim=2, control_dim=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_dynamics_at_the_origin(bad):
    with pytest.raises(ShapeError, match="non-finite") as info:
        ControlProblem(dynamics=lambda x, u: x + bad, control_set=UNIT_BOX,
                       state_dim=1, control_dim=1)
    assert info.value.field == "dynamics"


@pytest.mark.parametrize("dynamics,fault", [
    (lambda x, u: np.array([float(x[1]), float(u[0])]), "raised TypeError"),
    # a fixed-length vector broadcasts against one point only
    (lambda x, u: np.array([x[1], u[0]]) * np.array([1.0, 2.0]), "raised ValueError"),
    # the norm of all stacked points is not the norm of each
    (lambda x, u: np.array([x[1], u[0] - np.linalg.norm(x) * x[0]]), "differs"),
])
def test_problem_rejects_oracle_that_does_not_stack(dynamics, fault):
    with pytest.raises(ContractError, match="stacked points") as info:
        ControlProblem(dynamics=dynamics, control_set=UNIT_BOX, state_dim=2,
                       control_dim=1)
    assert fault in str(info.value)


def test_linearize_pure_control():
    p = ControlProblem(dynamics=lambda x, u: np.array([u[0]]),
                       control_set=UNIT_BOX, state_dim=1, control_dim=1)
    sys = linearize(p)
    np.testing.assert_allclose(sys.a_matrix, [[0.0]], atol=1e-9)
    np.testing.assert_allclose(sys.b_matrix, [[1.0]], atol=1e-9)


def test_linearize_double_integrator_exact():
    sys = linearize(double_integrator())
    np.testing.assert_allclose(sys.a_matrix, [[0.0, 1.0], [0.0, 0.0]],
                               atol=1e-9)
    np.testing.assert_allclose(sys.b_matrix, [[0.0], [1.0]], atol=1e-9)


def test_linearize_nonlinear_control_channel():
    p = ControlProblem(dynamics=lambda x, u: np.array([np.sin(u[0])]),
                       control_set=UNIT_BOX, state_dim=1, control_dim=1)
    sys = linearize(p)
    np.testing.assert_allclose(sys.b_matrix, [[1.0]], atol=1e-8)


@pytest.mark.parametrize("make", [pendulum, double_integrator,
                                  polynomial_file_problem, triangle_problem,
                                  negated_control])
def test_linearize_has_the_bits_of_the_column_loop(make):
    p = make()
    sys = linearize(p)
    a, b = linearize_loop(p, control.FD_JACOBIAN_STEP)
    assert sys.a_matrix.tobytes() == a.tobytes()
    assert sys.b_matrix.tobytes() == b.tobytes()
    assert sys.a_matrix.flags.c_contiguous and sys.b_matrix.flags.c_contiguous


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1)])
def test_linearize_makes_one_stacked_call(n, m):
    shapes = []

    def f(x, u):
        shapes.append((np.shape(x), np.shape(u)))
        return np.array([x[(i + 1) % n] + (i + 1) * u[i % m] for i in range(n)])

    p = ControlProblem(dynamics=f, control_set=Box(-np.ones(m), np.ones(m)),
                       state_dim=n, control_dim=m)
    shapes.clear()
    sys = linearize(p)
    assert shapes == [((n, 2 * (n + m)), (m, 2 * (n + m)))]
    np.testing.assert_allclose(sys.a_matrix, np.roll(np.eye(n), 1, axis=1),
                               rtol=0.0, atol=1e-9)
    want_b = np.zeros((n, m))
    want_b[np.arange(n), np.arange(n) % m] = np.arange(1, n + 1)
    np.testing.assert_allclose(sys.b_matrix, want_b, rtol=0.0, atol=1e-9)


def test_linearize_step_is_one_over_mesh():
    sys = linearize(double_integrator(mesh=64))
    assert sys.step == pytest.approx(1.0 / 64.0)


# ---------------------------------------------------------------------------
# controllability tests


def test_kalman_rank_double_integrator():
    rank, ok = kalman_rank(linearize(double_integrator()))
    assert (rank, ok) == (2, True)


def test_kalman_rank_zero_input_matrix():
    rank, ok = kalman_rank(raw_system([[0.0, 1.0], [0.0, 0.0]],
                                      [[0.0], [0.0]]))
    assert (rank, ok) == (0, False)


def test_kalman_rank_uncontrollable_mode():
    rank, ok = kalman_rank(raw_system(np.eye(2), [[1.0], [0.0]]))
    assert (rank, ok) == (1, False)


def test_reachable_interior_double_integrator():
    ok, margin = reachable_interior(linearize(double_integrator()), UNIT_BOX)
    assert ok
    assert 0.0 < margin < 10.0


def test_reachable_interior_zero_input():
    sys = raw_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [0.0]])
    ok, margin = reachable_interior(sys, UNIT_BOX)
    assert not ok
    assert margin == 0.0


def test_reachable_interior_singleton_control_set():
    sys = linearize(double_integrator())
    ok, margin = reachable_interior(sys, Box([0.0], [0.0]))
    assert not ok
    assert margin == 0.0


# the oracle eliminates the states from the dense collocation operator and
# sums its supports one interval at a time, so it agrees to rounding only
INTERIOR_RTOL = 1e-12


def assert_margin_matches_the_node_loop(sys, control_set, seed=0):
    got = reachable_interior(sys, control_set, seed=seed)
    want = reachable_interior_node_loop(sys, control_set, seed=seed)
    assert got[0] == want[0]
    assert abs(got[1] - want[1]) <= INTERIOR_RTOL * max(1.0, abs(want[1]))


@pytest.mark.parametrize("make", [double_integrator, pendulum])
@pytest.mark.parametrize("mesh", [8, 64, 128])
def test_reachable_interior_matches_the_node_loop(make, mesh):
    assert_margin_matches_the_node_loop(linearize(make(mesh=mesh)), UNIT_BOX)


@pytest.mark.parametrize("m", [1, 2, 3, 9])
def test_reachable_interior_matches_the_node_loop_on_random_boxes(m):
    rng = np.random.default_rng(m)
    for _ in range(6):
        n = int(rng.integers(1, 5))
        sys = raw_system(rng.uniform(-1.0, 1.0, (n, n)),
                         rng.uniform(-1.0, 1.0, (n, m)))
        box = Box(-rng.uniform(0.1, 2.0, m), rng.uniform(0.1, 2.0, m))
        assert_margin_matches_the_node_loop(sys, box, seed=int(rng.integers(0, 100)))


@pytest.mark.parametrize("make", [double_integrator, pendulum])
def test_interior_margin_tends_to_the_continuous_time_margin(make):
    # trapezoid collocation is second order, so the steered system's margin
    # is within a constant times h^2 of the margin of the continuous-time
    # reachable set (expm at 1,024 midpoint nodes); the constant is 0.115 at
    # these meshes
    want = reachable_interior_expm_loop(linearize(make()), UNIT_BOX)[1]
    for mesh in (8, 64, 128):
        got = reachable_interior(linearize(make(mesh=mesh)), UNIT_BOX)[1]
        assert abs(got - want) <= 0.25 / mesh ** 2


def test_reachable_interior_matches_the_node_loop_on_a_hexagon():
    # a polytope control set: vertex supports against one LP per interval
    angles = 0.1 + np.arange(6) * np.pi / 3
    hexagon = Halfspaces(np.column_stack([np.cos(angles), np.sin(angles)]),
                         np.ones(6))
    sys = raw_system([[0.0, 1.0], [0.0, 0.0]], np.eye(2), mesh=8)
    assert_margin_matches_the_node_loop(sys, hexagon)


def test_kalman_controllable_implies_interior():
    # random controllable pairs with box controls always contain 0 in the
    # interior of the reachable integral
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 50:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        sys = raw_system(rng.uniform(-1.0, 1.0, (n, n)),
                         rng.uniform(-1.0, 1.0, (n, m)))
        _, ok = kalman_rank(sys)
        if not ok:
            continue
        box = Box(-np.ones(m), np.ones(m))
        interior, margin = reachable_interior(sys, box)
        assert interior, f"margin {margin} for A={sys.a_matrix} B={sys.b_matrix}"
        checked += 1


# ---------------------------------------------------------------------------
# the steering map


def test_steering_setup_refuses_a_negative_seed():
    with pytest.raises(ContractError, match="seed must be nonnegative, got -1"):
        steering_setup(double_integrator(), seed=-1)


@pytest.mark.parametrize("tol", [float("inf"), 0.0, -1.0])
def test_steering_setup_refuses_a_bad_tol_as_a_contract_error(tol):
    # the tol rule is IterationConfig's; only a rejected schedule is a
    # RegularityError
    with pytest.raises(ContractError, match="tol must be"):
        steering_setup(double_integrator(), tol=tol)


def test_steering_setup_double_integrator():
    setup = steering_setup(double_integrator(mesh=64))
    assert kalman_rank(setup.sys) == (2, True)  # the gate the set-up passed
    assert 5.5 <= setup.config.kappa <= 6.5
    assert setup.tau >= setup.tau_target
    assert np.isfinite(setup.calm_bound)


@pytest.mark.parametrize("mesh", [8, 64, 128])
@pytest.mark.parametrize("make", [pendulum, double_integrator])
def test_remainder_matches_interval_loop(make, mesh):
    p = make(mesh=mesh)
    sys = linearize(p)
    g = control._remainder(p, sys)
    loop = collocation_remainder_loop(p.dynamics, sys)
    rng = np.random.default_rng(mesh)
    for _ in range(50):
        v = 0.3 * rng.standard_normal(3 * mesh)
        np.testing.assert_array_equal(g(v), loop(v))


@pytest.mark.parametrize("make", [pendulum, double_integrator])
def test_stacked_remainder_columns_have_the_bits_of_single_trajectories(make):
    p = make(mesh=16)
    g = control._remainder(p, linearize(p))
    v = 0.3 * np.random.default_rng(5).standard_normal((3 * 16, 5))
    stacked = g(v)
    assert stacked.shape == (2 * 16 + 2, 5)
    for j in range(5):
        assert stacked[:, j].tobytes() == g(v[:, j]).tobytes()


def test_remainder_matches_interval_loop_for_polynomial_file():
    p = polynomial_file_problem()
    sys = linearize(p)
    g = control._remainder(p, sys)
    loop = collocation_remainder_loop(p.dynamics, sys)
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = 0.5 * rng.standard_normal(3 * 32)
        want = loop(v)
        np.testing.assert_allclose(g(v), want, rtol=0.0,
                                   atol=1e-14 * max(1.0, np.max(np.abs(want))))


def test_box_control_set_lifts_to_the_same_clamp():
    sys = linearize(pendulum(mesh=10))
    box = Box([-0.7], [1.3])
    lifted = control._lift_control_set(box, sys)
    assert isinstance(lifted, Box)
    # the dense axis-aligned halfspace lift this box replaces
    sq = np.sqrt(10)
    rows = np.zeros((20, 30))
    rows[np.arange(0, 20, 2), 20 + np.arange(10)] = sq
    rows[np.arange(1, 20, 2), 20 + np.arange(10)] = -sq
    dense = Halfspaces(rows, np.tile([1.3, 0.7], 10))
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(30)
        np.testing.assert_array_equal(lifted.project(x), dense.project(x))
        assert lifted.distance(x) == dense.distance(x)


def test_setup_dynamics_calls_do_not_grow_with_mesh(monkeypatch):
    # each remainder evaluation is two stacked calls, whatever the mesh
    calls = {"f": 0, "g": 0}
    lip_estimate = control.lip_estimate

    def f(x, u):
        calls["f"] += 1
        return np.array([x[1], u[0] - np.sin(x[0])])

    def counting_lip(g, *args, **kwargs):
        def counted(v):
            calls["g"] += 1
            return g(v)
        return lip_estimate(counted, *args, **kwargs)

    monkeypatch.setattr(control, "lip_estimate", counting_lip)
    counts = []
    for mesh in (64, 128):
        p = ControlProblem(dynamics=f, control_set=UNIT_BOX, state_dim=2,
                           control_dim=1, mesh_size=mesh)
        sys = linearize(p)
        calls.update(f=0, g=0)
        setup = steering_setup(p, sys)
        assert calls["f"] == 2 * calls["g"]
        counts.append(calls["f"])
        g = setup.equation.g

        def counted_g(v, g=g):
            calls["g"] += 1
            return g(v)

        setup.equation.g = counted_g
        calls.update(f=0, g=0)
        steer(p, sys, [0.04, 0.0], setup)
        # the residual check on the returned trajectory is one more pair
        assert calls["f"] == 2 * calls["g"] + 2
    assert counts[0] == counts[1]


def test_steers_read_the_remainder_at_the_base_once():
    p = double_integrator()
    setup = steering_setup(p)
    equation, g = setup.equation, setup.equation.g
    base_reads = []

    def counted_g(v):
        base_reads.append(v is equation.x_base)
        return g(v)

    equation.g = counted_g
    for b in ([0.04, 0.0], [0.0, 0.03], [0.02, 0.02]):
        steer(p, setup.sys, b, setup)
    assert sum(base_reads) == 1


def test_steering_kappa_is_mesh_stable():
    k64 = steering_setup(double_integrator(mesh=64)).config.kappa
    k32 = steering_setup(double_integrator(mesh=32)).config.kappa
    assert abs(k64 - k32) <= 0.05 * k64


def test_steer_zero_target_is_zero_trajectory():
    res = steer_fresh(double_integrator(), [0.0, 0.0])
    assert np.all(res.states == 0.0)
    assert np.all(res.controls == 0.0)
    assert res.endpoint_error == 0.0
    assert res.calm_ratio == 0.0
    assert res.certificate.iterate_count == 1


def test_steer_double_integrator_target():
    p = double_integrator(mesh=64)
    res = steer_fresh(p, [0.1, 0.0])
    assert res.endpoint_error <= 1e-6
    assert np.max(np.abs(res.controls)) <= 1.0 + 1e-7
    # linear dynamics: the remainder vanishes, one outer iteration suffices
    assert res.certificate.iterate_count == 1
    # independent residual check by pure substitution
    assert trapezoid_residual(p.dynamics, res.states, res.controls) <= 1e-10
    assert res.calm_ratio <= res.calm_bound


def test_steer_matches_independent_integrator():
    p = double_integrator(mesh=32)
    res = steer_fresh(p, [0.08, -0.02])
    replay = simulate_trapezoidal(p.dynamics, p.state_dim, res.controls)
    np.testing.assert_allclose(replay, res.states, atol=1e-10)


def test_steer_pendulum_target():
    p = pendulum(mesh=64)
    res = steer_fresh(p, [0.05, 0.0])
    assert res.endpoint_error <= 1e-5
    assert np.max(np.abs(res.controls)) <= 1.0 + 1e-7
    assert res.dynamics_residual <= 1e-8
    assert res.certificate.iterate_count >= 2
    assert res.calm_ratio <= res.calm_bound
    assert trapezoid_residual(p.dynamics, res.states, res.controls) <= 1e-8


def test_steer_with_prebuilt_setup_factors_nothing(monkeypatch):
    # nor builds an affine set: each step's fibre is a shift of the set-up's,
    # made without copy.copy
    p = pendulum(mesh=64)
    setup = steering_setup(p)
    calls, inits, copies = [], [], []
    svd = np.linalg.svd
    init, shallow = AffineSet.__init__, copy.copy

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    def counting_init(self, *args):
        inits.append(args)
        init(self, *args)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(AffineSet, "__init__", counting_init)
    monkeypatch.setattr(copy, "copy", lambda obj: copies.append(obj) or shallow(obj))
    res = steer(p, setup.sys, [0.04, 0.0], setup)
    assert res.certificate.iterate_count >= 2
    assert calls == [] and inits == [] and copies == []


def test_steering_setup_factors_the_collocation_operator_once(monkeypatch,
                                                               cold_factor_cache):
    p = pendulum(mesh=64)
    sys = linearize(p)
    shape = control._weighted_operator(sys).shape
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    steering_setup(p, sys)
    assert calls.count(shape) == 1


@pytest.mark.parametrize("mesh", [8, 16, 32, 64, 128, 256, 512])
@pytest.mark.parametrize("make", [pendulum, double_integrator])
def test_collocation_operators_prove_every_target_consistent(make, mesh):
    # so a steer's shifted fibre takes no residual check; the proof's
    # rounding terms grow with the mesh and no longer hold at 512, where
    # every shift runs the check
    mat = control._weighted_operator(linearize(make(mesh=mesh)))
    assert AffineSet(mat, np.zeros(mat.shape[0])).every_rhs_consistent == (mesh <= 256)


def _sparse_product_bound(op, x):
    """How far ``_sparse_product`` and ``ndarray.dot`` may lie apart under
    the consistency proof's model: each is within gamma_{k_op} |op| |x| of
    op x, k_op the most nonzeros in a row, with one more rounding of slack
    for the bound's own product."""
    k = int(np.count_nonzero(op, axis=1).max())
    return 2.0 * convex._gamma(k) * (np.abs(op) @ np.abs(x)) * (1.0 + convex._gamma(op.shape[1]))


@pytest.mark.parametrize("mesh", [8, 64, 128, 512])
@pytest.mark.parametrize("make", [pendulum, double_integrator])
def test_sparse_product_agrees_with_the_dense_one(make, mesh):
    op = control._weighted_operator(linearize(make(mesh=mesh)))
    rng = np.random.default_rng(mesh)
    for x in (rng.standard_normal(op.shape[1]), 1e6 * rng.standard_normal(op.shape[1])):
        got = convex._sparse_product(*convex._nonzeros(op), x)
        assert np.all(np.abs(got - op.dot(x)) <= _sparse_product_bound(op, x))


def test_sparse_product_gives_an_all_zero_row_zero():
    # 1,000 nonzeros drawn at random, the first, a middle and the last row
    # all zero
    rng = np.random.default_rng(3)
    op = np.zeros((258, 384))
    op.flat[rng.choice(op.size, 1000, replace=False)] = rng.standard_normal(1000)
    op[[0, 100, -1]] = 0.0
    x = rng.standard_normal(384)
    got = convex._sparse_product(*convex._nonzeros(op), x)
    assert np.all(np.abs(got - op.dot(x)) <= _sparse_product_bound(op, x))
    assert got[[0, 100, -1]].tolist() == [0.0, 0.0, 0.0]
    fibre = AffineSet(op, np.zeros(258))
    assert fibre._product.func is convex._sparse_product
    assert fibre._product(x)[[0, 100, -1]].tolist() == [0.0, 0.0, 0.0]
    # the zero rows make the operator rank-deficient: a right-hand side with
    # a nonzero entry there is inconsistent
    rhs = np.zeros(258)
    rhs[-1] = 1.0
    with pytest.raises(ContractError, match="inconsistent"):
        fibre.shifted(rhs)


@pytest.mark.parametrize("mesh", [8, 64, 128])
@pytest.mark.parametrize("make", [pendulum, double_integrator])
def test_collocation_fibres_take_the_product_their_size_picks(make, mesh):
    # below SPARSE_OP_ENTRIES entries (mesh 64 has 24,960) ndarray.dot is
    # the faster product, however sparse the operator; mesh 128 (99,072
    # entries, 1 in 86 nonzero) is multiplied by its nonzeros
    mat = control._weighted_operator(linearize(make(mesh=mesh)))
    fibre = AffineSet(mat, np.zeros(mat.shape[0]))
    if mesh == 128:
        assert fibre._product.func is convex._sparse_product
        assert mat.size > convex.SPARSE_OP_ENTRIES
    else:
        assert fibre._product == fibre.op.dot and mat.size <= convex.SPARSE_OP_ENTRIES


def test_a_mesh_512_shift_runs_the_check_through_the_sparse_product(monkeypatch):
    # no proof covers mesh 512, so each shift checks its right-hand side,
    # multiplying by the operator's nonzeros; with the last row repeated
    # the operator is no longer onto and the check refuses a right-hand
    # side that repeats it with another value
    calls = []
    product = convex._sparse_product
    monkeypatch.setattr(convex, "_sparse_product",
                        lambda *args: calls.append(args[-1].size) or product(*args))
    mat = control._weighted_operator(linearize(double_integrator(mesh=512)))
    fibre = AffineSet(mat, np.zeros(mat.shape[0]))
    assert not fibre.every_rhs_consistent
    rng = np.random.default_rng(512)
    calls.clear()
    fibre.shifted(mat @ rng.standard_normal(mat.shape[1]))
    assert calls == [mat.shape[1]]
    repeated = AffineSet(np.vstack([mat, mat[-1]]), np.zeros(mat.shape[0] + 1))
    assert repeated._product.func is convex._sparse_product and not repeated.surjective
    rhs = np.zeros(mat.shape[0] + 1)
    rhs[-1] = 1.0
    calls.clear()
    with pytest.raises(ContractError, match="inconsistent"):
        repeated.shifted(rhs)
    assert calls == [mat.shape[1]]


@pytest.mark.parametrize("mesh", [8, 64, 128])
@pytest.mark.parametrize("make", [pendulum, double_integrator])
def test_calm_bound_matches_dense_selectors(make, mesh):
    # the pendulum has no certified schedule at mesh 8, so the bound is
    # taken on the fibre directly; set-ups are compared at 64 and 128
    sys = linearize(make(mesh=mesh))
    mat = control._weighted_operator(sys)
    fibre = AffineSet(mat, np.zeros(mat.shape[0]))
    cfg = default_config(1.0 / fibre.sigma_min, 0.05)
    want = transported_calm_bound_dense(sys, svd(mat), cfg)
    got = control._transported_calm_bound(sys, fibre.right_inverse, cfg)
    assert abs(got - want) <= np.spacing(want)
    if mesh >= 64:
        setup = steering_setup(make(mesh=mesh), sys)
        want = transported_calm_bound_dense(sys, svd(mat), setup.config)
        assert abs(setup.calm_bound - want) <= np.spacing(want)


def test_steer_unreachable_target_names_the_constraint():
    # bang-bang control in the unit box reaches at most 0.25 at rest, so the
    # endpoint fibre misses the lifted control box entirely
    with pytest.raises(RegularityError,
                       match="no preimage under the constraint") as info:
        steer_fresh(double_integrator(mesh=8), [0.3, 0.0])
    assert "kappa" not in str(info.value)


# Control sets with their vertices in counter-clockwise order: the box
# [-1, 1] x [-0.5, 2] and a triangle written as halfspaces.
MEMBERSHIP_SETS = {
    "box": (Box([-1.0, -0.5], [1.0, 2.0]),
            [(-1.0, -0.5), (1.0, -0.5), (1.0, 2.0), (-1.0, 2.0)]),
    "halfspaces": (Halfspaces([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 1.0]),
                   [(-1.0, -1.0), (2.0, -1.0), (-1.0, 2.0)]),
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_SETS))
def test_control_membership_matches_the_interval_loop(name):
    # interior controls, with a few rows pushed off a face along its outward
    # normal by just under or just over the tolerance (or well past it)
    control_set, vertices = MEMBERSHIP_SETS[name]
    verts = np.array(vertices)
    faces = [(verts[k], verts[(k + 1) % len(verts)]) for k in range(len(verts))]
    tol = control.CONTROL_MEMBERSHIP_TOL
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(300):
        weights = rng.dirichlet(np.ones(len(verts)), size=24)
        controls = 0.9 * weights @ verts + 0.1 * verts.mean(axis=0)
        for i in rng.choice(24, size=int(rng.integers(0, 4)), replace=False):
            start, end = faces[int(rng.integers(len(faces)))]
            edge = end - start
            outward = np.array([edge[1], -edge[0]]) / np.linalg.norm(edge)
            push = tol * rng.choice([0.5, 0.999, 1.001, 3.0])
            controls[i] = start + rng.uniform(0.1, 0.9) * edge + push * outward
        want = control_membership_loop(control_set, controls, tol)
        admitted = control_set.violation(controls) <= tol
        bad = np.flatnonzero(~admitted)
        assert (int(bad[0]) if bad.size else None) == want
        # one control alone gets the same verdict as in the batch
        assert [bool(control_set.violation(u[None, :])[0] <= tol)
                for u in controls] == admitted.tolist()
        seen.add(want is None)
    assert seen == {True, False}


def test_steer_names_the_first_inadmissible_interval(monkeypatch):
    # a trajectory that meets the dynamics exactly with controls 1.5 (outside
    # the unit box) from interval 5 on
    p = double_integrator(mesh=16)
    setup = steering_setup(p)
    big_n, n = 16, 2
    nx = n * big_n
    u = np.where(np.arange(big_n) >= 5, 1.5, 0.2) / np.sqrt(big_n)
    density = setup.operator[:nx]
    x = np.linalg.solve(density[:, :nx], -density[:, nx:] @ u)
    scaled = np.concatenate([x, u])
    controls = (u * np.sqrt(big_n)).reshape(big_n, 1)
    assert control_membership_loop(p.control_set, controls,
                                   control.CONTROL_MEMBERSHIP_TOL) == 5
    monkeypatch.setattr(control, "solve", lambda *args: (scaled, None))
    with pytest.raises(NumericBreakdownError,
                       match="^control value at interval 5 leaves the admissible set$"):
        steer(p, setup.sys, [0.04, 0.0], setup)


@pytest.mark.parametrize("mesh", [8, 32])
def test_halfspace_control_set_steers_like_the_box(mesh):
    # the unit interval written as halfspaces lifts to the same clamp
    half = Halfspaces([[1.0], [-1.0]], [1.0, 1.0])
    box_problem = double_integrator(mesh=mesh)
    box_run = steer_fresh(box_problem, [0.1, -0.05])
    half_run = steer_fresh(replace(box_problem, control_set=half), [0.1, -0.05])
    for field_name in ("states", "controls"):
        assert (getattr(half_run, field_name).tobytes()
                == getattr(box_run, field_name).tobytes())
    for field_name in ("endpoint_error", "calm_ratio", "calm_bound",
                       "dynamics_residual", "certificate"):
        assert getattr(half_run, field_name) == getattr(box_run, field_name)


def _scipy_openblas():
    """numpy's bundled scipy-openblas library and the suffix of its
    symbols, or None where numpy bundles none."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)  # the copy numpy has loaded
        for suffix in ("64_", ""):
            if hasattr(lib, "scipy_openblas_get_corename" + suffix):
                return lib, suffix
    return None


@pytest.fixture
def one_blas_thread():
    """OpenBLAS's version and the name it gives the kernel it runs
    ("Katmai" under OPENBLAS_CORETYPE=Prescott), with OpenBLAS held to one
    thread for the test: a threaded product may split its sums by the
    thread count. None, and no change, where numpy bundles no
    scipy-openblas."""
    found = _scipy_openblas()
    if found is None:
        yield None
        return
    lib, suffix = found
    config, corename = (getattr(lib, f"scipy_openblas_get_{name}{suffix}")
                        for name in ("config", "corename"))
    config.restype = corename.restype = ctypes.c_char_p
    threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)()
    set_threads = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
    set_threads(1)
    try:
        yield config().decode().split()[1], corename().decode()
    finally:
        set_threads(threads)


STEER_PIN_TARGETS = [(0.04, 0.0), (-0.02, 0.03), (0.01, -0.015)]
# a line of targets through 0, and one past the certified radius
STEER_PIN_SWEEP = [(0.01 * k, -0.005 * k) for k in range(-2, 4)] + [(0.2, 0.0)]

# sha256 of steer_digest on the unit box on one BLAS thread, by OpenBLAS
# version and kernel (the SVD and the right inverse's products sum in a
# kernel's own order) and by (problem, mesh); numpy's own loops give these
# bits from its baseline to its AVX-512 dispatch.
# Mesh 512 is past the consistency proof, so its shifts run the residual
# check.
STEER_PINS = {
    ("0.3.31.188.0", "SkylakeX"): {
        ("pendulum", 16): "7728dd08b58e27ab8f69621a188b9fe24d4893343f1776465f70552b8d9fd12c",
        ("pendulum", 64): "e7e70a6fe9e9f933e05b5997c08c569034b1772c3cd9f662c75e50005bd74314",
        ("pendulum", 128): "6919b52ec780f20688b5dd7c0eb73b95c3bdcdf7d2273efd97c92afbb1730e0a",
        ("pendulum", 512): "6cb885f8f511fc4f219dc361569a1c87594f1a1c4c76e0d7317c9d837c2b3f44",
        ("double_integrator", 16): "73e05bbcd58304afa085953dc8921cfee0703de86084cf266925edbbd79959b0",
        ("double_integrator", 64): "d6c14c90f485ace85b967408ae0dfc64d446b3b4ac483a024f2107ef47591b56",
        ("double_integrator", 128): "8be5cd0670e3cdbe166e7b912f6904c1cd8f59b89766f4f19a8fd5863cafb079",
        ("double_integrator", 512): "4d7038574d82e3b8c0d70eab38ab630101401b177fdaa9502e3338d00b3bb126",
    },
    ("0.3.31.188.0", "Haswell"): {
        ("pendulum", 16): "607ec68ac7be499b389bc94628e5369a6897a74a8090a96869fe63a70b15ecc6",
        ("pendulum", 64): "94210e1315a46d48636af4e2f8012e008e0d6d00e87cdcb835511ae62d62e378",
        ("pendulum", 128): "8c74ae93a4d0ee5deb0d042cf2bd465e3acc3fb73716250eee7ae2e8760de454",
        ("pendulum", 512): "7089b89865ee2886a756c26962ef85868b7240b87241bb1f79ce77a1e168d3e2",
        ("double_integrator", 16): "7eb8d3f402396a46d8232c074715594b38812b0ebcaeccc48b972b6268a83efa",
        ("double_integrator", 64): "e66c59b7579bbe395d78bc430a0b48155bace50b05ac95b08fff7890436fe12b",
        ("double_integrator", 128): "6a52bac58c742dc9c445429580caee6802ff4dae4cc9162ae4e22c02827ff303",
        ("double_integrator", 512): "1cb0baf5c25f83b260c3222c078edad570e07318745d243a743ead4954bfb280",
    },
    ("0.3.31.188.0", "Katmai"): {  # OPENBLAS_CORETYPE=Prescott
        ("pendulum", 16): "2dc3b3e63e5272d73e94832cd581a1f3e1306854c21f20f7c2ca6ff58edd1108",
        ("pendulum", 64): "e1e12b2372cfeb82d8505f346efc23e2f4c89f994a92f2c408a50a0257f38379",
        ("pendulum", 128): "2bca20887a024ff021144f7a3a3f3b727d31604c6b2e4e80ed3c511656c3124c",
        ("pendulum", 512): "b229e1ce6577cdbfa56eb71b69f9c4a03afe7cf73e92f8e47090faf36bf8729e",
        ("double_integrator", 16): "bb0ce0894c0a3238f0dc23baa45ae9d8b26146425facddc8d51e8f31adbbc94d",
        ("double_integrator", 64): "3977661a032f7125c8e6012a4298e584faab200bd2b435e7c0c4cbda589ea474",
        ("double_integrator", 128): "4e0504a660ed7ff2a6b4a62b1a60ffd403e777d7d607a5679fe658ffd15777c7",
        ("double_integrator", 512): "e3d7fd24136df8daf80e419d44204a8e07c403f013bdb4a1efdd0a8a4acbc5ff",
    },
}


def steer_digest(p):
    """sha256 over the states, controls, increments, final residual, calm
    ratio, endpoint error and dynamics residual of steers to
    STEER_PIN_TARGETS, then over the rows of a calm_sweep of
    STEER_PIN_SWEEP (a failed row by its message) and its worst ratios."""
    setup = steering_setup(p)
    digest = hashlib.sha256()

    def feed(res):
        cert = res.certificate
        for values in (res.states, res.controls, np.array(cert.increments),
                       np.array([cert.residual, res.calm_ratio, res.endpoint_error,
                                 res.dynamics_residual])):
            digest.update(values.tobytes())

    for b in STEER_PIN_TARGETS:
        feed(steer(p, setup.sys, b, setup))
    sweep = calm_sweep(setup, STEER_PIN_SWEEP)
    for res, err in zip(sweep.results, sweep.errors):
        feed(res) if res is not None else digest.update(err.encode())
    digest.update(np.array([sweep.max_calm_ratio, sweep.max_continuity_ratio]).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("mesh", [16, 64, 128, 512])
@pytest.mark.parametrize("make", [pendulum, double_integrator])
def test_steer_outputs_keep_their_pinned_bytes(one_blas_thread, make, mesh):
    # the unit interval as a box and as halfspaces, the same bytes
    box = make(mesh=mesh)
    digest = steer_digest(box)
    assert steer_digest(replace(box, control_set=Halfspaces([[1.0], [-1.0]],
                                                             [1.0, 1.0]))) == digest
    if one_blas_thread not in STEER_PINS:
        pytest.skip(f"no steer pins recorded for OpenBLAS (version, kernel) {one_blas_thread}")
    assert digest == STEER_PINS[one_blas_thread][(make.__name__, mesh)]


def test_triangle_control_set_steers_inside():
    p = triangle_problem()
    res = steer_fresh(p, [0.03, -0.02])
    assert res.endpoint_error <= 1e-6
    assert np.all(TRIANGLE.violation(res.controls) <= control.CONTROL_MEMBERSHIP_TOL)
    assert trapezoid_residual(p.dynamics, res.states, res.controls) <= 1e-10


@pytest.mark.parametrize("make", [double_integrator, triangle_problem])
def test_steer_returns_contiguous_rows(make):
    p = make(mesh=8)
    res = steer_fresh(p, [0.02, -0.01])
    assert res.states.shape == (9, 2) and res.controls.shape == (8, p.control_dim)
    assert res.states.flags.c_contiguous and res.controls.flags.c_contiguous
    np.testing.assert_array_equal(res.states[0], 0.0)


def test_steer_refuses_a_setup_built_for_another_problem(monkeypatch):
    # the pendulum's set-up solved for the double integrator's trajectory
    # check failed that check with a misleading residual of 6.2e-4
    setup = steering_setup(pendulum(mesh=64))

    def no_solve(*args):
        raise AssertionError("solved before refusing the set-up")

    monkeypatch.setattr(control, "solve", no_solve)
    with pytest.raises(ContractError,
                       match="^steer's set-up was built for another problem$"):
        steer(double_integrator(mesh=64), setup.sys, [0.04, 0.0], setup)


def test_steer_refuses_a_system_that_is_not_its_setups_own(monkeypatch):
    # an equal linearization of the same problem is still another object:
    # the set-up's operator and schedule were built from its own
    p = double_integrator(mesh=16)
    setup = steering_setup(p)
    other = linearize(p)
    assert np.array_equal(other.a_matrix, setup.sys.a_matrix)

    def no_solve(*args):
        raise AssertionError("solved before refusing the system")

    monkeypatch.setattr(control, "solve", no_solve)
    with pytest.raises(ContractError,
                       match="^steer's system is not its set-up's own$"):
        steer(p, other, [0.04, 0.0], setup)


def test_steer_rejects_target_outside_tau():
    p = double_integrator()
    setup = steering_setup(p)
    with pytest.raises(LocalityError, match="tau"):
        steer(p, setup.sys, [1.0, 0.0], setup)


def test_steer_uncontrollable_names_the_rank():
    p = ControlProblem(dynamics=lambda x, u: np.array([x[1], 0.0 * u[0]]),
                       control_set=UNIT_BOX, state_dim=2, control_dim=1,
                       mesh_size=8)
    with pytest.raises(UncontrollableError, match="Kalman rank 0 < 2"):
        steering_setup(p)


def test_rank_deficient_linearization_fails_the_gate():
    # the interior test's direction grid reports a positive margin for this
    # segment (a symmetric box has support >= 0 in every direction), but a
    # rank-1 linearization leaves the collocation operator not onto: the
    # rank test alone decides, before any set-up work
    p = segment_problem()
    sys_ = linearize(p)
    assert kalman_rank(sys_) == (1, False)
    interior, margin = reachable_interior(sys_, p.control_set)
    assert interior and margin > 0.2
    with pytest.raises(UncontrollableError, match="Kalman rank 1 < 2"):
        steering_setup(p, sys_)


def test_steering_result_csv_shape():
    p = double_integrator(mesh=8)
    res = steer_fresh(p, [0.02, 0.0])
    lines = res.csv_lines()
    assert lines[0] == "t,x1,x2,u1"
    assert len(lines) == 10
    assert lines[-1].endswith(",")  # no control on the terminal node


# ---------------------------------------------------------------------------
# sweeps over target grids


def test_calm_sweep_trivial_grid():
    sweep = calm_sweep(steering_setup(double_integrator()), [[0.0, 0.0]])
    assert sweep.errors == [""]
    assert sweep.results[0] is not None
    assert sweep.max_calm_ratio == 0.0
    assert sweep.max_continuity_ratio == 0.0


def test_calm_sweep_records_failures_per_target():
    sweep = calm_sweep(steering_setup(double_integrator(), tau_target=0.065),
                       [[0.0, 0.0], [5.0, 0.0], [0.01, 0.0]])
    assert sweep.results[0] is not None
    assert sweep.results[1] is None
    assert sweep.results[2] is not None
    assert sweep.errors[1] != ""
    assert sweep.errors[0] == "" and sweep.errors[2] == ""


def test_calm_sweep_circle_of_targets():
    angles = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False)
    targets = [0.05 * np.array([np.cos(t), np.sin(t)]) for t in angles]
    setup = steering_setup(double_integrator())
    sweep = calm_sweep(setup, targets)
    assert all(e == "" for e in sweep.errors)
    assert sweep.max_calm_ratio <= setup.calm_bound
    assert np.isfinite(sweep.max_continuity_ratio)


def test_calm_sweep_rejects_empty_grid():
    with pytest.raises(ContractError):
        calm_sweep(steering_setup(double_integrator()), [])


# ---------------------------------------------------------------------------
# the reference integrator and convergence order


def test_simulate_trapezoidal_zero_controls():
    out = simulate_trapezoidal(double_integrator().dynamics, 2,
                               np.zeros((8, 1)))
    assert out.shape == (9, 2)
    assert np.all(out == 0.0)


def test_simulate_trapezoidal_residual_is_tiny():
    p = pendulum(mesh=16)
    rng = np.random.default_rng(1)
    controls = 0.3 * rng.standard_normal((16, 1))
    traj = simulate_trapezoidal(p.dynamics, 2, controls)
    assert trapezoid_residual(p.dynamics, traj, controls) <= 1e-12


def test_simulate_trapezoidal_reports_stalled_inner_loop():
    def stiff(x, u):
        return np.array([3.0 * x[0] + u[0]])

    with pytest.raises(NumericBreakdownError, match="settle"):
        simulate_trapezoidal(stiff, 1, np.array([[0.1]]), max_inner=1)


def test_endpoint_order_is_second():
    ratios = endpoint_order_ratios(pendulum(), [0.05])[1]
    assert np.all(ratios >= 3.5)
    assert np.all(ratios <= 4.5)


def test_endpoint_order_guards():
    with pytest.raises(ContractError, match="double"):
        endpoint_order_ratios(pendulum(), [0.05], meshes=(32, 48))
    with pytest.raises(ContractError, match="reference"):
        endpoint_order_ratios(pendulum(), [0.05], meshes=(32, 64),
                              ref_mesh=64)
