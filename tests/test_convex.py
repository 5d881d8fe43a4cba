import re
import sys
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from oracles import dykstra_loop, kkt_affine_project, support_lp
from regsel import convex
from regsel.convex import (AffineSet, Ball, Box, Halfspaces, Intersection,
                           direction_grid, dykstra, set_from_json)
from regsel.errors import ContractError, InfeasibilitySuspectedError, ShapeError
from regsel.linalg import norm, svd


def fixtures():
    """Catalogue of sets the property loops run over."""
    return [
        ("box", Box([-1.0, -1.0], [1.0, 1.0])),
        ("ball", Ball([0.5, -0.5], 2.0)),
        ("affine", AffineSet([[1.0, 1.0]], [2.0])),
        ("halfspaces", Halfspaces([[1.0, 1.0], [-1.0, 2.0], [0.0, -1.0]],
                                  [2.0, 3.0, 1.0])),
        ("intersection", Intersection([AffineSet([[1.0, 1.0]], [2.0]),
                                       Box([0.0, 0.0], [0.5, 5.0])])),
    ]


# The sets of fixtures(), written out by hand as problem files spell them.
FIXTURE_JSON = {
    "box": {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    "ball": {"type": "ball", "center": [0.5, -0.5], "radius": 2.0},
    "affine": {"type": "affine", "matrix": [[1.0, 1.0]], "rhs": [2.0]},
    "halfspaces": {"type": "halfspaces",
                   "normals": [[1.0, 1.0], [-1.0, 2.0], [0.0, -1.0]],
                   "offsets": [2.0, 3.0, 1.0]},
    "intersection": {"type": "intersection", "members": [
        {"type": "affine", "matrix": [[1.0, 1.0]], "rhs": [2.0]},
        {"type": "box", "lower": [0.0, 0.0], "upper": [0.5, 5.0]}]},
}


def slsqp_project(s, x):
    """Independent nearest-point oracle via constrained minimization."""
    cons = []

    def add(member):
        if isinstance(member, AffineSet):
            cons.append({"type": "eq",
                         "fun": lambda z, m=member: m.op @ z - m.rhs})
        elif isinstance(member, Box):
            cons.append({"type": "ineq", "fun": lambda z, m=member: z - m.lower})
            cons.append({"type": "ineq", "fun": lambda z, m=member: m.upper - z})
        elif isinstance(member, Ball):
            cons.append({"type": "ineq",
                         "fun": lambda z, m=member:
                         m.radius ** 2 - np.sum((z - m.center) ** 2)})
        elif isinstance(member, Halfspaces):
            cons.append({"type": "ineq",
                         "fun": lambda z, m=member: m.offsets - m.normals @ z})
        elif isinstance(member, Intersection):
            for sub in member.members:
                add(sub)
        else:
            raise AssertionError(f"no oracle for {type(member)}")

    add(s)
    res = minimize(lambda z: np.sum((z - x) ** 2), x0=np.asarray(x, float),
                   constraints=cons, method="SLSQP",
                   options={"ftol": 1e-14, "maxiter": 500})
    # SLSQP sometimes reports "iteration limit" while the returned point is
    # already accurate, so the result is used as a bound rather than trusted
    # blindly: callers check feasibility plus one-sided optimality.
    return res.x


def feasible(s, x, tol):
    """Membership by a rule that does not call ``s.project``: the normalized
    row excess for ``Halfspaces`` (whose distance projects a point outside),
    the distance or worst member distance for the other sets."""
    if isinstance(s, Halfspaces):
        return bool(s.violation(np.asarray(x, float)[None, :])[0] <= tol)
    return s.gap(x) <= tol


# ---------------------------------------------------------------------------
# membership


def test_contains_box_interior():
    assert Box([-1.0, -1.0], [1.0, 1.0]).gap([0.0, 0.0]) <= 1e-9


def test_contains_affine_exact_solution():
    assert AffineSet([[1.0, 1.0]], [2.0]).gap([1.0, 1.0]) <= 1e-9


def test_contains_ball_outside_by_a_milli():
    assert not Ball([0.0, 0.0], 1.0).gap([1.001, 0.0]) <= 1e-9


# ---------------------------------------------------------------------------
# projection examples


def test_project_box_clamps():
    np.testing.assert_allclose(
        Box([-1.0, -1.0], [1.0, 1.0]).project([2.0, 0.0]), [1.0, 0.0])


def test_project_affine_symmetry():
    np.testing.assert_allclose(
        AffineSet([[1.0, 1.0]], [0.0]).project([1.0, 1.0]), [0.0, 0.0],
        atol=1e-12)


def test_project_intersection_clipped_segment():
    # nearest point of {x1+x2=2} cap [0,0.5]x[0,5] to the origin; on the
    # segment x = (t, 2-t), t in [0, 0.5], t = 0.5 minimizes t^2 + (2-t)^2
    s = Intersection([AffineSet([[1.0, 1.0]], [2.0]),
                      Box([0.0, 0.0], [0.5, 5.0])])
    got = s.project([0.0, 0.0])
    ts = np.linspace(0.0, 0.5, 20001)
    dist2 = ts ** 2 + (2.0 - ts) ** 2
    t_star = ts[np.argmin(dist2)]
    np.testing.assert_allclose(got, [t_star, 2.0 - t_star], atol=1e-4)
    np.testing.assert_allclose(got, [0.5, 1.5], atol=1e-8)


def test_project_ball_radius_zero_is_singleton():
    s = Ball([0.3, -0.2], 0.0)
    np.testing.assert_allclose(s.project([5.0, 5.0]), [0.3, -0.2])


def test_affine_rejects_inconsistent_system():
    with pytest.raises(ContractError):
        AffineSet([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0])


@pytest.mark.parametrize("op, surjective", [
    ([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]], True),
    ([[1.0, 0.0, 2.0], [2.0, 0.0, 4.0]], False),
])
def test_affine_set_carries_its_operator_constants(op, surjective):
    fibre = AffineSet(op, np.zeros(2))
    assert fibre.surjective is surjective
    fac = svd(op)
    assert (fibre.sigma_max, fibre.sigma_min) == (fac.s[0], fac.sigma_min)
    moved = fibre.shifted(np.asarray(op) @ np.ones(3))
    assert ((moved.sigma_max, moved.sigma_min, moved.surjective)
            == (fibre.sigma_max, fibre.sigma_min, surjective))
    assert moved.right_inverse is fibre.right_inverse


@pytest.mark.parametrize("op, rhs", [
    ([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]], [0.4, -1.1]),
    # rank one: the second row repeats the first
    ([[1.0, 0.0, 2.0], [2.0, 0.0, 4.0]], [0.7, 1.4]),
])
def test_shifted_fibre_matches_fresh_construction(op, rhs):
    family = AffineSet(op, np.zeros(len(rhs)))
    moved, fresh = family.shifted(rhs), AffineSet(op, rhs)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(3)
        np.testing.assert_allclose(moved.project(x), fresh.project(x), atol=1e-14)
        assert moved.distance(x) == pytest.approx(fresh.distance(x), abs=1e-14)
    # the family's own right-hand side is untouched by the shift
    np.testing.assert_array_equal(family.rhs, np.zeros(len(rhs)))


def test_shifted_fibre_rejects_inconsistent_rhs():
    family = AffineSet([[1.0, 0.0], [1.0, 0.0]], [0.0, 0.0])
    with pytest.raises(ContractError, match="inconsistent"):
        family.shifted([0.0, 1.0])


# ---------------------------------------------------------------------------
# factorization cache


def _count_svds(monkeypatch):
    calls = []
    svd_np = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd_np(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.mark.parametrize("op, rhs", [
    ([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]], [0.4, -1.1]),  # wide
    ([[2.0, 0.3], [-0.7, 1.5]], [0.2, 0.9]),  # square
    ([[1.0, 0.0, 2.0], [2.0, 0.0, 4.0]], [0.7, 1.4]),  # rank one
])
def test_cached_factors_equal_a_fresh_factorization(cold_factor_cache, monkeypatch,
                                                   op, rhs):
    want = convex._factor(np.array(op))
    calls = _count_svds(monkeypatch)
    cold = AffineSet(op, rhs)
    warm = AffineSet(np.array(op), np.zeros(len(rhs))).shifted(rhs)
    assert len(calls) == 1
    with monkeypatch.context() as m:
        # a stand-in cache that keeps nothing: a fresh factorization
        m.setattr(convex, "_cached_factors",
                  lru_cache(maxsize=0)(cold_factor_cache.__wrapped__))
        fresh = AffineSet(op, rhs)
    rng = np.random.default_rng(5)
    points = rng.standard_normal((6, len(op[0])))
    for s in (cold, warm):
        assert s.right_inverse.tobytes() == want[0].tobytes()
        assert (s.sigma_max, s.sigma_min, s.surjective) == want[1:]
        for x in points:
            assert s.project(x).tobytes() == fresh.project(x).tobytes()
            assert s.distance(x) == fresh.distance(x)


def test_equal_operators_share_one_factorization(cold_factor_cache, monkeypatch):
    op = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])
    calls = _count_svds(monkeypatch)
    # the key is the operator's shape and C-order bytes, not the array
    sets = [AffineSet(op, [0.0, 0.0]), AffineSet(op.copy(), [1.0, 2.0]),
            AffineSet(op.tolist(), [0.0, 1.0]),
            AffineSet(np.asfortranarray(op), [3.0, 0.0])]
    assert calls == [(2, 3)]
    assert all(s.right_inverse is sets[0].right_inverse for s in sets)
    # the same entries in another shape are another operator
    AffineSet(op.reshape(3, 2), [0.0, 0.0, 0.0])
    assert calls == [(2, 3), (3, 2)]


def test_operator_changed_in_place_is_factored_again(cold_factor_cache, monkeypatch):
    op = np.array([[1.0, 2.0], [0.0, 1.0]])
    calls = _count_svds(monkeypatch)
    before = AffineSet(op, [1.0, 1.0])
    op[0, 1] = -3.0
    after = AffineSet(op, [1.0, 1.0])
    assert len(calls) == 2
    want = svd(op).right_inverse()
    assert after.right_inverse.tobytes() == want.tobytes()
    assert after.right_inverse.tobytes() != before.right_inverse.tobytes()
    np.testing.assert_allclose(op @ after.project([0.3, -2.0]), [1.0, 1.0], atol=1e-14)


def test_cached_right_inverse_is_read_only(cold_factor_cache):
    fibre = AffineSet([[1.0, 1.0]], [2.0])
    with pytest.raises(ValueError, match="read-only"):
        fibre.right_inverse[0, 0] = 7.0
    again = AffineSet([[1.0, 1.0]], [0.0])
    want = svd([[1.0, 1.0]]).right_inverse()
    assert again.right_inverse.tobytes() == want.tobytes()


def test_operator_over_the_bound_is_factored_every_time(cold_factor_cache,
                                                      monkeypatch):
    bound = convex.CACHED_OP_ENTRIES
    over = np.arange(1.0, bound + 2.0).reshape(5, 13)
    at = np.arange(1.0, bound + 1.0).reshape(4, 16)
    assert over.size == bound + 1 and at.size == bound
    want = convex._factor(over)[0].tobytes()
    calls = _count_svds(monkeypatch)
    sets = [AffineSet(over, np.zeros(5)) for _ in range(3)]
    assert len(calls) == 3
    assert cold_factor_cache.cache_info().currsize == 0
    assert all(s.right_inverse.tobytes() == want for s in sets)
    # an operator at the bound is held
    for _ in range(3):
        AffineSet(at, np.zeros(4))
    assert len(calls) == 4
    assert cold_factor_cache.cache_info().currsize == 1
    # a mesh-128 collocation operator is over the bound
    assert 258 * 384 > bound


def test_cache_evicts_its_least_recently_used_operator(cold_factor_cache,
                                                       monkeypatch):
    held = cold_factor_cache.cache_info().maxsize
    ops = [[[1.0, float(k)]] for k in range(held + 1)]
    for op in ops[:held]:
        AffineSet(op, [1.0])
    AffineSet(ops[0], [0.0])  # the first operator is used again
    calls = _count_svds(monkeypatch)
    AffineSet(ops[held], [0.0])  # full: evicts ops[1], not ops[0]
    AffineSet(ops[0], [0.0])
    assert calls == [(1, 2)]
    AffineSet(ops[1], [0.0])
    assert calls == [(1, 2)] * 2
    assert cold_factor_cache.cache_info().currsize == held


def test_cache_factors_each_operator_of_round_robin_traffic_once(
        cold_factor_cache, monkeypatch):
    # the benchmark's solve traffic: a few dozen small operators, each
    # rebuilt for every query
    rng = np.random.default_rng(3)
    ops = [rng.standard_normal((3, 5)) for _ in range(64)]
    calls = _count_svds(monkeypatch)
    for _ in range(3):
        for op in ops:
            AffineSet(op, np.zeros(3))
    assert len(calls) == 64
    info = cold_factor_cache.cache_info()
    assert (info.misses, info.hits, info.currsize) == (64, 128, 64)


def test_inconsistent_rhs_raises_on_a_cache_hit(cold_factor_cache, monkeypatch):
    op = [[1.0, 0.0], [1.0, 0.0]]
    AffineSet(op, [1.0, 1.0])
    calls = _count_svds(monkeypatch)
    with pytest.raises(ContractError, match="inconsistent"):
        AffineSet(op, [0.0, 1.0])
    assert calls == []


# 6 and 64 entries are cached (svd tests the bytes of a miss), 65 are not
@pytest.mark.parametrize("shape", [(2, 3), (8, 8), (5, 13)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_operator_is_refused_and_not_cached(cold_factor_cache,
                                                         shape, bad):
    AffineSet([[1.0, 2.0]], [1.0])
    held = cold_factor_cache.cache_info().currsize
    rng = np.random.default_rng(shape[1])
    twin = rng.standard_normal(shape)
    for entry in [(0, 0), (shape[0] - 1, shape[1] - 1)]:
        op = twin.copy()
        op[entry] = bad
        # twice: a refused operator leaves nothing in the cache to hit
        for _ in range(2):
            with pytest.raises(ShapeError, match="matrix has non-finite entries"):
                AffineSet(op, np.zeros(shape[0]))
            assert cold_factor_cache.cache_info().currsize == held
    fibre = AffineSet(twin, twin @ np.ones(shape[1]))
    assert fibre.right_inverse.tobytes() == convex._factor(twin)[0].tobytes()
    np.testing.assert_allclose(twin @ fibre.project(np.zeros(shape[1])),
                               fibre.rhs, atol=1e-12)


def test_cache_keeps_its_count_under_threads(cold_factor_cache):
    # more threads than cores, a short switch interval and more operators
    # than the cache holds, so inserts and evictions race
    held = cold_factor_cache.cache_info().maxsize
    rng = np.random.default_rng(11)
    ops = [rng.standard_normal((2, 3)) for _ in range(held + 88)]
    want = [convex._factor(op)[0].tobytes() for op in ops]
    errors = []

    def work(seed):
        order = np.random.default_rng(seed).integers(0, len(ops), size=400)
        try:
            for k in order:
                got = AffineSet(ops[k], np.zeros(2)).right_inverse.tobytes()
                if got != want[k]:
                    errors.append(k)
        except Exception as exc:  # reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert cold_factor_cache.cache_info().currsize <= held


# ---------------------------------------------------------------------------
# bit pins of the corrector step's kernels


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _vector_views(v):
    """v contiguous, one float off its buffer's start, and strided."""
    shifted = np.empty(v.size + 1)
    shifted[1:] = v
    wide = np.zeros(2 * v.size)
    wide[::2] = v
    return [v, shifted[1:], wide[::2]]


@pytest.mark.parametrize("shape", [(m, n) for m in range(1, 4) for n in range(m, 6)]
                         + [(258, 384)])
@pytest.mark.parametrize("order", ["C", "F", "strided"])
def test_affine_products_keep_the_bits_of_matmul(monkeypatch, shape, order):
    # AffineSet takes its products with ndarray.dot; these are the `@`
    # expressions it had, on operators in C and in Fortran order. An
    # operator view in neither order may be multiplied by dot as a C-order
    # copy while `@` loops over the view itself, so it gets the bits of one
    # of the two, which may differ in the last bit: that is intended.
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    if order == "strided":
        op = rng.standard_normal((shape[0], 2 * shape[1]))[:, ::2]
        operators = [op, np.ascontiguousarray(op)]
    else:
        op = np.array(rng.standard_normal(shape), order=order)
        operators = [op]
    inverse = convex._factor(op)[0]
    residuals = []
    monkeypatch.setattr(convex, "norm",
                        lambda v: residuals.append(v.copy()) or norm(v))
    for rhs in _vector_views(op @ rng.standard_normal(shape[1])):
        residuals.clear()
        fibre = AffineSet(op, rhs)
        assert residuals[0].tobytes() in {(a @ (inverse @ rhs) - rhs).tobytes()
                                          for a in operators}
        for x in _vector_views(3.0 * rng.standard_normal(shape[1])):
            got = fibre.project(x).tobytes()
            offsets = [inverse @ (a @ x - rhs) for a in operators]
            offset = next(o for o in offsets if (x - o).tobytes() == got)
            assert _bits(fibre.distance(x)) == _bits(norm(offset))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 17, 33])
def test_box_distance_keeps_the_bits_of_a_lone_violation_row(dim):
    rng = np.random.default_rng(dim)
    for _ in range(40):
        lower = -rng.uniform(0.1, 2.0, dim)
        upper = rng.uniform(0.1, 2.0, dim)
        lower[rng.random(dim) < 0.3] = -np.inf
        upper[rng.random(dim) < 0.3] = np.inf
        box = Box(lower, upper)
        for x in _vector_views(10.0 * rng.standard_normal(dim)):
            assert _bits(box.distance(x)) == _bits(box.violation(x[None, :])[0])
    assert Box(lower, upper).distance(np.clip(x, lower, upper)) == 0.0


def test_box_rejects_crossed_bounds():
    with pytest.raises(ContractError):
        Box([1.0], [0.0])


# ---------------------------------------------------------------------------
# support functions


def test_support_box_axis():
    assert Box([-1.0, -1.0], [1.0, 1.0]).support([[1.0, 0.0]])[0] == pytest.approx(1.0)


def test_support_box_diagonal_vertex_oracle():
    s = Box([-1.0, -1.0], [1.0, 1.0])
    d = np.array([1.0, 1.0])
    corners = np.array([[sx, sy] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)])
    assert s.support(d[None, :])[0] == pytest.approx(float(np.max(corners @ d)))
    assert s.support(d[None, :])[0] == pytest.approx(2.0)


def test_box_with_free_coordinates():
    s = Box([-np.inf, -1.0], [np.inf, 2.0])
    np.testing.assert_array_equal(s.project([5.0, 3.0]), [5.0, 2.0])
    assert s.distance([-7.0, -2.0]) == 1.0
    assert s.support([[0.0, 1.0], [1.0, 0.0]]).tolist() == [2.0, np.inf]
    with pytest.raises(ContractError, match="empty coordinate"):
        Box([np.inf, 0.0], [np.inf, 1.0])
    with pytest.raises(ShapeError):
        Box([np.nan], [1.0])


def test_support_halfspaces_lp_matches_box():
    box = Box([-1.0, -2.0], [3.0, 0.5])
    poly = Halfspaces([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                      [3.0, 1.0, 0.5, 2.0])
    dirs = np.random.default_rng(4).standard_normal((8, 2))
    assert poly.support(dirs) == pytest.approx(box.support(dirs), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["box", "halfspaces"]), st.integers(0, 10 ** 6))
def test_support_is_sublinear(name, seed):
    s = dict(fixtures())[name]
    rng = np.random.default_rng(seed)
    d1 = rng.standard_normal(2)
    d2 = rng.standard_normal(2)
    v1, v2, v12 = s.support(np.array([d1, d2, d1 + d2]))
    if np.isinf(v1) or np.isinf(v2):
        return
    assert v12 <= v1 + v2 + 1e-9


# ---------------------------------------------------------------------------
# projection properties (idempotent, nonexpansive, feasible, KKT agreement)


@pytest.mark.parametrize("name,s", fixtures())
def test_projection_properties_bulk(name, s):
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    pairs = 1000 if name in ("box", "ball", "affine") else 250
    for _ in range(pairs):
        x = 3.0 * rng.standard_normal(2)
        xp = 3.0 * rng.standard_normal(2)
        px, pxp = s.project(x), s.project(xp)
        assert np.linalg.norm(px - pxp) <= np.linalg.norm(x - xp) + 1e-9
        assert np.linalg.norm(s.project(px) - px) <= 1e-9
        assert feasible(s, px, 1e-7)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_affine_projection_matches_kkt_closed_form(seed):
    rng = np.random.default_rng(seed)
    op = rng.standard_normal((2, 4))
    rhs = rng.standard_normal(2)
    s = AffineSet(op, rhs)
    x = 2.0 * rng.standard_normal(4)
    np.testing.assert_allclose(s.project(x), kkt_affine_project(op, rhs, x),
                               atol=1e-9)


@pytest.mark.parametrize("name,s", fixtures())
def test_projection_matches_slsqp_oracle(name, s):
    rng = np.random.default_rng(99)
    for _ in range(5):
        x = 2.5 * rng.standard_normal(2)
        p = s.project(x)
        q = slsqp_project(s, x)
        assert feasible(s, p, 1e-7)
        # one-sided optimality: never beaten by the independent minimizer
        assert np.linalg.norm(p - x) <= np.linalg.norm(q - x) + 1e-6


def test_dykstra_finds_metric_projection_not_just_feasibility():
    # order the members so plain alternating projections would stop at a
    # feasible point; dykstra must still return the nearest one
    members = [AffineSet([[1.0, 1.0]], [2.0]), Box([0.0, 0.0], [0.5, 5.0])]
    x = np.array([0.0, 0.0])
    got, _ = dykstra(members, x)
    np.testing.assert_allclose(got, [0.5, 1.5], atol=1e-8)
    got_rev, _ = dykstra(members[::-1], x)
    np.testing.assert_allclose(got_rev, [0.5, 1.5], atol=1e-8)


class CountingMember(convex.ConvexSet):
    """A member whose projections dykstra makes are counted; ``distance``
    goes to the wrapped set untouched (a general Halfspaces system answers
    it from its rows, or with a projection of its own for a point outside:
    a membership test and not a step)."""

    def __init__(self, inner):
        self.inner, self.dim, self.calls = inner, inner.dim, 0

    def project(self, x):
        self.calls += 1
        return self.inner.project(x)

    def distance(self, x):
        return self.inner.distance(x)


def affine_case(seed):
    """A 2x4 fibre, a start off it and the start's projection onto it."""
    rng = np.random.default_rng(seed)
    fibre = AffineSet(rng.standard_normal((2, 4)), rng.standard_normal(2))
    start = 3.0 * rng.standard_normal(4)
    return fibre, start, fibre.project(start), rng


@pytest.mark.parametrize("kind", ["box", "ball", "halfspaces"])
@pytest.mark.parametrize("seed", range(5))
def test_an_inactive_constraint_costs_one_projection(kind, seed):
    fibre, start, proj, rng = affine_case(seed)
    normals = rng.standard_normal((3, 4))
    constraint = {"box": Box(proj - 1.0, proj + 1.0),
                  "ball": Ball(proj + 0.1, 1.0),
                  "halfspaces": Halfspaces(normals, normals @ proj + 0.5)}[kind]
    members = [CountingMember(fibre), CountingMember(constraint)]
    got, gap = dykstra(members, start)
    assert [m.calls for m in members] == [1, 0]
    assert got.tobytes() == proj.tobytes() and gap is None
    # The reference's second round adds rounding of the start's size: a
    # coordinate much smaller than the start can be 32 ulps of itself off
    # (the box at seed 382); 4 ulps of the start's largest coordinate held
    # on 1,200 draws of these three cases.
    ref = dykstra_loop([fibre, constraint], start)
    assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.max(np.abs(start))))


def test_an_active_or_inexact_constraint_runs_the_reference_rounds():
    fibre, start, proj, _ = affine_case(11)
    cut = proj + [-0.5, 1.0, 1.0, 1.0]
    missed = proj.copy()
    missed[0] -= 1e-12
    for upper in (cut, missed):
        # the box cuts the fibre's nearest point off, by 0.5 or by 1e-12
        box = Box(proj - 1.0, upper)
        members = [CountingMember(fibre), CountingMember(box)]
        got, gap = dykstra(members, start)
        assert got.tobytes() == dykstra_loop([fibre, box], start).tobytes()
        assert members[0].calls == members[1].calls > 1
        assert _bits(gap) == _bits(Intersection([fibre, box]).gap(got))
        assert got[0] <= upper[0] < proj[0]
    # a start already in the intersection
    box = Box(proj - 1.0, proj + 1.0)
    assert dykstra([fibre, box], proj)[0].tobytes() == \
        dykstra_loop([fibre, box], proj).tobytes()


def test_disjoint_members_fail_as_the_reference_does(monkeypatch):
    monkeypatch.setattr(convex, "DYKSTRA_MAX_ROUNDS", 25)
    members = [AffineSet([[1.0, 1.0]], [5.0]), Box([0.0, 0.0], [1.0, 1.0])]
    for order in (members, members[::-1]):
        with pytest.raises(InfeasibilitySuspectedError) as got:
            dykstra(order, [3.0, -1.0])
        with pytest.raises(InfeasibilitySuspectedError) as ref:
            dykstra_loop(order, [3.0, -1.0])
        assert str(got.value) == str(ref.value)
        assert "did not settle in 25 rounds" in str(got.value)
        assert got.value.gap == ref.value.gap > 0.0


def test_a_single_member_intersection_is_its_member_projection():
    box = Box([-1.0, 0.0], [1.0, 2.0])
    counted = CountingMember(box)
    x = np.array([3.0, -0.5])
    assert Intersection([counted]).project(x).tobytes() == box.project(x).tobytes()
    assert counted.calls == 1
    np.testing.assert_allclose(dykstra([box], x)[0], dykstra_loop([box], x),
                               rtol=0, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(2, 5), st.integers(0, 10 ** 6))
@example(1, 2, 203835)
def test_affine_box_projection_agrees_with_the_reference(rows, cols, seed):
    rng = np.random.default_rng(seed)
    op = rng.standard_normal((rows, cols))
    # a point of the fibre inside the box keeps the intersection nonempty;
    # half-widths from 1e-3 to 10 make the box active on some draws
    inside = rng.standard_normal(cols)
    half = 10.0 ** rng.uniform(-3.0, 1.0, cols)
    members = [AffineSet(op, op @ inside),
               Box(inside - half * rng.uniform(0.0, 1.0, cols),
                   inside + half * rng.uniform(0.0, 1.0, cols))]
    x = 3.0 * rng.standard_normal(cols)
    try:
        ref = dykstra_loop(members, x)
    except InfeasibilitySuspectedError as exc:
        # The round budget can run out on a nonempty intersection whose
        # members meet at a small angle (the pinned example: a line almost
        # parallel to a box 6.8e-4 wide). The exit cannot be taken there,
        # or the reference would settle in two rounds, so the change fails
        # with the same message and gap.
        with pytest.raises(InfeasibilitySuspectedError) as got:
            dykstra(members, x)
        assert (str(got.value), got.value.gap) == (str(exc), exc.gap)
        return
    got, _ = dykstra(members, x)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    assert Intersection(members).gap(got) <= 1e-9


# ---------------------------------------------------------------------------
# direction grids


def test_direction_grid_requires_two_per_axis():
    with pytest.raises(ContractError):
        direction_grid(3, 5)
    grid = direction_grid(2, 9, seed=5)
    assert grid.shape == (9, 2)
    np.testing.assert_allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(grid, direction_grid(2, 9, seed=5))


def test_direction_grid_refuses_a_negative_seed():
    with pytest.raises(ContractError, match="seed must be nonnegative, got -1"):
        direction_grid(2, 16, seed=-1)


# ---------------------------------------------------------------------------
# halfspace details


def test_halfspaces_axis_aligned_matches_general_path():
    axis = Halfspaces([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]], [1.0, 1.0, 3.0])
    tilted = Halfspaces([[1.0, 1e-12], [-1.0, 0.0], [0.0, 2.0]],
                        [1.0, 1.0, 3.0])
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = 4.0 * rng.standard_normal(2)
        np.testing.assert_allclose(axis.project(x), tilted.project(x),
                                   atol=1e-7)


def test_axis_aligned_halfspaces_support_is_the_box_support():
    # x <= 0.5, x >= -0.5, y >= -0.5 with y free above
    half = Halfspaces([[2.0, 0.0], [0.0, -1.0], [-3.0, 0.0]], [1.0, 0.5, 1.5])
    box = Box([-0.5, -0.5], [0.5, np.inf])
    d = np.vstack([np.eye(2), -np.eye(2),
                   np.random.default_rng(4).standard_normal((40, 2))])
    got = half.support(d)
    assert got.tobytes() == box.support(d).tobytes()
    assert got[1] == np.inf and got[3] == 0.5


def random_polytope(rng, dim: int, rows: int) -> Halfspaces:
    """A bounded, nonempty polytope: rows - 1 >= dim random normals and,
    as the last row, minus a positive combination of them, so the normals
    positively span (no d != 0 with normals @ d <= 0); the offsets put a
    random centre inside."""
    normals = rng.standard_normal((rows - 1, dim))
    normals = np.vstack([normals, -rng.uniform(0.1, 1.0, rows - 1) @ normals])
    centre = rng.standard_normal(dim)
    return Halfspaces(normals, normals @ centre + rng.uniform(0.1, 2.0, rows))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(0, 5), st.integers(0, 10 ** 6))
def test_vertex_support_matches_the_lp(dim, extra, seed):
    rng = np.random.default_rng(seed)
    poly = random_polytope(rng, dim, min(8, dim + 1 + extra))
    directions = rng.standard_normal((6, dim))
    for got, d in zip(poly.support(directions), directions):
        want = support_lp(poly, d)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def recession_direction_named(exc) -> np.ndarray:
    return np.array([float(v) for v in re.search(
        r"direction \[([^\]]*)\]", str(exc.value)).group(1).split(",")])


@pytest.mark.parametrize("normals, offsets", [
    # nonempty (it holds 0) and unbounded in R^3: 4 rows that do not
    # positively span
    ([[0.9737736192884713, 1.0121394561996544, 1.6394168320140663],
      [-0.7345404675412041, -0.1878214805116942, -0.37222757090140723],
      [-0.5097499981351498, 0.5384100252314712, 0.676328386958752],
      [-0.15036554748527867, 0.10575080137124572, 1.192499289624071]],
     [1.7885432250481188, 0.9402808144317926, 0.8126172266109374,
      0.4164766272751579]),
    # a slab: normals of rank 1 < 2, unbounded along their null space
    ([[1.0, 1.0], [-1.0, -1.0]], [1.0, 1.0]),
    # a wedge around the diagonal
    ([[-1.0, 0.5], [0.5, -1.0]], [1.0, 1.0]),
], ids=["recession-ray", "slab", "wedge"])
def test_support_refuses_an_unbounded_system_naming_a_recession_direction(
        normals, offsets):
    poly = Halfspaces(normals, offsets)
    with pytest.raises(ContractError, match="unbounded along the direction") as exc:
        poly.support(np.eye(poly.dim))
    d = recession_direction_named(exc)
    assert abs(np.linalg.norm(d) - 1.0) < 1e-9
    unit = poly.normals / np.linalg.norm(poly.normals, axis=1)[:, None]
    assert np.all(unit @ d <= 1e-9)
    # the LP oracle agrees: unbounded along the named direction
    assert support_lp(poly, d) == np.inf


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 7), st.integers(0, 10 ** 6))
def test_an_unbounded_polytope_is_refused_along_a_recession_direction(
        dim, rows, seed):
    # every normal makes an obtuse angle with a random direction d0, so d0
    # is a recession direction; 0 lies inside
    rng = np.random.default_rng(seed)
    d0 = rng.standard_normal(dim)
    normals = rng.standard_normal((rows, dim))
    normals -= np.outer(normals @ d0 / (d0 @ d0) + rng.uniform(0.01, 1.0, rows), d0)
    poly = Halfspaces(normals, rng.uniform(0.1, 2.0, rows))
    if poly._box is not None:  # an axis-aligned draw: its box answers
        return
    with pytest.raises(ContractError, match="unbounded along the direction") as exc:
        poly.support(np.eye(dim))
    d = recession_direction_named(exc)
    unit = normals / np.linalg.norm(normals, axis=1)[:, None]
    assert np.all(unit @ d <= 1e-9)


def test_support_refuses_an_empty_bounded_system():
    # x + y <= -1 with x, y >= 0 written as tilted rows: no vertex
    empty = Halfspaces([[1.0, 1.0], [-1.0, 0.1], [0.1, -1.0]], [-1.0, 0.0, 0.0])
    with pytest.raises(ContractError, match="^halfspace system is empty$"):
        empty.support([[1.0, 0.0]])


def test_vertex_enumeration_is_capped(monkeypatch):
    # a hexagon: 15 subsets of 2 rows, 6 of 1, each 2 x 2 = 4 entries
    angles = 0.1 + np.arange(6) * np.pi / 3
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    monkeypatch.setattr(convex, "MAX_SUBSET_ENTRIES", 15 * 4 - 1)
    with pytest.raises(ContractError,
                       match="has 15 subsets of 2 rows; at most 14 are enumerated"):
        Halfspaces(normals, np.ones(6)).support([[1.0, 0.0]])
    monkeypatch.setattr(convex, "MAX_SUBSET_ENTRIES", 15 * 4)
    got = Halfspaces(normals, np.ones(6)).support([[1.0, 0.0]])[0]
    assert abs(got - support_lp(Halfspaces(normals, np.ones(6)), [1.0, 0.0])) < 1e-12


def test_halfspace_projection_builds_its_rows_once(monkeypatch):
    poly = random_polytope(np.random.default_rng(5), 3, 6)
    built = []
    original = convex._SingleHalfspace.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(convex._SingleHalfspace, "__init__", counting)
    rows = [convex._SingleHalfspace(n, c)
            for n, c in zip(poly.normals, poly.offsets)]
    built.clear()
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = 3.0 * rng.standard_normal(3)
        assert poly.project(x).tobytes() == dykstra(rows, x)[0].tobytes()
    assert built == []


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("order", ["C", "F"])
def test_halfspace_membership_from_one_product_is_the_rows_verdict(
        monkeypatch, dim, order):
    # Points on a face (its row's excess is exactly 0) and one ulp off it in
    # each coordinate. The distance answers 0.0 without a row projection
    # exactly when every row's own rule, n_i . x - c_i <= 0 on dykstra's
    # copy of x, holds, and always has the bits of the projection's distance.
    rng = np.random.default_rng(dim)
    projections = []
    original = convex._SingleHalfspace.project
    monkeypatch.setattr(convex._SingleHalfspace, "project",
                        lambda self, x: projections.append(1) or original(self, x))
    verdicts = []
    for _ in range(30):
        normals = np.array(rng.standard_normal((dim + 3, dim)), order=order)
        face = rng.standard_normal(dim)
        margins = np.concatenate([[0.0], rng.uniform(0.1, 1.0, dim + 2)])
        poly = Halfspaces(normals, [n @ face for n in normals] + margins)
        points = [face]
        for k in range(dim):
            for toward in (-np.inf, np.inf):
                off = face.copy()
                off[k] = np.nextafter(off[k], toward)
                points.append(off)
        for point in points:
            for x in _vector_views(point):
                inside = all(r.normal @ np.array(x) - r.offset <= 0 for r in poly._rows)
                projections.clear()
                got = poly.distance(x)
                assert (projections == []) == inside
                # the base class's distance: the norm to the projection
                assert _bits(got) == _bits(convex.ConvexSet._distance(poly, np.asarray(x)))
                verdicts.append(inside)
    assert 0 < sum(verdicts) < len(verdicts)


def test_halfspaces_rejects_zero_row():
    with pytest.raises(ContractError):
        Halfspaces([[0.0, 0.0]], [1.0])


def test_intersection_rejects_dimension_mismatch():
    with pytest.raises(ShapeError):
        Intersection([Box([0.0], [1.0]), Box([0.0, 0.0], [1.0, 1.0])])


def test_intersection_gap_is_worst_member_distance():
    s = Intersection([Box([0.0, 0.0], [1.0, 1.0]),
                      AffineSet([[1.0, 0.0]], [3.0])])
    assert s.gap([0.5, 0.5]) == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# JSON encoding


@pytest.mark.parametrize("name,s", fixtures())
def test_json_round_trip(name, s):
    clone = set_from_json(FIXTURE_JSON[name])
    assert type(clone) is type(s)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = 2.0 * rng.standard_normal(2)
        np.testing.assert_allclose(clone.project(x), s.project(x), atol=1e-9)


def test_gap_is_the_distance_except_for_intersections():
    rng = np.random.default_rng(9)
    for name, s in fixtures():
        for _ in range(5):
            x = 3.0 * rng.standard_normal(2)
            if name == "intersection":
                assert s.gap(x) == max(m.distance(x) for m in s.members)
            else:
                assert s.gap(x) == s.distance(x)


def test_project_gap_is_the_projection_and_its_gap(monkeypatch):
    # Every set of the catalogue, an axis-aligned halfspace system, and
    # intersections through dykstra's exact exit (an inactive box), through
    # its rounds (an active box, either member first), and with one member,
    # whose exit measures nothing: project_gap gives project, then gap of
    # the projection, bit for bit, on contiguous, shifted and strided views.
    exits = []
    original = convex.dykstra

    def recording(sets, start):
        z, gap = original(sets, start)
        exits.append((len(sets), gap is None))
        return z, gap

    monkeypatch.setattr(convex, "dykstra", recording)
    fibre, _, proj, _ = affine_case(11)
    cut = Box(proj - 1.0, proj + [-0.5, 1.0, 1.0, 1.0])
    sets = [s for _, s in fixtures()] + [
        Halfspaces([[1.0, 0.0], [0.0, -2.0]], [1.0, 0.5]),
        Intersection([fibre, Box(proj - 1.0, proj + 1.0)]),
        Intersection([fibre, cut]), Intersection([cut, fibre]),
        Intersection([fibre]), Intersection([Box([-1.0, 0.0], [1.0, 2.0])])]
    rng = np.random.default_rng(12)
    for s in sets:
        for _ in range(5):
            # near the fibre's projection, so the wide box holds it
            x = (proj if s.dim == 4 else 0.0) + 0.3 * rng.standard_normal(s.dim)
            for v in _vector_views(x):
                z, gap = s.project_gap(v)
                want = s.project(v)
                assert z.tobytes() == want.tobytes()
                assert _bits(gap) == _bits(s.gap(want))
    # (members, exact exit) of the dykstra calls
    assert {(2, True), (2, False), (1, True)} <= set(exits)


def test_set_from_json_rejects_unknown_type():
    with pytest.raises(ContractError):
        set_from_json({"type": "simplex"})
    with pytest.raises(ContractError):
        set_from_json({"lower": [0.0]})
    with pytest.raises(ContractError):
        set_from_json({"type": "box", "lower": [0.0]})
