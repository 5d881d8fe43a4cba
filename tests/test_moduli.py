import itertools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (aubin_fibre_loop, aubin_pair_scan, distances_3d,
                     fold_fibres_reduceat, pinv_apply, ratio_scan_loop,
                     sampled_fibre, sup_quotient_block_loop)
from regsel import moduli
from regsel.convex import AffineSet
from regsel.errors import ContractError, ShapeError
from regsel.linalg import row_norms
from regsel.moduli import (CSV_HEADER, LSC_FLOOR, CheckReport,
                           ModulusEstimate, SampledMapping, _sample_graph,
                           clm_estimate, counterexample_mapping,
                           lg_bound_check, lip_estimate, lsc_probe,
                           reg_linear, regularity_report, sampled_reg,
                           truncated_counterexample, verify_aubin,
                           verify_graph, verify_metric_regularity)
from regsel.problems import load_problem
from regsel.smooth import SmoothProblem
from test_acceptance import criterion_09_cases


def fwd_double(x):
    return 2.0 * x


def doubling_mapping(radius=0.5):
    return SampledMapping(forward=fwd_double, x_base=[0.0], y_base=[0.0],
                          radius_x=radius, radius_y=2.0 * radius)


def inverse_half(y):
    # single-valued inverse of x -> 2x
    return np.asarray(y, dtype=float).reshape(1, -1) / 2.0


def cubic_mapping():
    return SampledMapping(forward=lambda x: x ** 3, x_base=[0.0], y_base=[0.0],
                          radius_x=0.1, radius_y=1e-3)


# ---------------------------------------------------------------------------
# exact linear regularity


def test_reg_linear_identity():
    assert reg_linear(np.eye(3)) == pytest.approx(1.0)


def test_reg_linear_diagonal():
    assert reg_linear([[2.0, 0.0], [0.0, 0.5]]) == pytest.approx(2.0)


def test_reg_linear_rank_deficient_is_inf():
    assert reg_linear([[1.0, 0.0], [1.0, 0.0]]) == float("inf")


def test_reg_linear_tall_is_inf():
    assert reg_linear(np.ones((3, 2))) == float("inf")


def test_reg_linear_matches_unit_rhs_sup():
    # reg is the sup of least-norm solution sizes over unit right-hand sides
    m = np.array([[2.0, 0.0], [0.0, 0.5]])
    rng = np.random.default_rng(3)
    y = rng.standard_normal((2, 4000))
    y /= np.linalg.norm(y, axis=0)
    sup = float(np.linalg.norm(pinv_apply(m, y), axis=0).max())
    assert sup <= reg_linear(m) + 1e-9
    assert sup >= 0.98 * reg_linear(m)


@given(st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_reg_linear_scaling(c):
    m = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    np.testing.assert_allclose(reg_linear(c * m), reg_linear(m) / c, rtol=1e-9)


# ---------------------------------------------------------------------------
# sampled lip / clm


def test_lip_linear_is_exact():
    est = lip_estimate(lambda x: 3.0 * x, [0.0], 1.0, samples=200, seed=1)
    assert est.value == pytest.approx(3.0, rel=1e-12)
    assert est.kind == "lip"
    assert est.radius == 1.0 and est.samples == 200 and est.seed == 1


def test_lip_constant_is_zero():
    est = lip_estimate(lambda x: np.array([4.2]), [0.5], 1.0, samples=200)
    assert est.value == 0.0


def test_lip_square_map_near_slope_sup():
    # f(x) = x^2 on [0.9, 1.1]: difference quotients x + x' top out at 2.2
    est = lip_estimate(lambda x: x ** 2, [1.0], 0.1, samples=3000, seed=0)
    grid = np.linspace(0.9, 1.1, 2001)
    qs = np.abs(grid[None, :] ** 2 - grid[:, None] ** 2)
    gaps = np.abs(grid[None, :] - grid[:, None])
    oracle = float(np.max(qs[gaps > 0] / gaps[gaps > 0]))
    # sampled quotients carry a sqrt(eps)-scale noise floor
    assert est.value <= 2.2 + 1e-6
    assert abs(est.value - oracle) < 0.01


def test_lip_budget_monotone_for_fixed_seed():
    def f(x):
        return np.sin(3.0 * x)

    lo = lip_estimate(f, [0.2], 0.5, samples=500, seed=7).value
    hi = lip_estimate(f, [0.2], 0.5, samples=2500, seed=7).value
    assert hi >= lo


def test_clm_linear_slope():
    est = clm_estimate(lambda x: 3.0 * x, [0.0], 1.0, samples=200, seed=1)
    assert est.value == pytest.approx(3.0, rel=1e-12)
    assert est.kind == "clm"


def test_clm_square_at_origin():
    # quotients |x^2| / |x| = |x| <= radius
    est = clm_estimate(lambda x: x ** 2, [0.0], 0.1, samples=2000, seed=0)
    assert 0.099 <= est.value <= 0.1 + 1e-12


def test_clm_abs_at_origin():
    est = clm_estimate(lambda x: np.abs(x), [0.0], 0.5, samples=200, seed=2)
    assert est.value == pytest.approx(1.0, rel=1e-12)


@given(st.integers(min_value=0, max_value=40))
@settings(max_examples=20, deadline=None)
def test_clm_never_exceeds_lip(seed):
    def f(x):
        return x ** 2 - 0.3 * x

    c = clm_estimate(f, [0.4], 0.3, samples=400, seed=seed).value
    l = lip_estimate(f, [0.4], 0.3, samples=400, seed=seed).value
    assert c <= l + 1e-12


def test_sampled_estimates_are_deterministic():
    def f(x):
        return np.tanh(2.0 * x)

    a = lip_estimate(f, [0.1], 0.4, samples=600, seed=11)
    b = lip_estimate(f, [0.1], 0.4, samples=600, seed=11)
    assert a.value == b.value
    np.testing.assert_array_equal(a.witness[0], b.witness[0])


def test_sampled_estimates_validate_inputs():
    with pytest.raises(ContractError):
        lip_estimate(lambda x: x, [0.0], 0.0)
    with pytest.raises(ContractError):
        clm_estimate(lambda x: x, [0.0], -1.0)
    with pytest.raises(ContractError):
        lip_estimate(lambda x: x, [0.0], 1.0, samples=0)


@pytest.mark.parametrize("estimate", [lip_estimate, clm_estimate])
def test_sampled_estimates_refuse_a_negative_seed(estimate):
    with pytest.raises(ContractError, match="seed must be nonnegative, got -1"):
        estimate(lambda x: x, np.zeros(1), 1.0, samples=10, seed=-1)


@pytest.mark.parametrize("radius", [1e160, 1e200, np.inf])
@pytest.mark.parametrize("estimate", [lip_estimate, clm_estimate])
def test_sampled_estimates_refuse_a_radius_whose_distances_overflow(estimate,
                                                                    radius):
    # the squared diameter overflows, so every quotient would be x / inf = 0
    with pytest.raises(ContractError, match=re.escape(f"radius {radius:g} is too")):
        estimate(lambda x: 0.3 * x, np.zeros(1), radius, samples=10)
    # the largest radius whose squared diameter is finite still samples
    largest = 0.5 * np.sqrt(np.finfo(float).max)
    assert estimate(lambda x: 0.3 * x, np.zeros(1), largest,
                    samples=30).value == pytest.approx(0.3)


PROBLEMS = Path(__file__).resolve().parents[1] / "scripts" / "problems"


def sampler_maps():
    """(name, f, center, radius): the committed generalized perturbation and
    smooth remainder, a 3-D sin map, and oracles whose values are not 1-D
    float64 arrays (as_vector converts them)."""
    gen = load_problem(str(PROBLEMS / "generalized.json"))
    sm = load_problem(str(PROBLEMS / "smooth.json"))
    smooth = SmoothProblem(f=sm.smooth_map, x_base=sm.base,
                           jacobian=sm.smooth_map.jacobian, radius=sm.radius)
    return [
        ("perturbation", gen.perturbation, gen.base_x, gen.radius_x),
        ("remainder", smooth.remainder, sm.base, sm.radius),
        ("sin3", lambda x: np.sin(x) * np.array([1.0, 2.0, 0.5]) + x[::-1] ** 2,
         np.array([0.1, -0.2, 0.3]), 0.7),
        ("scalar", lambda x: float(np.tanh(x[0] - x[1])), np.zeros(2), 0.5),
        ("list", lambda x: [x[0] ** 2, 1], np.array([0.3]), 0.2),
        ("float32", lambda x: (2.0 * x).astype(np.float32), np.zeros(2), 1.0),
    ]


SAMPLER_MAPS = sampler_maps()


def counting(f, points):
    """f, adding to points[0] the number of points each call evaluates."""
    def g(x):
        points[0] += np.shape(x)[1] if np.ndim(x) == 2 else 1
        return f(x)
    return g


# The sampler evaluates f once at the center and once on each point of a
# stacking probe of at most 4 points, on its own and stacked.
PROBE_POINTS = 1 + 2 * 4


@pytest.mark.parametrize("name,f,center,radius", SAMPLER_MAPS,
                         ids=[m[0] for m in SAMPLER_MAPS])
@pytest.mark.parametrize("seed", range(5))
def test_sampler_loops_match_the_reference_bit_for_bit(name, f, center, radius, seed):
    for anchored in (False, True):
        points = [0]
        want_points = [0]
        value, witness = moduli._sup_quotient(counting(f, points), center,
                                              radius, 400, seed, anchored)
        want_value, want_witness = sup_quotient_block_loop(
            counting(f, want_points), center, radius, 400, seed, anchored)
        assert type(value) is float and value == want_value
        assert len(witness) == len(want_witness)
        for got, want in zip(witness, want_witness):
            assert got.tobytes() == want.tobytes()
        # the sampler evaluates every proposal the loop does, and the probe
        assert 0 <= points[0] - want_points[0] <= PROBE_POINTS


@pytest.mark.parametrize("estimate", [lip_estimate, clm_estimate])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sampler_rejects_non_finite_oracle_values(estimate, bad):
    # finite at the center, non-finite on half the ball
    def f(x):
        return np.array([bad, 1.0]) if x[0] > 0 else np.array([0.0, 1.0])

    with pytest.raises(ShapeError, match="non-finite"):
        estimate(f, [0.0], 1.0, samples=10)


def stacked_loop(f):
    """f on one point, or on each column of a stack of points in turn."""
    def g(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.column_stack([f(c) for c in x.T])
        return f(x)
    return g


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("anchored", [False, True])
def test_sampler_raises_at_the_reference_oracle_call(bad, anchored):
    # The first, second or third coordinate goes non-finite beyond 0.6, out
    # of reach of the stacking probe at half the radius. The reference loop
    # raises at its first non-finite point; the sampler raises once it has
    # evaluated the block of proposals that holds that point, stacked or one
    # point at a time, and evaluates no point of a later block.
    for axis, stacks in itertools.product(range(3), (False, True)):
        def f(x):
            out = np.array([np.sin(x[0]), x[1] * x[2], 1.0])
            if x[axis] > 0.6:
                out[axis] = bad
            return out

        calls = [[], []]
        for slot, g in enumerate((stacked_loop(f) if stacks else f, f)):
            def recorded(x, slot=slot, g=g):
                x = np.asarray(x, dtype=float)
                calls[slot].append(x.T if x.ndim == 2 else x[None])
                return g(x)

            with pytest.raises(ShapeError, match="non-finite"):
                if slot == 0:
                    moduli._sup_quotient(recorded, np.zeros(3), 1.0, 300, 2,
                                         anchored)
                else:
                    sup_quotient_block_loop(recorded, np.zeros(3), 1.0, 300,
                                            2, anchored)
        sampler, reference = ([p.tobytes() for c in cs for p in c]
                              for cs in calls)
        assert len(reference) > 1
        # a stacked map fails in a stacked call, one that does not per point
        assert (len(calls[0][-1]) > 1) == stacks
        # the reference's failing point is in the block the sampler ended on
        assert reference[-1] in sampler[-moduli.SAMPLE_BLOCK:]
        # it evaluated every point the reference did, its center value and
        # probe, and at most the rest of the failing block
        assert set(reference) <= set(sampler)
        assert len(sampler) - len(reference) <= PROBE_POINTS + moduli.SAMPLE_BLOCK


def test_sampler_passes_finite_values_whose_squares_overflow():
    # the sum of squares of these finite values is inf; the quotient is inf
    # in the reference loop too, and no error is raised
    def f(x):
        return 1e200 * np.array([1.0 + x[0], x[1]])

    for anchored in (False, True):
        for g in (f, stacked_loop(f)):
            with np.errstate(over="ignore"):
                value, witness = moduli._sup_quotient(g, np.zeros(2), 1.0, 30,
                                                      0, anchored)
                want_value, want_witness = sup_quotient_block_loop(
                    f, np.zeros(2), 1.0, 30, 0, anchored)
            assert value == want_value == np.inf
            for got, want in zip(witness, want_witness):
                assert got.tobytes() == want.tobytes()


def test_probe_width_avoids_the_map_dimensions():
    assert moduli.probe_width(1, 1) == 2
    assert moduli.probe_width(2, 1) == 3
    assert moduli.probe_width(3, 2) == 4
    assert moduli.probe_width(384, 258) == 2


@st.composite
def linear_maps(draw):
    m = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    # entries far from underflow: below ~1e-154 the squares in a norm vanish
    entries = st.one_of(st.just(0.0), st.floats(1e-6, 10.0),
                        st.floats(-10.0, -1e-6))
    return np.array(draw(st.lists(entries, min_size=m * d, max_size=m * d)),
                    dtype=float).reshape(m, d)


@given(linear_maps(), st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_lip_of_a_linear_map_approaches_its_norm(a, seed):
    est = lip_estimate(lambda x: a @ x, np.zeros(a.shape[1]), 1.0,
                       samples=600, seed=seed).value
    top = float(np.linalg.norm(a, 2))
    # A value a @ x carries a rounding error up to about d eps ||(|a|)|| ||x||,
    # and the sampler divides differences of values by gaps down to 1e-7 of
    # the radius. When every quotient equals ||a|| (d = 1, say) the largest
    # sampled one exceeds it by that cancellation noise, and no further.
    noise = 2.0 * a.shape[1] * np.finfo(float).eps * np.linalg.norm(np.abs(a), 2) / 1e-7
    assert 0.98 * top <= est <= top * (1.0 + 1e-12) + noise


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 5)])
@pytest.mark.parametrize("seed", range(3))
def test_lip_of_a_sin_perturbation_stays_below_its_bound(m, n, seed):
    rng = np.random.default_rng([seed, m, n])
    w = rng.standard_normal((m, n))
    phase = rng.uniform(0.0, 2.0 * np.pi, m)
    eps = 0.3

    def g(x):
        return eps * np.sin(w @ x + phase)

    est = lip_estimate(g, np.zeros(n), 1.0, samples=600, seed=seed).value
    assert est <= eps * np.linalg.norm(w, 2) * (1.0 + 1e-12)


def sin_perturbation(m, n):
    rng = np.random.default_rng([m, n])
    w = rng.standard_normal((m, n))
    phase = rng.uniform(0.0, 2.0 * np.pi, m)
    return lambda x: 0.25 * np.sin(w @ x + phase)


def broadcast_at_k_equal_m(x):
    # stacked, the fixed vector lines up with the points when k = 3 = m and
    # gives wrong values; for any other k the call raises
    return np.sin(x[:3]) + np.array([0.1, -0.2, 0.3]) * x[3]


@pytest.mark.parametrize("name,f,dim", [
    ("sin-m2", sin_perturbation(2, 3), 3),
    ("sin-m3", sin_perturbation(3, 5), 5),
    ("broadcast", broadcast_at_k_equal_m, 4),
], ids=lambda v: v if isinstance(v, str) else "")
@pytest.mark.parametrize("estimate", [lip_estimate, clm_estimate])
def test_a_map_that_does_not_stack_gives_the_per_point_estimate(name, f, dim,
                                                                estimate):
    rows = f(np.ones(dim)).size
    probe = (np.ones((dim, moduli.probe_width(dim, rows))),)
    assert moduli.stacking_fault(f, probe, rows) is not None
    assert moduli.stacking_fault(stacked_loop(f), probe, rows) is None
    got = estimate(f, np.full(dim, 0.1), 0.8, samples=400, seed=3)
    want = estimate(stacked_loop(f), np.full(dim, 0.1), 0.8, samples=400,
                    seed=3)
    assert got.value == want.value
    for a, b in zip(got.witness, want.witness):
        assert a.tobytes() == b.tobytes()


def test_wrong_stacked_values_fail_the_probe():
    k = moduli.probe_width(4, 3)
    with pytest.raises(ValueError):
        broadcast_at_k_equal_m(np.ones((4, k)))
    assert "raised ValueError" in moduli.stacking_fault(
        broadcast_at_k_equal_m, (np.ones((4, k)),), 3)
    # at k = m the same map returns values of the right shape, but wrong
    x = np.random.default_rng(0).standard_normal((4, 3))
    assert "differs from per-point calls" in moduli.stacking_fault(
        broadcast_at_k_equal_m, (x,), 3)


@pytest.mark.parametrize("estimate", [lip_estimate, clm_estimate])
def test_estimates_are_nondecreasing_in_the_budget(estimate):
    # every budget samples a prefix of the same stream, blocks cut or whole
    f = sin_perturbation(2, 3)
    values = [estimate(stacked_loop(f), np.zeros(3), 1.0, samples=s,
                       seed=4).value for s in range(1, 300, 11)]
    assert values == sorted(values)


# ---------------------------------------------------------------------------
# sampled mappings


def test_sampled_mapping_rejects_off_graph_base():
    with pytest.raises(ContractError):
        SampledMapping(forward=fwd_double, x_base=[0.0], y_base=[0.1],
                       radius_x=1.0, radius_y=1.0)


def test_sampled_mapping_rejects_bad_radii():
    with pytest.raises(ContractError):
        SampledMapping(forward=fwd_double, x_base=[0.0], y_base=[0.0],
                       radius_x=0.0, radius_y=1.0)


@pytest.mark.parametrize("radius", ["radius_x", "radius_y"])
@pytest.mark.parametrize("check", [verify_metric_regularity, verify_aubin])
def test_verifiers_refuse_a_radius_whose_distances_overflow(check, radius):
    radii = {"radius_x": 1.0, "radius_y": 2.0, radius: 1e160}
    with pytest.raises(ContractError, match=rf"{radius} 1e\+160 is too large"):
        check(SampledMapping(forward=fwd_double, x_base=[0.0], y_base=[0.0],
                             **radii), 0.5, 5)


def test_lg_bound_refuses_a_radius_whose_distances_overflow():
    with pytest.raises(ContractError, match=r"radius 1e\+200 is too large"):
        lg_bound_check(np.eye(1), lambda x: 0.1 * x, [0.0], kappa=1.01,
                       lam=0.5, radius=1e200, samples=10)


def test_sampled_mapping_accepts_value_lists():
    m = SampledMapping(forward=lambda x: [x, x + 1.0], x_base=[0.0],
                       y_base=[1.0], radius_x=1.0, radius_y=1.0)
    vals = m.values_at([0.25])
    assert len(vals) == 2
    np.testing.assert_allclose(vals[1], [1.25])


EMPTY_FORMS = {
    "list": lambda: [],
    "tuple": lambda: (),
    "rows": lambda: np.zeros((0, 1)),
    "flat": lambda: np.zeros(0),
}


def half_domain_doubling(empty):
    """x -> 2x on |x| <= 0.5, empty (in the given form) outside."""
    return SampledMapping(
        forward=lambda x: 2.0 * x if abs(x[0]) <= 0.5 else empty(),
        x_base=[0.0], y_base=[0.0], radius_x=1.0, radius_y=2.0)


@pytest.mark.parametrize("form", EMPTY_FORMS)
def test_sampled_mapping_reads_every_empty_form_as_no_values(form):
    m = half_domain_doubling(EMPTY_FORMS[form])
    assert m.values_at([0.75]) == []
    assert len(m.values_at([0.25])) == 1
    # points outside dom F are at distance +inf from every value, so they
    # never enter a fibre and their ratio is 0: the modulus is that of 2x
    est = sampled_reg(m, grid=9)
    assert est.value == 0.5
    assert verify_aubin(m, kappa=0.5, grid=9).ok
    assert not verify_aubin(m, kappa=0.45, grid=9).ok
    assert_scans_match_loops(m, 0.5, 9)


@pytest.mark.parametrize("form", EMPTY_FORMS)
def test_sampled_mapping_refuses_an_empty_base(form):
    with pytest.raises(ContractError, match=r"base point \[0\.0, 1\.0\]"):
        SampledMapping(forward=lambda x: EMPTY_FORMS[form](),
                       x_base=[0.0, 1.0], y_base=[0.0], radius_x=1.0,
                       radius_y=1.0)


# ---------------------------------------------------------------------------
# distance-inequality verifiers


def test_verify_mr_doubling_passes_at_half():
    rep = verify_metric_regularity(doubling_mapping(), kappa=0.5)
    assert rep.ok
    assert rep.worst_ratio == pytest.approx(0.5, rel=1e-9)
    assert rep.kind == "metric-regularity"


def test_verify_mr_doubling_fails_below_half():
    rep = verify_metric_regularity(doubling_mapping(), kappa=0.4)
    assert not rep.ok
    assert rep.worst_ratio == pytest.approx(0.5, rel=1e-9)
    assert len(rep.witness) == 2


def test_verify_mr_even_grid_spec_keeps_base_on_grid():
    rep = verify_metric_regularity(doubling_mapping(), kappa=0.5, grid=10)
    assert rep.ok


def test_verify_mr_cubic_blows_up():
    rep = verify_metric_regularity(cubic_mapping(), kappa=100.0, grid=21)
    assert not rep.ok
    assert rep.worst_ratio > 100.0


def test_verify_mr_rejects_bad_kappa():
    with pytest.raises(ContractError):
        verify_metric_regularity(doubling_mapping(), kappa=0.0)


def test_sampled_reg_doubling():
    est = sampled_reg(doubling_mapping())
    assert est.kind == "reg-sampled"
    assert est.value == pytest.approx(0.5, rel=1e-9)


def test_sampled_reg_builds_one_table_per_distinct_fibre(monkeypatch):
    # 137 test values on this 2->1 map, but only 57 distinct consecutive
    # fibres: near-equal values reuse the last distance table. Every table,
    # the fold's and those under _distances, comes from _squared_distances.
    entries = {1: 0, 2: 0}
    squared = moduli._squared_distances

    def counted(p, q):
        entries[p.shape[1]] += p.shape[0] * q.shape[0]
        return squared(p, q)

    monkeypatch.setattr(moduli, "_squared_distances", counted)
    m = np.array([[2.0, 2.0]])
    mapping = SampledMapping(forward=lambda x: m @ x, x_base=np.zeros(2),
                             y_base=np.zeros(1), radius_x=1.0,
                             radius_y=2.0 * np.linalg.norm(m))
    est = sampled_reg(mapping, grid=41)
    # distances between grid points: the 57 tables of 1257 points by one
    # fibre each that a per-value scan builds; the 57 fibres partition the
    # 1257 points, so that total is 1257 * 1257
    assert entries[2] == 1257 * 1257
    # and one distance per test value and sampled value for the fibres
    assert entries[1] == 137 * 1257
    # the value and witness of the scan that rebuilt every table
    assert est.value == 1.1180339887498998
    np.testing.assert_array_equal(est.witness[0],
                                  [0.30000000000000004, 0.9500000000000002])
    np.testing.assert_array_equal(est.witness[1], [2.6])


def test_verify_aubin_doubling():
    assert verify_aubin(doubling_mapping(), kappa=0.5).ok
    rep = verify_aubin(doubling_mapping(), kappa=0.4)
    assert not rep.ok
    assert rep.worst_ratio == pytest.approx(0.5, rel=1e-9)


def test_verify_aubin_branch_union_constant_one():
    # values y + {0, +-1/k} translate rigidly with y, so fibers shift
    # isometrically and constant 1 verifies even though the map is not
    # lower semicontinuous after truncation
    m = SampledMapping(
        forward=lambda y: counterexample_mapping(float(y[0]), 5).reshape(-1, 1),
        x_base=[0.0], y_base=[0.0], radius_x=0.1, radius_y=0.05)
    rep = verify_aubin(m, kappa=1.0)
    assert rep.ok
    assert rep.worst_ratio == pytest.approx(1.0, rel=1e-9)


def test_verify_aubin_agrees_with_mr_on_cubic():
    a = verify_aubin(cubic_mapping(), kappa=1.0, grid=21)
    r = verify_metric_regularity(cubic_mapping(), kappa=1.0, grid=21)
    assert not a.ok
    assert not r.ok


def test_verify_aubin_rejects_bad_kappa():
    with pytest.raises(ContractError):
        verify_aubin(doubling_mapping(), kappa=-1.0)


@pytest.mark.parametrize("kappa,message", [
    (0.0, "kappa must be positive, got 0.0"),
    (-1.0, "kappa must be positive, got -1.0"),
    (np.inf, "kappa must be finite, got inf"),
    (np.nan, "kappa must be positive, got nan"),
])
@pytest.mark.parametrize("check", [verify_metric_regularity, verify_aubin])
def test_verifiers_refuse_kappa_before_sampling_the_graph(check, kappa, message):
    # at grid 41 this 2->1 map samples 1,257 points, each a forward call
    calls = []
    m = np.array([[2.0, 2.0]])

    def forward(x):
        calls.append(x)
        return m @ x

    mapping = SampledMapping(forward=forward, x_base=np.zeros(2),
                             y_base=np.zeros(1), radius_x=1.0,
                             radius_y=2.0 * np.linalg.norm(m))
    calls.clear()
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        check(mapping, kappa=kappa, grid=41)
    assert calls == []


@pytest.mark.parametrize("grid", [1, 0, -3])
@pytest.mark.parametrize("check", [verify_metric_regularity, verify_aubin])
def test_verifiers_reject_grids_below_two_points(check, grid):
    # one point per axis is the corner x_base - radius_x alone, on which a
    # far too small constant (true modulus 0.5) would pass
    with pytest.raises(ContractError, match="at least 2 points"):
        check(doubling_mapping(), kappa=0.01, grid=grid)


def test_two_point_grid_keeps_base_and_judges_modulus():
    assert not verify_metric_regularity(doubling_mapping(), kappa=0.01, grid=2).ok
    assert not verify_aubin(doubling_mapping(), kappa=0.01, grid=2).ok
    assert verify_aubin(doubling_mapping(), kappa=0.5, grid=2).ok


def test_regularity_report_reuses_one_scan():
    est = sampled_reg(doubling_mapping())
    for kappa in (0.4, 0.5):
        rep = regularity_report(est, kappa)
        ref = verify_metric_regularity(doubling_mapping(), kappa)
        assert rep.csv_row() == ref.csv_row()
        assert rep.detail == ref.detail
    with pytest.raises(ContractError):
        regularity_report(est, 0.0)


def test_row_norms_match_linalg_norm_bitwise():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3, 5, 8, 30, 384):
        rows = rng.standard_normal((400, dim))
        # each row alone: a row view off a 16-byte boundary gets other bits
        # from some BLAS kernels (OpenBLAS's Prescott) at odd dim
        expected = np.array([np.linalg.norm(r.copy()) for r in rows])
        assert np.array_equal(row_norms(rows), expected)


# ---------------------------------------------------------------------------
# the vectorised Aubin scan against the pair-by-pair oracle


def ulps_apart(a: float, b: float) -> float:
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


def assert_same_witness(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def assert_scans_match_loops(mapping, kappa, grid):
    """sampled_reg, verify_metric_regularity and verify_aubin give the value,
    verdict and witness of the per-value loops bit for bit."""
    graph = _sample_graph(mapping, grid)
    worst, witness = ratio_scan_loop(*graph)
    est = sampled_reg(mapping, grid)
    assert est.value == worst
    assert_same_witness(est.witness, witness)
    mr = verify_metric_regularity(mapping, kappa, grid)
    assert mr.worst_ratio == worst
    assert mr.ok is (worst <= kappa * (1.0 + moduli.CHECK_RTOL) + moduli.CHECK_ATOL)
    assert_same_witness(mr.witness, witness)
    ok, worst, witness = aubin_fibre_loop(*graph, kappa)
    au = verify_aubin(mapping, kappa, grid)
    assert au.ok is ok
    assert au.worst_ratio == worst
    assert_same_witness(au.witness, witness)


def assert_lg_scan_matches_loop(mat, kappa, grid):
    """lg_bound_check's scan of x -> mat x + g(x) against the per-value loop."""
    scans = []
    graph_scan = moduli._graph_scan

    def checked(mapping, grid, kappa=None):
        got = graph_scan(mapping, grid, kappa)
        want = ratio_scan_loop(*_sample_graph(mapping, grid))
        assert got[0][0] == want[0]
        assert_same_witness(got[0][1], want[1])
        scans.append(got[0])
        return got

    rows = mat.shape[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moduli, "_graph_scan", checked)
        report, _ = lg_bound_check(
            mat, lambda x: (0.1 / kappa) * np.sin(x[:rows]),
            np.zeros(mat.shape[1]), kappa=kappa, lam=0.5 / kappa, radius=1.0,
            grid=grid, samples=100)
    assert len(scans) == 1
    assert report.worst_ratio == scans[0][0]
    assert_same_witness(report.witness, scans[0][1])


def assert_aubin_matches_pair_scan(mapping, kappa, grid):
    report = verify_aubin(mapping, kappa, grid=grid)
    pts, gy, gx_idx, y_test = _sample_graph(mapping, grid)
    ok, worst, witness = aubin_pair_scan(pts, gy, gx_idx, y_test, kappa)
    assert report.ok is ok
    assert ulps_apart(report.worst_ratio, worst) <= 4, (report.worst_ratio, worst)
    if not witness:
        assert report.witness == ()
        return report
    if report.worst_ratio == worst:
        # same arithmetic, so the tie rule must pick the same pair and point
        assert all(np.array_equal(u, v) for u, v in zip(report.witness, witness))
    x, y_from, y_to = report.witness
    assert any(np.array_equal(x, p)
               for p in sampled_fibre(pts, gy, gx_idx, y_from))
    fib_to = sampled_fibre(pts, gy, gx_idx, y_to)
    ratio = (np.linalg.norm(fib_to - x, axis=1).min()
             / np.linalg.norm(y_from - y_to))
    assert ulps_apart(ratio, report.worst_ratio) <= 4, (ratio, report.worst_ratio)
    return report


def test_aubin_matches_pair_scan_on_criterion_09_cases():
    for mapping, grid, kappa, expected in criterion_09_cases():
        assert assert_aubin_matches_pair_scan(mapping, kappa, grid).ok is expected
        assert_scans_match_loops(mapping, kappa, grid)


@pytest.mark.parametrize("kappa", [1.05, 0.95])
def test_aubin_matches_pair_scan_on_set_valued_branches(kappa):
    # wide windows put grid points into several fibres at once
    mapping = SampledMapping(
        forward=lambda y: counterexample_mapping(float(y[0]), 4).reshape(-1, 1),
        x_base=[0.0], y_base=[0.0], radius_x=0.4, radius_y=0.4)
    assert_aubin_matches_pair_scan(mapping, kappa, grid=17)
    assert_scans_match_loops(mapping, kappa, grid=17)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(2, 2, 9), (3, 3, 5), (1, 2, 11)]),
       st.lists(st.integers(-2, 2), min_size=9, max_size=9),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_aubin_matches_pair_scan_on_lattice_maps(shape, entries, scale):
    rows, cols, grid = shape
    mat = scale * np.array(entries[:rows * cols], dtype=float).reshape(rows, cols)
    if not mat.any():
        mat[:, :rows] = scale * np.eye(rows)
    mapping = SampledMapping(forward=lambda x: mat @ x, x_base=np.zeros(cols),
                             y_base=np.zeros(rows), radius_x=1.0,
                             radius_y=2.0 * np.abs(mat).sum())
    pts, gy, gx_idx, y_test = _sample_graph(mapping, grid)
    modulus = aubin_pair_scan(pts, gy, gx_idx, y_test, 1.0)[1]
    assert modulus > 0
    assert assert_aubin_matches_pair_scan(mapping, 1.05 * modulus, grid).ok
    assert not assert_aubin_matches_pair_scan(mapping, 0.95 * modulus, grid).ok
    assert_scans_match_loops(mapping, 1.05 * modulus, grid)
    if np.isfinite(reg_linear(mat)):
        assert_lg_scan_matches_loop(mat, 1.05 * reg_linear(mat), grid)


def uneven_maps():
    """(forward, grid, kappa) of 2->1 maps: empty on a half plane; zero to
    two values per point; a step map whose fibres are strips of 139 to
    230 points, so tables cut fibres and the Aubin witness is chunked."""
    def cut(x):
        return np.array([[x[0] + 2.0 * x[1]]]) if x[0] < 0.3 else np.zeros((0, 1))

    def varying(x):
        k = int(round(4.0 * (x[0] + 1.0))) % 3
        return [np.array([x[0] - x[1] + 0.5 * j]) for j in range(k)]

    def steps(x):
        return np.floor(2.0 * x[:1])

    return [(cut, 15, 1.0), (varying, 11, 2.0), (steps, 31, 0.6)]


@pytest.mark.parametrize("forward,grid,kappa", uneven_maps(),
                         ids=["cut", "varying", "steps"])
def test_scans_match_loops_on_uneven_maps(forward, grid, kappa):
    mapping = SampledMapping(forward=forward, x_base=np.zeros(2),
                             y_base=np.zeros(1), radius_x=1.0, radius_y=1.0)
    assert_scans_match_loops(mapping, kappa, grid)


def test_fold_has_the_bits_of_the_square_root_then_reduceat_fold(monkeypatch):
    # sqrt is correctly rounded and monotone, so one square root of each
    # fibre's least squared distance is the least of the square roots. The
    # folds of two Aubin scans (cut has points with no values, varying
    # points with two) and one made by hand, on tables of a few rows.
    monkeypatch.setattr(moduli, "TABLE_ENTRIES", 600)
    folds = []
    fold = moduli._fold_fibres
    monkeypatch.setattr(moduli, "_fold_fibres",
                        lambda *args: folds.append(args) or fold(*args))
    for forward, grid, kappa in uneven_maps()[:2]:
        mapping = SampledMapping(forward=forward, x_base=np.zeros(2),
                                 y_base=np.zeros(1), radius_x=1.0,
                                 radius_y=1.0)
        verify_aubin(mapping, kappa, grid=grid)
    assert len(folds) > 2
    # 200 lattice points, so distances tie, and tables of 3 rows: fibre 1
    # spans four tables between fibres of one member, fibre 4 has two, and
    # fibres 2 and 6 have none, so their rows stay inf
    pts = np.stack(np.divmod(np.arange(200.0), 20), axis=1) / 8.0
    labels = np.array([0] + [1] * 10 + [3, 4, 4, 5])
    members = np.random.default_rng(3).permutation(200)[:labels.size]
    folds.append((pts, labels, members, 7))
    for pts, labels, members, count in folds:
        step = max(1, moduli.TABLE_ENTRIES // len(pts))
        got = fold(pts, labels, members, count)
        want = fold_fibres_reduceat(pts, labels, members, count, step)
        assert got.tobytes() == want.tobytes()
    assert np.isinf(got[[2, 6]]).all()
    assert np.isfinite(got[[0, 1, 3, 4, 5]]).all()


def premise_map():
    """The first map x -> M x (M of rows x 2, rows 2, 3, then 16; seeds from
    57) whose worst Aubin pair's gap ||y_a - y_b|| differs in its last bit
    between the dot kernel (row_norms) and the coordinate-order sum of
    _distances on the running BLAS kernel. SkylakeX's dot differs from 2
    coordinates on, Prescott's from 3 and Haswell's from 16."""
    for rows in (2, 3, 16):
        for seed in range(57, 157):
            mat = np.random.default_rng(seed).standard_normal((rows, 2))
            mapping = SampledMapping(forward=lambda x, mat=mat: mat @ x,
                                     x_base=np.zeros(2), y_base=np.zeros(rows),
                                     radius_x=1.0,
                                     radius_y=2.0 * np.linalg.norm(mat, 2))
            _, y_from, y_to = verify_aubin(mapping, 1.0, grid=7).witness
            gap = distances_3d(y_from[None], y_to[None])[0, 0]
            if gap != row_norms((y_from - y_to)[None])[0]:
                return mapping
    raise AssertionError("no map separates the dot kernel from the coordinate sum")


def test_aubin_gaps_take_the_bits_of_the_distance_kernel():
    # on the premise map the scan and the fibre loop must both take the
    # coordinate-order sum of _distances, not the dot kernel
    mapping = premise_map()
    assert_scans_match_loops(mapping, 1.0, grid=7)
    assert_aubin_matches_pair_scan(mapping, 1.0, grid=7)


@pytest.mark.parametrize("form", ["vector", "stacked"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("check", [
    lambda m: sampled_reg(m, grid=5),
    lambda m: verify_metric_regularity(m, 1.0, grid=5),
    lambda m: verify_aubin(m, 1.0, grid=5),
    lambda m: verify_graph(m, 1.0, grid=5)],
    ids=["sampled_reg", "metric-regularity", "aubin", "graph"])
def test_a_non_finite_value_off_the_base_is_refused_before_any_scan(
        monkeypatch, check, bad, form):
    # every test value is a graph value, so its fibre holds the point it came
    # from; the sampled graph refuses the one value that could break that
    def forward(x):
        if x[0] < 0.4:
            return 2.0 * x
        return np.array([bad]) if form == "vector" else np.array([2.0 * x, [bad]])

    def no_scan(*args, **kwargs):
        raise AssertionError("the graph was scanned")

    monkeypatch.setattr(moduli, "_fibre_blocks", no_scan)
    mapping = SampledMapping(forward=forward, x_base=[0.0], y_base=[0.0],
                             radius_x=0.5, radius_y=1.0)
    with pytest.raises(ShapeError, match="non-finite"):
        check(mapping)


@pytest.mark.parametrize("dim", range(1, 8))
def test_distances_match_the_three_axis_sum_bitwise(dim):
    # below 8 coordinates numpy's pairwise sum adds in coordinate order
    rng = np.random.default_rng(dim)
    p = rng.standard_normal((57, dim)) * rng.uniform(0.1, 10.0, dim)
    q = rng.standard_normal((23, dim))
    want = np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2))
    assert moduli._distances(p, q).tobytes() == want.tobytes()
    assert distances_3d(p, q).tobytes() == want.tobytes()


def memory_case(name):
    """(matrix, grid) of the linear.json map at grid 101 (7,845 points) or
    of a 2->1 map at grid 41 (1,257 points)."""
    if name == "linear-101":
        return load_problem(str(PROBLEMS / "linear.json")).matrix, 101
    return np.array([[2.0, 2.0]]), 41


@pytest.mark.parametrize("case,check", [
    ("linear-101", "metric-regularity"), ("linear-101", "aubin"),
    ("2to1-41", "metric-regularity"), ("2to1-41", "aubin"),
    ("2to1-41", "perturbation-bound")])
def test_verifier_memory_stays_within_the_table_budget(case, check):
    # no table holds more than TABLE_ENTRIES entries, so the tracemalloc
    # peak of a pass does not grow with the grid
    mat, grid = memory_case(case)
    mapping = SampledMapping(forward=lambda x: mat @ x,
                             x_base=np.zeros(mat.shape[1]),
                             y_base=np.zeros(mat.shape[0]), radius_x=1.0,
                             radius_y=2.0 * np.linalg.norm(mat, 2))
    kappa = 1.1 * reg_linear(mat)
    run = {
        "metric-regularity": lambda: verify_metric_regularity(mapping, kappa, grid),
        "aubin": lambda: verify_aubin(mapping, kappa, grid),
        "perturbation-bound": lambda: lg_bound_check(
            mat, lambda x: np.zeros(mat.shape[0]), np.zeros(mat.shape[1]),
            kappa=kappa, lam=0.5 / kappa, radius=1.0, grid=grid, samples=50),
    }[check]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_test_values_are_the_bytes_of_plain_unique():
    # values (floor(x0), -0.0 * x1) repeat, and their second coordinate is
    # -0.0 for x1 >= 0 and +0.0 for x1 < 0: duplicate rows that differ only
    # in the sign of a zero
    mapping = SampledMapping(
        forward=lambda x: np.array([np.floor(x[0]), -0.0 * x[1]]),
        x_base=np.zeros(2), y_base=np.zeros(2), radius_x=2.0, radius_y=1.5)
    _, gy, _, y_test = _sample_graph(mapping, 9)
    zeros = gy[:, 1] == 0.0
    assert np.signbit(gy[zeros, 1]).any() and not np.signbit(gy[zeros, 1]).all()
    in_ball = np.linalg.norm(gy, axis=1) <= 1.5 + 1e-12
    assert y_test.tobytes() == np.unique(gy[in_ball], axis=0).tobytes()
    assert len(y_test) == 3


# ---------------------------------------------------------------------------
# perturbation bound checks


def test_lg_bound_linear_plus_half():
    rep, lipest = lg_bound_check(np.eye(2), lambda x: 0.5 * x, [0.0, 0.0],
                                 kappa=1.01, lam=0.51, radius=0.5, grid=7,
                                 samples=300, seed=0)
    assert rep.ok
    assert rep.worst_ratio == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert rep.worst_ratio <= 1.0 / (1.0 / 1.01 - 0.51) + 1e-6
    assert lipest.value == pytest.approx(0.5, rel=1e-12)


def test_lg_bound_zero_perturbation_recovers_linear_reg():
    m = np.array([[2.0, 0.0], [0.0, 0.5]])
    rep, _ = lg_bound_check(m, lambda x: np.zeros(2), [0.0, 0.0], kappa=2.1,
                            lam=0.1, radius=0.5, grid=7, samples=200)
    assert rep.ok
    assert rep.worst_ratio == pytest.approx(reg_linear(m), rel=1e-9)


def test_lg_bound_reads_an_affine_set_without_factoring(monkeypatch):
    m = np.array([[2.0, 0.0], [0.0, 0.5]])
    args = (lambda x: 0.3 * np.sin(x), [0.0, 0.0])
    kwargs = dict(kappa=2.1, lam=0.32, radius=0.5, grid=7, samples=200)
    from_matrix = lg_bound_check(m, *args, **kwargs)
    fibre = AffineSet(m, np.zeros(2))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or svd(*a, **k))
    from_fibre = lg_bound_check(fibre, *args, **kwargs)
    assert calls == []
    assert from_fibre[0].csv_row() == from_matrix[0].csv_row()
    assert from_fibre[1].csv_row() == from_matrix[1].csv_row()


def test_lg_bound_rejects_kappa_below_linear_reg():
    rot = 0.9 * np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ContractError, match="kappa"):
        lg_bound_check(rot, lambda x: np.zeros(2), [0.0, 0.0], kappa=1.01,
                       lam=0.95)


def test_lg_bound_rejects_large_lambda():
    with pytest.raises(ContractError, match="lambda"):
        lg_bound_check(np.eye(2), lambda x: np.zeros(2), [0.0, 0.0],
                       kappa=1.01, lam=1.0)


def test_lg_bound_rejects_rough_perturbation():
    with pytest.raises(ContractError, match="lambda"):
        lg_bound_check(np.eye(2), lambda x: 0.5 * x, [0.0, 0.0], kappa=1.01,
                       lam=0.4, samples=300)


# ---------------------------------------------------------------------------
# branch-union values and semicontinuity probes


def test_counterexample_values_k2():
    np.testing.assert_allclose(counterexample_mapping(0.0, 2),
                               [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_counterexample_values_shifted():
    np.testing.assert_allclose(counterexample_mapping(0.3, 1),
                               [-0.7, 0.3, 1.3])


def test_counterexample_needs_positive_k():
    with pytest.raises(ContractError):
        counterexample_mapping(0.0, 0)


def test_lsc_probe_consistent_on_single_valued_inverse():
    approach = [[10.0 ** -j] for j in range(1, 15)]
    rep = lsc_probe(inverse_half, at=([0.0], [0.0]), approach=approach)
    assert rep.verdict == "lsc-consistent"
    assert not rep.violated
    assert rep.distances[-1] < 1e-12


def test_lsc_probe_flags_truncated_branch_union():
    set_map = truncated_counterexample()
    approach = [[10.0 ** -j] for j in range(1, 15)]
    rep = lsc_probe(set_map, at=([0.0], [0.05]), approach=approach)
    assert rep.violated
    tail = rep.distances[3:]
    assert len(tail) >= 10
    assert all(d > LSC_FLOOR for d in tail)


def test_lsc_probe_rejects_off_set_base():
    with pytest.raises(ContractError):
        lsc_probe(inverse_half, at=([0.0], [0.3]), approach=[[0.1]])


def test_lsc_probe_rejects_empty_approach():
    with pytest.raises(ContractError):
        lsc_probe(inverse_half, at=([0.0], [0.0]), approach=[])


def test_lsc_probe_tolerates_empty_value_sets():
    set_map = truncated_counterexample()
    rep = lsc_probe(set_map, at=([0.0], [0.0]), approach=[[0.5], [1e-7]])
    assert rep.distances[0] == float("inf")
    assert rep.verdict == "lsc-consistent"


# ---------------------------------------------------------------------------
# report serialization


def test_modulus_estimate_csv_row_round_trips_value():
    est = ModulusEstimate(kind="lip", value=1.0 / 3.0, radius=0.25,
                          samples=100, seed=7, witness=(np.array([0.1, 0.2]),))
    fields = est.csv_row().split(",")
    assert fields[0] == "lip"
    assert float(fields[1]) == 1.0 / 3.0
    assert float(fields[2]) == 0.25
    assert fields[3] == "100"
    assert fields[4] == "7"
    assert fields[5] == ""
    assert fields[6] == "0.10000000000000001 0.20000000000000001"


def test_check_report_csv_row_has_verdict():
    rep = CheckReport(kind="aubin", ok=False, kappa=1.0, worst_ratio=2.5,
                      witness=(np.array([1.0]), np.array([2.0])))
    fields = rep.csv_row().split(",")
    assert fields[0] == "aubin"
    assert float(fields[1]) == 2.5
    assert fields[5] == "fail"
    assert fields[6] == "1;2"


def test_csv_report_shape_and_header():
    # a row has one field per header column; unset radius and samples
    # serialize as empty fields
    row = ModulusEstimate(kind="clm", value=2.0).csv_row()
    assert row == "clm,2,,,0,,"
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
