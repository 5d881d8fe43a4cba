import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import polynomial_value_loop
from regsel.convex import Box, Halfspaces
from regsel.errors import ProblemFileError, ShapeError
from regsel.problems import (DYNAMICS_FIXTURES, PolynomialMap, load_problem,
                             parse_problem, polynomial_from_json)

BOX_JSON = {"type": "box", "lower": [-1.0], "upper": [1.0]}


def linear_payload(**extra):
    payload = {"version": "1", "kind": "linear",
               "matrix": [[2.0, 0.0], [0.0, 0.5]]}
    payload.update(extra)
    return payload


def generalized_payload(**extra):
    payload = {"version": "1", "kind": "generalized",
               "finv_matrix": [[1.0, 1.0]], "base_x": [0.0, 0.0],
               "base_y": [0.0]}
    payload.update(extra)
    return payload


def control_payload(**extra):
    payload = {"version": "1", "kind": "control",
               "dynamics": "double_integrator", "control_set": BOX_JSON,
               "mesh": 16}
    payload.update(extra)
    return payload


# ---------------------------------------------------------------------------
# envelope validation


def test_rejects_non_object():
    with pytest.raises(ProblemFileError, match="JSON object"):
        parse_problem([1, 2, 3])


def test_requires_version():
    with pytest.raises(ProblemFileError, match="\\$\\.version"):
        parse_problem({"kind": "linear"})


def test_rejects_unknown_version():
    with pytest.raises(ProblemFileError, match="unrecognized version"):
        parse_problem(linear_payload(version="2"))


def test_rejects_unknown_kind():
    with pytest.raises(ProblemFileError, match="\\$\\.kind"):
        parse_problem({"version": "1", "kind": "quadratic"})


def test_rejects_bad_seed():
    with pytest.raises(ProblemFileError, match="\\$\\.seed"):
        parse_problem(linear_payload(seed="zero"))
    with pytest.raises(ProblemFileError, match="\\$\\.seed"):
        parse_problem(linear_payload(seed=True))


def test_rejects_unknown_constant():
    with pytest.raises(ProblemFileError, match="constants.mu"):
        parse_problem(linear_payload(constants={"mu": 1.0}))


def test_accepts_constant_subset():
    out = parse_problem(linear_payload(constants={"kappa": 0.6}))
    assert out.constants == {"kappa": 0.6}
    out = parse_problem(linear_payload(
        constants={"kappa": 0.6, "lambda": 0.1, "alpha": 1.0}))
    assert set(out.constants) == {"kappa", "lambda", "alpha"}


def test_accepts_a_zero_lambda():
    out = parse_problem(linear_payload(constants={"lambda": 0.0}))
    assert out.constants == {"lambda": 0.0}


@pytest.mark.parametrize("name, value", [
    ("kappa", 0.0), ("kappa", -1.0), ("alpha", 0.0), ("alpha", -2.0),
    ("lambda", -0.36)])
def test_rejects_out_of_range_constant(name, value):
    with pytest.raises(ProblemFileError,
                       match=f"\\$\\.constants\\.{name}: must be"):
        parse_problem(linear_payload(constants={name: value}))


# ---------------------------------------------------------------------------
# per-kind payloads


def test_linear_payload_round_trip():
    out = parse_problem(linear_payload(target=[0.1, 0.2], seed=7))
    np.testing.assert_array_equal(out.matrix, [[2.0, 0.0], [0.0, 0.5]])
    np.testing.assert_array_equal(out.target, [0.1, 0.2])
    assert out.seed == 7


def test_linear_rejects_ragged_matrix():
    with pytest.raises(ProblemFileError, match="matrix\\[1\\]"):
        parse_problem(linear_payload(matrix=[[1.0, 0.0], [1.0]]))


def test_linear_rejects_mismatched_base():
    with pytest.raises(ProblemFileError, match="base_x"):
        parse_problem(linear_payload(base_x=[1.0]))


def test_smooth_payload_defaults():
    payload = {"version": "1", "kind": "smooth",
               "map": {"input_dim": 2, "output_dim": 1,
                       "terms": [[{"coef": 1.0, "powers": [1, 0]},
                                  {"coef": 1.0, "powers": [0, 1]}]]},
               "base": [0.0, 0.0]}
    out = parse_problem(payload)
    assert out.radius == 1.0
    np.testing.assert_allclose(out.smooth_map.value([0.2, 0.3]), [0.5])


def test_smooth_rejects_nonpositive_radius():
    payload = {"version": "1", "kind": "smooth",
               "map": {"input_dim": 1, "output_dim": 1,
                       "terms": [[{"coef": 1.0, "powers": [1]}]]},
               "base": [0.0], "radius": 0.0}
    with pytest.raises(ProblemFileError, match="radius"):
        parse_problem(payload)


def test_generalized_radius_defaults():
    out = parse_problem(generalized_payload())
    assert out.radius_x == 1.0
    assert out.radius_y == 1.0
    assert out.radius_graph == 4.0


def test_generalized_radius_graph_tracks_overrides():
    out = parse_problem(generalized_payload(radius_x=0.5, radius_y=0.25))
    assert out.radius_graph == pytest.approx(2.0 * (0.5 + 0.25))


def test_generalized_rejects_mismatched_perturbation():
    pert = {"input_dim": 1, "output_dim": 1,
            "terms": [[{"coef": 1.0, "powers": [1]}]]}
    with pytest.raises(ProblemFileError, match="perturbation.input_dim"):
        parse_problem(generalized_payload(perturbation=pert))


def test_generalized_parses_constraint_set():
    out = parse_problem(generalized_payload(
        constraint={"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}))
    assert isinstance(out.constraint, Box)


def test_generalized_rejects_bad_constraint():
    with pytest.raises(ProblemFileError, match="constraint"):
        parse_problem(generalized_payload(constraint={"type": "blob"}))


def test_generalized_fixture_short_circuit():
    out = parse_problem({"version": "1", "kind": "generalized",
                         "fixture": "lsc_counterexample"})
    assert out.fixture == "lsc_counterexample"
    assert out.matrix is None
    with pytest.raises(ProblemFileError, match="fixture"):
        parse_problem({"version": "1", "kind": "generalized",
                       "fixture": "mystery"})


def test_control_payload_fixture():
    out = parse_problem(control_payload())
    assert out.control is not None
    assert out.control.state_dim == 2
    assert out.control.mesh_size == 16
    np.testing.assert_allclose(
        out.control.dynamics(np.array([0.0, 0.3]), np.array([0.7])),
        [0.3, 0.7])


def test_control_rejects_unknown_fixture():
    with pytest.raises(ProblemFileError, match="unknown fixture"):
        parse_problem(control_payload(dynamics="rocket"))


def test_control_rejects_dimension_override():
    with pytest.raises(ProblemFileError, match="state_dim"):
        parse_problem(control_payload(state_dim=3))


def test_control_polynomial_dynamics():
    dyn = {"input_dim": 2, "output_dim": 1,
           "terms": [[{"coef": 1.0, "powers": [0, 1]}]]}
    out = parse_problem({"version": "1", "kind": "control", "dynamics": dyn,
                         "state_dim": 1, "control_dim": 1,
                         "control_set": BOX_JSON, "mesh": 8})
    np.testing.assert_allclose(
        out.control.dynamics(np.zeros(1), np.array([0.4])), [0.4])


def test_control_polynomial_dimension_checks():
    dyn = {"input_dim": 3, "output_dim": 1,
           "terms": [[{"coef": 1.0, "powers": [0, 0, 1]}]]}
    with pytest.raises(ProblemFileError, match="input_dim"):
        parse_problem({"version": "1", "kind": "control", "dynamics": dyn,
                       "state_dim": 1, "control_dim": 1,
                       "control_set": BOX_JSON})


def test_control_surfaces_problem_guards():
    # constant drift violates the rest-point contract; the parser reports it
    dyn = {"input_dim": 2, "output_dim": 1,
           "terms": [[{"coef": 1.0, "powers": [0, 0]}]]}
    with pytest.raises(ProblemFileError, match="rest point"):
        parse_problem({"version": "1", "kind": "control", "dynamics": dyn,
                       "state_dim": 1, "control_dim": 1,
                       "control_set": BOX_JSON})


UNBOUNDED = "control set unbounded along axis 0; it must be compact"


@pytest.mark.parametrize("control_set,message", [
    ({"type": "halfspaces", "normals": [[1.0]], "offsets": [1.0]}, UNBOUNDED),
    ({"type": "box", "lower": [-1.0], "upper": [float("inf")]}, UNBOUNDED),
    ({"type": "ball", "center": [0.0], "radius": 1.0},
     "control set of type Ball is not supported; use a box or halfspaces"),
    ({"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
     "control set lives in dimension 2, expected 1"),
    ({"type": "box", "lower": [0.5], "upper": [1.0]},
     "control set must contain the zero control"),
], ids=["halfspace-u<=1", "box-infinite-upper", "ball", "dimension", "no-zero"])
def test_control_set_errors_name_the_control_set(control_set, message):
    with pytest.raises(ProblemFileError,
                       match=f"^{re.escape('$.control_set: ' + message)}$"):
        parse_problem(control_payload(control_set=control_set))


def test_control_errors_name_the_dynamics_and_the_mesh(tmp_path):
    dyn = {"input_dim": 2, "output_dim": 1,
           "terms": [[{"coef": 1.0, "powers": [0, 0]}]]}
    with pytest.raises(ProblemFileError,
                       match=r"^\$\.dynamics: dynamics must vanish at the rest point"):
        parse_problem(control_payload(dynamics=dyn, state_dim=1, control_dim=1))
    with pytest.raises(ProblemFileError,
                       match=r"^\$\.mesh: mesh size must be at least 2, got 1$"):
        parse_problem(control_payload(mesh=1))
    # json reads Infinity, so a file on disk can carry the unbounded box
    path = tmp_path / "open.json"
    path.write_text('{"version": "1", "kind": "control", "dynamics": '
                    '"double_integrator", "control_set": {"type": "box", '
                    '"lower": [-1.0], "upper": [Infinity]}}')
    with pytest.raises(ProblemFileError,
                       match=f"^{re.escape('$.control_set: ' + UNBOUNDED)}$"):
        load_problem(str(path))


# ---------------------------------------------------------------------------
# polynomial tables


def test_polynomial_value_and_jacobian():
    table = {"input_dim": 2, "output_dim": 1,
             "terms": [[{"coef": 1.0, "powers": [2, 0]},
                        {"coef": 2.0, "powers": [0, 1]}]]}
    poly = polynomial_from_json(table, "map")
    np.testing.assert_allclose(poly.value([3.0, 4.0]), [17.0])
    np.testing.assert_allclose(poly.jacobian([3.0, 4.0]), [[6.0, 2.0]])
    np.testing.assert_allclose(poly([3.0, 4.0]), poly.value([3.0, 4.0]))


def test_polynomial_rejects_bad_terms():
    with pytest.raises(ProblemFileError, match="terms"):
        polynomial_from_json({"input_dim": 1, "output_dim": 2,
                              "terms": [[]]}, "map")
    with pytest.raises(ProblemFileError, match="powers"):
        polynomial_from_json({"input_dim": 2, "output_dim": 1,
                              "terms": [[{"coef": 1.0, "powers": [1]}]]},
                             "map")
    with pytest.raises(ProblemFileError, match="exponents"):
        polynomial_from_json({"input_dim": 1, "output_dim": 1,
                              "terms": [[{"coef": 1.0, "powers": [-1]}]]},
                             "map")


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2,
                max_size=2))
@settings(max_examples=40, deadline=None)
def test_polynomial_jacobian_matches_finite_differences(x):
    poly = PolynomialMap(
        input_dim=2, output_dim=2,
        terms=(((1.5, np.array([2, 1])), (-0.5, np.array([0, 3]))),
               ((2.0, np.array([1, 0])),)))
    x = np.asarray(x)
    h = 1e-6
    fd = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd[:, j] = (poly.value(x + e) - poly.value(x - e)) / (2.0 * h)
    np.testing.assert_allclose(poly.jacobian(x), fd, atol=1e-6)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_polynomial_value_stacks_points_bitwise(dim):
    # every exponent 0..3 on every coordinate, plus mixed monomials
    rng = np.random.default_rng(dim)
    powers = [np.full(dim, p) for p in range(4)] + [rng.integers(0, 4, dim)
                                                    for _ in range(3)]
    poly = PolynomialMap(
        input_dim=dim, output_dim=2,
        terms=tuple(tuple((float(rng.standard_normal()), p) for p in powers)
                    for _ in range(2)))
    # numpy squares a broadcast exponent 2 exactly where pow may not: about
    # 3 % of points differ, so k = 256 shows it
    for k in sorted({1, 2, dim, dim + 1, 256}):
        x = 3.0 * rng.standard_normal((dim, k))
        stacked = poly.value(x)
        assert stacked.shape == (2, k)
        per_point = np.column_stack([poly.value(x[:, j]) for j in range(k)])
        np.testing.assert_array_equal(stacked, per_point)


SIGNED = st.one_of(st.floats(min_value=-100.0, max_value=100.0),
                   st.sampled_from([0.0, -0.0]))


@st.composite
def polynomial_and_points(draw):
    """A table of up to 3 components, each possibly empty, over up to 4
    inputs with exponents 0 to 4, coefficients and coordinates that may be
    signed zeros, and 1 to 6 drawn points stacked with 64 seeded ones."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    powers = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    terms = tuple(
        tuple((draw(SIGNED), np.array(draw(powers)))
              for _ in range(draw(st.integers(0, 11))))
        for _ in range(m))
    k = draw(st.integers(1, 6))
    x = np.array(draw(st.lists(SIGNED, min_size=n * k, max_size=n * k)))
    # pow differs from numpy's scalar-exponent loop on a few % of points
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    more = rng.standard_normal((n, 64)) * 10.0 ** rng.uniform(-3, 2, (n, 64))
    x = np.concatenate([x.reshape(n, k), more], axis=1)
    return PolynomialMap(input_dim=n, output_dim=m, terms=terms), x


@given(polynomial_and_points())
@settings(max_examples=200, deadline=None)
def test_polynomial_value_matches_the_term_loop_bit_for_bit(case):
    poly, x = case
    got = poly.value(x)
    assert got.tobytes() == polynomial_value_loop(poly, x).tobytes()
    assert got.shape == (poly.output_dim, x.shape[1])
    for j in range(x.shape[1] - 56):  # the drawn points and 8 seeded ones
        for point in (x[:, j], x[:, j].copy()):
            want = polynomial_value_loop(poly, point)
            assert poly.value(point).tobytes() == want.tobytes()


@pytest.mark.parametrize("power", range(5))
def test_polynomial_value_stacks_a_single_monomial_bitwise(power):
    # one term over one input: a stacked call must not hand numpy a
    # broadcast exponent
    poly = PolynomialMap(input_dim=1, output_dim=1,
                         terms=(((0.3, np.array([power])),),))
    x = 3.0 * np.random.default_rng(power).standard_normal((1, 256))
    want = polynomial_value_loop(poly, x)
    assert poly.value(x).tobytes() == want.tobytes()
    per_point = np.column_stack([poly.value(x[:, j]) for j in range(256)])
    assert per_point.tobytes() == want.tobytes()


@pytest.mark.parametrize("x", [np.ones(3), np.ones((3, 4)), np.ones(1),
                               np.ones((1, 4)), np.float64(1.0)],
                         ids=["point-3", "stacked-3", "point-1", "stacked-1",
                              "0-d"])
def test_polynomial_value_refuses_points_of_another_dimension(x):
    # a gather would read the first two coordinates of a longer point
    poly = PolynomialMap(input_dim=2, output_dim=1,
                         terms=(((1.0, np.array([1, 0])),),))
    with pytest.raises(ShapeError, match="input_dim 2"):
        poly.value(x)


def test_dynamics_registry_contents():
    assert set(DYNAMICS_FIXTURES) == {"double_integrator", "pendulum"}
    for name, (oracle, n, m) in DYNAMICS_FIXTURES.items():
        rest = oracle(np.zeros(n), np.zeros(m))
        assert rest.shape == (n,)
        np.testing.assert_allclose(rest, np.zeros(n), atol=1e-15)


# ---------------------------------------------------------------------------
# files on disk


def test_load_problem_missing_file(tmp_path):
    with pytest.raises(ProblemFileError, match="cannot read"):
        load_problem(str(tmp_path / "nope.json"))


def test_load_problem_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": "1",\n  "kind": }\n')
    with pytest.raises(ProblemFileError, match="line 2") as info:
        load_problem(str(bad))
    assert "column" in str(info.value)


def test_load_problem_round_trip(tmp_path):
    import json

    path = tmp_path / "ok.json"
    path.write_text(json.dumps(control_payload()))
    out = load_problem(str(path))
    assert out.kind == "control"
    assert out.control.mesh_size == 16
