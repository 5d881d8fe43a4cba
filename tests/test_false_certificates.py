"""Certificates that the problem does not bear out, one fixture file each
in ``tests/fixtures``.

Each test states a printed claim as it should hold: every target inside the
printed tau solves, or the problem is refused before a tau is printed; a
segment has no interior. Each is a strict xfail that names the exception
the claim fails with today, so the fix that makes a claim true turns its
test into a failure and removes the mark. ROADMAP item 1 (certificates that
see the constraint) covers the first three, item 17 (a modulus for a base
on the constraint's boundary) the fourth.
"""

from pathlib import Path

import numpy as np
import pytest

from regsel.control import steer
from regsel.errors import RegselError, RegularityError
from regsel.problems import load_problem

FIXTURES = Path(__file__).parent / "fixtures"
TOL = 1e-10  # the CLI's default --tol


def every_target_in_tau_solves(name: str, points: int = 9):
    """Solve targets from -tau to tau around the base output of a 1-D
    generalized file: a certificate refused at set-up claims nothing."""
    try:
        equation, schedule, select = load_problem(str(FIXTURES / name)).equation(TOL, None)
    except RegselError:
        return
    base_out = equation.y_base + equation.g_base
    for t in np.linspace(-1.0, 1.0, points):
        select(base_out + t * schedule.tau)


@pytest.mark.xfail(strict=True, raises=RegularityError,
                   reason="ROADMAP item 1: tau ignores U = [0, 1], whose boundary holds 0")
def test_a_control_target_inside_tau_steers_with_zero_on_the_boundary_of_u():
    # regsel control --target 0.05,0 prints tau 0.0663, then exits 4:
    # Dykstra gap 9.188e-02
    pf = load_problem(str(FIXTURES / "double_integrator_u01.json"))
    b = np.array([0.05, 0.0])
    try:
        setup = pf.steering(float(np.linalg.norm(b)), TOL, None)
    except RegselError:
        return
    assert np.linalg.norm(b) <= setup.tau
    steer(setup.problem, setup.sys, b, setup)


@pytest.mark.xfail(strict=True, raises=RegularityError,
                   reason="ROADMAP item 1: tau ignores the box [-1, 0.1]")
def test_every_target_inside_tau_solves_in_a_narrow_box():
    # regsel solve --target 0.15 prints tau 0.176, then exits 4: Dykstra
    # gap 1.538e-02
    every_target_in_tau_solves("generalized_narrow_box.json")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the direction grid finds an interior "
                          "in a segment")
@pytest.mark.parametrize("seed", range(5))
def test_a_segment_reachable_set_has_no_interior(seed):
    # x' = (u, u): Kalman rank 1, so the reachable set lies on a line, yet
    # reachable_interior says true with margins 0.035 to 0.281 over seeds 0-4
    pf = load_problem(str(FIXTURES / "segment_reachable_set.json"))
    rank, _, interior_ok, margin = pf.control_gate(seed)
    assert rank == 1
    assert not interior_ok, f"margin {margin}"


@pytest.mark.xfail(strict=True, raises=RegularityError,
                   reason="ROADMAP item 17: kappa ignores the box face that "
                          "holds the base")
def test_every_target_inside_tau_solves_with_the_base_on_the_boundary():
    # regsel solve --target 0.05 prints tau 0.2946 (kappa 0.778, below the
    # constrained map's modulus 1), then exits 4: distance 0.05 > allowed
    # radius 0.0389
    every_target_in_tau_solves("base_on_the_boundary.json")
