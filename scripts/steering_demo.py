"""Steer a constrained linear-quadratic test system around a target circle.

Builds one steering certificate (constants kappa, lambda, alpha and the
radius tau), then reuses it for every endpoint on the circle. Reported per
target: endpoint error after re-integrating the returned control, the
calmness ratio |trajectory| / |b|, and the largest control magnitude.

Example:
    python3 scripts/steering_demo.py --fixture pendulum --radius 0.04
"""

import argparse

import numpy as np

from regsel.control import ControlProblem, linearize, steer, steering_setup
from regsel.convex import Box
from regsel.moduli import fmt_float

UNIT_BOX = Box([-1.0], [1.0])


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


FIXTURES = {"double_integrator": double_integrator, "pendulum": pendulum}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fixture", choices=sorted(FIXTURES), default="double_integrator")
    ap.add_argument("--mesh", type=int, default=64)
    ap.add_argument("--radius", type=float, default=0.05,
                    help="circle radius for the endpoint targets")
    ap.add_argument("--points", type=int, default=8)
    args = ap.parse_args()

    problem = FIXTURES[args.fixture](args.mesh)
    sys = linearize(problem)
    setup = steering_setup(problem, sys,
                           tau_target=max(0.065, 1.3 * args.radius))
    print(f"fixture={args.fixture} mesh={args.mesh} "
          f"kappa={setup.config.kappa:.4g} lambda={setup.config.lam:.4g} "
          f"tau={setup.tau:.4g} calm_bound={setup.calm_bound:.4g}")
    print("angle,endpoint_error,calm_ratio,max_control")

    worst_ratio = 0.0
    for angle in np.linspace(0.0, 2.0 * np.pi, args.points, endpoint=False):
        b = args.radius * np.array([np.cos(angle), np.sin(angle)])
        res = steer(problem, sys, b, setup)
        worst_ratio = max(worst_ratio, res.calm_ratio)
        print(",".join([f"{angle:.4f}",
                        fmt_float(res.endpoint_error),
                        fmt_float(res.calm_ratio),
                        fmt_float(float(np.abs(res.controls).max()))]))

    print(f"worst calm ratio {worst_ratio:.4g} vs certificate "
          f"{setup.calm_bound:.4g}")


if __name__ == "__main__":
    main()
