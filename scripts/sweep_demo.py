"""Sweep a nonlinear generalized equation across its certified query ball.

The model problem is y in g(x) + F(x) with F(x) = x1 + x2 and the small
smooth perturbation g(x) = c * sin(x1). The sweep solves on a grid of
queries, then compares the measured worst-case calmness against the
certificate gamma = 2*kappa / (1 - alpha*lambda).

Example:
    python3 scripts/sweep_demo.py --grid 201 --coupling 0.05
"""

import argparse

import numpy as np

from regsel.convex import AffineSet
from regsel.moduli import fmt_float
from regsel.selection import GeneralizedEquation, IterationConfig, sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=101)
    ap.add_argument("--coupling", type=float, default=0.05,
                    help="amplitude of the sin perturbation")
    ap.add_argument("--tau-frac", type=float, default=0.99,
                    help="fraction of the certified radius to sweep")
    args = ap.parse_args()
    if not 0.0 < args.coupling < 0.5:
        ap.error("--coupling must sit in (0, 0.5) to keep kappa*lambda small")

    c = args.coupling
    eq = GeneralizedEquation(
        finv=lambda y: AffineSet([[1.0, 1.0]], [float(np.atleast_1d(y)[0])]),
        g=lambda x: np.array([c * np.sin(x[0])]),
        x_base=[0.0, 0.0], y_base=[0.0],
        radius_x=1.0, radius_y=1.0, radius_graph=4.0)
    cfg = IterationConfig(kappa=0.8, lam=1.2 * c, alpha=2.0, tol=1e-11)

    probe = sweep(eq, cfg, [[0.0]])
    tau = probe.schedule.tau
    ys = np.linspace(-args.tau_frac * tau, args.tau_frac * tau, args.grid).reshape(-1, 1)
    res = sweep(eq, cfg, ys)

    print(f"kappa={cfg.kappa} lambda={cfg.lam} alpha={cfg.alpha} "
          f"tau={tau:.6g} gamma={cfg.gamma:.6g}")
    print("y,x1,x2,iterations,residual")
    for row in res.rows:
        if row.x is None:
            print(f"{row.y[0]:.6g},error: {row.error}")
            continue
        print(",".join([fmt_float(float(row.y[0])),
                        fmt_float(float(row.x[0])),
                        fmt_float(float(row.x[1])),
                        str(row.certificate.iterate_count),
                        fmt_float(row.certificate.residual)]))
    print(f"empirical clm {res.empirical_clm:.6g} (certificate gamma "
          f"{cfg.gamma:.6g}), jumps {len(res.jump_indices)}")


if __name__ == "__main__":
    main()
