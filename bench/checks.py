"""Input matrices, independent output checks and reference values.

Nothing here calls regsel's SVD or projection code: residuals come from
direct substitution, memberships from comparisons, polynomial values from
the benchmark's own coefficient tables, and the sampled regularity modulus
of a grid graph from a brute-force scan. Each check returns an error string,
or "" when the output is correct.
"""

from __future__ import annotations

import numpy as np

RESIDUAL_RTOL = 1e-8
CALM_ATOL = 1e-9
CONTROL_TOL = 1e-7
DEFECT_TOL = 1e-8
ENDPOINT_TOL = 1e-8
MATCH_RTOL = 1e-9


def random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_surjective(rng, rows: int, cols: int, smin: float, smax: float):
    """Matrix with singular values drawn in [smin, smax]; returns (M, sigma_min)."""
    s = np.sort(rng.uniform(smin, smax, size=rows))[::-1]
    v = random_orthogonal(rng, cols)[:, :rows]
    return (random_orthogonal(rng, rows) * s) @ v.T, float(s[-1])


def poly_eval(table, x) -> np.ndarray:
    """Value of a polynomial given as per-component lists of (coef, powers)."""
    x = np.asarray(x, dtype=float)
    return np.array([sum(c * float(np.prod([x[j] ** p for j, p in enumerate(pw)]))
                         for c, pw in comp) for comp in table])


def calm_error(x, x_base, dev: float, cfg, cert) -> str:
    """Calmness of a selection value, recomputed from the constants."""
    gamma = 2.0 * cfg.kappa / (1.0 - cfg.alpha * cfg.lam)
    dist = float(np.linalg.norm(x - x_base))
    if not cert.calm_ok:
        return "certificate reports calm_ok = false"
    if dist > gamma * dev + CALM_ATOL:
        return f"|x - x_base| = {dist:.3e} exceeds gamma*dev = {gamma * dev:.3e}"
    return ""


def generalized_error(case, y, x, cfg, cert) -> str:
    """y in g(x) + M x, box membership and calmness for a solve-mix query."""
    w = y - case.g(x)
    resid = float(np.linalg.norm(case.matrix @ x - w))
    if not resid <= RESIDUAL_RTOL * (1.0 + np.linalg.norm(y)):
        return f"residual |M x - (y - g(x))| = {resid:.3e}"
    if case.box is not None:
        lo, hi = case.box
        if np.any(x < lo - CALM_ATOL) or np.any(x > hi + CALM_ATOL):
            return "solution leaves the box constraint"
    dev = float(np.linalg.norm(y - case.y_base - case.g(case.x_base)))
    return calm_error(x, case.x_base, dev, cfg, cert)


def smooth_error(case, y, x, cfg, cert) -> str:
    """f(x) = y for a smooth solve, with f evaluated from its table."""
    resid = float(np.linalg.norm(poly_eval(case.table, x) - y))
    if not resid <= RESIDUAL_RTOL * (1.0 + np.linalg.norm(y)):
        return f"residual |f(x) - y| = {resid:.3e}"
    dev = float(np.linalg.norm(y - poly_eval(case.table, case.x_base)))
    return calm_error(x, case.x_base, dev, cfg, cert)


def steering_error(dynamics, b, result) -> str:
    """Endpoint, trapezoid defect by substitution, control bound, calmness."""
    states, controls = result.states, result.controls
    big_n = controls.shape[0]
    endpoint = float(np.linalg.norm(states[-1] - b))
    if not endpoint <= ENDPOINT_TOL:
        return f"endpoint error {endpoint:.3e}"
    if np.any(states[0] != 0.0):
        return "trajectory does not start at the origin"
    h = 1.0 / big_n
    defect = 0.0
    for i in range(big_n):
        mean = 0.5 * (dynamics(states[i], controls[i])
                      + dynamics(states[i + 1], controls[i]))
        defect = max(defect, float(np.max(np.abs(states[i + 1] - states[i] - h * mean))))
    if not defect <= DEFECT_TOL:
        return f"trapezoid defect {defect:.3e}"
    if not np.max(np.abs(controls)) <= 1.0 + CONTROL_TOL:
        return f"control bound violated: max |u| = {np.max(np.abs(controls)):.9g}"
    ratio = (big_n * np.max(np.abs(np.diff(states, axis=0)))
             + np.max(np.abs(controls))) / np.linalg.norm(b)
    if abs(ratio - result.calm_ratio) > MATCH_RTOL * ratio:
        return f"calm ratio {result.calm_ratio:.9g} != recomputed {ratio:.9g}"
    if not result.calm_ratio <= result.calm_bound:
        return f"calm ratio {result.calm_ratio:.6g} > bound {result.calm_bound:.6g}"
    return ""


def grid_ball(center, radius: float, grid: int) -> np.ndarray:
    """Grid points in the closed ball: odd count per axis, as in the verifiers."""
    count = grid + 1 if grid % 2 == 0 else grid
    axes = [np.linspace(c - radius, c + radius, count) for c in center]
    pts = np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(center), -1).T
    return pts[np.linalg.norm(pts - center, axis=1) <= radius + 1e-12]


def sampled_modulus(matrix, center, radius: float, grid: int) -> float:
    """Worst d(x, fibre(y)) / |M x - y| over the grid graph of x -> M x.

    Fibres are the grid points whose value matches y; every grid value is a
    test value. Brute force over all (x, y) pairs.
    """
    pts = grid_ball(np.asarray(center, dtype=float), radius, grid)
    vals = pts @ matrix.T
    worst = 0.0
    for y in np.unique(vals, axis=0):
        d_y = np.linalg.norm(vals - y, axis=1)
        on_fibre = d_y <= MATCH_RTOL * (1.0 + np.linalg.norm(y))
        fibre = pts[on_fibre]
        d_x = np.min(np.linalg.norm(pts[:, None, :] - fibre[None, :, :], axis=2), axis=1)
        worst = max(worst, float(np.max(d_x[~on_fibre] / d_y[~on_fibre], initial=0.0)))
    return worst


def verdict_error(report, expect_ok: bool, reference: float) -> str:
    """Verdict as expected, and the worst ratio equal to the reference."""
    if report.ok != expect_ok:
        return (f"{report.kind} verdict {'pass' if report.ok else 'fail'} at "
                f"kappa {report.kappa:.6g}, expected "
                f"{'pass' if expect_ok else 'fail'} (modulus {reference:.9g})")
    if abs(report.worst_ratio - reference) > MATCH_RTOL * reference:
        return (f"{report.kind} worst ratio {report.worst_ratio:.12g} != "
                f"reference {reference:.12g}")
    return ""
