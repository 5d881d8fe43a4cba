"""Independent oracles used by the test suite.

Most of what is here deliberately avoids the package's own SVD/projection
code paths: singular values come from one-sided Jacobi rotations,
projections onto affine sets from the KKT normal equations, operator norms
from power iteration. Tests compare package output against these.
``dykstra_loop`` is the package's Dykstra scheme without its exact exit,
the reference for what that exit may change.

The last sections hold checkers that run the package itself and that only
tests call: the trapezoidal integrator and its mesh-doubling order check,
the selection's finite-difference derivative and the augmented Jacobian,
and the selection solve as three separate phases, the reference the single
corrector loop of regsel.selection.solve must reproduce bit for bit.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from regsel import convex
from regsel.control import ControlProblem
from regsel.errors import (ContractError, InfeasibilitySuspectedError,
                           LocalityError, NumericBreakdownError, RegularityError)
from regsel.linalg import as_matrix, as_vector, norm, operator_norm, svd
from regsel.moduli import CHECK_ATOL, CHECK_RTOL
from regsel.selection import (GeneralizedEquation, IterationCertificate,
                              IterationConfig, compute_tau)
from regsel.smooth import SmoothProblem, config_for, smooth_selection


def jacobi_singular_values(a, tol: float = 1e-14, max_sweeps: int = 60) -> np.ndarray:
    """Singular values by one-sided Jacobi rotations, descending.

    Rotates column pairs of the tall factor until all pairs are orthogonal
    to working precision; the singular values are then the column norms.
    """
    a = np.asarray(a, dtype=float)
    b = a.copy() if a.shape[0] >= a.shape[1] else a.T.copy()
    q = b.shape[1]
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(q - 1):
            for j in range(i + 1, q):
                alpha = float(b[:, i] @ b[:, i])
                beta = float(b[:, j] @ b[:, j])
                gamma = float(b[:, i] @ b[:, j])
                scale = np.sqrt(alpha * beta)
                if scale == 0.0 or abs(gamma) <= tol * scale:
                    continue
                off = max(off, abs(gamma) / scale)
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                bi = b[:, i].copy()
                b[:, i] = c * bi - s * b[:, j]
                b[:, j] = s * bi + c * b[:, j]
        if off == 0.0:
            break
    return np.sort(np.linalg.norm(b, axis=0))[::-1]


def power_norm(a, iters: int = 500, seed: int = 0) -> float:
    """Operator norm by power iteration on a^T a."""
    a = np.asarray(a, dtype=float)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = a.T @ (a @ v)
        n = np.linalg.norm(w)
        if n == 0.0:
            return 0.0
        v = w / n
    return float(np.linalg.norm(a @ v))


def kkt_affine_project(op, rhs, x) -> np.ndarray:
    """Nearest point on {z : op z = rhs} via the KKT normal equations."""
    op = np.asarray(op, dtype=float)
    x = np.asarray(x, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    mult = np.linalg.solve(op @ op.T, op @ x - rhs)
    return x - op.T @ mult


def dykstra_loop(sets, start) -> np.ndarray:
    """Dykstra's alternating projections with every round run: the package's
    ``convex.dykstra`` without its one-projection exit. The tolerance and
    the round budget are read from ``regsel.convex`` at call time, so a
    test that patches them patches both."""
    x = np.array(start, dtype=float)
    corrections = [np.zeros_like(x) for _ in sets]
    gap_tol = max(1e-9, 10.0 * convex.DYKSTRA_TOL)
    for _ in range(convex.DYKSTRA_MAX_ROUNDS):
        x_prev = x.copy()
        for i, s in enumerate(sets):
            y = s.project(x + corrections[i])
            corrections[i] = x + corrections[i] - y
            x = y
        if norm(x - x_prev) <= convex.DYKSTRA_TOL:
            gap = max(s.distance(x) for s in sets)
            if gap <= gap_tol:
                return x
    gap = max(s.distance(x) for s in sets)
    raise InfeasibilitySuspectedError(
        f"alternating projections did not settle in {convex.DYKSTRA_MAX_ROUNDS} "
        f"rounds (gap {gap:.3e}); the intersection may be empty", gap=gap)


def pinv_apply(a, rhs) -> np.ndarray:
    """Least-norm solution a^T (a a^T)^{-1} rhs through the normal equations.

    ``a`` must have full row rank; ``rhs`` is a vector or stacked columns.
    """
    a = np.asarray(a, dtype=float)
    return a.T @ np.linalg.solve(a @ a.T, np.asarray(rhs, dtype=float))


def sampled_calm_bound(b, samples: int = 10000, seed: int = 0) -> float:
    """Twice the sampled sup of ||x|| over least-norm solutions of b x = y,
    ||y|| = 1: the calmness bound 2/sigma_min(b) from below.

    Four rounds of unit targets; after the first, each round samples a
    shrinking cap around the best target so far.
    """
    b = np.asarray(b, dtype=float)
    rng = np.random.default_rng(seed)
    per_round = max(1, samples // 4)
    best, best_dir, cap = 0.0, np.zeros(b.shape[0]), 1.0
    for _ in range(4):
        dirs = best_dir + cap * rng.standard_normal((per_round, b.shape[0]))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        vals = np.linalg.norm(pinv_apply(b, dirs.T), axis=0)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_dir = float(vals[k]), dirs[k]
        cap *= 0.1
    return 2.0 * best


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-13,
                max_iter: int = 200) -> float:
    """Root of a scalar function with a sign change on [lo, hi]."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    assert flo * fhi < 0, "no sign change on the bracket"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def trapezoid_residual(dynamics, states, controls) -> float:
    """Worst per-interval defect of the implicit trapezoid relation.

    Pure substitution: no solver involved, so it checks steering output
    without sharing any code with the integrator under test.
    """
    states = np.asarray(states, dtype=float)
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    big_n = controls.shape[0]
    h = 1.0 / big_n
    worst = 0.0
    for i in range(big_n):
        mean = 0.5 * (np.asarray(dynamics(states[i], controls[i]), dtype=float)
                      + np.asarray(dynamics(states[i + 1], controls[i]), dtype=float))
        gap = states[i + 1] - states[i] - h * mean
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def collocation_remainder_loop(dynamics, sys):
    """The collocation remainder evaluated interval by interval.

    Two single-point dynamics calls per interval, in the scaled coordinates
    of regsel.control: the reference the stacked evaluation must reproduce.
    """
    n, m, big_n = sys.state_dim, sys.control_dim, sys.mesh_size
    a, b = sys.a_matrix, sys.b_matrix
    f = dynamics
    nx = n * big_n
    sq = np.sqrt(big_n)

    def g(scaled):
        scaled = np.asarray(scaled, dtype=float)
        states = np.vstack([np.zeros(n), (scaled[:nx] * sq).reshape(big_n, n)])
        controls = (scaled[nx:] * sq).reshape(big_n, m)
        out = np.zeros(nx + n)
        for i in range(big_n):
            mean = 0.5 * (f(states[i], controls[i]) + f(states[i + 1], controls[i]))
            linear = a @ (0.5 * (states[i] + states[i + 1])) + b @ controls[i]
            out[n * i:n * (i + 1)] = linear - mean
        return out / sq

    return g


def linearize_loop(problem, step: float) -> tuple[np.ndarray, np.ndarray]:
    """A = df/dx and B = df/du at the origin by central differences, one
    column at a time: 2(n+m) single-point dynamics calls, the reference the
    one stacked call of regsel.control.linearize must reproduce."""
    n, m = problem.state_dim, problem.control_dim
    f = problem.dynamics
    a = np.zeros((n, n))
    b = np.zeros((n, m))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        a[:, j] = (f(e, np.zeros(m)) - f(-e, np.zeros(m))) / (2.0 * step)
    for j in range(m):
        e = np.zeros(m)
        e[j] = step
        b[:, j] = (f(np.zeros(n), e) - f(np.zeros(n), -e)) / (2.0 * step)
    return a, b


def transported_calm_bound_dense(sys, fact, cfg) -> float:
    """The steering calm bound from a fresh full SVD and dense selectors.

    ``fact`` is the full SVD of the collocation operator; its pseudoinverse
    is re-measured through explicit N*(x_{i+1} - x_i) and u_i selector
    matrices: the reference the sliced bound in regsel.control must
    reproduce.
    """
    n, m, big_n = sys.state_dim, sys.control_dim, sys.mesh_size
    nx = n * big_n
    r = n * big_n + n
    pinv = fact.vt[:r].T @ (fact.u / fact.s[:r]).T
    sq = np.sqrt(big_n)
    diff = np.zeros((nx, nx + m * big_n))
    for i in range(big_n):
        rr = slice(n * i, n * (i + 1))
        if i > 0:
            diff[rr, n * (i - 1):n * i] = -big_n * sq * np.eye(n)
        diff[rr, n * i:n * (i + 1)] = big_n * sq * np.eye(n)
    sel = np.zeros((m * big_n, nx + m * big_n))
    for j in range(m * big_n):
        sel[j, nx + j] = sq
    row_norm_diff = float(np.max(np.linalg.norm(diff @ pinv, axis=1)))
    row_norm_sel = float(np.max(np.linalg.norm(sel @ pinv, axis=1)))
    return 2.0 * 1.1 * (row_norm_diff + row_norm_sel) / (1.0 - cfg.contraction)


def random_surjective(rng, rows: int, cols: int, smin: float = 0.05,
                      smax: float = 4.0) -> np.ndarray:
    """Random matrix with singular values drawn inside [smin, smax]."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    s = np.exp(rng.uniform(np.log(smin), np.log(smax), size=rows))
    return (u * s) @ v[:, :rows].T


def sampled_fibre(pts, gy, gx_idx, y, rtol: float = 1e-9) -> np.ndarray:
    """Grid points x with a sampled value of F(x) within rtol*(1+|y|) of y.

    gy holds the sampled graph values, gx_idx[i] the index in pts of the
    point gy[i] belongs to.
    """
    n_pts = pts.shape[0]
    dist_rows = np.linalg.norm(gy - y, axis=1)
    d_y_fx = np.full(n_pts, np.inf)
    np.minimum.at(d_y_fx, gx_idx, dist_rows)
    match_tol = rtol * (1.0 + np.linalg.norm(y))
    return pts[d_y_fx <= match_tol]


def aubin_pair_scan(pts, gy, gx_idx, y_test, kappa: float,
                    rtol: float = 1e-9, atol: float = 1e-15):
    """Aubin check on a sampled graph by brute force over pairs of values.

    For every ordered pair (y_from, y_to) of distinct test values and every
    x in the sampled fibre of y_from, requires d(x, fibre(y_to)) <=
    kappa * |y_from - y_to| with the relative slack rtol and absolute slack
    atol. Returns (ok, worst_ratio, witness), the witness being
    (x, y_from, y_to) for the first pair, in test-value order, that attains
    the worst ratio. One small distance table per pair, nothing shared.
    Gaps |y_from - y_to| add squared coordinates in coordinate order
    (distances_3d), as the verifiers define them: a dot-kernel norm can
    differ in its last bit, and two pairs whose ratios tie under one
    definition then tie under the other at different pairs.
    """
    fibers = [sampled_fibre(pts, gy, gx_idx, y, rtol) for y in y_test]
    worst = 0.0
    witness = ()
    ok = True
    for a, y_from in enumerate(y_test):
        fib_from = fibers[a]
        if fib_from.shape[0] == 0:
            continue
        for b, y_to in enumerate(y_test):
            if a == b:
                continue
            gap_y = distances_3d(y_from[None], y_to[None])[0, 0]
            if gap_y == 0.0:
                continue
            fib_to = fibers[b]
            if fib_to.shape[0] == 0:
                ok = False
                worst = float("inf")
                witness = (fib_from[0], y_from, y_to)
                continue
            dists = np.sqrt(((fib_from[:, None, :] - fib_to[None, :, :]) ** 2)
                            .sum(axis=2)).min(axis=1)
            j = int(np.argmax(dists))
            ratio = float(dists[j] / gap_y)
            if ratio > worst:
                worst = ratio
                witness = (fib_from[j], y_from, y_to)
            if dists[j] > kappa * gap_y * (1.0 + rtol) + atol:
                ok = False
    return ok, worst, witness


def control_membership_loop(control_set, controls, tol: float):
    """First interval whose control is outside the set by more than ``tol``,
    one control at a time by the rules ``Box.distance`` (norm of the clamped
    excess) and ``Halfspaces.contains`` (largest normalized row excess) used
    before both moved to a batched ``violation``; None when all pass."""
    for i, u in enumerate(controls):
        if hasattr(control_set, "normals"):
            rows = control_set.normals
            excess = np.max((rows @ u - control_set.offsets)
                            / np.linalg.norm(rows, axis=1))
        else:
            excess = np.linalg.norm(np.maximum(
                0.0, np.maximum(control_set.lower - u, u - control_set.upper)))
        if not excess <= tol:
            return i
    return None


def support_lp(control_set, d) -> float:
    """sup{<d, u> : u in the set} for one direction: the box bound picked
    by the sign of each coordinate, written out, or one ``linprog`` over a
    halfspace system (+inf where it is unbounded along d). HiGHS runs
    without presolve, which reports some unbounded, nonempty systems (the
    recession-ray case of test_convex) as infeasible."""
    if hasattr(control_set, "normals"):
        from scipy.optimize import linprog

        res = linprog(-np.asarray(d, dtype=float), A_ub=control_set.normals,
                      b_ub=control_set.offsets,
                      bounds=[(None, None)] * control_set.dim, method="highs",
                      options={"presolve": False})
        if res.status == 3:
            return float("inf")
        assert res.status == 0, res.message
        return float(-res.fun)
    total = 0.0
    for dj, lo, hi in zip(d, control_set.lower, control_set.upper):
        if dj != 0.0:
            total += dj * (hi if dj > 0 else lo)
    return total


def _exact_solve(rows, rhs):
    """The solution of a square system in Fractions, or None if singular."""
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def exact_vertices(poly) -> list:
    """Every vertex of a bounded halfspace system, exactly: each dim-row
    subsystem N_S v = h_S is solved in Fractions on the exact float data
    and kept when it is nonsingular and v meets every row exactly. Returns
    (rows S, v as Fractions) pairs; a degenerate vertex appears once per
    subsystem that holds it."""
    normals = [[Fraction(float(a)) for a in row] for row in poly.normals]
    offsets = [Fraction(float(h)) for h in poly.offsets]
    out = []
    for subset in itertools.combinations(range(len(normals)), poly.dim):
        v = _exact_solve([normals[i] for i in subset], [offsets[i] for i in subset])
        if v is not None and all(sum(a * x for a, x in zip(row, v)) <= h
                                 for row, h in zip(normals, offsets)):
            out.append((subset, v))
    return out


def exact_support(vertices, d) -> list:
    """(<d, v>, S, v) for every pair of ``exact_vertices``, in Fractions of
    the exact float direction, largest first: the first value is the
    support sup{<d, x> : x in the set}."""
    d = [Fraction(float(a)) for a in d]
    return sorted(((sum(a * x for a, x in zip(d, v)), subset, v) for subset, v in vertices),
                  key=lambda row: row[0], reverse=True)


def reachable_interior_expm_loop(sys, control_set, seed: int = 0,
                                 nodes: int = 1024):
    """The interior margin of the continuous-time reachable set: the least
    over the direction grid of the integral over [0, 1] of
    support(B^T e^{A^T t} d), by the midpoint rule at ``nodes`` nodes with
    scipy's ``expm``, one direction and node at a time."""
    from scipy.linalg import expm

    from regsel.convex import direction_grid

    n = sys.state_dim
    lifted = [sys.b_matrix.T @ expm(sys.a_matrix.T * (k + 0.5) / nodes)
              for k in range(nodes)]
    margin = np.inf
    for d in direction_grid(n, max(2 * n, 16), seed=seed):
        margin = min(margin, sum(support_lp(control_set, w @ d) for w in lifted) / nodes)
    return margin > 0.0, float(margin)


def reachable_interior_node_loop(sys, control_set, seed: int = 0):
    """The reachable-set interior test one direction and interval at a time,
    with each interval's endpoint map E_i read off the collocation operator
    itself: the density rows of ``_weighted_operator`` are solved for the
    scaled states, x = -M_x^{-1} M_u u, and its endpoint rows read the last
    state, so b = E u for unscaled controls u (scaled by 1/sqrt(N) in the
    operator). The margin is the least over the direction grid of the sum
    over intervals of ``support_lp(E_i^T d)``."""
    from regsel.control import _weighted_operator
    from regsel.convex import direction_grid

    mat = _weighted_operator(sys)
    n, m, big_n = sys.state_dim, sys.control_dim, sys.mesh_size
    nx = n * big_n
    states = -np.linalg.solve(mat[:nx, :nx], mat[:nx, nx:])
    endpoint = mat[nx:, :nx] @ states / np.sqrt(big_n)
    margin = np.inf
    for d in direction_grid(n, max(2 * n, 16), seed=seed):
        total = 0.0
        for i in range(big_n):
            total += support_lp(control_set, endpoint[:, m * i:m * (i + 1)].T @ d)
        margin = min(margin, total)
    return margin > 0.0, float(margin)


# The blocked sample stream of regsel.moduli._sup_quotient, one point at a
# time: blocks of 64 proposals per end are drawn as the sampler draws them,
# then every proposal is clipped, evaluated (side by side: every first point
# of the block, then every second point) and compared on its own, with
# np.linalg.norm and as_vector on every point. The sampler must reproduce it
# bit for bit on maps whose stacked columns keep the bits of each point.
_BLOCK = 64
_SCALE_CYCLE = 28
_MIN_GAP_FRAC = 1e-7


def _clip_ball(p, center, radius):
    delta = p - center
    n = np.linalg.norm(delta)
    if n <= radius:
        return p
    return center + delta * (radius / n)


def sup_quotient_block_loop(f, center, radius, samples, seed, anchored):
    """sup ||f(x)-f(x')|| / ||x-x'|| over the sampler's stream of pairs,
    x' = center when ``anchored``."""
    from regsel.linalg import as_vector

    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    fc = as_vector(f(center))
    d = center.size
    ends = 1 if anchored else 2
    best_q = -np.inf
    best = None
    for start in range(0, samples, _BLOCK):
        z = rng.standard_normal((ends, _BLOCK, d))
        r = rng.random((ends, _BLOCK)) ** (1.0 / d)
        count = min(_BLOCK, samples - start)
        pts = [[None] * count for _ in range(ends)]
        for k in range(ends):
            steps = 0
            for j in range(count):
                if j % 3 != 0 and best is not None:
                    step = 2.0 ** -(steps % _SCALE_CYCLE) * radius
                    steps += 1
                    pts[k][j] = _clip_ball(best[k] + step * z[k, j], center, radius)
                else:
                    n = np.linalg.norm(z[k, j].copy())  # the direction alone
                    u = z[k, j] / n if n > 0 else np.eye(d)[0]
                    pts[k][j] = center + radius * r[k, j] * u
        vals = [[as_vector(f(x)) for x in side] for side in pts]
        for j in range(count):
            x = pts[0][j]
            xp = center if anchored else pts[1][j]
            gap = np.linalg.norm(x - xp)
            if gap < _MIN_GAP_FRAC * radius:
                continue
            q = np.linalg.norm(vals[0][j] - (fc if anchored else vals[1][j])) / gap
            if q > best_q:
                best_q = q
                best = [side[j] for side in pts]
    if best is None:
        return 0.0, (center,) if anchored else (center, center)
    return float(best_q), (best[0], center) if anchored else tuple(best)


def polynomial_value_loop(poly, x):
    """regsel.problems.PolynomialMap.value as a loop over the table.

    The evaluator before the table was compiled: one ``**`` and one product
    per monomial, added into its component in table order. Stacked points
    are raised as one flat array. PolynomialMap.value must reproduce it bit
    for bit.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((poly.output_dim,) + x.shape[1:])
    # Stacked points, one per row, are raised to their powers as one flat
    # array, so every entry meets the pow loop a single point meets:
    # numpy sends a broadcast (stride-0) or 1x1 exponent to a
    # scalar-power loop whose last bits differ.
    rows = np.ascontiguousarray(x.T)
    flat = rows.ravel()
    for k, comp in enumerate(poly.terms):
        for coef, powers in comp:
            if x.ndim == 1:
                base = x ** powers
            else:
                base = (flat ** np.tile(powers, rows.shape[0])).reshape(rows.shape)
            out[k] += coef * np.prod(base, axis=-1)
    return out


# The grid-verifier scans of regsel.moduli as loops over test values and
# source fibres, before they were blocked: a d-wide squared-difference
# table per fibre, one norm per test value, and a source fibre per test
# value even where consecutive values share one. regsel.moduli's membership
# pass (sampled_reg, verify_metric_regularity, lg_bound_check) and its
# Aubin scan over the listing of distinct fibres (verify_aubin,
# verify_graph) must reproduce their values, verdicts and witnesses bit
# for bit. They take the sampled graph of regsel.moduli._sample_graph.


def distances_3d(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of p and the rows of q, the
    squared coordinate differences added in coordinate order, as the
    verifiers define their gaps. numpy's ``sum(axis=2)`` adds in that order
    below 8 coordinates only; from 8 on it keeps 8 partial sums."""
    squares = (p[:, None, :] - q[None, :, :]) ** 2
    dists = squares[:, :, 0].copy()
    for j in range(1, squares.shape[2]):
        dists += squares[:, :, j]
    return np.sqrt(dists, out=dists)


def fold_fibres_reduceat(pts, labels, members, count, rows_per_table):
    """regsel.moduli._fold_fibres as it was before it folded squared
    distances: the members are taken ``rows_per_table`` at a time, each
    table of distances to every point gets its square root entry by entry,
    np.minimum.reduceat reduces each fibre's run of rows, and np.minimum
    folds a run continuing from the table before into that fibre's row."""
    out = np.full((count, len(pts)), np.inf)
    for lo in range(0, len(members), rows_per_table):
        lab = labels[lo:lo + rows_per_table]
        starts = np.flatnonzero(np.r_[True, lab[1:] != lab[:-1]])
        table = distances_3d(pts[members[lo:lo + rows_per_table]], pts)
        block = np.minimum.reduceat(table, starts, axis=0)
        rows = lab[starts]
        if lo and labels[lo - 1] == rows[0]:
            np.minimum(block[0], out[rows[0]], out=block[0])
        out[rows] = block
    return out


def _fibres(pts, gy, gx_idx, y_test):
    """Yield (y, d_y_fx, in_fibre) for each test value y, in order."""
    n_pts = pts.shape[0]
    for y in y_test:
        dist_rows = distances_3d(gy, y[None])[:, 0]
        d_y_fx = np.full(n_pts, np.inf)
        np.minimum.at(d_y_fx, gx_idx, dist_rows)
        match_tol = CHECK_RTOL * (1.0 + np.linalg.norm(y))
        yield y, d_y_fx, d_y_fx <= match_tol


def ratio_scan_loop(pts, gy, gx_idx, y_test):
    """Worst d(x, fib(y)) / d(y, F(x)) over the sampled graph, with witness."""
    worst = 0.0
    witness = ()
    prev_fibre = None
    for y, d_y_fx, in_fibre in _fibres(pts, gy, gx_idx, y_test):
        if not in_fibre.any():
            # y came from the graph, so this cannot happen; guard anyway.
            finite = np.isfinite(d_y_fx) & (d_y_fx > 0)
            j = int(np.argmin(np.where(finite, d_y_fx, np.inf)))
            return float("inf"), (pts[j], y)
        # Near-equal test values sort next to each other and often have the
        # same fibre; its distance table is then that of the last one.
        if prev_fibre is None or not np.array_equal(in_fibre, prev_fibre):
            d_x_fib = distances_3d(pts, pts[in_fibre]).min(axis=1)
            prev_fibre = in_fibre
        denom = np.where(d_y_fx > 0, d_y_fx, np.inf)
        ratios = d_x_fib / denom
        bad_zero = (d_y_fx == 0) & (d_x_fib > 0)
        if np.any(bad_zero):
            j = int(np.argmax(bad_zero))
            return float("inf"), (pts[j], y)
        j = int(np.argmax(ratios))
        if ratios[j] > worst:
            worst = float(ratios[j])
            witness = (pts[j], y)
    return worst, witness


def aubin_fibre_loop(pts, gy, gx_idx, y_test, kappa: float):
    """Aubin check looping over source fibres: (ok, worst ratio, witness)."""
    members = [np.flatnonzero(in_fibre)
               for _, _, in_fibre in _fibres(pts, gy, gx_idx, y_test)]
    starts = np.cumsum([0] + [m.size for m in members[:-1]])
    # Near-equal test values share members, so distances are taken to each
    # member point once and gathered into fibre order.
    used, member_cols = np.unique(np.concatenate(members), return_inverse=True)
    used_pts = pts[used]
    worst = 0.0
    witness = ()
    ok = True
    prev_idx = None
    for y_from, idx in zip(y_test, members):
        fib_from = pts[idx]
        # Near-equal values sort next to each other and often have the same
        # fibre; its distances to the targets are then those of the last one.
        if prev_idx is None or not np.array_equal(idx, prev_idx):
            d_to = np.minimum.reduceat(
                distances_3d(fib_from, used_pts)[:, member_cols], starts, axis=1)
            j = np.argmax(d_to, axis=0)
            d_far = d_to.max(axis=0)
            prev_idx = idx
        # coordinate order, as the scan adds: the two agree bit for bit
        gap_y = distances_3d(y_from[None], y_test)[0]
        # gap 0 only at y' itself: the test values are distinct
        valid = gap_y > 0.0
        ratios = np.divide(d_far, gap_y, out=np.full(gap_y.shape, -np.inf),
                           where=valid)
        b = int(np.argmax(ratios))
        if ratios[b] > worst:
            worst = float(ratios[b])
            witness = (fib_from[j[b]], y_from, y_test[b])
        if np.any(valid & (d_far > kappa * gap_y * (1.0 + CHECK_RTOL)
                           + CHECK_ATOL)):
            ok = False
    return ok, worst, witness


# ---------------------------------------------------------------------------
# trapezoidal integration and its order


def simulate_trapezoidal(dynamics: Callable, state_dim: int, controls: np.ndarray,
                         start: np.ndarray | None = None,
                         tol: float = 1e-14, max_inner: int = 100) -> np.ndarray:
    """Integrate the implicit trapezoidal recursion for given interval controls.

    Serves as the independent feasibility check for steering output: a
    trajectory solves the discretized problem iff it matches this recursion
    from the same start under the same controls.
    """
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    big_n = controls.shape[0]
    h = 1.0 / big_n
    x = np.zeros(state_dim) if start is None else as_vector(start, dim=state_dim)
    out = np.zeros((big_n + 1, state_dim))
    out[0] = x
    for i in range(big_n):
        u = controls[i]
        fi = as_vector(dynamics(x, u), dim=state_dim)
        z = x + h * fi
        converged = False
        for _ in range(max_inner):
            znew = x + 0.5 * h * (fi + as_vector(dynamics(z, u), dim=state_dim))
            if np.max(np.abs(znew - z)) < tol:
                z = znew
                converged = True
                break
            z = znew
        if not converged:
            raise NumericBreakdownError(
                f"implicit trapezoidal step {i} did not settle in {max_inner} sweeps")
        x = z
        out[i + 1] = x
    return out


def endpoint_order_ratios(problem: ControlProblem, control_value,
                          meshes: Sequence[int] = (32, 64, 128),
                          ref_mesh: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint errors of the trapezoidal map under mesh doubling.

    Holds the control constant, integrates on each mesh and on a fine
    reference mesh, and returns (errors, ratios of consecutive errors).
    Second order convergence shows as ratios near 4.
    """
    value = as_vector(control_value, dim=problem.control_dim)
    if any(meshes[i + 1] != 2 * meshes[i] for i in range(len(meshes) - 1)):
        raise ContractError(f"meshes must double, got {tuple(meshes)}")
    if ref_mesh <= max(meshes):
        raise ContractError("reference mesh must exceed the tested meshes")
    reference = simulate_trapezoidal(
        problem.dynamics, problem.state_dim,
        np.tile(value, (ref_mesh, 1)))[-1]
    errors = []
    for mesh in meshes:
        end = simulate_trapezoidal(problem.dynamics, problem.state_dim,
                                   np.tile(value, (mesh, 1)))[-1]
        errors.append(float(np.linalg.norm(end - reference)))
    errors = np.array(errors)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = errors[:-1] / errors[1:]
    return errors, ratios


# ---------------------------------------------------------------------------
# derivative of the smooth selection


def derivative_check(problem: SmoothProblem, cfg: IterationConfig | None = None,
                     step: float | None = None) -> tuple[np.ndarray, float]:
    """Finite-difference derivative of the selection at the base output.

    Central differences with step 1e-5*(1+||y_base||) by default. Returns
    the stencil Jacobian J (cols x rows of f's Jacobian) and the worst of
    two deviations: ||B J - I|| and ||J - B^T (B B^T)^{-1}||, both as
    operator norms. Smooth fixtures land well under 1e-4.
    """
    if cfg is None:
        cfg = config_for(problem)
    b = problem.base_jacobian
    m = b.shape[0]
    h = step if step is not None else 1e-5 * (1.0 + np.linalg.norm(problem.y_base))
    cols = []
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        x_plus, _ = smooth_selection(problem, problem.y_base + e, cfg)
        x_minus, _ = smooth_selection(problem, problem.y_base - e, cfg)
        cols.append((x_plus - x_minus) / (2.0 * h))
    j_fd = np.stack(cols, axis=1)
    dev_left = operator_norm(b @ j_fd - np.eye(m))
    dev_pinv = operator_norm(j_fd - problem.base_fibre.right_inverse)
    return j_fd, max(dev_left, dev_pinv)


def augmented_jacobian(b) -> tuple[np.ndarray, bool]:
    """Augmented block matrix [[I, B^T], [B, 0]] and its invertibility verdict.

    The block matrix is invertible exactly when B is surjective; the verdict
    uses the shared relative singular-value cutoff.
    """
    b = as_matrix(b)
    m, n = b.shape
    j = np.zeros((n + m, n + m))
    j[:n, :n] = np.eye(n)
    j[:n, n:] = b.T
    j[n:, :n] = b
    return j, svd(j).surjective


# ---------------------------------------------------------------------------
# the selection solve in three phases: initial selection, first corrector
# step, iterate steps. Each step applies one rule: it projects onto the
# fibre and accepts the point when the distance moved is at most the
# allowed distance, kappa*dev + 10*tol for the initial selection,
# kappa*(1 + kappa*lambda)*dev + 10*tol for the first corrector step and
# alpha*lambda*(1 + 1e-6)*prev + 1e-15 for an iterate step after a step of
# length prev.


def truncated_projection(base_set, center: np.ndarray, allowed: float,
                         cfg: IterationConfig, what: str) -> np.ndarray:
    """Projection of ``center`` onto base_set when it lies within
    ``allowed`` of the centre, with the package's messages: RegularityError
    for an empty fibre or one farther than ``allowed``, NumericBreakdownError
    for a projection that misses its fibre by more than 10*tol."""
    try:
        z, gap = base_set.project_gap(center)
    except InfeasibilitySuspectedError as exc:
        raise RegularityError(
            f"{what}: the corrected target has no preimage under the "
            f"constraint (Dykstra gap {exc.gap:.3e})") from exc
    if gap > 10.0 * cfg.tol:
        raise NumericBreakdownError(
            f"{what}: projection gap {gap:.3e} exceeds 10*tol")
    dist = float(np.linalg.norm(z - center))
    if dist > allowed:
        raise RegularityError(
            f"{what}: truncated inverse image is empty, distance {dist:.3g} > "
            f"allowed radius {allowed:.3g} by {dist - allowed:.3g}; "
            f"kappa={cfg.kappa:.6g} may be below "
            f"the true regularity modulus or lambda={cfg.lam:.6g} misestimated")
    return z


def initial_selection(problem: GeneralizedEquation, cfg: IterationConfig,
                      y) -> np.ndarray:
    """Calm starting selection: project x_base onto the truncated fiber.

    ``y`` is a query for the unperturbed part, within radius_y of y_base.
    The truncation ball has radius kappa * ||y - y_base||, so the calm bound
    with constant kappa holds by construction.
    """
    y = as_vector(y, dim=problem.y_base.size)
    dev = float(np.linalg.norm(y - problem.y_base))
    if dev > problem.radius_y + 1e-12:
        raise LocalityError(
            f"query is {dev:.6g} from y_base, outside the image ball "
            f"{problem.radius_y:.6g}")
    return truncated_projection(problem.finv(y), problem.x_base,
                                cfg.kappa * dev + 10.0 * cfg.tol, cfg,
                                "initial selection")


def iterate_step(problem: GeneralizedEquation, cfg: IterationConfig, y,
                 z_prev, z_curr) -> np.ndarray:
    """One corrector step of the iteration.

    Projects z_curr onto the inverse image of y - g(z_curr), truncated to
    the ball of radius alpha*lambda*(1 + 1e-6)*||z_curr - z_prev|| + 1e-15
    around z_curr. Locality guards keep the iterate in the domain ball and
    the corrected target in the image ball.
    """
    y = as_vector(y, dim=problem.y_base.size)
    z_prev = as_vector(z_prev, dim=problem.x_base.size)
    z_curr = as_vector(z_curr, dim=problem.x_base.size)
    drift = float(np.linalg.norm(z_curr - problem.x_base))
    if drift > problem.radius_x + 1e-12:
        raise LocalityError(
            f"iterate drifted {drift:.6g} from x_base, outside the domain "
            f"ball {problem.radius_x:.6g}")
    prev = float(np.linalg.norm(z_curr - z_prev))
    allowed = cfg.contraction * (1 + 1e-6) * prev + 1e-15
    return _corrector_step(problem, cfg, y, z_curr, allowed, "iterate step")


def _corrector_step(problem: GeneralizedEquation, cfg: IterationConfig, y,
                    center: np.ndarray, allowed: float, what: str) -> np.ndarray:
    """Project ``center`` onto the inverse image of y - g(center) when it
    lies within ``allowed``, after checking that the corrected target stays
    in the image ball."""
    w = y - problem.g_value(center)
    w_dev = float(np.linalg.norm(w - problem.y_base))
    if w_dev > problem.radius_y + 1e-12:
        raise LocalityError(
            f"corrected target is {w_dev:.6g} from y_base, outside the image "
            f"ball {problem.radius_y:.6g}")
    return truncated_projection(problem.finv(w), center, allowed, cfg, what)


# Step limit of three_phase_solve: the cases it is compared on converge in
# under twenty steps, far below it
THREE_PHASE_STEPS = 200


def three_phase_solve(problem: GeneralizedEquation, cfg: IterationConfig,
                      y) -> tuple[np.ndarray, IterationCertificate]:
    """Solve y in g(x) + F(x) for a query in the certified tau-ball.

    Returns the selection value and a certificate with the step lengths,
    the final membership residual, and the calmness verdict against
    gamma = 2*kappa/(1 - alpha*lambda). Gives up after THREE_PHASE_STEPS
    steps.
    """
    y = as_vector(y, dim=problem.y_base.size)
    tau = compute_tau(cfg, (problem.radius_x, problem.radius_y))
    g_base = problem.g_value(problem.x_base)
    dev = float(np.linalg.norm(y - problem.y_base - g_base))
    if dev > tau + 1e-15:
        raise LocalityError(
            f"query is {dev:.6g} from the base output, outside the certified "
            f"radius tau={tau:.6g}")

    z0 = initial_selection(problem, cfg, y - g_base)

    # The first corrector step carries the wider radius
    # kappa*(1+kappa*lambda)*dev. It skips iterate_step's drift check, which
    # cannot fire on z0: ||z0 - x_base|| <= kappa*dev <= radius_x/2 under tau.
    allowed1 = cfg.kappa * (1.0 + cfg.kappa * cfg.lam) * dev + 10.0 * cfg.tol
    z1 = _corrector_step(problem, cfg, y, z0, allowed1, "first corrector step")

    increments = [float(np.linalg.norm(z1 - z0))]
    z_prev, z_curr = z0, z1
    while increments[-1] > cfg.tol:
        if len(increments) >= THREE_PHASE_STEPS:
            raise NumericBreakdownError(
                f"no convergence after {THREE_PHASE_STEPS} steps; last increment "
                f"{increments[-1]:.3e}")
        z_next = iterate_step(problem, cfg, y, z_prev, z_curr)
        increments.append(float(np.linalg.norm(z_next - z_curr)))
        z_prev, z_curr = z_curr, z_next

    x = z_curr
    final_set = problem.finv(y - problem.g_value(x))
    residual = final_set.gap(x)
    if residual > 10.0 * cfg.tol:
        raise NumericBreakdownError(
            f"final membership residual {residual:.3e} exceeds 10*tol")
    calm_ok = bool(np.linalg.norm(x - problem.x_base) <= cfg.gamma * dev + 1e-9)
    return x, IterationCertificate(config=cfg, tau=tau, increments=increments,
                                   residual=float(residual), calm_ok=calm_ok)
