"""Smooth maps with surjective derivative: local right inverses.

A continuously differentiable f with surjective Jacobian B at the base
point splits into its linearization and a remainder whose Lipschitz modulus
vanishes at the base. Feeding that split to the selection iteration yields a
local right inverse of f that is calm at the base with constant close to
2/sigma_min(B), and differentiable there with derivative B^T (B B^T)^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .convex import AffineSet
from .errors import ContractError, RegularityError, ShapeError
from .linalg import as_matrix, as_vector, norm, shaped_vector, stack_matvec
from .moduli import lip_estimate, reg_linear
from .selection import (GeneralizedEquation, IterationCertificate,
                        IterationConfig, default_config, solve)

# Sample budget of the remainder's Lipschitz estimate in config_for
LIP_SAMPLES = 1500


@dataclass
class SmoothProblem:
    """A smooth map with a distinguished base point.

    ``jacobian`` returns the derivative of ``f`` at a point; it is called
    once, at the base, where it must be surjective (rows <= cols and
    sigma_min clear of the cutoff). Construction factors it once into
    ``base_fibre`` = {x : B x = 0}, whose ``shifted`` gives the other fibres
    of B and which carries B's sigma_min and right inverse.
    """

    f: Callable
    x_base: np.ndarray
    jacobian: Callable
    radius: float = 1.0

    def __post_init__(self):
        self.x_base = as_vector(self.x_base)
        if not self.radius > 0:
            raise ContractError(f"radius must be positive, got {self.radius}")
        self.y_base = as_vector(self.f(self.x_base))
        if self.y_base.size > self.x_base.size:
            raise ShapeError(
                f"map has {self.y_base.size} outputs and {self.x_base.size} "
                "inputs; the derivative cannot be surjective")
        # every query moves the right-hand side, so the fibre is built at
        # 0, which is consistent for any Jacobian
        b = as_matrix(self.jacobian(self.x_base))
        if b.shape != (self.y_base.size, self.x_base.size):
            raise ShapeError(f"jacobian has shape {b.shape}, expected "
                             f"{(self.y_base.size, self.x_base.size)}")
        self.base_fibre = AffineSet(b, np.zeros(b.shape[0]))
        if not self.base_fibre.surjective:
            raise RegularityError("Jacobian at the base point is not surjective")

    @property
    def base_jacobian(self) -> np.ndarray:
        return self.base_fibre.op

    @cached_property
    def _equation(self) -> GeneralizedEquation:
        """The generalized equation ``split`` returns, built on first use."""
        b = self.base_jacobian
        offset = b @ self.x_base
        fibre = self.base_fibre

        def finv(w):
            return fibre.shifted(w + offset)

        def g(x):  # the remainder of a point of the solver's, f's value unscanned
            return shaped_vector(self.f(x), b.shape[0]) - stack_matvec(b, x - self.x_base)

        return GeneralizedEquation(
            finv=finv, g=g, x_base=self.x_base,
            y_base=np.zeros(b.shape[0]), radius_x=self.radius,
            radius_y=self.radius, radius_graph=2.0 * self.radius)

    def remainder(self, x) -> np.ndarray:
        """g(x) = f(x) - B(x - x_base), the part the linearization misses.

        Takes one point (d,) or stacked points (d, k), one per column, and
        returns (m,) or (m, k); f gets the same form. A stacked column has
        the bits of the same point alone whenever f's columns do.
        """
        d = self.x_base.size
        x = np.asarray(x, dtype=float)
        if x.ndim == 2 and x.shape[0] == d:
            value = np.asarray(self.f(x), dtype=float)
            shift = x - self.x_base[:, None]
        else:
            x = as_vector(x, dim=d)
            value = as_vector(self.f(x))
            shift = x - self.x_base
        return value - stack_matvec(self.base_fibre.op, shift)


def split(problem: SmoothProblem) -> GeneralizedEquation:
    """Split f into its base linearization and the remainder.

    The linear part x -> B(x - x_base) enters through its inverse images
    (affine sets); the remainder g(x) = f(x) - B(x - x_base) carries the
    constant f(x_base), so the selection solver restates queries at
    y_base + g(x_base) = f(x_base) and solving y in g(x) + F(x) means
    exactly f(x) = y. The equation is built once per problem; every call
    returns the same object.
    """
    return problem._equation


def config_for(problem: SmoothProblem, seed: int = 0,
               tol: float = 1e-10) -> IterationConfig:
    """Default constant schedule for a smooth problem."""
    lip = lip_estimate(problem.remainder, problem.x_base, problem.radius,
                       samples=LIP_SAMPLES, seed=seed)
    return default_config(reg_linear(problem.base_fibre), lip.value, tol=tol)


def smooth_selection(problem: SmoothProblem, y, cfg: IterationConfig
                     ) -> tuple[np.ndarray, IterationCertificate]:
    """Local right inverse: returns x with f(x) = y, plus the certificate,
    under the caller's schedule (``config_for`` builds the default one)."""
    x, cert = solve(split(problem), cfg, y)
    y = shaped_vector(y, problem.y_base.size)
    resid = norm(shaped_vector(problem.f(x), y.size) - y)
    if not resid <= 1e-8 * (1.0 + np.linalg.norm(y)):
        raise RegularityError(
            f"selection does not satisfy f(x) = y: residual {resid:.3e}")
    return x, cert
