"""Batch estimation: fit any coalition design and tabulate optimal losses.

Quadratic fits solve the Gram system by Cholesky factorisation, falling
back to a recorded diagonal jitter when the system is ill conditioned.
Smooth quantile fits run damped Newton iterations warm-started from the
quadratic solution; the loss is smooth and convex, so this converges fast.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import scipy.linalg

from .data import AugmentedDesign, coalition_design
from .errors import (
    ConvergenceError,
    EnumerationCapError,
    InsufficientDataError,
    ParameterError,
    SingularDesignError,
)
from .losses import LossSpec, insample_loss, loss_h1, loss_h2

GRADIENT_TOL = 1e-8
MAX_NEWTON_ITER = 200
MAX_HALVINGS = 50
CONDITION_LIMIT = 1e12
JITTER_SCALE = 1e-10


@dataclass(frozen=True)
class FitResult:
    coefficients: np.ndarray
    loss_star: float
    term_names: tuple[str, ...]
    jitter: float = 0.0
    iterations: int = 0
    gradient_norm: float = 0.0

    def residuals(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y - X @ self.coefficients


def _solve_gram(G: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve G x = rhs with jitter escape hatch; returns (x, jitter used)."""
    n = G.shape[0]
    jitter = 0.0
    attempt = G
    if np.linalg.cond(G) > CONDITION_LIMIT:
        jitter = JITTER_SCALE * np.trace(G) / n
        attempt = G + jitter * np.eye(n)
    try:
        c = scipy.linalg.cho_factor(attempt, lower=True)
    except np.linalg.LinAlgError:
        if jitter == 0.0:
            jitter = JITTER_SCALE * max(np.trace(G) / n, 1.0)
            try:
                c = scipy.linalg.cho_factor(G + jitter * np.eye(n), lower=True)
            except np.linalg.LinAlgError:
                raise SingularDesignError("design is rank deficient") from None
        else:
            raise SingularDesignError("design is rank deficient") from None
    return scipy.linalg.cho_solve(c, rhs), jitter


def fit_matrix(X: np.ndarray, y: np.ndarray, spec: LossSpec,
               term_names: tuple[str, ...] | None = None) -> FitResult:
    """Fit coefficients minimising the in-sample loss on a raw matrix."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    T, n = X.shape
    if T < n:
        raise InsufficientDataError(f"need at least {n} rows, have {T}")
    names = term_names if term_names is not None else tuple(f"b{i}" for i in range(n))

    G = X.T @ X
    beta, jitter = _solve_gram(G, X.T @ y)
    if spec.is_quadratic:
        res = y - X @ beta
        grad = float(np.max(np.abs(X.T @ res)) / T)
        return FitResult(beta, insample_loss(res, spec), names,
                         jitter=jitter, iterations=0, gradient_norm=grad)
    return _newton_fit(X, y, spec, beta, names, jitter)


def _newton_fit(X, y, spec, beta, names, jitter0) -> FitResult:
    # batch estimation minimises the loss itself, so the derivatives here are
    # always the analytic ones regardless of the configured online variant
    dspec = spec.analytic()
    T = X.shape[0]
    current = insample_loss(y - X @ beta, spec)
    jitter = jitter0
    grad_norm = np.inf
    for it in range(1, MAX_NEWTON_ITER + 1):
        res = y - X @ beta
        g = X.T @ loss_h1(res, dspec) / T
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm <= GRADIENT_TOL:
            return FitResult(beta, current, names, jitter=jitter,
                             iterations=it - 1, gradient_norm=grad_norm)
        H = (X.T * loss_h2(res, dspec)) @ X / T
        step, jit = _solve_gram(H, g)
        jitter = max(jitter, jit)
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            cand = beta + scale * step
            cand_loss = insample_loss(y - X @ cand, spec)
            # tolerate roundoff-level increases near the optimum
            if cand_loss <= current + 1e-14 * max(1.0, abs(current)):
                beta, current = cand, cand_loss
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                f"line search stalled at gradient norm {grad_norm:.3e}",
                gradient_norm=grad_norm)
    raise ConvergenceError(
        f"no convergence in {MAX_NEWTON_ITER} iterations "
        f"(gradient norm {grad_norm:.3e})", gradient_norm=grad_norm)


def fit_batch(design: AugmentedDesign, y: np.ndarray, spec: LossSpec) -> FitResult:
    """Fit a design; loss_star is recomputed from the returned coefficients."""
    return fit_matrix(design.values, y, spec, design.term_names)


def predict(coefficients: np.ndarray, x_row: np.ndarray) -> float:
    """Point forecast: the inner product of coefficients and augmented row."""
    coefficients = np.asarray(coefficients, dtype=float)
    x_row = np.asarray(x_row, dtype=float)
    if coefficients.shape != x_row.shape:
        raise ParameterError(
            f"dimension mismatch: {coefficients.shape} vs {x_row.shape}")
    return float(coefficients @ x_row)


@dataclass(frozen=True)
class CoalitionLossTable:
    """Optimal in-sample loss for every support coalition.

    Keys are frozensets of support feature names; the design behind each
    entry is the central features plus the coalition.
    """

    losses: Mapping[frozenset, float]
    support: tuple[str, ...]
    central: frozenset[str]
    fits: Mapping[frozenset, FitResult] = field(default_factory=dict)

    def __post_init__(self):
        full = frozenset(self.support)
        if frozenset() not in self.losses or full not in self.losses:
            raise ParameterError("table must contain the empty and grand coalitions")

    @property
    def central_loss(self) -> float:
        return self.losses[frozenset()]

    @property
    def full_loss(self) -> float:
        return self.losses[frozenset(self.support)]

    @property
    def surplus(self) -> float:
        return self.central_loss - self.full_loss


def enumerate_coalitions(support: tuple[str, ...]):
    """All subsets of the (sorted) support features, in binary-counter order."""
    ordered = tuple(sorted(support))
    for size in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, size):
            yield frozenset(combo)


def fit_all_coalitions(design: AugmentedDesign, y: np.ndarray, *,
                       central: frozenset[str], support: tuple[str, ...],
                       spec: LossSpec, cap: int = 15) -> CoalitionLossTable:
    """Fit the 2^m coalition models; the table keeps each fit and its optimal loss."""
    support = tuple(sorted(support))
    if len(support) > cap:
        raise EnumerationCapError(
            f"{len(support)} support features exceed the exact enumeration cap "
            f"({cap}); use the Monte-Carlo allocation instead")
    losses: dict[frozenset, float] = {}
    fits: dict[frozenset, FitResult] = {}
    for coalition in enumerate_coalitions(support):
        sub = coalition_design(design, central, coalition)
        fit = fit_batch(sub, y, spec)
        losses[coalition] = fit.loss_star
        fits[coalition] = fit
    return CoalitionLossTable(losses, support, frozenset(central), fits)
