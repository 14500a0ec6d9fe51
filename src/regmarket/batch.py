"""Batch estimation: fit any coalition design and tabulate optimal losses.

Quadratic fits solve the Gram system once a Cholesky factorisation shows
it positive definite, falling back to a recorded diagonal jitter when the
system is ill conditioned or the factorisation fails.
Smooth quantile fits run damped Newton iterations warm-started from the
quadratic solution; the loss is smooth and convex, so this converges fast.

Coalition tables.  Every coalition design is a column subset of one
design, so :func:`fit_all_coalitions` forms ``G = X'X`` and ``X'y`` once
and gathers each coalition's principal submatrix of ``G``.  Coalitions of
one width stack without padding, so each system is factorised at its own
width and the jitter rule sees the coalition's own Gram matrix.  Every
stack of systems, and every block of residuals, is cut to about
``BLOCK_FLOATS`` floats, so no working array but the ``(C, n)``
coefficient table grows with the number of coalitions.  One condition
check, Cholesky check and solve then fit each stack.  Losses and gradient
norms are taken from residuals, never from ``y'y - 2b'X'y + b'Gb``, which
loses digits to cancellation.  :func:`solve_column_sets` is the solve
alone, for callers that need only the coefficients; :func:`fit_matrix` is
the one-coalition case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .data import AugmentedDesign, coalition_design
from .errors import (
    ConvergenceError,
    EnumerationCapError,
    InsufficientDataError,
    ParameterError,
    SingularDesignError,
)
from .losses import LossSpec, insample_loss, loss_h1, loss_h2, loss_value

GRADIENT_TOL = 1e-8
MAX_NEWTON_ITER = 200
MAX_HALVINGS = 50
CONDITION_LIMIT = 1e12
JITTER_SCALE = 1e-10
# stacks of Gram systems and blocks of residuals hold about this many floats (1 MiB)
BLOCK_FLOATS = 1 << 17
CAP_REMEDY = "raise enumeration_cap, or screen the features first with screen_features"


@dataclass(frozen=True)
class FitResult:
    coefficients: np.ndarray
    loss_star: float
    term_names: tuple[str, ...]
    jitter: float = 0.0
    iterations: int = 0
    gradient_norm: float = 0.0


def cholesky_failures(stack: np.ndarray, factorise=np.linalg.cholesky) -> np.ndarray:
    """Which matrices of a stack have no Cholesky factor (or fail another
    ``factorise`` that raises LinAlgError)."""
    failed = np.zeros(len(stack), dtype=bool)
    try:
        factorise(stack)
    except np.linalg.LinAlgError:
        # one failure fails the whole stack; find out which ones failed
        for i, m in enumerate(stack):
            try:
                factorise(m)
            except np.linalg.LinAlgError:
                failed[i] = True
    return failed


def _solve_gram(G: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a stack of systems ``G[i] x[i] = rhs[i]`` with the jitter escape hatch.

    A system whose condition number exceeds CONDITION_LIMIT gets diagonal
    jitter ``JITTER_SCALE * trace / n``.  A system whose Cholesky
    factorisation fails anyway is retried alone with jitter; a second
    failure raises SingularDesignError; a stack that is not finite raises
    ParameterError.  Returns ``(x, jitter per system)``.
    """
    if not np.isfinite(G).all():
        raise ParameterError("Gram matrix is not finite: the design's columns overflow "
                             "X'X; rescale the features")
    n = G.shape[-1]
    scale = np.trace(G, axis1=-2, axis2=-1) / n
    jitter = np.where(np.linalg.cond(G) > CONDITION_LIMIT, JITTER_SCALE * scale, 0.0)
    attempt = G + jitter[:, None, None] * np.eye(n)
    failed = cholesky_failures(attempt)
    if failed.any():
        if np.any(jitter[failed] != 0.0):
            raise SingularDesignError("design is rank deficient")
        jitter[failed] = JITTER_SCALE * np.maximum(scale[failed], 1.0)
        attempt[failed] = G[failed] + jitter[failed, None, None] * np.eye(n)
        if cholesky_failures(attempt[failed]).any():
            raise SingularDesignError("design is rank deficient")
    return np.linalg.solve(attempt, rhs[..., None])[..., 0], jitter


def _residual_blocks(X: np.ndarray, y: np.ndarray,
                     coefficients: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Residuals ``y - X b`` of every coefficient row, a block of rows at a time.

    Yields ``(first row, block)``; each residual series is a contiguous row.
    """
    step = max(1, BLOCK_FLOATS // max(len(y), 1))
    for lo in range(0, len(coefficients), step):
        # an overflowed residual fails its loss's finite check
        with np.errstate(over="ignore", invalid="ignore"):
            block = coefficients[lo:lo + step] @ X.T
            np.subtract(y, block, out=block)
        yield lo, block


def coalition_losses(coefficients: np.ndarray, X: np.ndarray, y: np.ndarray,
                     spec: LossSpec) -> np.ndarray:
    """Pointwise losses ``(C, T)`` of every coefficient row on the rows ``(X, y)``."""
    out = np.empty((len(coefficients), len(y)))
    for lo, block in _residual_blocks(X, y, coefficients):
        out[lo:lo + len(block)] = loss_value(block, spec)
    return out


def solve_column_sets(X: np.ndarray, y: np.ndarray,
                      masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of y on every column set a row of the
    ``(C, n)`` boolean ``masks`` selects, and the jitter of each system.

    Returns the ``(C, n)`` coefficient matrix, zero outside each set, and
    the ``(C,)`` jitter.  Every set needs a column, and the rows must
    cover the widest set.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    T = X.shape[0]
    widths = masks.sum(axis=1)
    if widths.min() < 1:
        raise ParameterError("every column set needs at least one column")
    if T < widths.max():
        raise InsufficientDataError(f"need at least {widths.max()} rows, have {T}")
    with np.errstate(over="ignore", invalid="ignore"):   # _solve_gram names an overflow
        G = X.T @ X
        b = X.T @ y
    beta = np.zeros(masks.shape)
    jitter = np.empty(len(masks))
    for width in np.unique(widths).tolist():
        rows = np.flatnonzero(widths == width)
        cols = np.nonzero(masks[rows])[1].reshape(len(rows), width)
        step = max(1, BLOCK_FLOATS // (width * width))
        for lo in range(0, len(rows), step):
            r, c = rows[lo:lo + step], cols[lo:lo + step]
            beta[r[:, None], c], jitter[r] = _solve_gram(G[c[:, :, None], c[:, None, :]],
                                                         b[c])
    return beta, jitter


def fit_column_sets(X: np.ndarray, y: np.ndarray, masks: np.ndarray, spec: LossSpec,
                    term_names: tuple[str, ...]) -> tuple[np.ndarray, list[FitResult]]:
    """Fit y on every column set a row of the ``(C, n)`` boolean ``masks`` selects.

    Returns the ``(C, n)`` coefficient matrix, zero outside each set, and
    one FitResult per set, each over its own columns only.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    T = X.shape[0]
    beta, jitter = solve_column_sets(X, y, masks)
    columns = np.split(np.nonzero(masks)[1], np.cumsum(masks.sum(axis=1))[:-1])
    names = [tuple(term_names[i] for i in cols.tolist()) for cols in columns]
    if not spec.is_quadratic:
        fits = [_newton_fit(X[:, cols], y, spec, beta[j, cols], names[j], float(jitter[j]))
                for j, cols in enumerate(columns)]
        for j, cols in enumerate(columns):
            beta[j, cols] = fits[j].coefficients
        return beta, fits
    loss = np.empty(len(masks))
    grad = np.empty(len(masks))
    for lo, block in _residual_blocks(X, y, beta):
        hi = lo + len(block)
        loss[lo:hi] = np.mean(loss_value(block, spec), axis=1)
        grad[lo:hi] = np.max(np.abs(block @ X) * masks[lo:hi], axis=1) / T
    fits = [FitResult(beta[j, cols], float(loss[j]), names[j], jitter=float(jitter[j]),
                      iterations=0, gradient_norm=float(grad[j]))
            for j, cols in enumerate(columns)]
    return beta, fits


def fit_matrix(X: np.ndarray, y: np.ndarray, spec: LossSpec,
               term_names: tuple[str, ...] | None = None) -> FitResult:
    """Fit coefficients minimising the in-sample loss on a raw matrix."""
    n = np.shape(X)[1]
    names = term_names if term_names is not None else tuple(f"b{i}" for i in range(n))
    return fit_column_sets(X, y, np.ones((1, n), dtype=bool), spec, names)[1][0]


# an overflowed residual fails its loss's finite check with ParameterError
@np.errstate(over="ignore", invalid="ignore")
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
        step, jit = _solve_gram(H[None], g[None])
        step = step[0]
        jitter = max(jitter, float(jit[0]))
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


@dataclass(frozen=True)
class CoalitionLossTable:
    """Optimal in-sample loss for every support coalition.

    Keys are frozensets of support feature names; the design behind each
    entry is the central features plus the coalition.  ``coefficients``,
    when present, holds every coalition's coefficients over the full
    design, one row per coalition in ``losses`` order and zero outside the
    coalition's columns.
    """

    losses: Mapping[frozenset, float]
    support: tuple[str, ...]
    central: frozenset[str]
    fits: Mapping[frozenset, FitResult] = field(default_factory=dict)
    coefficients: np.ndarray | None = field(default=None, compare=False)

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


def check_enumeration_cap(support, cap: int) -> None:
    """Raise EnumerationCapError when ``support`` has more features than ``cap``."""
    if len(support) > cap:
        raise EnumerationCapError(
            f"{len(support)} support features exceed the exact enumeration cap "
            f"({cap}); {CAP_REMEDY}")


def coalition_bits(m: int) -> np.ndarray:
    """The bit mask of every coalition of ``m`` players, player ``i`` as bit
    ``i``, in the order of :func:`enumerate_coalitions`: sizes ascending,
    then ``itertools.combinations``."""
    bits = [1 << i for i in range(m)]
    return np.array([sum(combo) for size in range(m + 1)
                     for combo in itertools.combinations(bits, size)], dtype=np.int64)


def coalition_masks(design: AugmentedDesign, central: frozenset[str], support: tuple[str, ...],
                    cap: int) -> tuple[list[frozenset], np.ndarray]:
    """Every coalition of ``support``, within the enumeration ``cap``, and
    the ``(C, n)`` mask of the design columns each one sees on top of
    ``central``: the columns whose terms use no feature outside ``central``
    and the coalition, counted by one integer matrix product."""
    support = tuple(sorted(support))
    check_enumeration_cap(support, cap)
    central = frozenset(central)
    coalition_design(design, central, support)   # checks the features
    features = design.market_features
    # (F, n): term uses feature; (C, m): coalition holds support feature;
    # (m, F): support feature is feature
    uses = np.array([[f in t.support for t in design.terms] for f in features],
                    dtype=np.int64).reshape(len(features), design.n)
    member = (coalition_bits(len(support))[:, None] >> np.arange(len(support))) & 1
    place = np.array([[f == k for f in features] for k in support],
                     dtype=np.int64).reshape(len(support), len(features))
    # central and support are disjoint, so no feature is counted inside twice
    outside = 1 - (member @ place + np.array([f in central for f in features], dtype=np.int64))
    return list(enumerate_coalitions(support)), outside @ uses == 0


def fit_all_coalitions(design: AugmentedDesign, y: np.ndarray, *,
                       central: frozenset[str], support: tuple[str, ...],
                       spec: LossSpec, cap: int = 15) -> CoalitionLossTable:
    """Fit the 2^m coalition models; the table keeps each fit and its optimal loss."""
    coalitions, masks = coalition_masks(design, central, support, cap)
    beta, fits = fit_column_sets(design.values, y, masks, spec, design.term_names)
    return CoalitionLossTable({c: f.loss_star for c, f in zip(coalitions, fits)},
                              tuple(sorted(support)), frozenset(central),
                              dict(zip(coalitions, fits)), beta)
