"""Recursive estimators with exponential forgetting, one per coalition.

Each step applies the three-equation Newton-Raphson update

    eps = y_t - beta' x_t
    M   = lam * M + x_t x_t' * h2(eps)
    beta = beta + M^{-1} x_t * h1(eps)

where the residual is the one-step-ahead (prior) residual.  A residual or
loss that overflows fails the step.  The memory solve is preceded by a
Cholesky factorisation, the positive-definiteness assertion behind the
step, and by the solve's own LU factorisation: rounding can leave a
singular memory a positive Cholesky pivot, and a memory either rejects
fails.  The solve is followed by a check that the new coefficients are
finite: a memory that overflowed to infinity passes the factorisations.

Warm start fits a small batch slice and initialises the memory to the
lambda-weighted h2 Gram of that slice, exactly what the recursion itself
would have produced over those rows.  Zero start accumulates memory and a
gradient vector until enough independent rows arrived, then takes one
accumulated Newton step; with a quadratic loss and lam = 1 this makes the
whole stream reproduce batch least squares to rounding.

Stacked state.  A session holds the estimators of all C coalitions as
stacked arrays: coefficients ``(C, N)``, memory ``(C, N, N)`` and pending
gradient ``(C, N)``, plus one EWMA loss, step count, ready flag and warm-up
length per coalition, where N is the widest coalition design.  It holds
the forgetting factor and the loss it was built with.  A narrower
design fills the leading dimensions; its unused ones carry zero data, zero
coefficients and an identity block in the memory.  That block is reset to
the identity on every step: left to decay as lam^t it would underflow at
small lam.  The padded memory is block diagonal, so its Cholesky factor
and solve give the design's own block unchanged, and every coalition
advances with one gather of the row, one vectorised :func:`loss_terms`
call for the loss, h1 and h2, one batched memory update, one batched
Cholesky and one batched solve.  The update keeps the memory exactly
symmetric: ``lam * M + h2 * x x'`` is elementwise on a symmetric ``M``.
This per-step recursion is :meth:`_StackedStates.advance`, the reference
for the two block paths below and the path that replays a block they
decline; :meth:`OnlineSession.step` calls it, and :func:`online_step` is
its one-coalition case.

Block scan.  With the quadratic loss (h1 = eps, h2 = 1) the update is
recursive least squares, and both of its recursions are linear:

    M_t = lam * M_{t-1} + x_t x_t'
    r_t = lam * r_{t-1} + x_t y_t,       where r_t = M_t beta_t

so :meth:`OnlineSession.stream` runs quadratic sessions as a block scan
(Blelloch's prefix sums): one ``cumsum`` of ``lam^-k``-scaled outer
products and rows gives every step's ``M`` and ``r`` in a block of B steps,
one batched solve gives every ``beta_t``, and one ``einsum`` the prior
residuals; the EWMA losses are the same scaled prefix sum.  B keeps
``lam^-(B-1)`` at most ``SCALE_LIMIT`` and the ``(B, C, N, N)`` memory
block within ``SCAN_FLOATS`` floats, so working memory does not grow with
the stream.  A block whose data, coefficients or losses are not finite,
in which a ready estimator's memory fails its Cholesky check, or whose
solve finds a memory singular, is replayed step by step from its gathered
rows, so errors are raised at the recursion's step and leave the
recursion's state.

Newton blocks.  The smooth-quantile update has no linear recursion, so
:meth:`OnlineSession.stream` runs it over blocks of the same length with
the recursion's own arithmetic, one private kernel shared with the step,
and makes the step's checks once per block: finite data, finite
non-negative losses, finite final coefficients, no memory entry above
``HALF_MAX`` and one batched Cholesky check of every step's memory.  Only
the recursion runs per step: prior residual, h1 and h2, memory update,
padding reset, right-hand side and solve.  The rest is elementwise in the
step, so it runs once per block with the same operations and gives the
same bits: one ``(B, C, N, N)`` multiply for the rows' outer products, one
:func:`loss_array` call over the ``(B, C)`` residuals, and the EWMA as one
``(1 - lam) * loss`` multiply and a ``lam * v + w`` loop.  The step
symmetrises its memory, ``0.5 * (M + M')``, which on an exactly symmetric
memory changes no bit unless an entry exceeds ``HALF_MAX`` and the sum
overflows.  The block symmetrises on its first step, where the entering
memory may not be symmetric, and drops it after that; the ``HALF_MAX``
check declines where the step would have overflowed.  The loop runs with
NumPy overflow, invalid and divide-by-zero errors raised.  A block that
fails a check, or in which an estimator is not yet ready, is replayed
step by step as for the scan, and the series and final state are bit for
bit the recursion's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .batch import cholesky_failures, fit_matrix
from .data import AugmentedDesign
from .errors import ParameterError, SingularUpdateError
from .losses import (EwmaLoss, LossSpec, ewma_update, insample_loss, loss_array,
                     loss_derivatives, loss_h2, loss_terms)
# not called here since loss_terms replaced it, but benchmarks/tracing.py's
# self-test reaches it through this module
from .losses import loss_h1  # noqa: F401

WARM_START = "warm-start"
ZERO_START = "zero-start"
# a scan block rescales its prefix sums by lam^-k up to this factor
SCALE_LIMIT = 1e3
# and a scan or Newton block holds about this many floats per (B, C, N, N)
# array (256 KiB); larger blocks measured slower and grow peak memory
SCAN_FLOATS = 1 << 15
# a memory entry above half the largest float overflows when the step
# symmetrises it
HALF_MAX = np.finfo(float).max / 2


@dataclass(frozen=True)
class OnlineState:
    """Estimator state for one coalition design."""

    coefficients: np.ndarray
    memory: np.ndarray
    ewma: EwmaLoss
    step_count: int = 0
    ready: bool = True
    pending_gradient: np.ndarray | None = None
    min_warm_steps: int = 0

    @property
    def n(self) -> int:
        return self.coefficients.shape[0]


def _lambda_weighted_gram(X: np.ndarray, weights: np.ndarray, lam: float) -> np.ndarray:
    T = X.shape[0]
    decay = lam ** np.arange(T - 1, -1, -1, dtype=float)
    W = weights * decay
    return (X.T * W) @ X


def init_state(X_warm: np.ndarray | None, y_warm: np.ndarray | None,
               policy: str, spec: LossSpec, lam: float,
               n: int | None = None) -> OnlineState:
    """Build the initial state from a warm-up slice or from nothing.

    Warm start requires the slice to have at least as many rows as the
    design has columns.  Zero start defers coefficient updates until 2n
    rows (at least) have accumulated a positive-definite memory.
    """
    if policy == ZERO_START:
        if n is None:
            raise ParameterError("zero-start needs the design dimension n")
        return OnlineState(coefficients=np.zeros(n), memory=np.zeros((n, n)),
                           ewma=EwmaLoss(0.0, lam), ready=False,
                           pending_gradient=np.zeros(n),
                           min_warm_steps=max(2 * n, 2))
    if policy != WARM_START:
        raise ParameterError(f"unknown initialisation policy {policy!r}")
    if X_warm is None or y_warm is None:
        raise ParameterError("warm-start needs a warm-up slice")
    X_warm = np.asarray(X_warm, dtype=float)
    y_warm = np.asarray(y_warm, dtype=float)
    if X_warm.shape[0] < X_warm.shape[1]:
        raise ParameterError(
            f"warm-start slice has {X_warm.shape[0]} rows, needs >= {X_warm.shape[1]}")
    fit = fit_matrix(X_warm, y_warm, spec)
    res = y_warm - X_warm @ fit.coefficients
    memory = _lambda_weighted_gram(X_warm, loss_h2(res, spec), lam)
    memory = 0.5 * (memory + memory.T)
    return OnlineState(coefficients=fit.coefficients, memory=memory,
                       ewma=EwmaLoss(insample_loss(res, spec), lam))


class _StackedStates:
    """The states of C estimators stacked into arrays padded to width N, with
    the forgetting factor and the loss that every recursion advances them by."""

    def __init__(self, states: Sequence[OnlineState], lam: float, spec: LossSpec,
                 labels: Sequence[str] | None = None):
        self.lam, self.spec = lam, spec
        self.widths = np.array([s.n for s in states], dtype=int)
        C, N = len(states), int(self.widths.max(initial=0))
        self.coefficients = np.zeros((C, N))
        self.memory = np.zeros((C, N, N))
        self.pending_gradient = np.zeros((C, N))
        for i, s in enumerate(states):
            self.coefficients[i, :s.n] = s.coefficients
            self.memory[i, :s.n, :s.n] = s.memory
            if s.pending_gradient is not None:
                self.pending_gradient[i, :s.n] = s.pending_gradient
        rows, dims = np.nonzero(np.arange(N) >= self.widths[:, None])
        self.padding = (rows, dims, dims)
        self.memory[self.padding] = 1.0
        self.ewma = EwmaLoss(np.array([s.ewma.value for s in states], dtype=float), lam)
        self.step_count = np.array([s.step_count for s in states], dtype=int)
        self.ready = np.array([s.ready for s in states], dtype=bool)
        self.min_warm_steps = np.array([s.min_warm_steps for s in states], dtype=int)
        self.labels = labels

    def state(self, i: int) -> OnlineState:
        n = self.widths[i]
        ready = bool(self.ready[i])
        return OnlineState(
            coefficients=self.coefficients[i, :n].copy(),
            memory=self.memory[i, :n, :n].copy(),
            ewma=EwmaLoss(float(self.ewma.value[i]), self.ewma.lam),
            step_count=int(self.step_count[i]), ready=ready,
            pending_gradient=None if ready else self.pending_gradient[i, :n].copy(),
            min_warm_steps=int(self.min_warm_steps[i]))

    def _label(self, i: int) -> str:
        return f"{self.labels[i]}: " if self.labels else ""

    def _newton(self, memory: np.ndarray, X: np.ndarray, outer: np.ndarray,
                h1: np.ndarray, h2: np.ndarray, symmetrise: bool):
        """The memory update and Newton right-hand side of one step, shared
        by :meth:`advance` and :meth:`newton_block`, neither checked.

        ``outer`` holds the outer products of the rows ``X``, and ``h1`` and
        ``h2`` the loss derivatives at their prior residuals.  The memory is
        symmetrised when ``symmetrise`` is set.  The update keeps a memory
        exactly symmetric, and symmetrising one that is changes no bit
        unless an entry exceeds ``HALF_MAX``, where it overflows.
        """
        memory = self.lam * memory + h2[:, None, None] * outer
        if symmetrise:
            memory = 0.5 * (memory + memory.transpose(0, 2, 1))
        memory[self.padding] = 1.0
        # ready estimators keep a zero pending gradient, so this is their
        # plain Newton direction and the accumulated one of the others
        rhs = self.lam * self.pending_gradient + X * h1[:, None]
        return memory, rhs

    # every overflow below raises a typed error, so NumPy need not warn
    @np.errstate(over="ignore", invalid="ignore")
    def advance(self, X: np.ndarray, y_t: float) -> tuple[np.ndarray, np.ndarray]:
        """Advance every estimator by one observation.

        ``X`` holds each design's row, ``(C, N)`` and zero on padded
        dimensions.  Returns the prior residuals and their losses, ``(C,)``
        each.  Raises ParameterError when the data are not finite, and
        SingularUpdateError when finite data overflow a residual or its
        loss, a ready memory is not positive definite or the new
        coefficients are not finite (an overflowed memory); nothing changes
        when the step raises.  A memory fails when Cholesky or the solve's
        LU factorisation rejects it.
        """
        if not (np.isfinite(X).all() and np.isfinite(y_t)):
            raise ParameterError("online step needs finite data")
        eps = _prior_residuals(self.coefficients, X, y_t)
        losses, h1, h2 = loss_terms(eps, self.spec)
        memory, rhs = self._newton(self.memory, X, X[:, :, None] * X[:, None, :], h1, h2,
                                   symmetrise=True)
        steps = self.step_count + 1
        # a residual that is not finite has a loss that is not finite
        if not np.isfinite(losses).all():
            i = int(np.argmin(np.isfinite(losses)))
            raise SingularUpdateError(
                f"{self._label(i)}residual or loss overflowed: not finite", step=int(steps[i]))
        ewma = ewma_update(self.ewma, losses)

        # rounding can leave a singular memory a positive Cholesky pivot and
        # an exact zero pivot in the LU factorisation that inv and the solve
        # share: it fails as if Cholesky rejected it
        failed = cholesky_failures(memory) | cholesky_failures(memory, np.linalg.inv)
        if (failed & self.ready).any():
            i = int(np.argmax(failed & self.ready))
            raise SingularUpdateError(f"{self._label(i)}memory matrix not positive definite",
                                      step=int(steps[i]))
        # a zero-start estimator takes its first step once its warm-up is
        # over and its memory is positive definite
        all_ready = self.ready.all()
        solved = ~failed & (self.ready | (steps >= self.min_warm_steps))
        coefficients = _newton_solve(self.coefficients, memory, rhs,
                                     None if all_ready else solved)
        # Cholesky does not flag an infinite pivot: a memory that overflowed
        # passes it and leaves coefficients that are not finite
        if not np.isfinite(coefficients).all():
            i = int(np.argmin(np.isfinite(coefficients).all(axis=1)))
            raise SingularUpdateError(
                f"{self._label(i)}memory overflowed: coefficients are not finite",
                step=int(steps[i]))
        if not all_ready:
            self.pending_gradient = np.where(solved[:, None], 0.0, rhs)
            self.min_warm_steps = np.where(solved, 0, self.min_warm_steps)
            self.ready = solved
        self.coefficients = coefficients
        self.memory = memory
        self.step_count = steps
        self.ewma = ewma
        return eps, losses

    # an overflow or invalid value makes the block decline; its replay
    # raises the recursion's typed error
    @np.errstate(over="raise", invalid="raise", divide="raise")
    def newton_block(self, X: np.ndarray,
                     y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Advance every estimator over a block of rows by the recursion of
        :meth:`advance`, its checks made once for the block.

        ``X`` holds each step's rows, ``(B, C, N)``.  Returns each step's
        losses and EWMA losses, ``(B, C)``, and whether every estimator is
        ready after it, ``(B,)``.  Returns None, changing nothing, when an
        estimator is not ready, the data are not finite, a step overflows,
        a loss is not finite or negative, a memory fails its Cholesky check
        or the final coefficients are not finite; the block is then for
        :meth:`advance` to replay, which raises at the step and with the
        message of the recursion.

        Only the recursion runs step by step; the module docstring says
        what runs once per block and why the bits are the step's.
        """
        if not (self.ready.all() and np.isfinite(X).all() and np.isfinite(y).all()):
            return None
        B, C, N = X.shape
        eps, memories = np.empty((B, C)), np.empty((B, C, N, N))
        coefficients, memory, value = self.coefficients, self.memory, self.ewma.value
        lam, spec = self.lam, self.spec
        try:
            outer = X[:, :, :, None] * X[:, :, None, :]
            for b in range(B):
                # einsum's sum depends on the row's alignment: a fresh row
                # as in advance, not a view into the block
                row = X[b].copy()
                eps[b] = _prior_residuals(coefficients, row, y[b])
                memory, rhs = self._newton(memory, row, outer[b],
                                           *loss_derivatives(eps[b], spec),
                                           symmetrise=b == 0)
                coefficients = _newton_solve(coefficients, memory, rhs)
                memories[b] = memory
            losses = loss_array(eps, spec)
            # a residual that is not finite has a loss that is not finite,
            # and coefficients that are not finite stay so to the end
            if not (np.isfinite(losses).all() and (losses >= 0).all()
                    and np.isfinite(coefficients).all()
                    and np.abs(memories).max() <= HALF_MAX):
                return None
            np.linalg.cholesky(memories)
            # ewma_update's recursion
            ewma, gain = np.empty((B, C)), (1.0 - lam) * losses
            for b in range(B):
                value = lam * value + gain[b]
                ewma[b] = value
        except (FloatingPointError, np.linalg.LinAlgError):
            return None
        self.coefficients = coefficients
        self.memory = memory
        self.step_count = self.step_count + B
        self.ewma = EwmaLoss(value, lam)
        return losses, ewma, np.ones(B, dtype=bool)

    # an overflow makes the block decline, and its replay raises the
    # recursion's typed error
    @np.errstate(over="ignore", invalid="ignore")
    def scan(self, X: np.ndarray,
             y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Advance every estimator over a block of rows of the quadratic loss.

        ``X`` holds each step's rows, ``(B, C, N)``.  Returns each step's
        losses and EWMA losses, ``(B, C)``, and whether every estimator is
        ready after it, ``(B,)``.  Returns None, changing nothing, when the
        data, coefficients or losses are not finite, a ready memory fails its
        Cholesky check or the solve finds a memory singular; the block is
        then for :meth:`advance` to replay.
        """
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            return None
        B, C, N = X.shape
        lam = self.lam
        decay = lam ** np.arange(B, dtype=float)
        grow = 1.0 / decay
        memory = 0.5 * (self.memory + self.memory.transpose(0, 2, 1))
        # r = M beta + pending gradient holds for ready and waiting estimators
        rhs = np.einsum("cmn,cn->cm", memory, self.coefficients) + self.pending_gradient
        scaled = X * grow[:, None, None]
        M = np.cumsum(scaled[:, :, :, None] * X[:, :, None, :], axis=0)
        M += lam * memory
        M *= decay[:, None, None, None]
        M[(slice(None),) + self.padding] = 1.0
        r = np.cumsum(scaled * y[:, None, None], axis=0)
        r += lam * rhs
        r *= decay[:, None, None]

        # the first step of the block at which each estimator is ready
        ready_from = np.zeros(C, dtype=int)
        if not self.ready.all():
            ready_from[~self.ready] = np.maximum(
                self.min_warm_steps - self.step_count - 1, 0)[~self.ready]
            undecided = ~self.ready & (ready_from < B)
            while undecided.any():
                idx = np.flatnonzero(undecided)
                failed = cholesky_failures(M[ready_from[idx], idx])
                undecided[idx[~failed]] = False
                ready_from[idx[failed]] += 1
                undecided &= ready_from < B
        ready = np.arange(B)[:, None] >= ready_from
        waiting = not ready.all()
        try:
            np.linalg.cholesky(M[ready] if waiting else M)
            beta = np.linalg.solve(np.where(ready[:, :, None, None], M, np.eye(N)) if waiting
                                   else M, r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return None
        if waiting:
            beta = np.where(ready[:, :, None], beta, self.coefficients)
        if not np.isfinite(beta).all():
            return None
        prior = np.concatenate([self.coefficients[None], beta[:-1]])
        eps = y[:, None] - np.einsum("bcn,bcn->bc", X, prior)
        losses = eps * eps
        if not np.isfinite(losses).all():
            return None
        ewma = np.cumsum(losses * ((1.0 - lam) * grow[:, None]), axis=0)
        ewma += lam * self.ewma.value
        ewma *= decay[:, None]

        if not self.ready.all():
            waiting = ~ready[-1]
            self.pending_gradient = np.where(
                waiting[:, None],
                r[-1] - np.einsum("cmn,cn->cm", M[-1], self.coefficients), 0.0)
            self.min_warm_steps = np.where(waiting, self.min_warm_steps, 0)
            self.ready = ready[-1].copy()
        self.coefficients = beta[-1].copy()
        self.memory = M[-1].copy()
        self.step_count = self.step_count + B
        self.ewma = EwmaLoss(ewma[-1].copy(), lam)
        return losses, ewma, ready.all(axis=1)


def _prior_residuals(coefficients: np.ndarray, X: np.ndarray, y_t: float) -> np.ndarray:
    """Each estimator's one-step-ahead residual on its row of ``X``."""
    return y_t - np.einsum("cn,cn->c", coefficients, X)


def _newton_solve(coefficients: np.ndarray, memory: np.ndarray, rhs: np.ndarray,
                  solved: np.ndarray | None = None) -> np.ndarray:
    """The Newton step's new coefficients, ``beta + M^{-1} rhs``, for the
    estimators in ``solved`` (all of them when None); the others keep theirs."""
    if solved is None:
        return coefficients + np.linalg.solve(memory, rhs[:, :, None])[:, :, 0]
    delta = np.linalg.solve(
        np.where(solved[:, None, None], memory, np.eye(memory.shape[-1])), rhs[:, :, None])
    return np.where(solved[:, None], coefficients + delta[:, :, 0], coefficients)


def online_step(state: OnlineState, x_row: np.ndarray, y_t: float,
                lam: float, spec: LossSpec) -> tuple[OnlineState, float, float]:
    """Advance one observation; returns (new state, prior residual, loss)."""
    stack = _StackedStates([state], lam, spec)
    eps, losses = stack.advance(np.asarray(x_row, dtype=float)[None, :], y_t)
    return stack.state(0), float(eps[0]), float(losses[0])


class SessionTrace(NamedTuple):
    """Per-step record of a session run, one column per coalition."""

    losses: np.ndarray      # (T, C) realised loss of each step
    ewma: np.ndarray        # (T, C) EWMA loss estimate after each step
    ready: np.ndarray       # (T,) every estimator ready after the step


class OnlineSession:
    """Parallel online estimators for every coalition of one task.

    All coalition states share the forgetting factor, loss spec and time
    index; each step advances every coalition on its own design columns,
    all of them in one stacked update.
    """

    def __init__(self, design: AugmentedDesign, central: frozenset[str],
                 coalitions: list[frozenset], lam: float, spec: LossSpec):
        # at lam = 0 the memory is the last row's outer product, which no
        # design wider than one column can factorise
        if not 0.0 < lam <= 1.0:
            raise ParameterError("forgetting factor must lie in (0, 1]")
        self.lam = lam
        self.spec = spec
        self.central = central
        self.columns = {c: design.columns_for(central | c) for c in coalitions}
        # gather the row into (C, N); padded slots read the trailing zero
        width = max((len(idx) for idx in self.columns.values()), default=0)
        self._gather = np.array(
            [list(idx) + [design.n] * (width - len(idx)) for idx in self.columns.values()],
            dtype=np.intp).reshape(len(self.columns), width)
        self._n = design.n
        self._stack: _StackedStates | None = None

    @property
    def coalitions(self) -> list[frozenset]:
        return list(self.columns)

    @property
    def states(self) -> dict[frozenset, OnlineState]:
        """Each coalition's state, unpadded (copies of the stacked arrays)."""
        if self._stack is None:
            return {}
        return {c: self._stack.state(i) for i, c in enumerate(self.columns)}

    def _set_states(self, states: Sequence[OnlineState]) -> None:
        self._stack = _StackedStates(states, self.lam, self.spec,
                                     [f"coalition {sorted(c)}" for c in self.columns])

    def init_states(self, X_warm: np.ndarray | None, y_warm: np.ndarray | None,
                    policy: str) -> None:
        self._set_states([
            init_state(None if X_warm is None else X_warm[:, list(idx)], y_warm,
                       policy, self.spec, self.lam, n=len(idx))
            for idx in self.columns.values()])

    def step(self, x_row: np.ndarray, y_t: float) -> dict[frozenset, tuple[float, float]]:
        """Advance all coalitions one step on the full augmented row."""
        if self._stack is None:
            raise ParameterError("session states not initialised")
        eps, losses = self._stack.advance(self._gather_rows(np.atleast_2d(x_row))[0], y_t)
        return dict(zip(self.columns, zip(eps.tolist(), losses.tolist())))

    def stream(self, X: np.ndarray, y: np.ndarray) -> SessionTrace:
        """Step through the rows of ``X`` and ``y`` and record every step.

        Sessions advance in blocks (see the module docstring); a block that
        declines goes through the recursion as :meth:`step` does.
        """
        if self._stack is None:
            raise ParameterError("session states not initialised")
        T, C = len(y), len(self.columns)
        trace = SessionTrace(np.empty((T, C)), np.empty((T, C)), np.empty(T, dtype=bool))
        block = self._scan_steps()
        for start in range(0, T, block):
            rows = slice(start, min(start + block, T))
            block_rows = self._gather_rows(X[rows])
            blocked = self._stack.scan if self.spec.is_quadratic else self._stack.newton_block
            out = blocked(block_rows, y[rows])
            if out is not None:
                trace.losses[rows], trace.ewma[rows], trace.ready[rows] = out
                continue
            for b, t in enumerate(range(rows.start, rows.stop)):
                # einsum's sum depends on the row's alignment: a fresh row
                trace.losses[t] = self._stack.advance(block_rows[b].copy(), y[t])[1]
                trace.ewma[t], trace.ready[t] = self._stack.ewma.value, self._stack.ready.all()
        return trace

    def _scan_steps(self) -> int:
        """Steps per block: the float budget bounds it, and the scan's
        rescale bounds it for quadratic sessions."""
        C, N = self._gather.shape
        steps = max(1, SCAN_FLOATS // max(C * N * N, 1))
        if self.spec.is_quadratic and self.lam < 1.0:
            steps = min(steps, 1 + int(math.log(SCALE_LIMIT) / -math.log(self.lam)))
        return steps

    def _gather_rows(self, X: np.ndarray) -> np.ndarray:
        """The rows of ``X`` gathered per coalition, ``(T, C, N)``; padding reads 0."""
        padded = np.zeros((len(X), self._n + 1))
        padded[:, :-1] = X
        return padded[:, self._gather]

    def ewma_losses(self) -> dict[frozenset, float]:
        if self._stack is None:
            return {}
        return dict(zip(self.columns, self._stack.ewma.value.tolist()))
