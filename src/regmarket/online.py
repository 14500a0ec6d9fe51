"""Recursive estimators with exponential forgetting, one per coalition.

Each step applies the three-equation Newton-Raphson update

    eps = y_t - beta' x_t
    M   = lam * M + x_t x_t' * h2(eps)
    beta = beta + M^{-1} x_t * h1(eps)

where the residual is the one-step-ahead (prior) residual.  The memory
solve is preceded by a Cholesky factorisation, which is the
positive-definiteness assertion behind the feasibility of the step.

Warm start fits a small batch slice and initialises the memory to the
lambda-weighted h2 Gram of that slice, exactly what the recursion itself
would have produced over those rows.  Zero start accumulates memory and a
gradient vector until enough independent rows arrived, then takes one
accumulated Newton step; with a quadratic loss and lam = 1 this makes the
whole stream reproduce batch least squares to rounding.

Stacked state.  A session holds the estimators of all C coalitions as
stacked arrays: coefficients ``(C, N)``, memory ``(C, N, N)`` and pending
gradient ``(C, N)``, plus one EWMA loss, step count, ready flag and warm-up
length per coalition, where N is the widest coalition design.  A narrower
design fills the leading dimensions; its unused ones carry zero data, zero
coefficients and an identity block in the memory.  That block is reset to
the identity on every step: left to decay as lam^t it would underflow at
small lam.  The padded memory is block diagonal, so its Cholesky factor
and solve give the design's own block unchanged, and every coalition
advances with one gather of the row, one vectorised call to each loss
function, one batched memory update, one batched Cholesky and one batched
solve.  :func:`online_step` is the one-coalition case of the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .batch import cholesky_failures, fit_matrix
from .data import AugmentedDesign
from .errors import ParameterError, SingularUpdateError
from .losses import EwmaLoss, LossSpec, ewma_update, insample_loss, loss_h1, loss_h2, loss_value

WARM_START = "warm-start"
ZERO_START = "zero-start"


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
               policy: str, spec: LossSpec, lam: float, n: int | None = None,
               min_warm: int = 100) -> OnlineState:
    """Build the initial state from a warm-up slice or from nothing.

    Warm start requires the slice to cover at least ``max(n, min_warm)``
    rows.  Zero start defers coefficient updates until 2n rows (at least)
    have accumulated a positive-definite memory.
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
    dim = X_warm.shape[1]
    need = max(dim, min_warm)
    if X_warm.shape[0] < need:
        raise ParameterError(
            f"warm-start slice has {X_warm.shape[0]} rows, needs >= {need}")
    fit = fit_matrix(X_warm, y_warm, spec)
    res = y_warm - X_warm @ fit.coefficients
    memory = _lambda_weighted_gram(X_warm, loss_h2(res, spec), lam)
    memory = 0.5 * (memory + memory.T)
    return OnlineState(coefficients=fit.coefficients, memory=memory,
                       ewma=EwmaLoss(insample_loss(res, spec), lam))


class _StackedStates:
    """The states of C estimators stacked into arrays padded to width N."""

    def __init__(self, states: Sequence[OnlineState], lam: float,
                 labels: Sequence[str] | None = None):
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
        self.all_ready = bool(self.ready.all())
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

    def advance(self, X: np.ndarray, y_t: float, lam: float,
                spec: LossSpec) -> tuple[np.ndarray, np.ndarray]:
        """Advance every estimator by one observation.

        ``X`` holds each design's row, ``(C, N)`` and zero on padded
        dimensions.  Returns the prior residuals and their losses, ``(C,)``
        each.  Nothing changes when the step raises.
        """
        if not (np.isfinite(X).all() and np.isfinite(y_t)):
            raise ParameterError("online step needs finite data")
        eps = y_t - np.einsum("cn,cn->c", self.coefficients, X)
        losses = loss_value(eps, spec)
        h1 = loss_h1(eps, spec)
        h2 = loss_h2(eps, spec)
        ewma = ewma_update(self.ewma, losses)
        memory = lam * self.memory + h2[:, None, None] * (X[:, :, None] * X[:, None, :])
        memory = 0.5 * (memory + memory.transpose(0, 2, 1))
        memory[self.padding] = 1.0
        steps = self.step_count + 1
        # ready estimators keep a zero pending gradient, so this is their
        # plain Newton direction and the accumulated one of the others
        rhs = lam * self.pending_gradient + X * h1[:, None]

        failed = cholesky_failures(memory)
        if failed is not None and (failed & self.ready).any():
            i = int(np.argmax(failed & self.ready))
            prefix = f"{self.labels[i]}: " if self.labels else ""
            raise SingularUpdateError(f"{prefix}memory matrix not positive definite",
                                      step=int(steps[i]))
        if self.all_ready:
            self.coefficients = self.coefficients + np.linalg.solve(
                memory, rhs[:, :, None])[:, :, 0]
        else:
            # a zero-start estimator takes its first step once its warm-up
            # is over and its memory is positive definite
            solved = self.ready | (steps >= self.min_warm_steps)
            if failed is not None:
                solved &= ~failed
            delta = np.linalg.solve(
                np.where(solved[:, None, None], memory, np.eye(memory.shape[-1])),
                rhs[:, :, None])
            self.coefficients = np.where(solved[:, None],
                                         self.coefficients + delta[:, :, 0],
                                         self.coefficients)
            self.pending_gradient = np.where(solved[:, None], 0.0, rhs)
            self.min_warm_steps = np.where(solved, 0, self.min_warm_steps)
            self.ready = solved
            self.all_ready = bool(solved.all())
        self.memory = memory
        self.step_count = steps
        self.ewma = ewma
        return eps, losses


def online_step(state: OnlineState, x_row: np.ndarray, y_t: float,
                lam: float, spec: LossSpec) -> tuple[OnlineState, float, float]:
    """Advance one observation; returns (new state, prior residual, loss)."""
    stack = _StackedStates([state], lam)
    eps, losses = stack.advance(np.asarray(x_row, dtype=float)[None, :], y_t, lam, spec)
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
        self.lam = lam
        self.spec = spec
        self.central = central
        self.columns = {c: design.columns_for(central | c) for c in coalitions}
        self.term_names = {c: tuple(design.terms[i].name for i in self.columns[c])
                           for c in coalitions}
        # gather the row into (C, N); padded slots read the trailing zero
        width = max((len(idx) for idx in self.columns.values()), default=0)
        self._gather = np.array(
            [list(idx) + [design.n] * (width - len(idx)) for idx in self.columns.values()],
            dtype=np.intp).reshape(len(self.columns), width)
        self._row = np.zeros(design.n + 1)
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
        self._stack = _StackedStates(states, self.lam,
                                     [f"coalition {sorted(c)}" for c in self.columns])

    def init_states(self, X_warm: np.ndarray | None, y_warm: np.ndarray | None,
                    policy: str, min_warm: int = 100) -> None:
        self._set_states([
            init_state(None if X_warm is None else X_warm[:, list(idx)], y_warm,
                       policy, self.spec, self.lam, n=len(idx), min_warm=min_warm)
            for idx in self.columns.values()])

    def step(self, x_row: np.ndarray, y_t: float) -> dict[frozenset, tuple[float, float]]:
        """Advance all coalitions one step on the full augmented row."""
        if self._stack is None:
            raise ParameterError("session states not initialised")
        self._row[:-1] = x_row
        eps, losses = self._stack.advance(self._row[self._gather], y_t,
                                          self.lam, self.spec)
        return dict(zip(self.columns, zip(eps.tolist(), losses.tolist())))

    def stream(self, X: np.ndarray, y: np.ndarray) -> SessionTrace:
        """Step through the rows of ``X`` and ``y`` and record every step."""
        T, C = len(y), len(self.columns)
        trace = SessionTrace(np.empty((T, C)), np.empty((T, C)), np.empty(T, dtype=bool))
        for t in range(T):
            out = self.step(X[t], y[t])
            trace.losses[t] = [loss for _, loss in out.values()]
            trace.ewma[t] = self._stack.ewma.value
            trace.ready[t] = self._stack.all_ready
        return trace

    def ewma_losses(self) -> dict[frozenset, float]:
        if self._stack is None:
            return {}
        return dict(zip(self.columns, self._stack.ewma.value.tolist()))

    # -- checkpointing ----------------------------------------------------

    def to_snapshot(self) -> dict:
        states = self.states
        coalitions = sorted(self.columns, key=lambda c: (len(c), sorted(c)))
        return {
            "format": "regmarket-online-session",
            "version": 1,
            "lam": self.lam,
            "loss": {"family": self.spec.family, "tau": self.spec.tau,
                     "alpha": self.spec.alpha,
                     "derivative_variant": self.spec.derivative_variant},
            "central": sorted(self.central),
            "coalitions": [
                {
                    "members": sorted(c),
                    "terms": list(self.term_names[c]),
                    "coefficients": states[c].coefficients.tolist(),
                    "memory": states[c].memory.tolist(),
                    "ewma_loss": states[c].ewma.value,
                    "step_count": states[c].step_count,
                    "ready": states[c].ready,
                    "pending_gradient": None if states[c].pending_gradient is None
                    else states[c].pending_gradient.tolist(),
                    "min_warm_steps": states[c].min_warm_steps,
                }
                for c in coalitions
            ],
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping, design: AugmentedDesign) -> "OnlineSession":
        if snapshot.get("version") != 1:
            raise ParameterError("unsupported session snapshot version")
        loss = snapshot["loss"]
        spec = LossSpec(family=loss["family"], tau=loss["tau"], alpha=loss["alpha"],
                        derivative_variant=loss["derivative_variant"])
        central = frozenset(snapshot["central"])
        coalitions = [frozenset(entry["members"]) for entry in snapshot["coalitions"]]
        session = cls(design, central, coalitions, snapshot["lam"], spec)
        states = []
        for c, entry in zip(coalitions, snapshot["coalitions"]):
            if list(session.term_names[c]) != entry["terms"]:
                raise ParameterError(f"design terms changed for coalition {sorted(c)}")
            states.append(OnlineState(
                coefficients=np.asarray(entry["coefficients"], dtype=float),
                memory=np.asarray(entry["memory"], dtype=float),
                ewma=EwmaLoss(entry["ewma_loss"], snapshot["lam"]),
                step_count=entry["step_count"], ready=entry["ready"],
                pending_gradient=None if entry["pending_gradient"] is None
                else np.asarray(entry["pending_gradient"], dtype=float),
                min_warm_steps=entry["min_warm_steps"]))
        session._set_states(states)
        return session
