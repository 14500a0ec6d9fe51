"""Loss functions, their first two derivatives, and loss estimators.

Two families are supported: the quadratic loss and the smooth quantile
loss ``l(e) = tau*e + alpha*log(1 + exp(-e/alpha))``.  The derivative pair
(h1, h2) drives the online Newton step.  For the smooth quantile loss the
package carries two variants of (h1, h2):

* ``analytic`` (default): the actual derivatives of the loss,
  ``h1 = tau - exp(-e/a)/(1+exp(-e/a))`` and
  ``h2 = (1/a) * exp(-e/a)/(1+exp(-e/a))^2``.
* ``paper-verbatim``: the forms with an additive ``alpha`` in h1 and a
  ``(1+alpha)`` factor in h2, selectable to reproduce runs that used them.

The analytic variant is validated against finite differences in the test
suite; the verbatim variant's deviation is measured there as well.

Only the smooth quantile loss needs scipy (its ``expit``): the first
smooth-quantile :class:`LossSpec` imports ``scipy.special`` and binds the
ufunc to this module's ``expit``, so quadratic losses never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError

QUADRATIC = "quadratic"
SMOOTH_QUANTILE = "smooth-quantile"
ANALYTIC = "analytic"
PAPER_VERBATIM = "paper-verbatim"


@dataclass(frozen=True)
class LossSpec:
    """Loss family plus the smooth-quantile parameters.

    tau is the nominal quantile level, alpha the smoothing width; both are
    ignored by the quadratic family.
    """

    family: str = QUADRATIC
    tau: float = 0.5
    alpha: float = 0.2
    derivative_variant: str = ANALYTIC

    def __post_init__(self):
        if self.family not in (QUADRATIC, SMOOTH_QUANTILE):
            raise ParameterError(f"unknown loss family {self.family!r}")
        if not 0.0 <= self.tau <= 1.0:
            raise ParameterError("tau must lie in [0, 1]")
        if not 0.0 < self.alpha < np.inf:
            raise ParameterError("alpha must be positive and finite")
        if self.derivative_variant not in (ANALYTIC, PAPER_VERBATIM):
            raise ParameterError(f"unknown derivative variant {self.derivative_variant!r}")
        if not self.is_quadratic:
            # import here, in set-up, rather than in the first loss evaluation
            _bind_expit()

    @property
    def is_quadratic(self) -> bool:
        return self.family == QUADRATIC

    def analytic(self) -> "LossSpec":
        return replace(self, derivative_variant=ANALYTIC)


def _bind_expit() -> None:
    """Bind ``expit`` to scipy's logistic ufunc."""
    global expit
    from scipy.special import expit


def expit(x):
    """Stand-in until :func:`_bind_expit` runs, for a smooth-quantile spec
    that was never constructed in this process (one unpickled, say)."""
    _bind_expit()
    return expit(x)


def _check_finite(eps):
    arr = np.asarray(eps, dtype=float)
    if not np.isfinite(arr).all():
        raise ParameterError("residuals must be finite")
    return arr


def _scalar_aware(out):
    """An array result as it is, a 0-d one as a Python float."""
    return out if np.ndim(out) else float(out)


def loss_value(eps, spec: LossSpec):
    """Pointwise loss of a residual (scalar or array), by :func:`loss_array`."""
    return _scalar_aware(loss_array(_check_finite(eps), spec))


def loss_h1(eps, spec: LossSpec):
    """First derivative of the loss in the residual (the online update
    weight): the h1 of :func:`loss_derivatives`, for a scalar or array."""
    return _scalar_aware(loss_derivatives(_check_finite(eps), spec)[0])


def loss_h2(eps, spec: LossSpec):
    """Second derivative of the loss in the residual, positive everywhere:
    the h2 of :func:`loss_derivatives`, for a scalar or array."""
    return _scalar_aware(loss_derivatives(_check_finite(eps), spec)[1])


def loss_array(e: np.ndarray, spec: LossSpec) -> np.ndarray:
    """The loss of a residual array, unchecked: a residual that is not
    finite gives a loss that is not finite, which the caller checks.

    The smooth quantile loss is evaluated as tau*e + alpha*softplus(-e/alpha)
    via logaddexp, which is exact in the linear asymptotes.  At tau = 1 the
    two terms cancel for large negative residuals and can round below zero,
    so the loss is clamped at zero, which changes no other value.
    """
    if spec.is_quadratic:
        return e * e
    loss = spec.tau * e + spec.alpha * np.logaddexp(0.0, -e / spec.alpha)
    return np.maximum(loss, 0.0)


def loss_derivatives(e: np.ndarray, spec: LossSpec):
    """The h1 and h2 of a residual array, unchecked; each ``expit`` is
    computed once."""
    if spec.is_quadratic:
        # convention: h1 = e, h2 = 1 reproduces recursive least squares;
        # the 2x factor of d(e^2)/de cancels in the Newton ratio
        return e, np.ones_like(e)
    up, down = expit(e / spec.alpha), expit(-e / spec.alpha)
    s = up * down
    if spec.derivative_variant == ANALYTIC:
        return spec.tau - down, s / spec.alpha
    return spec.tau + spec.alpha * up - down, (1.0 + spec.alpha) * s


def loss_terms(e: np.ndarray, spec: LossSpec):
    """The loss, h1 and h2 of a residual array, unchecked, bit for bit
    those of :func:`loss_value`, :func:`loss_h1` and :func:`loss_h2`."""
    return (loss_array(e, spec), *loss_derivatives(e, spec))


def pinball_loss(eps, tau: float):
    """Exact quantile (pinball) loss e*(tau - 1{e<=0}); the alpha -> 0 limit."""
    e = np.asarray(eps, dtype=float)
    out = e * (tau - (e <= 0))
    return out if out.ndim else float(out)


def insample_loss(residuals, spec: LossSpec) -> float:
    """Plain average of the pointwise loss over a residual series."""
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ParameterError("empty residual series")
    return float(np.mean(loss_value(r, spec)))


@dataclass(frozen=True)
class EwmaLoss:
    """Exponentially weighted loss estimate with forgetting factor lam.

    The effective window is 1/(1-lam) steps; lam = 1 degenerates to a
    frozen value (infinite window), which the recursive-least-squares
    equivalence tests rely on.  ``value`` may also be an array holding one
    estimate per coalition, all with the same forgetting factor.
    """

    value: float | np.ndarray = 0.0
    lam: float = 0.998

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ParameterError("forgetting factor must lie in [0, 1]")


def ewma_update(state: EwmaLoss, l_t) -> EwmaLoss:
    """One recursion step: value' = lam * value + (1 - lam) * l_t.

    ``l_t`` is a scalar, or an array matching an array-valued state.
    """
    loss = np.asarray(l_t, dtype=float)
    if not (loss >= 0).all() or not np.isfinite(loss).all():
        raise ParameterError("instantaneous loss must be finite and >= 0")
    new = state.lam * state.value + (1.0 - state.lam) * loss
    return EwmaLoss(value=new if new.ndim else float(new), lam=state.lam)
