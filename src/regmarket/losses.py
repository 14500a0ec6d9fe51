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

Only the smooth quantile loss can need scipy, and only for large arrays.
:func:`loss_derivatives` computes h1 and h2 of a residual array of at most
:data:`PY_DERIVATIVES_MAX` elements (a step's coalitions, a warm-up slice)
in one loop over Python floats.  A larger array (a batch fit over
thousands of rows) goes through ``scipy.special.expit``, imported at its
first call, and so does a small one where the loop would meet what a
Python float does not signal as NumPy does: an ``exp`` that overflows, a
residual over alpha that is not finite, or a subnormal alpha.  The two
paths agree bit for bit: scipy's ``expit(x)`` is ``1/(1+exp(-x))`` with
the C library's ``exp``, which ``math.exp`` calls too, and every other
operation is the same correctly rounded IEEE operation on either path.
So a market that fits and streams only small arrays (the online studies)
never loads scipy, and quadratic losses never do.
"""

from __future__ import annotations

import math
import sys
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

    @property
    def is_quadratic(self) -> bool:
        return self.family == QUADRATIC

    def analytic(self) -> "LossSpec":
        return replace(self, derivative_variant=ANALYTIC)


def expit(x):
    """Stand-in that binds scipy's logistic ufunc in its place at its first
    call."""
    global expit
    from scipy.special import expit
    return expit(x)


# The largest residual array whose h1 and h2 come from the Python loop,
# chosen from a sweep on a 2-vCPU host (Python 3.11.7, numpy 2.4.6, scipy
# 1.17.1) whose speed drifts by 15 % or more between runs.  One call of
# loss_derivatives, loop against ufunc: 4-8 against 5-11 us at 8 elements,
# 14-22 against 5-12 us at 32, 46-79 against 7-15 us at 128, 61-99
# against 11-16 us at 160, and 98-154 against 10-19 us at 256.  A
# smooth-quantile Newton-block step, medians of alternating runs: the same
# at 8 coalitions, 10-15 us (7-11 %) slower at 32, 20-120 us (5-35 %)
# slower at 128, and the same at 256, which stays on the ufunc.  The bound
# covers the study warm-up slices (100 and 150 rows), so that the online
# studies never import scipy (0.3 s and 19 MB), and keeps 256 coalitions
# or more on the ufunc.
PY_DERIVATIVES_MAX = 160


def _check_finite(eps):
    arr = np.asarray(eps, dtype=float)
    if not np.isfinite(arr).all():
        raise ParameterError("residuals must be finite")
    return arr


def _scalar_aware(out):
    """An array result as it is, a 0-d one as a Python float."""
    return out if np.ndim(out) else float(out)


def loss_value(eps, spec: LossSpec):
    """Pointwise loss of a residual (scalar or array), by :func:`loss_array`.

    Raises ParameterError when a residual or a loss is not finite: finite
    residuals can overflow the loss (a squared residual above the largest
    float).
    """
    with np.errstate(over="ignore"):
        loss = loss_array(_check_finite(eps), spec)
    if not np.isfinite(loss).all():
        raise ParameterError("loss is not finite: the residuals overflow it; "
                             "rescale the target")
    return _scalar_aware(loss)


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
    computed once.  An array of at most :data:`PY_DERIVATIVES_MAX`
    elements takes the Python loop, a larger one the scipy ufunc."""
    if spec.is_quadratic:
        # convention: h1 = e, h2 = 1 reproduces recursive least squares;
        # the 2x factor of d(e^2)/de cancels in the Newton ratio
        return e, np.ones_like(e)
    if e.size <= PY_DERIVATIVES_MAX:
        try:
            return _small_derivatives(e, spec)
        except OverflowError:
            # the ufunc gives these its bits and its floating-point signals
            pass
    up, down = expit(e / spec.alpha), expit(-e / spec.alpha)
    s = up * down
    if spec.derivative_variant == ANALYTIC:
        return spec.tau - down, s / spec.alpha
    return spec.tau + spec.alpha * up - down, (1.0 + spec.alpha) * s


def _small_derivatives(e: np.ndarray, spec: LossSpec):
    """The smooth-quantile h1 and h2 of ``e`` by the ufunc path's formulas
    in Python floats.  Raises OverflowError instead where the ufunc path
    could meet a floating-point exception, which Python floats would not
    signal: an alpha below the smallest normal float (``s/a`` can
    overflow), a ``z = x/a`` that is not finite, or an ``exp`` that overflows.

    ``-z`` is the bits of ``-(x/a)`` and ``z`` those of ``-((-x)/a)``:
    negation is exact and division rounds symmetrically."""
    a, tau, exp = spec.alpha, spec.tau, math.exp
    if a < sys.float_info.min:
        raise OverflowError("alpha is subnormal")
    # a 1-D array, the common case, skips the ravel and the reshapes
    xs, h1, h2 = (e if e.ndim == 1 else e.ravel()).tolist(), [], []
    # one loop per variant keeps the variant test out of the element loop
    if spec.derivative_variant == ANALYTIC:
        for x in xs:
            z = x / a
            if z - z:  # NaN, so true, where z is infinite or NaN
                raise OverflowError("x/alpha is not finite")
            up, down = 1.0 / (1.0 + exp(-z)), 1.0 / (1.0 + exp(z))
            h1.append(tau - down)
            h2.append(up * down / a)
    else:
        for x in xs:
            z = x / a
            if z - z:
                raise OverflowError("x/alpha is not finite")
            up, down = 1.0 / (1.0 + exp(-z)), 1.0 / (1.0 + exp(z))
            h1.append(tau + a * up - down)
            h2.append((1.0 + a) * (up * down))
    if e.ndim == 1:
        return np.array(h1), np.array(h2)
    return np.array(h1).reshape(e.shape), np.array(h2).reshape(e.shape)


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
