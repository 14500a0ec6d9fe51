import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmarket import (
    EwmaLoss,
    LossSpec,
    ParameterError,
    ewma_update,
    insample_loss,
    loss_h1,
    loss_h2,
    loss_value,
    pinball_loss,
)
from regmarket.losses import loss_terms

QUAD = LossSpec("quadratic")

mp.mp.dps = 40


def smooth_loss_mp(e, tau, alpha):
    e, tau, alpha = mp.mpf(e), mp.mpf(tau), mp.mpf(alpha)
    return tau * e + alpha * mp.log(1 + mp.e ** (-e / alpha))


def test_quadratic_values():
    assert loss_value(3.0, QUAD) == 9.0
    assert loss_h1(-2.0, QUAD) == -2.0
    assert loss_h2(123.4, QUAD) == 1.0


def test_smooth_quantile_at_zero():
    spec = LossSpec("smooth-quantile", tau=0.5, alpha=0.2)
    assert loss_value(0.0, spec) == pytest.approx(0.2 * math.log(2))
    assert loss_h1(0.0, spec) == pytest.approx(0.0)
    assert loss_h2(0.0, spec) == pytest.approx(1 / (4 * 0.2))


def test_smooth_quantile_linear_asymptote():
    spec = LossSpec("smooth-quantile", tau=0.5, alpha=0.2)
    assert loss_value(-10.0, spec) == pytest.approx(5.0, abs=1e-9)
    # no overflow far out in either tail
    assert np.isfinite(loss_value(-1e6, spec))
    assert np.isfinite(loss_value(1e6, spec))


def test_rejects_non_finite_residual():
    with pytest.raises(ParameterError):
        loss_value(float("nan"), QUAD)
    with pytest.raises(ParameterError):
        loss_h1(float("inf"), QUAD)


@pytest.mark.parametrize("alpha", [0.05, 0.2, 1.0])
@pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
def test_analytic_derivatives_match_finite_differences(alpha, tau):
    spec = LossSpec("smooth-quantile", tau=tau, alpha=alpha)
    for e in np.linspace(-5.0, 5.0, 21):
        d1 = float(mp.diff(lambda x: smooth_loss_mp(x, tau, alpha), e))
        d2 = float(mp.diff(lambda x: smooth_loss_mp(x, tau, alpha), e, 2))
        assert loss_h1(e, spec) == pytest.approx(d1, rel=1e-5, abs=1e-5)
        assert loss_h2(e, spec) == pytest.approx(d2, rel=1e-5, abs=1e-5)


def test_verbatim_variant_differs_from_derivative():
    spec = LossSpec("smooth-quantile", tau=0.5, alpha=0.2,
                    derivative_variant="paper-verbatim")
    d1 = float(mp.diff(lambda x: smooth_loss_mp(x, 0.5, 0.2), 0.0))
    assert abs(loss_h1(0.0, spec) - d1) == pytest.approx(0.1, abs=1e-12)
    # and the printed h2 scales differently from the analytic one
    analytic = LossSpec("smooth-quantile", tau=0.5, alpha=0.2)
    assert loss_h2(0.0, spec) / loss_h2(0.0, analytic) == pytest.approx(
        (1 + 0.2) * 0.2)


@given(e=st.floats(-50, 50), tau=st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_pinball_limit(e, tau):
    # |smooth - pinball| <= alpha * ln 2 for every residual
    for alpha in (0.2, 0.01):
        spec = LossSpec("smooth-quantile", tau=tau, alpha=alpha)
        gap = loss_value(e, spec) - pinball_loss(e, tau)
        assert -1e-12 <= gap <= alpha * math.log(2) + 1e-12


@given(e1=st.floats(-20, 20), e2=st.floats(-20, 20), w=st.floats(0, 1),
       tau=st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_loss_is_convex(e1, e2, w, tau):
    for spec in (QUAD, LossSpec("smooth-quantile", tau=tau, alpha=0.2)):
        mid = loss_value(w * e1 + (1 - w) * e2, spec)
        chord = w * loss_value(e1, spec) + (1 - w) * loss_value(e2, spec)
        assert mid <= chord + 1e-9 * max(1.0, abs(chord))


@given(e=st.floats(-30, 30), tau=st.floats(0.0, 1.0), alpha=st.floats(0.01, 2))
@settings(max_examples=60, deadline=None)
def test_h2_is_positive(e, tau, alpha):
    # strictly positive wherever exp(-|e|/alpha) is representable; never
    # negative anywhere (far tails underflow to an exact zero)
    assert loss_h2(e, QUAD) > 0
    spec = LossSpec("smooth-quantile", tau=tau, alpha=alpha)
    vspec = LossSpec("smooth-quantile", tau=tau, alpha=alpha,
                     derivative_variant="paper-verbatim")
    if abs(e) / alpha < 700:
        assert loss_h2(e, spec) > 0
        assert loss_h2(e, vspec) > 0
    assert loss_h2(e, spec) >= 0
    assert loss_h2(e, vspec) >= 0


@given(e=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8),
       tau=st.floats(0.0, 1.0), alpha=st.floats(0.01, 2),
       variant=st.sampled_from(["analytic", "paper-verbatim"]))
@settings(max_examples=80, deadline=None)
def test_loss_terms_are_the_three_loss_functions(e, tau, alpha, variant):
    e = np.array(e)
    for spec in (QUAD, LossSpec("smooth-quantile", tau=tau, alpha=alpha,
                                derivative_variant=variant)):
        terms = loss_terms(e, spec)
        for got, want in zip(terms, (loss_value(e, spec), loss_h1(e, spec), loss_h2(e, spec))):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loss_terms_reject_non_finite_residuals(bad):
    for spec in (QUAD, LossSpec("smooth-quantile")):
        with pytest.raises(ParameterError, match="residuals must be finite"):
            loss_terms(np.array([0.5, bad]), spec)


def test_insample_loss():
    assert insample_loss([1.0, -1.0], QUAD) == 1.0
    assert insample_loss(np.zeros(5), QUAD) == 0.0
    with pytest.raises(ParameterError):
        insample_loss([], QUAD)


def test_ewma_fixed_point():
    state = EwmaLoss(1.0, lam=0.9)
    assert ewma_update(state, 1.0).value == pytest.approx(1.0)


def test_ewma_single_step():
    state = EwmaLoss(0.0, lam=0.998)
    assert ewma_update(state, 1.0).value == pytest.approx(0.002)


def test_ewma_geometric_convergence():
    lam, c = 0.95, 3.5
    state = EwmaLoss(10.0, lam=lam)
    for k in range(1, 200):
        state = ewma_update(state, c)
        expected = c + (10.0 - c) * lam ** k
        assert state.value == pytest.approx(expected, rel=1e-12)


def test_ewma_effective_window():
    assert EwmaLoss(0.0, lam=0.998).n_eff == pytest.approx(500.0)
    assert math.isinf(EwmaLoss(0.0, lam=1.0).n_eff)


def test_ewma_rejects_bad_loss():
    with pytest.raises(ParameterError):
        ewma_update(EwmaLoss(0.0, 0.9), -1.0)


def test_loss_spec_validation():
    with pytest.raises(ParameterError):
        LossSpec("huber")
    with pytest.raises(ParameterError):
        LossSpec("smooth-quantile", tau=1.5)
    with pytest.raises(ParameterError):
        LossSpec("smooth-quantile", alpha=0.0)
