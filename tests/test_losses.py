import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

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
from regmarket import losses
from regmarket.losses import PY_DERIVATIVES_MAX, loss_derivatives, loss_terms

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


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_loss_spec_rejects_non_finite_alpha(alpha):
    with pytest.raises(ParameterError, match="alpha"):
        LossSpec("smooth-quantile", alpha=alpha)


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


@given(e=st.floats(-1e6, 1e6), alpha=st.floats(0.01, 5.0), tau=st.sampled_from([0.0, 1.0]))
@settings(max_examples=300, deadline=None)
def test_smooth_quantile_loss_is_non_negative_at_the_ends_of_tau(e, alpha, tau):
    # at tau = 1, tau*e and alpha*softplus(-e/alpha) cancel for large
    # negative e and rounded below zero, e.g. -3.6e-15 at e = -27.3
    spec = LossSpec("smooth-quantile", tau=tau, alpha=alpha)
    assert loss_value(e, spec) >= 0.0
    assert (loss_value(np.array([e, -e]), spec) >= 0.0).all()


def test_loss_at_tau_one_is_clamped_only_where_it_rounded_below_zero():
    spec = LossSpec("smooth-quantile", tau=1.0, alpha=0.2)
    e = np.linspace(-40.0, 40.0, 20001)
    raw = e + 0.2 * np.logaddexp(0.0, -e / 0.2)
    assert (raw < 0).any()
    assert np.array_equal(loss_value(e, spec), np.where(raw < 0, 0.0, raw))


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


# -- the small-array derivatives against scipy's ufunc ---------------------------

def ufunc_derivatives(e, spec):
    """h1 and h2 by the ufunc path's formulas, with scipy's expit as the oracle."""
    up, down = expit(e / spec.alpha), expit(-e / spec.alpha)
    s = up * down
    if spec.derivative_variant == "analytic":
        return spec.tau - down, s / spec.alpha
    return spec.tau + spec.alpha * up - down, (1.0 + spec.alpha) * s


def assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


# e/alpha at and beyond where exp overflows (log of the largest float,
# 709.78), signed zeros, subnormals, infinities and NaNs
LOG_MAX = math.log(np.finfo(float).max)
EDGE_RATIOS = [709.0, 709.78, np.nextafter(LOG_MAX, 0.0), LOG_MAX,
               np.nextafter(LOG_MAX, np.inf), 709.79, 745.2, 1e300]
EDGE_RESIDUALS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, np.nan,
                  -np.nan, 1.7976931348623157e308, -1.7976931348623157e308]


def residual_array(alpha):
    ratios = st.one_of(st.floats(-40, 40), st.floats(700, 760), st.floats(-760, -700),
                       st.sampled_from(EDGE_RATIOS + [-r for r in EDGE_RATIOS]))
    elements = st.one_of(ratios.map(lambda z: z * alpha), st.sampled_from(EDGE_RESIDUALS),
                         st.floats())
    shapes = st.one_of(hnp.array_shapes(min_dims=0, max_dims=2, max_side=13),
                       st.sampled_from([(PY_DERIVATIVES_MAX - 1,), (PY_DERIVATIVES_MAX,),
                                        (PY_DERIVATIVES_MAX + 1,), (8, 20), (3, 54)]))
    return hnp.arrays(np.float64, shapes, elements=elements)


@given(data=st.data(), tau=st.floats(0.0, 1.0), alpha=st.floats(0.01, 5.0),
       variant=st.sampled_from(["analytic", "paper-verbatim"]))
@settings(max_examples=300, deadline=None)
def test_derivatives_are_scipy_expit_bit_for_bit(data, tau, alpha, variant):
    spec = LossSpec("smooth-quantile", tau=tau, alpha=alpha, derivative_variant=variant)
    e = data.draw(residual_array(alpha))
    with np.errstate(over="ignore"):
        assert_same_bits(loss_derivatives(e, spec), ufunc_derivatives(e, spec))


@pytest.mark.parametrize("variant", ["analytic", "paper-verbatim"])
@pytest.mark.parametrize("size", [PY_DERIVATIVES_MAX - 1, PY_DERIVATIVES_MAX,
                                  PY_DERIVATIVES_MAX + 1])
def test_arrays_up_to_the_bound_keep_off_the_ufunc(size, variant):
    spec = LossSpec("smooth-quantile", tau=0.3, alpha=0.15, derivative_variant=variant)
    e = np.random.default_rng(size).normal(scale=30.0, size=size)
    # the residuals that Python floats take as the ufunc does
    e[:6] = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "expit", lambda x: calls.append(x.size) or expit(x))
        got = loss_derivatives(e, spec)
    assert calls == ([] if size <= PY_DERIVATIVES_MAX else [size, size])
    assert_same_bits(got, ufunc_derivatives(e, spec))


def outcome(derivatives, e, spec, over):
    """The bits ``derivatives`` gives under ``np.errstate(over=over)``, or
    the floating-point error it raises."""
    try:
        with np.errstate(over=over):
            return [np.asarray(h).view(np.uint64).tolist() for h in derivatives(e, spec)]
    except FloatingPointError as err:
        return type(err)


@pytest.mark.parametrize("alpha, residual", [
    (0.5, -0.5 * 709.79),              # exp(709.79) overflows
    (0.5, 0.5 * 745.2),                # and exp(745.2)
    (0.5, 1.7976931348623157e308),     # e/alpha overflows
    (0.5, np.inf),
    (0.5, np.nan),
    (1e-310, 0.0),                     # a subnormal alpha overflows h2 = s/alpha
])
@pytest.mark.parametrize("over", ["ignore", "raise"])
def test_what_python_floats_would_not_signal_takes_the_ufunc(alpha, residual, over):
    spec = LossSpec("smooth-quantile", tau=0.3, alpha=alpha)
    e = np.array([0.1, -2.0, residual])
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "expit", lambda x: calls.append(x.size) or expit(x))
        got = outcome(loss_derivatives, e, spec, over)
    # an e/alpha that overflows raises before the ufunc is called
    assert calls[:1] == [3] or got is FloatingPointError
    assert got == outcome(ufunc_derivatives, e, spec, over)
