"""Every market entry point either clears with finite money or raises a typed error.

Each example draws a small market: T in [3, 150] rows and 1-3 features,
each normal, constant, zero, binary, a duplicate of the first or a
near-collinear copy of it, at scales from 1e-150 to 1e150, with a target
scaled up to 1e160; a quadratic or smooth-quantile loss, either
initialisation policy, any forgetting factor in [0.3, 1], any warm-up
below T and any allocation policy in and out of sample.  The batch
market, the online market and both out-of-sample markets must each raise
a ``RegMarketError`` or return a report whose central total, payments and
ledger amounts are finite.  The suite turns every RuntimeWarning into an
error, so a NumPy overflow that no typed error reports fails here too.

The example count follows the Hypothesis profile:
``pytest tests/test_market_fuzz.py --hypothesis-profile=deep`` runs 2,000,
and ``--hypothesis-show-statistics`` counts each entry point's outcomes.
"""

import math

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from regmarket import (Dataset, LossSpec, RegMarketError, TaskSpec, clear_batch_market,
                       run_online_market, run_oos_market)
from regmarket.allocation import POLICY_VARIANT
from regmarket.online import WARM_START, ZERO_START

KINDS = ("normal", "constant", "zero", "binary", "duplicate", "near-collinear")
SCALES = (1.0, 1e3, 1e50, 1e150, 1e-150)
TARGET_SCALES = (1.0, 1e3, 1e50, 1e150, 1e160)
POLICIES = sorted(POLICY_VARIANT)

ENTRY_POINTS = {
    "batch": clear_batch_market,
    "online": run_online_market,
    "oos-batch": lambda ds, task: run_oos_market(ds, task, model_source="batch"),
    "oos-online": lambda ds, task: run_oos_market(ds, task, model_source="online"),
}


def feature(kind, rng, first, T):
    if kind == "normal":
        return rng.normal(size=T)
    if kind == "constant":
        return np.full(T, rng.normal())
    if kind == "zero":
        return np.zeros(T)
    if kind == "binary":
        return rng.integers(0, 2, size=T).astype(float)
    if kind == "duplicate":
        return first.copy()
    return first + 1e-9 * rng.normal(size=T)


@st.composite
def markets(draw):
    T = draw(st.integers(3, 150))
    K = draw(st.integers(1, 3))
    # the first feature is one the others can copy
    kinds = [draw(st.sampled_from(KINDS[:4]))] + [draw(st.sampled_from(KINDS))
                                                  for _ in range(K - 1)]
    scales = [draw(st.sampled_from(SCALES)) for _ in range(K)]
    owners = [draw(st.sampled_from(["a1", "a2", "a3"])) for _ in range(K)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    units = []
    for kind in kinds:
        units.append(feature(kind, rng, units[0] if units else None, T))
    weights = rng.normal(size=K)
    y = draw(st.sampled_from(TARGET_SCALES)) * (sum(w * u for w, u in zip(weights, units))
                                                + rng.normal(size=T))
    names = [f"x{j + 1}" for j in range(K)]
    ownership = dict(zip(names, owners))
    dataset = Dataset(np.arange(T), y, {n: s * u for n, s, u in zip(names, scales, units)},
                      ownership, target_owner="a1")
    if draw(st.booleans()):
        loss = LossSpec("quadratic")
    else:
        loss = LossSpec("smooth-quantile", tau=draw(st.floats(0.0, 1.0)),
                        alpha=draw(st.floats(1e-3, 1.0)),
                        derivative_variant=draw(st.sampled_from(["analytic",
                                                                 "paper-verbatim"])))
    task = TaskSpec("a1", ownership, loss=loss, phi_insample=1.0, phi_oos=1.0,
                    lam=draw(st.floats(0.3, 1.0)),
                    init_policy=draw(st.sampled_from([WARM_START, ZERO_START])),
                    warmup=draw(st.integers(0, T - 1)),
                    allocation_policy=draw(st.sampled_from(POLICIES)),
                    oos_allocation_policy=draw(st.sampled_from(POLICIES)))
    return dataset, task


def assert_finite_money(report):
    assert math.isfinite(report.central_total)
    assert all(math.isfinite(v) for v in report.payments.values())
    assert all(math.isfinite(a) for a in report.ledger.amount)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(markets())
def test_every_entry_point_clears_finite_or_raises_a_typed_error(market):
    dataset, task = market
    for name, clear in ENTRY_POINTS.items():
        try:
            report = clear(dataset, task)
        except RegMarketError as err:
            event(f"{name}: {type(err).__name__}")
            continue
        event(f"{name}: cleared")
        assert_finite_money(report)
