"""Market-design properties of the batch, out-of-sample and online markets
on random small designs.

Each example draws a market with T <= 300 rows, one central feature and
1-4 support features, some of them all zero, and checks individual
rationality, budget balance from the ledger, the exact zero payment of an
all-zero feature, and payments unchanged when the features are
relabelled.  The batch and out-of-sample markets take a quadratic loss;
the out-of-sample market fits a batch model on its training rows and pays
for the losses of the rows after them.  The online market streams 80-300
rows with 1-3 support features, some of them all zero, under a quadratic
or smooth-quantile loss from a warm or a zero start.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmarket import (
    Dataset,
    LossSpec,
    TaskSpec,
    clear_batch_market,
    run_online_market,
    run_oos_market,
)
from regmarket.online import WARM_START, ZERO_START

# relative tolerance of the audit's symmetry check
SYMMETRY_RTOL = 1e-9


@st.composite
def batch_markets(draw, min_T=30, max_K=4):
    T = draw(st.integers(min_T, 300))
    K = draw(st.integers(1, max_K))
    seed = draw(st.integers(0, 2**32 - 1))
    dead = draw(st.lists(st.booleans(), min_size=K, max_size=K))
    weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=K + 1, max_size=K + 1))
    noise = draw(st.floats(0.05, 2.0))
    phi = draw(st.floats(0.01, 10.0))
    rng = np.random.default_rng(seed)
    support = rng.normal(size=(T, K))
    support[:, dead] = 0.0
    central = rng.normal(size=T)
    y = weights[0] * central + support @ np.array(weights[1:]) + rng.normal(0, noise, T)
    return T, central, support, y, phi, dead


def clear(T, central, support, y, phi, names, run=clear_batch_market, **task):
    """The market ``run`` clears with support column j named ``names[j]``
    and owned by a{j+2}, under a quadratic-loss task paying ``phi`` in and
    out of sample, with the other ``task`` fields given."""
    feats = {"c": central, **{name: support[:, j] for j, name in enumerate(names)}}
    owners = {"c": "a1", **{name: f"a{j + 2}" for j, name in enumerate(names)}}
    ds = Dataset(np.arange(T), y, feats, owners, target_owner="a1")
    task = {"loss": LossSpec("quadratic"), "phi_insample": phi, "phi_oos": phi, **task}
    return run(ds, TaskSpec(central_agent="a1", ownership=owners, **task))


def batch_oos(ds, task):
    return run_oos_market(ds, task, model_source="batch")


def check_properties(market, random, run=clear_batch_market, **task):
    T, central, support, y, phi, dead = market
    K = support.shape[1]
    names = [f"x{j + 1}" for j in range(K)]
    report = clear(T, central, support, y, phi, names, run, **task)
    assert report.audit["passed"]

    # individual rationality: no negative ledger amount or payment
    amounts = report.ledger.amount
    assert all(a > 0.0 for a in amounts)
    assert all(v >= 0.0 for v in report.payments.values())

    # budget balance, from the ledger itself: the central agent's debit is
    # what its entries pay, in total and per payee
    assert set(report.ledger.payer) <= {"a1"}
    tol = 1e-9 * max(abs(report.central_total), 1e-12)
    assert abs(math.fsum(amounts) - report.central_total) <= tol
    for agent, total in report.per_agent.items():
        paid = math.fsum(a for a, payee in zip(amounts, report.ledger.payee) if payee == agent)
        assert abs(paid - total) <= tol

    # zero element: an all-zero feature is paid exactly nothing
    for j, name in enumerate(names):
        if dead[j]:
            assert report.payments[name] == 0.0
            assert name not in report.ledger.feature

    # relabelling: the same columns under shuffled names are paid the same
    relabelled = [f"z{j + 1}" for j in range(K)]
    random.shuffle(relabelled)
    other = clear(T, central, support, y, phi, relabelled, run, **task)
    scale = max([abs(v) for v in report.payments.values()] + [1.0])
    for name, new in zip(names, relabelled):
        assert abs(report.payments[name] - other.payments[new]) <= SYMMETRY_RTOL * scale
    return report


@settings(max_examples=100, deadline=None)
@given(batch_markets(), st.randoms(use_true_random=False))
def test_batch_market_properties_on_random_designs(market, random):
    check_properties(market, random)


@settings(max_examples=50, deadline=None)
@given(batch_markets(), st.floats(0.3, 0.8), st.randoms(use_true_random=False))
def test_oos_market_properties_on_random_designs(market, share, random):
    train = int(share * market[0])
    report = check_properties(market, random, batch_oos, train_rows=train)
    assert report.phi > 0.0 and report.rows == market[0] - train


def test_oos_market_pays_an_all_zero_feature_nothing():
    # the training fit drops the all-zero column, so no coalition's
    # forecasts move with it; a jittered fit of it would pay it 1e-9 to 1e-7
    rng = np.random.default_rng(198)
    T = 200
    support = rng.normal(size=(T, 2))
    support[:, 1] = 0.0
    central = rng.normal(size=T)
    y = 0.5 * central - 0.8 * support[:, 0] + rng.normal(0, 0.5, T)
    report = clear(T, central, support, y, 1.0, ["x1", "x2"], batch_oos, train_rows=100)
    assert report.payments["x2"] == 0.0


@settings(max_examples=30, deadline=None)
@given(batch_markets(min_T=80, max_K=3),
       st.one_of(st.just(LossSpec("quadratic")),
                 st.builds(LossSpec, st.just("smooth-quantile"), st.floats(0.1, 0.9))),
       st.sampled_from([WARM_START, ZERO_START]), st.randoms(use_true_random=False))
def test_online_market_properties_on_random_designs(market, loss, init, random):
    report = check_properties(market, random, run_online_market, loss=loss, init_policy=init,
                              lam=0.99, warmup=40)
    assert report.rows == market[0] - (40 if init == WARM_START else 0)
