"""Market-design properties of the batch and out-of-sample markets on
random small designs.

Each example draws a quadratic-loss market with T <= 300 rows, one central
feature and 1-4 support features, some of them all zero, and checks
individual rationality, budget balance from the ledger, the exact zero
payment of an all-zero feature, and payments unchanged when the features
are relabelled.  The out-of-sample market fits a batch model on its
training rows and pays for the losses of the rows after them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmarket import Dataset, LossSpec, TaskSpec, clear_batch_market, run_oos_market

# relative tolerance of the audit's symmetry check
SYMMETRY_RTOL = 1e-9


@st.composite
def batch_markets(draw):
    T = draw(st.integers(30, 300))
    K = draw(st.integers(1, 4))
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


def clear(T, central, support, y, phi, names, train=None):
    """The batch market with support column j named ``names[j]`` and owned
    by a{j+2}; given ``train`` rows, the out-of-sample market instead, with
    a batch model fitted on them."""
    feats = {"c": central, **{name: support[:, j] for j, name in enumerate(names)}}
    owners = {"c": "a1", **{name: f"a{j + 2}" for j, name in enumerate(names)}}
    ds = Dataset(np.arange(T), y, feats, owners, target_owner="a1")
    task = TaskSpec(central_agent="a1", ownership=owners, loss=LossSpec("quadratic"),
                    phi_insample=phi, phi_oos=phi, train_rows=train)
    if train is None:
        return clear_batch_market(ds, task)
    return run_oos_market(ds, task, model_source="batch")


def check_properties(market, random, train=None, zero_element=True):
    T, central, support, y, phi, dead = market
    K = support.shape[1]
    names = [f"x{j + 1}" for j in range(K)]
    report = clear(T, central, support, y, phi, names, train)
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
        if dead[j] and zero_element:
            assert report.payments[name] == 0.0
            assert name not in report.ledger.feature

    # relabelling: the same columns under shuffled names are paid the same
    relabelled = [f"z{j + 1}" for j in range(K)]
    random.shuffle(relabelled)
    other = clear(T, central, support, y, phi, relabelled, train)
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
    # an all-zero feature is not checked here: the next test pins that its
    # out-of-sample payment is not exactly zero
    report = check_properties(market, random, train=int(share * market[0]),
                              zero_element=False)
    assert report.phi > 0.0 and report.rows == market[0] - int(share * market[0])


@pytest.mark.xfail(strict=True, reason="the batch fit jitters every coalition that holds "
                   "an all-zero column, which moves its out-of-sample losses and pays "
                   "the column")
def test_oos_market_pays_an_all_zero_feature_nothing():
    rng = np.random.default_rng(198)
    T = 200
    support = rng.normal(size=(T, 2))
    support[:, 1] = 0.0
    central = rng.normal(size=T)
    y = 0.5 * central - 0.8 * support[:, 0] + rng.normal(0, 0.5, T)
    report = clear(T, central, support, y, 1.0, ["x1", "x2"], train=100)
    assert report.payments["x2"] == 0.0
