"""Market-design properties of the batch market on random small designs.

Each example draws a quadratic-loss batch market with T <= 300 rows, one
central feature and 1-4 support features, some of them all zero, and
checks individual rationality, budget balance from the ledger, the exact
zero payment of an all-zero feature, and payments unchanged when the
features are relabelled.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from regmarket import Dataset, LossSpec, TaskSpec, clear_batch_market

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


def clear(T, central, support, y, phi, names):
    """The batch market with support column j named ``names[j]`` and owned by a{j+2}."""
    feats = {"c": central, **{name: support[:, j] for j, name in enumerate(names)}}
    owners = {"c": "a1", **{name: f"a{j + 2}" for j, name in enumerate(names)}}
    ds = Dataset(np.arange(T), y, feats, owners, target_owner="a1")
    task = TaskSpec(central_agent="a1", ownership=owners, loss=LossSpec("quadratic"),
                    phi_insample=phi)
    return clear_batch_market(ds, task)


@settings(max_examples=100, deadline=None)
@given(batch_markets(), st.randoms(use_true_random=False))
def test_batch_market_properties_on_random_designs(market, random):
    T, central, support, y, phi, dead = market
    K = support.shape[1]
    names = [f"x{j + 1}" for j in range(K)]
    report = clear(T, central, support, y, phi, names)
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
    other = clear(T, central, support, y, phi, relabelled)
    scale = max([abs(v) for v in report.payments.values()] + [1.0])
    for name, new in zip(names, relabelled):
        assert abs(report.payments[name] - other.payments[new]) <= SYMMETRY_RTOL * scale
