import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmarket import (
    CoalitionLossTable,
    NoSurplusError,
    instant_allocation,
    loo_allocation,
    shapley_allocation,
    shapley_montecarlo,
)
from regmarket.allocation import (
    ABSOLUTE,
    ADD_ONE,
    DROP_ONE,
    ORIGINAL,
    ZERO,
    shapley_contributions,
    step_allocations,
)
from regmarket.batch import enumerate_coalitions


def make_table(features, losses):
    return CoalitionLossTable(losses, tuple(features), frozenset({"c"}))


def random_table(features, seed, monotone=True):
    rng = np.random.default_rng(seed)
    losses = {}
    for c in enumerate_coalitions(tuple(features)):
        base = 2.0 - 0.25 * len(c) if monotone else 2.0
        losses[c] = float(base + rng.uniform(-0.1, 0.1))
    losses[frozenset()] = 2.5
    losses[frozenset(features)] = 0.5
    return make_table(features, losses)


def brute_force_shapley(losses, features):
    acc = {k: 0.0 for k in features}
    perms = list(itertools.permutations(features))
    for p in perms:
        cur = frozenset()
        for k in p:
            acc[k] += losses[cur] - losses[cur | {k}]
            cur = cur | {k}
    return {k: v / len(perms) for k, v in acc.items()}


# -- leave-one-out -----------------------------------------------------------

def test_single_feature_gets_everything():
    table = make_table(("x2",), {frozenset(): 1.0, frozenset({"x2"}): 0.4})
    for variant in ("drop-one", "add-one"):
        alloc = loo_allocation(table, variant)
        assert alloc["x2"] == pytest.approx(1.0)
    assert shapley_allocation(table)["x2"] == pytest.approx(1.0)


def test_duplicated_features_break_drop_one():
    # two perfect substitutes: dropping either changes nothing
    losses = {
        frozenset(): 1.0,
        frozenset({"d1"}): 0.2,
        frozenset({"d2"}): 0.2,
        frozenset({"d1", "d2"}): 0.2,
    }
    table = make_table(("d1", "d2"), losses)
    drop = loo_allocation(table, "drop-one")
    assert drop["d1"] == 0.0 and drop["d2"] == 0.0
    add = loo_allocation(table, "add-one")
    assert add.total == pytest.approx(2.0)  # double counting, sums past one
    sh = shapley_allocation(table)
    assert sh["d1"] == pytest.approx(0.5) and sh["d2"] == pytest.approx(0.5)


def test_loo_no_surplus_error():
    table = make_table(("x2",), {frozenset(): 0.4, frozenset({"x2"}): 0.5})
    with pytest.raises(NoSurplusError):
        loo_allocation(table)
    with pytest.raises(NoSurplusError):
        shapley_allocation(table)


# -- exact Shapley -----------------------------------------------------------

def test_symmetric_two_feature_split():
    losses = {frozenset(): 1.0, frozenset({"a"}): 0.5,
              frozenset({"b"}): 0.5, frozenset({"a", "b"}): 0.0}
    alloc = shapley_allocation(make_table(("a", "b"), losses))
    assert alloc["a"] == pytest.approx(0.5)
    assert alloc["b"] == pytest.approx(0.5)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_exact_shapley_equals_permutation_average(m):
    features = tuple(f"f{i}" for i in range(m))
    table = random_table(features, seed=m)
    alloc = shapley_allocation(table)
    brute = brute_force_shapley(table.losses, features)
    for k in features:
        assert alloc[k] == pytest.approx(brute[k] / table.surplus, abs=1e-10)


def test_efficiency_sums_to_one():
    for seed in range(5):
        table = random_table(("a", "b", "c", "d"), seed=seed)
        assert shapley_allocation(table).total == pytest.approx(1.0, abs=1e-9)


def test_zero_and_absolute_variants_are_nonnegative():
    rng = np.random.default_rng(3)
    features = ("a", "b", "c")
    losses = {c: float(rng.uniform(0.0, 2.0))
              for c in enumerate_coalitions(features)}
    losses[frozenset()] = 2.0
    losses[frozenset(features)] = 0.1
    table = make_table(features, losses)
    for variant in ("zero", "absolute"):
        alloc = shapley_allocation(table, variant)
        assert all(v >= 0 for v in alloc.values.values())


def test_dummy_feature_gets_exact_zero():
    base = {frozenset(): 1.0, frozenset({"a"}): 0.25}
    losses = {}
    for c, v in base.items():
        losses[c] = v
        losses[c | {"dummy"}] = v + 3e-13  # below the snapping threshold
    table = make_table(("a", "dummy"), losses)
    alloc = shapley_allocation(table)
    assert alloc["dummy"] == 0.0
    assert alloc["a"] == pytest.approx(1.0, abs=1e-9)


@given(seed_a=st.integers(0, 1000), seed_b=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_linearity_of_contributions(seed_a, seed_b):
    features = ("a", "b", "c")
    ta = random_table(features, seed=seed_a)
    tb = random_table(features, seed=seed_b)
    summed = {c: ta.losses[c] + tb.losses[c] for c in ta.losses}
    ca, _ = shapley_contributions(ta.losses, features)
    cb, _ = shapley_contributions(tb.losses, features)
    cs, _ = shapley_contributions(summed, features)
    for k in features:
        assert cs[k] == pytest.approx(ca[k] + cb[k], abs=1e-12)


def test_vectorised_contributions_match_scalar_loop():
    features = ("a", "b")
    rng = np.random.default_rng(8)
    series = {c: rng.uniform(0.1, 1.0, size=7)
              for c in enumerate_coalitions(features)}
    vec, _ = shapley_contributions(series, features)
    for t in range(7):
        point = {c: float(v[t]) for c, v in series.items()}
        scal, _ = shapley_contributions(point, features)
        for k in features:
            assert vec[k][t] == pytest.approx(scal[k], abs=1e-14)


# -- Monte-Carlo -------------------------------------------------------------

def test_montecarlo_exhaustive_equals_exact():
    features = ("a", "b", "c")
    table = random_table(features, seed=2)
    exact = shapley_allocation(table)
    mc = shapley_montecarlo(lambda c: table.losses[c], features,
                            samples=math.factorial(3), seed=0)
    for k in features:
        assert mc[k] == pytest.approx(exact[k], abs=1e-12)


def test_montecarlo_symmetric_pair_is_exact_for_any_seed():
    losses = {frozenset(): 1.0, frozenset({"a"}): 0.5,
              frozenset({"b"}): 0.5, frozenset({"a", "b"}): 0.0}
    for seed in (0, 1, 99):
        mc = shapley_montecarlo(lambda c: losses[c], ("a", "b"),
                                samples=4, seed=seed)
        assert mc["a"] == pytest.approx(0.5)
        assert mc["b"] == pytest.approx(0.5)


def test_montecarlo_within_three_stderr_of_exact():
    features = tuple(f"f{i}" for i in range(5))
    table = random_table(features, seed=17)
    exact = shapley_allocation(table)
    mc = shapley_montecarlo(lambda c: table.losses[c], features,
                            samples=2000, seed=5)
    for k in features:
        bound = 3 * mc.stderr[k] + 1e-12
        assert abs(mc[k] - exact[k]) <= bound


def test_montecarlo_deterministic_given_seed():
    features = ("a", "b", "c", "d")
    table = random_table(features, seed=4)
    m1 = shapley_montecarlo(lambda c: table.losses[c], features, 64, seed=9)
    m2 = shapley_montecarlo(lambda c: table.losses[c], features, 64, seed=9)
    assert m1.values == m2.values


# -- instantaneous allocation ------------------------------------------------

def test_instant_no_surplus_is_flagged_and_zero():
    losses = {frozenset(): 0.5, frozenset({"a"}): 0.5, frozenset({"b"}): 0.5,
              frozenset({"a", "b"}): 0.5}
    alloc = instant_allocation(losses, ("a", "b"))
    assert alloc.no_surplus
    assert all(v == 0.0 for v in alloc.values.values())


def test_instant_single_feature():
    losses = {frozenset(): 0.4, frozenset({"a"}): 0.1}
    alloc = instant_allocation(losses, ("a",))
    assert alloc["a"] == pytest.approx(1.0)
    assert not alloc.no_surplus


def test_instant_matches_permutation_oracle():
    features = ("a", "b", "c")
    rng = np.random.default_rng(21)
    losses = {c: float(rng.uniform(0.2, 1.0))
              for c in enumerate_coalitions(features)}
    losses[frozenset()] = 1.2
    losses[frozenset(features)] = 0.2
    alloc = instant_allocation(losses, features)
    brute = brute_force_shapley(losses, features)
    norm = losses[frozenset()] - losses[frozenset(features)]
    for k in features:
        assert alloc[k] == pytest.approx(brute[k] / norm, abs=1e-12)


# -- one-pass allocation over every step -------------------------------------

POLICY_VARIANTS = {"shapley": ORIGINAL, "zero-shapley": ZERO,
                   "absolute-shapley": ABSOLUTE, "loo-a": DROP_ONE, "loo-b": ADD_ONE}


def step_loss_matrix(T=300, seed=41):
    """Per-coalition loss series over (a, b, dummy); the dummy never moves
    any loss, and some steps have no surplus."""
    rng = np.random.default_rng(seed)
    losses = {c: 1.0 - 0.2 * len(c) + rng.normal(0, 0.15, T)
              for c in enumerate_coalitions(("a", "b"))}
    losses[frozenset()][:20] = losses[frozenset({"a", "b"})][:20]  # zero surplus
    for c in list(losses):
        losses[c | {"dummy"}] = losses[c].copy()
    return losses


@pytest.mark.parametrize("policy", sorted(POLICY_VARIANTS))
def test_one_pass_allocation_equals_instant_allocation_per_step(policy):
    variant = POLICY_VARIANTS[policy]
    losses = step_loss_matrix()
    features = ("a", "b", "dummy")
    series = step_allocations(losses, features, variant)
    assert series.policy == policy
    surplus = losses[frozenset()] - losses[frozenset(features)]
    assert 20 <= int(np.sum(series.no_surplus)) < len(surplus)
    assert np.array_equal(series.no_surplus, surplus <= 0)
    for t in range(len(surplus)):
        inst = instant_allocation({c: float(v[t]) for c, v in losses.items()},
                                  features, variant)
        assert inst.policy == policy
        assert inst.no_surplus == bool(series.no_surplus[t])
        for k in features:
            assert series.values[k][t] == inst[k]
        if not inst.no_surplus:
            table = make_table(features, {c: float(v[t]) for c, v in losses.items()})
            oracle = (loo_allocation(table, variant) if policy.startswith("loo")
                      else shapley_allocation(table, variant))
            for k in features:
                assert inst[k] == pytest.approx(oracle[k], abs=1e-12)
    assert np.all(series.values["dummy"] == 0.0)


def test_array_peaks_are_per_step():
    losses = step_loss_matrix(T=50)
    features = ("a", "b", "dummy")
    _, peaks = shapley_contributions(losses, features)
    for t in range(50):
        _, step_peaks = shapley_contributions(
            {c: float(v[t]) for c, v in losses.items()}, features)
        for k in features:
            assert peaks[k][t] == step_peaks[k]
    assert np.all(peaks["dummy"] == 0.0)
