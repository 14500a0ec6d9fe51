import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from regmarket import (
    CoalitionLossTable,
    CoverageError,
    NoSurplusError,
    ParameterError,
    instant_allocation,
    loo_allocation,
    shapley_allocation,
)
from regmarket.allocation import (
    ABSOLUTE,
    ADD_ONE,
    DROP_ONE,
    ORIGINAL,
    ZERO,
    shapley_contributions,
    shapley_weight,
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


@pytest.mark.parametrize("variant, missing", [
    (DROP_ONE, (frozenset({"b", "c"}), frozenset({"a", "c"}))),
    (ADD_ONE, (frozenset({"a"}), frozenset({"c"}))),
])
def test_leave_one_out_over_an_incomplete_map_names_what_it_lacks(variant, missing):
    # drop-one reads the grand coalition less each feature, add-one each
    # feature alone; besides the ends the map has {b} and {a, b} only
    losses = {frozenset(): 1.0, frozenset({"b"}): 0.7, frozenset({"a", "b"}): 0.6,
              frozenset({"a", "b", "c"}): 0.5}
    message = re.escape(f"loss map missing 2 coalitions, e.g. {sorted(missing[0])}")
    with pytest.raises(CoverageError, match=message) as err:
        step_allocations(losses, ("c", "b", "a"), variant)
    assert err.value.missing == missing
    with pytest.raises(CoverageError, match=message) as err:
        loo_allocation(make_table(("a", "b", "c"), losses), variant)
    assert err.value.missing == missing


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


# -- instantaneous allocation ------------------------------------------------

def test_instant_no_surplus_is_flagged_and_zero():
    losses = {frozenset(): 0.5, frozenset({"a"}): 0.5, frozenset({"b"}): 0.5,
              frozenset({"a", "b"}): 0.5}
    alloc = instant_allocation(losses, ("a", "b"))
    assert alloc.no_surplus
    assert all(v == 0.0 for v in alloc.values.values())


def test_instant_nan_surplus_is_flagged_and_zero():
    alloc = instant_allocation({frozenset(): np.nan, frozenset({"a"}): 0.5}, ("a",))
    assert alloc.no_surplus
    assert alloc.values == {"a": 0.0}


@pytest.mark.parametrize("variant", [ORIGINAL, DROP_ONE])
def test_a_nan_step_is_flagged_no_surplus_where_it_is_zeroed(variant):
    losses = {frozenset(): np.array([0.9, np.nan, 0.7]),
              frozenset({"a"}): np.array([0.4, 0.5, 0.6])}
    series = step_allocations(losses, ("a",), variant)
    assert series.values["a"].tolist() == [1.0, 0.0, 1.0]
    assert series.no_surplus.tolist() == [False, True, False]


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
            oracle = (oracles.loo_allocation(table, variant) if policy.startswith("loo")
                      else oracles.shapley_allocation(table, variant))
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


@pytest.mark.parametrize("variant", [ORIGINAL, ZERO, ABSOLUTE])
def test_contributions_without_peaks_are_the_same_bits(variant):
    # five features, so each sum runs over sixteen marginals of either
    # sign, with zero marginals where two coalitions' losses are equal; in
    # the first five steps every marginal of e is -0.0, and its sum is the
    # 0.0 that adding to a 0.0 start gives
    features = ("a", "b", "c", "d", "e")
    rng = np.random.default_rng(7)
    losses = {c: 1.0 - 0.1 * len(c) + rng.normal(0, 0.2, 400)
              for c in enumerate_coalitions(features)}
    losses[frozenset({"e"})] = losses[frozenset()].copy()
    for c, series in losses.items():
        series[:5] = 0.0 if "e" in c else -0.0
    contribs, peaks = shapley_contributions(losses, features, variant)
    sums, none = shapley_contributions(losses, features, variant, peaks=False)
    assert none is None and list(sums) == list(contribs)
    for k in features:
        assert np.array_equal(sums[k].view(np.uint64), contribs[k].view(np.uint64))


# -- the one coalition walk against the two-loop form it replaced ------------

def two_loop_contributions(losses, players, variant):
    """Shapley sums and peaks as the package once built them: a fresh
    ``total + w * transform(diff)`` per marginal, with Python's ``max``
    clamping scalar marginals under the zero variant."""
    transform = {ORIGINAL: lambda d: d, ABSOLUTE: np.abs,
                 ZERO: lambda d: np.maximum(d, 0.0) if np.ndim(d) else max(d, 0.0)}[variant]
    m = len(players)
    contribs, peaks = {}, {}
    for k in players:
        rest = [p for p in players if p != k]
        total = peak = 0.0
        for size in range(m):
            for combo in itertools.combinations(rest, size):
                sub = frozenset(combo)
                diff = losses[sub] - losses[sub | {k}]
                peak = np.maximum(peak, np.abs(diff))
                total = total + shapley_weight(size, m) * transform(diff)
        contribs[k] = total
        peaks[k] = peak if np.ndim(peak) else float(peak)
    return contribs, peaks


def bits(value):
    return np.asarray(value, dtype=float).view(np.uint64)


# a small pool repeats values, so coalitions often tie and marginals are
# exact zeros of either sign
LOSS_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan]),
                        st.floats(-2.0, 2.0))


@st.composite
def loss_games(draw):
    players = tuple("abcde"[:draw(st.integers(1, 5))])
    T = draw(st.one_of(st.none(), st.integers(1, 20)))
    values = LOSS_VALUES if T is None else st.lists(LOSS_VALUES, min_size=T, max_size=T)
    losses = {c: draw(values) for c in enumerate_coalitions(players)}
    if T is not None:
        losses = {c: np.array(v) for c, v in losses.items()}
    return players, losses


# zero-Shapley with only negative marginals: a peak taken after the
# marginals are clamped would read 0 here
NEGATIVE_MARGINALS = (("a", "b"), {c: np.array([0.25 * len(c), -0.0]) for c in
                                   enumerate_coalitions(("a", "b"))})


@given(game=loss_games(), variant=st.sampled_from([ORIGINAL, ZERO, ABSOLUTE]))
@example(game=NEGATIVE_MARGINALS, variant=ZERO)
@example(game=(("a",), {frozenset(): -0.0, frozenset({"a"}): 0.0}), variant=ZERO)
@settings(max_examples=200, deadline=None)
def test_one_walk_keeps_the_bits_of_the_two_loop_form(game, variant):
    players, losses = game
    contribs, peaks = shapley_contributions(losses, players, variant)
    sums, none = shapley_contributions(losses, players, variant, peaks=False)
    want, want_peaks = two_loop_contributions(losses, players, variant)
    assert none is None and list(contribs) == list(sums) == list(players)
    for k in players:
        assert np.array_equal(bits(contribs[k]), bits(want[k]))
        assert np.array_equal(bits(peaks[k]), bits(want_peaks[k]))
        assert np.array_equal(bits(sums[k]), bits(contribs[k]))
        if np.ndim(losses[frozenset()]) == 0:
            assert type(contribs[k]) is float and type(peaks[k]) is float
            assert type(sums[k]) is float
    finite = all(np.all(np.isfinite(v)) for v in losses.values())
    if variant == ORIGINAL and finite:
        brute = brute_force_shapley(losses, players)
        for k in players:
            assert np.all(np.abs(contribs[k] - brute[k]) <= 1e-12)


def test_unknown_shapley_variant_is_a_parameter_error():
    losses = {frozenset(): 1.0, frozenset({"a"}): 0.5}
    for peaks in (True, False):
        with pytest.raises(ParameterError, match="unknown Shapley variant 'median'"):
            shapley_contributions(losses, ("a",), "median", peaks)
