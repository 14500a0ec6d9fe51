"""The package's array paths against plain references, on random inputs.

* ``allocation.shapley_contributions`` (coalitions indexed by bit mask)
  against the frozenset walk in ``oracles.py``, bit for bit;
* the table allocations and ``instant_allocation``, one-step cases of
  ``step_allocations``, against the table bodies they replaced, now in
  ``oracles.py``: the same bits on finite losses, and the NaN cases where
  the two differ;
* ``batch.coalition_masks`` (one integer matrix product) against one
  ``design.columns_for`` call per coalition;
* a settled ledger (written from its feature codes) against the reference
  writers of ``test_serialisation.py``, with names that need quoting and
  escaping.

``pytest --hypothesis-profile=deep`` runs each on 2,000 examples.
"""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from regmarket import (
    Dataset,
    LossSpec,
    TaskSpec,
    clear_batch_market,
    run_online_market,
    run_oos_market,
)
from regmarket import market
from regmarket.allocation import (
    ABSOLUTE,
    ADD_ONE,
    DROP_ONE,
    ORIGINAL,
    POLICY_VARIANT,
    ZERO,
    instant_allocation,
    loo_allocation,
    shapley_allocation,
    shapley_contributions,
)
from regmarket.artifacts import write_artifacts
from regmarket.batch import CoalitionLossTable, coalition_masks, enumerate_coalitions
from regmarket.data import make_lags, polynomial_expand
from regmarket.errors import (
    CoverageError,
    EnumerationCapError,
    FeatureLookupError,
    NoSurplusError,
    ParameterError,
)
from regmarket.market import MarketReport
from test_serialisation import PAYMENT, WRITERS, per_file_artifacts

# -- Shapley: bit masks against the frozenset walk ----------------------------

# NaNs with payloads and either sign, zeros of either sign, subnormals and
# the largest finite values, whose differences overflow
NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
            0x7FF800000000BEEF, 0xFFF8000000000002]
SPECIAL = ([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-310, -1e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1.0]
           + np.array(NAN_BITS, dtype=np.uint64).view(float).tolist())
LOSS = st.sampled_from(SPECIAL) | st.floats(-3.0, 3.0) | st.floats(allow_nan=True)


def raw_bits(value) -> np.ndarray:
    return np.asarray(value, dtype=float).view(np.int64)


def bits(value) -> np.ndarray:
    """The bits of ``value``, with every NaN as one NaN.

    Which NaN a sum of two NaNs keeps is up to the C code that adds them:
    CPython's specialised float add keeps the first, its generic one the
    second, so the frozenset walk itself returns either payload from one
    call to the next.  Every other bit is compared, and no artifact writes
    a NaN's payload or sign.
    """
    value = np.asarray(value, dtype=float)
    return np.where(np.isnan(value), np.nan, value).view(np.int64)


@st.composite
def games(draw):
    """A loss game over 0-6 players given in any order: one scalar, or one
    series, per coalition.  The losses are Hypothesis draws, or normal
    draws of mixed scales, whose sums round, with special values among
    them.  A series may be the object of an earlier coalition, as markets
    share the loss series of equal column sets."""
    m = draw(st.integers(0, 6))
    players = draw(st.permutations([f"x{i}" for i in range(m)]))
    length = draw(st.none() | st.integers(1, 4))
    scalar_type = draw(st.sampled_from([float, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.sampled_from([None, 0.0, 0.1, 0.5]))

    def loss() -> float:
        if special is None:
            return draw(LOSS)
        if rng.random() < special:
            return SPECIAL[rng.integers(len(SPECIAL))]
        return rng.normal() * 10.0 ** rng.integers(-3, 4)

    losses = {}
    for coalition in enumerate_coalitions(players):
        if length is not None and losses and draw(st.integers(0, 3)) == 0:
            losses[coalition] = losses[draw(st.sampled_from(sorted(losses, key=sorted)))]
        elif length is None:
            losses[coalition] = scalar_type(loss())
        else:
            losses[coalition] = np.array([loss() for _ in range(length)])
    return losses, players


@given(games(), st.sampled_from([ORIGINAL, ZERO, ABSOLUTE]), st.booleans(),
       st.integers(0, 2**63 - 1))
def test_shapley_by_bit_mask_is_the_frozenset_walk_bit_for_bit(game, variant, peaks, drop):
    losses, players = game
    before = {c: raw_bits(v).copy() for c, v in losses.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        want = oracles.shapley_contributions(losses, players, variant, peaks)
    # a scalar game warns of no overflow or NaN, as Python floats do not;
    # a series game warns as NumPy does
    scalar = np.shape(losses[frozenset()]) == ()
    with contextlib.nullcontext() if scalar else np.errstate(over="ignore", invalid="ignore"):
        got = shapley_contributions(losses, players, variant, peaks)
    for ours, theirs in zip(got, want):
        if theirs is None:
            assert ours is None
            continue
        assert list(ours) == list(theirs) == list(players)
        for k in players:
            assert type(ours[k]) is type(theirs[k])
            assert np.array_equal(bits(ours[k]), bits(theirs[k])), k
    # the losses, shared series included, are read only
    assert all(np.array_equal(raw_bits(v), before[c]) for c, v in losses.items())

    # a table that misses coalitions names them all, in the same order
    coalitions = list(enumerate_coalitions(players))
    gone = [c for j, c in enumerate(coalitions) if drop >> (j % 63) & 1] or coalitions[-1:]
    partial = {c: v for c, v in losses.items() if c not in gone}
    with pytest.raises(CoverageError) as ours:
        shapley_contributions(partial, players, variant, peaks)
    with pytest.raises(CoverageError) as theirs:
        oracles.shapley_contributions(partial, players, variant, peaks)
    assert ours.value.missing == theirs.value.missing == tuple(gone)
    assert str(ours.value) == str(theirs.value)


def test_shapley_refuses_a_player_given_twice():
    # each player is one bit of a coalition's mask
    losses = {frozenset(): 1.0, frozenset({"x0"}): 0.5}
    with pytest.raises(ParameterError, match="players must be distinct"):
        shapley_contributions(losses, ("x0", "x0"))


# -- the allocation entry points against the table oracles ---------------------

FINITE = [v for v in SPECIAL if np.isfinite(v)]
FINITE_LOSS = st.sampled_from(FINITE) | st.floats(-3.0, 3.0) | st.floats(allow_nan=False,
                                                                          allow_infinity=False)
POLICIES = list(POLICY_VARIANT.items())


@st.composite
def tables(draw, loss=FINITE_LOSS):
    """A loss table over 1-6 support features, in sorted order as every
    market's table is: Hypothesis draws, or normal draws of mixed scales
    with special values among them.  Some tables have no surplus, as the
    grand coalition's loss is drawn at or above the central one's."""
    m = draw(st.integers(1, 6))
    support = tuple(f"x{i}" for i in range(m))
    scalar_type = draw(st.sampled_from([float, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.sampled_from([None, 0.0, 0.1, 0.5]))
    values = FINITE if loss is FINITE_LOSS else SPECIAL

    def draw_loss() -> float:
        if special is None:
            return draw(loss)
        if rng.random() < special:
            return values[rng.integers(len(values))]
        return rng.normal() * 10.0 ** rng.integers(-3, 4)

    losses = {c: float(draw_loss()) for c in enumerate_coalitions(support)}
    if draw(st.integers(0, 3)) == 0:
        central = losses[frozenset()]
        losses[frozenset(support)] = draw(st.sampled_from(
            [central, central + abs(float(draw_loss()))]))
    return CoalitionLossTable({c: scalar_type(v) for c, v in losses.items()}, support,
                              frozenset({"c"}))


def surplus(table):
    with np.errstate(all="ignore"):
        return table.surplus


def entry_points(variant):
    """The table entry point of ``variant``, and the reference it replaced."""
    if variant in (DROP_ONE, ADD_ONE):
        return loo_allocation, oracles.loo_allocation
    return shapley_allocation, oracles.shapley_allocation


def allocate(allocation, *args):
    # both sides warn as NumPy or Python floats do on overflow; the bits
    # are compared here, not the warnings
    with np.errstate(all="ignore"):
        try:
            return allocation(*args)
        except NoSurplusError as err:
            return err


def nan_marginals(table, variant) -> set:
    """The features with a NaN Shapley marginal, which the market's rule
    pays nothing and the reference pays NaN."""
    if variant in (DROP_ONE, ADD_ONE):
        return set()
    with np.errstate(all="ignore"):
        _, peaks = oracles.shapley_contributions(table.losses, table.support, variant)
    return {k for k, peak in peaks.items() if np.isnan(peak)}


def check_split(got, want, table, variant):
    """``got`` is ``want`` bit for bit, but for a feature with a NaN
    marginal, whose share the reference keeps as NaN and the market's rule
    makes +0.0."""
    assert (got.policy, list(got.values)) == (want.policy, list(want.values))
    assert np.array_equal(bits(got.normalizer), bits(want.normalizer))
    split = nan_marginals(table, variant)
    for k in table.support:
        if k in split:
            assert np.isnan(want[k]) and raw_bits(got[k]) == raw_bits(0.0), k
        else:
            assert np.array_equal(bits(got[k]), bits(want[k])), k


@given(tables(), st.sampled_from(POLICIES))
def test_table_allocations_are_the_old_bodies_bit_for_bit(table, policy):
    label, variant = policy
    ours, reference = entry_points(variant)
    got, want = allocate(ours, table, variant), allocate(reference, table, variant)
    if isinstance(want, NoSurplusError):
        assert isinstance(got, NoSurplusError) and str(got) == str(want)
        return
    assert got.policy == label and not got.no_surplus
    # finite losses give no NaN marginal, so every bit is the reference's
    assert not nan_marginals(table, variant)
    check_split(got, want, table, variant)


@given(tables(), st.sampled_from(POLICIES))
def test_instant_allocation_is_the_table_oracle_or_no_surplus(table, policy):
    label, variant = policy
    got = allocate(instant_allocation, table.losses, table.support, variant)
    assert got.policy == label
    assert np.array_equal(bits(got.normalizer), bits(surplus(table)))
    if surplus(table) > 0:
        want = allocate(entry_points(variant)[1], table, variant)
        check_split(got, want, table, variant)
    else:
        assert got.no_surplus
        assert all(raw_bits(v) == raw_bits(0.0) for v in got.values.values())


@given(tables(loss=LOSS), st.sampled_from(POLICIES))
def test_table_allocations_split_from_the_reference_only_on_nan(table, policy):
    # the reference keeps a NaN share where a Shapley marginal is NaN, and
    # shares out a NaN surplus; the market's rule pays such a feature
    # nothing, and refuses such a table
    _, variant = policy
    ours, reference = entry_points(variant)
    got, want = allocate(ours, table, variant), allocate(reference, table, variant)
    if np.isnan(surplus(table)):
        assert isinstance(got, NoSurplusError) and not isinstance(want, NoSurplusError)
    elif isinstance(want, NoSurplusError):
        assert isinstance(got, NoSurplusError) and str(got) == str(want)
    else:
        check_split(got, want, table, variant)


# -- coalition masks: one matrix product against columns_for ------------------

@st.composite
def designs(draw):
    """A degree-1 or degree-2 design over up to eight support features,
    lagged or not, with or without interactions, and the central features:
    the target's lags, a few others, and one with no term."""
    n_support = draw(st.integers(0, 8))
    n_central = draw(st.integers(0, 2))
    n_other = draw(st.integers(0, 1))
    names = [f"s{i}" for i in range(n_support)]
    central = [f"c{i}" for i in range(n_central)]
    others = [f"o{i}" for i in range(n_other)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = 12
    features = {k: rng.normal(size=T) for k in names + central + others}
    ownership = {k: "a1" if k in central else "a2" for k in features}
    ds = Dataset(np.arange(T), rng.normal(size=T), features, ownership, target_owner="a1")
    lagged = draw(st.lists(st.sampled_from(["y"] + list(features)), unique=True, max_size=4))
    ds = make_lags(ds, {k: draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
                        for k in lagged})
    degree = draw(st.integers(1, 2))
    design = polynomial_expand(ds, degree, include_interactions=draw(st.booleans()))
    central = frozenset(central) | {"no_term"} | ({"y"} if "y" in lagged else set())
    support = tuple(draw(st.permutations(names)))
    return design, central, support


@given(designs())
def test_coalition_masks_are_the_columns_for_each_coalition(case):
    design, central, support = case
    coalitions, masks = coalition_masks(design, central, support, cap=8)
    assert coalitions == list(enumerate_coalitions(support))
    assert masks.dtype == bool and masks.shape == (len(coalitions), design.n)
    for coalition, mask in zip(coalitions, masks):
        assert tuple(np.flatnonzero(mask)) == design.columns_for(central | coalition)


def test_coalition_masks_keep_their_errors():
    rng = np.random.default_rng(5)
    T = 12
    ds = Dataset(np.arange(T), rng.normal(size=T),
                 {k: rng.normal(size=T) for k in ("c1", "s1", "s2", "s3")},
                 {"c1": "a1", "s1": "a2", "s2": "a2", "s3": "a3"}, target_owner="a1")
    design = polynomial_expand(ds, 2)
    central = frozenset({"c1"})
    with pytest.raises(FeatureLookupError, match=r"^unknown coalition features: \['zz'\]$"):
        coalition_masks(design, central, ("s1", "zz"), cap=8)
    with pytest.raises(ParameterError, match=r"^coalition overlaps central features: \['c1'\]$"):
        coalition_masks(design, central, ("s1", "c1"), cap=8)
    with pytest.raises(EnumerationCapError,
                       match=r"^3 support features exceed the exact enumeration cap \(2\); "):
        coalition_masks(design, central, ("s1", "s2", "s3"), cap=2)


@pytest.mark.parametrize("clear", [
    clear_batch_market,
    run_online_market,
    lambda ds, task, support: run_oos_market(ds, task, "batch", support=support),
], ids=["batch", "online", "oos"])
def test_markets_refuse_a_support_name_given_twice(clear):
    # each coalition is indexed by one bit per support feature
    rng = np.random.default_rng(3)
    T = 300
    features = {"x2": rng.normal(size=T), "x3": rng.normal(size=T)}
    ds = Dataset(np.arange(T), features["x2"] - features["x3"] + rng.normal(0, 0.3, T),
                 features, {"x2": "a2", "x3": "a3"}, target_owner="a1")
    task = TaskSpec(central_agent="a1", ownership={"x2": "a2", "x3": "a3"},
                    loss=LossSpec("quadratic"), lam=0.99, warmup=40, phi_oos=1.0,
                    train_rows=150)
    with pytest.raises(ParameterError, match=r"support names \['x2'\] are given more than once"):
        clear(ds, task, support=("x2", "x3", "x2"))


# -- a settled ledger whose names need quoting ---------------------------------

# the hand-built report's names, and one that holds a newline
OWNERS = {"vind,møller": 'a "two"', "站点_x": "a3", "x4": "a3", "line\nbreak": "a\r4"}


def written(report, outdir) -> dict[str, bytes]:
    outdir.mkdir()
    write_artifacts(report, outdir)
    return {path.name: path.read_bytes() for path in outdir.iterdir()}


def referenced(report, outdir) -> dict[str, bytes]:
    outdir.mkdir()
    for name, (_, reference) in WRITERS.items():
        reference(report, outdir / name)
    with open(outdir / "audit.json", "w") as fh:
        json.dump(report.audit, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {path.name: path.read_bytes() for path in outdir.iterdir()}


@given(st.integers(1, 12).flatmap(lambda T: st.lists(
           st.lists(PAYMENT, min_size=len(OWNERS), max_size=len(OWNERS)),
           min_size=T, max_size=T)),
       st.sampled_from(["oos", 'o"os,\n']), st.booleans())
def test_a_settled_ledger_with_quoted_names_matches_the_reference_writers(
        tmp_path_factory, rows, market_name, batch):
    amounts = np.array(rows, dtype=float)
    features = tuple(sorted(OWNERS))
    report = MarketReport(market=market_name, central_agent="ä1", rows=len(amounts), phi=1.0,
                          allocation_policy="shapley", game="support-coalitions",
                          support=features, feature_owners=OWNERS)
    task = TaskSpec(central_agent="ä1", ownership=OWNERS)
    if batch:
        report = market._settle(report, task, amounts[:1], ["batch"])
    else:
        report = market._settle(report, task, amounts, list(range(len(amounts))),
                                np.ones(len(amounts)))
    assert report.ledger._lists is None
    tmp_path = tmp_path_factory.mktemp("quoted")
    settled = written(report, tmp_path / "settled")
    # the reference writers read the series as lists, and the ledger by entry
    assert settled == referenced(report, tmp_path / "reference")
    report.to_dict()   # the ledger's columns become lists too
    assert report.ledger._lists is not None
    assert written(report, tmp_path / "as-lists") == settled
    per_file = tmp_path / "per-file"
    per_file.mkdir()
    per_file_artifacts(report, per_file)
    assert {path.name: path.read_bytes() for path in per_file.iterdir()} == settled


def test_the_least_ledger_amount_is_nan_wherever_a_nan_stands():
    nan = float("nan")
    report = MarketReport(market="oos", central_agent="a1", rows=3, phi=1.0,
                          allocation_policy="shapley", game="support-coalitions",
                          support=("x2",), feature_owners={"x2": "a2"})
    for amounts in ([nan, 1.0, 2.0], [1.0, nan, 2.0], [1.0, 2.0, nan]):
        report.ledger = [market.LedgerEntry(t, "a1", "a2", "x2", a, "oos")
                         for t, a in enumerate(amounts)]
        check = market.audit_ledger(report).checks["individual_rationality"]
        assert not check["passed"] and np.isnan(check["min_ledger_amount"]), amounts
    report.ledger = [market.LedgerEntry(0, "a1", "a2", "x2", a, "oos") for a in (2.0, 0.5)]
    assert market.audit_ledger(report).checks["individual_rationality"] == {
        "passed": True, "min_ledger_amount": 0.5}

    # a settled ledger is audited from its gathered amounts, which the
    # book keeps positive, so no NaN reaches it; put one there by hand
    report = market._settle(report, TaskSpec(central_agent="a1", ownership={"x2": "a2"}),
                            np.array([[0.5], [2.0], [1.0]]), [0, 1, 2], np.ones(3))
    assert report.audit["checks"]["individual_rationality"] == {
        "passed": True, "min_ledger_amount": 0.5}
    for at in range(3):
        paid = report._book.paid
        paid[:, 0] = [0.5, 2.0, 1.0]
        paid[at, 0] = nan
        check = market.audit_ledger(report).checks["individual_rationality"]
        assert not check["passed"] and np.isnan(check["min_ledger_amount"]), at
    assert report.ledger._lists is None
