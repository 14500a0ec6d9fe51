"""The stacked coalition-table kernel against one fit per coalition design.

``fit_all_coalitions`` fits every coalition from one Gram matrix; the
reference is ``fit_matrix`` on each coalition's own sub-design, as built by
``coalition_design``.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from regmarket import batch, market
from regmarket import (
    AugmentedDesign,
    Dataset,
    EnumerationCapError,
    FeatureLookupError,
    InsufficientDataError,
    LossSpec,
    ParameterError,
    SingularDesignError,
    TaskSpec,
    clear_batch_market,
    coalition_design,
    loss_value,
    polynomial_expand,
)
from regmarket.batch import (
    CONDITION_LIMIT,
    _solve_gram,
    coalition_losses,
    enumerate_coalitions,
    fit_all_coalitions,
    fit_matrix,
)

QUAD = LossSpec("quadratic")
CENTRAL = frozenset({"x1"})


def make_design(T=240, seed=0, degree=1, scales=None, extra=None):
    """Features x1..x4 (x1 central) with optional column scales and extra columns."""
    rng = np.random.default_rng(seed)
    names = ("x1", "x2", "x3", "x4")
    scales = scales or {}
    feats = {k: rng.normal(size=T) * scales.get(k, 1.0) for k in names}
    y = 0.3 + feats["x1"] / scales.get("x1", 1.0) - 0.5 * feats["x2"] / scales.get("x2", 1.0)
    y = y + 0.2 * np.tanh(feats["x3"]) + rng.normal(0, 0.4, T)
    if extra:
        feats.update(extra(feats))
    owners = {k: f"a{i}" for i, k in enumerate(feats, start=1)}
    ds = Dataset(np.arange(T), y, feats, owners, target_owner="a1")
    return ds, polynomial_expand(ds, degree=degree)


def reference_fits(design, y, support, spec=QUAD):
    fits = {}
    for c in enumerate_coalitions(support):
        sub = coalition_design(design, CENTRAL, c)
        fits[c] = fit_matrix(sub.values, y, spec, sub.term_names)
    return fits


@pytest.mark.parametrize("seed,degree", [(0, 1), (1, 2), (2, 2), (3, 1)])
def test_random_designs_match_one_fit_per_coalition(seed, degree):
    ds, design = make_design(seed=seed, degree=degree)
    support = ("x2", "x3", "x4")
    table = fit_all_coalitions(design, ds.target, central=CENTRAL, support=support,
                               spec=QUAD)
    ref = reference_fits(design, ds.target, support)
    assert list(table.losses) == list(ref)
    for j, (c, want) in enumerate(ref.items()):
        got = table.fits[c]
        assert got.term_names == want.term_names
        np.testing.assert_allclose(got.coefficients, want.coefficients,
                                   rtol=1e-10, atol=1e-13)
        assert got.loss_star == pytest.approx(want.loss_star, rel=1e-10)
        assert table.losses[c] == got.loss_star
        # a gradient norm at the optimum is roundoff, compared absolutely
        assert got.gradient_norm == pytest.approx(want.gradient_norm, rel=1e-10, abs=1e-12)
        assert got.jitter == want.jitter == 0.0
        # the padded coefficient row holds the fit on its own columns, zero elsewhere
        row = table.coefficients[j]
        cols = [design.term_names.index(name) for name in want.term_names]
        np.testing.assert_array_equal(row[cols], got.coefficients)
        assert np.count_nonzero(np.delete(row, cols)) == 0


def test_wide_column_scales_keep_the_jitter_decision():
    # features of scale 1e5 next to the unit intercept: every block is
    # conditioned near 1e10, but padded with ones it would pass 1e12
    scales = {k: 1e5 for k in ("x1", "x2", "x3", "x4")}
    ds, design = make_design(T=2000, seed=5, scales=scales)
    support = ("x2", "x3", "x4")
    table = fit_all_coalitions(design, ds.target, central=CENTRAL, support=support,
                               spec=QUAD)
    ref = reference_fits(design, ds.target, support)
    G = design.values.T @ design.values
    empty = list(design.columns_for(CENTRAL))
    identity_pad = np.eye(design.n)
    identity_pad[np.ix_(empty, empty)] = G[np.ix_(empty, empty)]
    assert np.linalg.cond(identity_pad) > CONDITION_LIMIT
    assert np.linalg.cond(G[np.ix_(empty, empty)]) < CONDITION_LIMIT
    for c, want in ref.items():
        assert (table.fits[c].jitter > 0) == (want.jitter > 0)
        assert table.fits[c].loss_star == pytest.approx(want.loss_star, rel=1e-10)


def test_wide_table_holds_no_stack_above_the_block_budget(monkeypatch):
    # degree 2 over eight features: 45 terms and 128 coalitions, whose
    # systems stacked at full width would be 128 * 45^2 floats (2 MB)
    budget = 1 << 12
    monkeypatch.setattr(batch, "BLOCK_FLOATS", budget)
    stacks = []
    solve = batch._solve_gram

    def recording_solve(G, rhs):
        stacks.append(G.shape)
        return solve(G, rhs)

    monkeypatch.setattr(batch, "_solve_gram", recording_solve)
    rng = np.random.default_rng(112)
    ds, design = make_design(T=300, seed=12, degree=2, extra=lambda f: {
        f"x{i}": rng.normal(size=300) for i in range(5, 9)})
    support = tuple(f"x{i}" for i in range(2, 9))
    assert design.n == 45
    tracemalloc.start()
    try:
        table = fit_all_coalitions(design, ds.target, central=CENTRAL, support=support,
                                   spec=QUAD)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(k * n * n for k, n, _ in stacks) <= budget
    # every system is factorised at its own coalition's width
    assert sum(k for k, _, _ in stacks) == 128
    assert {n for _, n, _ in stacks} == {len(f.term_names) for f in table.fits.values()}
    assert peak < 128 * 45 * 45 * 8 / 4
    for c, want in reference_fits(design, ds.target, support).items():
        got = table.fits[c]
        assert got.term_names == want.term_names
        assert got.jitter == want.jitter == 0.0
        np.testing.assert_allclose(got.coefficients, want.coefficients,
                                   rtol=1e-10, atol=1e-13)
        assert got.loss_star == pytest.approx(want.loss_star, rel=1e-10)


def test_duplicated_support_column_jitters_only_coalitions_holding_both():
    ds, design = make_design(seed=6, extra=lambda f: {"x5": f["x3"].copy()})
    support = ("x2", "x3", "x4", "x5")
    table = fit_all_coalitions(design, ds.target, central=CENTRAL, support=support,
                               spec=QUAD)
    ref = reference_fits(design, ds.target, support)
    for c, want in ref.items():
        got = table.fits[c]
        assert (got.jitter > 0) == ({"x3", "x5"} <= c) == (want.jitter > 0)
        assert got.jitter == pytest.approx(want.jitter, rel=1e-12)
        assert got.loss_star == pytest.approx(want.loss_star, rel=1e-10)


def test_all_zero_column_fits_like_the_reference():
    # an all-zero column makes its coalitions' Gram blocks singular; both
    # paths jitter those blocks and give the column an exact zero coefficient
    ds, design = make_design(seed=7, extra=lambda f: {"x5": np.zeros_like(f["x1"])})
    support = ("x2", "x5")
    table = fit_all_coalitions(design, ds.target, central=CENTRAL, support=support,
                               spec=QUAD)
    ref = reference_fits(design, ds.target, support)
    for c, want in ref.items():
        got = table.fits[c]
        assert (got.jitter > 0) == ("x5" in c) == (want.jitter > 0)
        assert got.loss_star == pytest.approx(want.loss_star, rel=1e-10)
        if "x5" in c:
            assert got.coefficients[got.term_names.index("x5")] == 0.0


def test_failed_factorisation_retries_alone_then_raises():
    good = np.array([[4.0, 1.0], [1.0, 3.0]])
    rhs = np.array([[1.0, 2.0], [1.0, 2.0]])
    x, jitter = _solve_gram(np.stack([good, np.zeros((2, 2))]), rhs)
    np.testing.assert_allclose(x[0], np.linalg.solve(good, rhs[0]), rtol=1e-14)
    assert jitter[0] == 0.0 and jitter[1] > 0.0
    indefinite = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SingularDesignError):
        _solve_gram(np.stack([good, indefinite]), rhs)


def test_overflowing_gram_matrix_is_a_parameter_error():
    rng = np.random.default_rng(13)
    X = np.column_stack([np.ones(50), rng.normal(size=50) * 1e160])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="overflow"):
            fit_matrix(X, rng.normal(size=50), QUAD)


def test_fewer_rows_than_the_grand_coalition_is_insufficient_data():
    ds, design = make_design(T=4, seed=8)
    assert design.n == 5
    with pytest.raises(InsufficientDataError):
        fit_all_coalitions(design, ds.target, central=CENTRAL, support=("x2", "x3", "x4"),
                           spec=QUAD)
    grand = coalition_design(design, CENTRAL, {"x2", "x3", "x4"})
    with pytest.raises(InsufficientDataError):
        fit_matrix(grand.values, ds.target, QUAD)


def test_smooth_quantile_table_matches_one_fit_per_coalition():
    spec = LossSpec("smooth-quantile", tau=0.7, alpha=0.1)
    ds, design = make_design(seed=9)
    support = ("x2", "x3", "x4")
    table = fit_all_coalitions(design, ds.target, central=CENTRAL, support=support,
                               spec=spec)
    for c, want in reference_fits(design, ds.target, support, spec).items():
        got = table.fits[c]
        assert got.loss_star == pytest.approx(want.loss_star, rel=1e-12)
        assert got.iterations > 0 and got.gradient_norm <= 1e-8
        row = table.coefficients[list(table.losses).index(c)]
        np.testing.assert_array_equal(row[row != 0.0], got.coefficients)


def test_coalition_losses_are_each_fits_pointwise_losses():
    ds, design = make_design(T=400, seed=10)
    X, y = design.values, ds.target
    train = AugmentedDesign(design.terms, X[:200], design.feature_owners)
    table = fit_all_coalitions(train, y[:200], central=CENTRAL, support=("x2", "x3", "x4"),
                               spec=QUAD)
    losses = coalition_losses(table.coefficients, X[200:], y[200:], QUAD)
    assert losses.shape == (8, 200) and losses.flags.c_contiguous
    for j, c in enumerate(table.losses):
        cols = list(design.columns_for(CENTRAL | c))
        want = loss_value(y[200:] - X[200:, cols] @ table.fits[c].coefficients, QUAD)
        np.testing.assert_allclose(losses[j], want, rtol=1e-12, atol=1e-15)


def test_enumeration_cap_message_names_the_remedies_that_exist():
    ds, design = make_design(seed=11)
    with pytest.raises(EnumerationCapError) as batch_err:
        fit_all_coalitions(design, ds.target, central=CENTRAL, support=("x2", "x3", "x4"),
                           spec=QUAD, cap=2)
    ds, _ = make_design(seed=11)
    task = TaskSpec(central_agent="a1", ownership={"x1": "a1", "x2": "a2", "x3": "a3",
                                                   "x4": "a4"},
                    loss=QUAD, degree=2, enumeration_cap=4)
    with pytest.raises(EnumerationCapError) as game_err:
        clear_batch_market(ds, task)
    assert "feature" in str(batch_err.value) and "players" in str(game_err.value)
    for err in (batch_err, game_err):
        message = str(err.value)
        assert "enumeration_cap" in message and "screen_features" in message
        assert "Monte-Carlo" not in message


# -- the out-of-sample market's training fits -----------------------------------

OWNERS = {"x1": "a1", "x2": "a2", "x3": "a3", "x4": "a4"}


def full_table_oos_losses(design, y, train, support, task):
    """Losses by coalition on the rows after ``train``, with the coefficients
    of the full coalition table fitted on the rows before."""
    X = design.values
    table = fit_all_coalitions(AugmentedDesign(design.terms, X[:train], design.feature_owners),
                               y[:train], central=CENTRAL, support=support, spec=task.loss,
                               cap=task.enumeration_cap)
    return dict(zip(table.losses,
                    coalition_losses(table.coefficients, X[train:], y[train:], task.loss)))


@pytest.mark.parametrize("seed,degree,spec", [
    (0, 1, QUAD), (1, 2, QUAD), (2, 1, LossSpec("smooth-quantile", tau=0.3, alpha=0.5))])
def test_oos_losses_by_coalition_are_the_full_tables_bit_for_bit(seed, degree, spec):
    ds, design = make_design(T=400, seed=seed, degree=degree)
    task = TaskSpec(central_agent="a1", ownership=OWNERS, loss=spec, degree=degree)
    support = ("x2", "x3", "x4")
    got = market._batch_oos_losses(design, design.values, ds.target, 200, CENTRAL, support,
                                   task)
    want = full_table_oos_losses(design, ds.target, 200, support, task)
    assert list(got) == list(want) == list(enumerate_coalitions(support))
    for c in want:
        assert got[c].tobytes() == want[c].tobytes()


@pytest.mark.parametrize("case,error", [("over-cap", EnumerationCapError),
                                        ("unknown-feature", FeatureLookupError),
                                        ("few-rows", InsufficientDataError)])
def test_oos_training_fits_raise_the_full_tables_errors(case, error):
    ds, design = make_design(T=400, seed=12)
    support, train = ("x2", "x3", "x4"), 200
    task = TaskSpec(central_agent="a1", ownership=OWNERS, loss=QUAD,
                    enumeration_cap=2 if case == "over-cap" else 15)
    if case == "unknown-feature":
        support = ("x2", "zz")
    elif case == "few-rows":
        train = 3
    with pytest.raises(error) as want:
        full_table_oos_losses(design, ds.target, train, support, task)
    with pytest.raises(error) as got:
        market._batch_oos_losses(design, design.values, ds.target, train, CENTRAL, support,
                                 task)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
