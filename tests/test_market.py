import csv
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from regmarket import (
    Dataset,
    FeatureLookupError,
    LossSpec,
    ParameterError,
    SingularUpdateError,
    TaskSpec,
    audit_ledger,
    clear_batch_market,
    run_online_market,
    run_oos_market,
    screen_features,
)
from regmarket import market
from regmarket.batch import fit_matrix
from regmarket.losses import insample_loss
from regmarket.market import MarketReport, build_design, fit_all_coalitions
from regmarket.scenarios import ScenarioSpec, generate, task_for_case


def linear_market_dataset(T=2000, seed=0, beta=None, sigma=0.3, extra=None):
    beta = beta or {"x1": -0.3, "x2": 0.5, "x3": -0.9, "x4": 0.2}
    rng = np.random.default_rng(seed)
    feats = {k: rng.normal(size=T) for k in sorted(beta)}
    y = 0.1 + sum(b * feats[k] for k, b in beta.items()) + rng.normal(0, sigma, T)
    if extra:
        feats.update(extra(rng, T))
    owners = {"x1": "a1", "x2": "a2", "x3": "a3", "x4": "a3"}
    owners.update({k: k for k in feats if k not in owners})
    return Dataset(np.arange(T), y, feats, owners, target_owner="a1")


def linear_task(**kw):
    defaults = dict(central_agent="a1",
                    ownership={"x1": "a1", "x2": "a2", "x3": "a3", "x4": "a3"},
                    loss=LossSpec("quadratic"), degree=1, phi_insample=0.1)
    defaults.update(kw)
    return TaskSpec(**defaults)


# -- batch market ------------------------------------------------------------

def test_batch_market_basics():
    ds = linear_market_dataset()
    report = clear_batch_market(ds, linear_task())
    assert report.game == "support-coalitions"
    assert report.surplus > 0
    assert report.support_share_sum == pytest.approx(1.0, abs=1e-9)
    expected_pot = ds.T * report.surplus * 0.1
    assert report.central_total == pytest.approx(expected_pot, rel=1e-9)
    assert report.audit["passed"]


def test_batch_budget_balance_is_exact():
    ds = linear_market_dataset(seed=3)
    report = clear_batch_market(ds, linear_task())
    ledger_total = math.fsum(e.amount for e in report.ledger)
    assert report.central_total == ledger_total


def test_batch_no_support_features_clears_empty():
    rng = np.random.default_rng(1)
    T = 200
    ds = Dataset(np.arange(T), rng.normal(size=T), {"x1": rng.normal(size=T)},
                 {"x1": "a1"}, target_owner="a1")
    report = clear_batch_market(ds, TaskSpec(central_agent="a1",
                                             ownership={"x1": "a1"},
                                             loss=LossSpec("quadratic")))
    assert report.central_total == 0.0
    assert report.ledger == []


def test_batch_no_surplus_flags_and_pays_zero():
    rng = np.random.default_rng(2)
    T = 60
    # support feature is pure noise: with this tiny sample the in-sample
    # improvement is positive, so force the issue with a degenerate target
    feats = {"x1": rng.normal(size=T), "x2": np.zeros(T)}
    y = feats["x1"] * 0.5
    ds = Dataset(np.arange(T), y, feats, {"x1": "a1", "x2": "a2"},
                 target_owner="a1")
    report = clear_batch_market(ds, linear_task(ownership={"x1": "a1", "x2": "a2"}))
    assert report.no_surplus
    assert report.central_total == 0.0
    assert all(v == 0.0 for v in report.payments.values())


def test_batch_sliding_window_bills_only_new_rows():
    ds = linear_market_dataset(seed=5)
    task = linear_task()
    full = clear_batch_market(ds, task)
    partial = clear_batch_market(ds, task, previously_billed=ds.T // 2)
    assert partial.central_total == pytest.approx(full.central_total / 2, rel=1e-12)


@pytest.mark.parametrize("billed", [-100, math.nan])
def test_batch_market_rejects_negative_previously_billed(billed):
    # a negative count would bill more rows than the dataset has
    ds = linear_market_dataset(T=400, seed=5)
    with pytest.raises(ParameterError, match="previously billed"):
        clear_batch_market(ds, linear_task(), previously_billed=billed)


def test_batch_loo_policy_close_to_shapley_on_separable_model():
    ds = linear_market_dataset(T=4000, seed=7)
    sh = clear_batch_market(ds, linear_task(allocation_policy="shapley"))
    loo = clear_batch_market(ds, linear_task(allocation_policy="loo-a"))
    for k in ("x2", "x3", "x4"):
        assert sh.allocations[k] == pytest.approx(loo.allocations[k], abs=0.01)


def test_batch_percent_loss_unit_scales_payments():
    ds = linear_market_dataset(seed=11)
    raw = clear_batch_market(ds, linear_task())
    pct = clear_batch_market(ds, linear_task(loss_unit="percent"))
    assert pct.central_total == pytest.approx(100 * raw.central_total, rel=1e-12)


def test_duplicate_columns_earn_equal_payments():
    def extra(rng, T):
        return {}

    ds = linear_market_dataset(T=1500, seed=13)
    twin = dict(ds.features)
    twin["x2b"] = ds.features["x2"].copy()  # exact duplicate under a new name
    owners = dict(ds.ownership)
    owners["x2b"] = "a4"
    ds2 = Dataset(ds.timestamps, ds.target, twin, owners, target_owner="a1")
    task = linear_task(ownership=owners, flag_duplicates=(("x2", "x2b"),))
    report = clear_batch_market(ds2, task)
    assert report.audit["checks"]["symmetry"]["passed"]
    scale = max(report.payments.values())
    assert abs(report.payments["x2"] - report.payments["x2b"]) <= 1e-9 * scale


def test_dummy_feature_payment_is_exactly_zero():
    ds = linear_market_dataset(T=800, seed=17)
    feats = dict(ds.features)
    feats["dead"] = np.zeros(ds.T)
    owners = dict(ds.ownership)
    owners["dead"] = "a9"
    ds2 = Dataset(ds.timestamps, ds.target, feats, owners, target_owner="a1")
    task = linear_task(ownership=owners, flag_dummies=("dead",))
    report = clear_batch_market(ds2, task)
    assert report.payments["dead"] == 0.0
    assert report.allocations["dead"] == 0.0
    assert report.audit["checks"]["zero_element"]["passed"]


def test_empty_duplicate_group_is_rejected_when_the_task_is_built():
    with pytest.raises(ParameterError, match="at least one feature"):
        linear_task(flag_duplicates=(("x2", "x3"), ()))


@pytest.mark.parametrize("flags", [{"flag_duplicates": (("x2", "x2b"),)},
                                   {"flag_dummies": ("dead",)},
                                   {"flag_dummies": ("x1",)}])
def test_flag_on_a_feature_the_market_does_not_pay_for_is_rejected(flags):
    # x2b and dead are not in ownership; x1 belongs to the central agent
    with pytest.raises(ParameterError, match="not support features"):
        linear_task(**flags)


@pytest.mark.parametrize("field", ["phi_insample", "phi_oos"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_willingness_to_pay_must_be_finite(field, value):
    # a NaN or infinite phi would put NaN or infinite amounts in the ledger
    with pytest.raises(ParameterError, match="willingness to pay"):
        linear_task(**{field: value})


def test_negative_warmup_is_rejected():
    # a negative warm-up would stream from before the first row
    with pytest.raises(ParameterError, match="warm-up"):
        linear_task(warmup=-5)


@pytest.mark.parametrize("field, value", [
    ("warmup", 100.5), ("warmup", True), ("warmup", 100.0), ("degree", 1.5),
    ("degree", True), ("enumeration_cap", 2.5), ("train_rows", 150.5),
    ("train_rows", False),
])
def test_task_sizes_must_be_integers(field, value):
    # a float size would fail as a slice index or a range bound, and a bool
    # would pass as 0 or 1 rows
    with pytest.raises(ParameterError, match=f"{field} must be an integer"):
        linear_task(**{field: value})


def test_task_sizes_take_numpy_integers():
    task = linear_task(warmup=np.int64(50), degree=np.int32(1), enumeration_cap=np.int64(4),
                       train_rows=np.int64(300))
    ds = linear_market_dataset(T=600)
    assert run_oos_market(ds, task, model_source="batch").audit["passed"]
    assert run_online_market(ds, task).audit["passed"]


def overflowing_target_market():
    """A target at 1e160: finite, so Dataset accepts it, but its squared
    residuals overflow the quadratic loss."""
    rng = np.random.default_rng(0)
    T = 200
    owners = {"x1": "a2", "x2": "a3"}
    ds = Dataset(np.arange(T), 1e160 * rng.normal(size=T),
                 {"x1": rng.normal(size=T), "x2": rng.normal(size=T)}, owners,
                 target_owner="a1")
    return ds, TaskSpec("a1", owners, phi_oos=1.0)


@pytest.mark.parametrize("clear", [
    clear_batch_market,
    lambda ds, task: run_oos_market(ds, task, model_source="batch"),
    run_online_market,
    lambda ds, task: run_oos_market(ds, task, model_source="online"),
], ids=["batch", "oos-batch", "online", "oos-online"])
def test_an_overflowing_batch_loss_is_a_typed_error(clear):
    # the batch losses (and the online markets' warm-up fit) would be
    # infinite, and the batch market would book NaN payments
    ds, task = overflowing_target_market()
    with pytest.raises(ParameterError, match="rescale the target"):
        clear(ds, task)


def test_agent_split_leaves_feature_payments_unchanged():
    ds = linear_market_dataset(seed=19)
    merged = clear_batch_market(ds, linear_task())
    split_owners = {"x1": "a1", "x2": "a2", "x3": "a3x", "x4": "a3y"}
    ds_split = Dataset(ds.timestamps, ds.target, dict(ds.features),
                       split_owners, target_owner="a1")
    split = clear_batch_market(ds_split, linear_task(ownership=split_owners))
    assert split.payments == merged.payments
    assert merged.per_agent["a3"] == split.per_agent["a3x"] + split.per_agent["a3y"]


def test_relabeling_agents_permutes_report():
    ds = linear_market_dataset(seed=23)
    base = clear_batch_market(ds, linear_task())
    relabel = {"x1": "a1", "x2": "zebra", "x3": "yak", "x4": "yak"}
    ds2 = Dataset(ds.timestamps, ds.target, dict(ds.features), relabel,
                  target_owner="a1")
    other = clear_batch_market(ds2, linear_task(ownership=relabel))
    assert other.payments == base.payments
    assert other.per_agent["zebra"] == base.per_agent["a2"]
    assert other.per_agent["yak"] == base.per_agent["a3"]


def test_noisy_reporting_reduces_payment():
    wins = 0
    for seed in range(10):
        ds = linear_market_dataset(T=2000, seed=seed)
        honest = clear_batch_market(ds, linear_task())
        feats = dict(ds.features)
        rng = np.random.default_rng(1000 + seed)
        feats["x3"] = feats["x3"] + rng.normal(0, 0.5, ds.T)
        noisy_ds = Dataset(ds.timestamps, ds.target, feats, dict(ds.ownership),
                           target_owner="a1")
        noisy = clear_batch_market(noisy_ds, linear_task())
        wins += noisy.payments["x3"] < honest.payments["x3"]
    assert wins >= 9


# -- non-separable batch (feature game) --------------------------------------

@pytest.fixture(scope="module")
def poly_report():
    rng = np.random.default_rng(31)
    T = 4000
    g = {k: rng.normal(size=T) for k in ("x1", "x2", "x3")}
    y = (0.2 - 0.4 * g["x1"] + 0.6 * g["x2"] + 0.3 * g["x3"]
         + 0.1 * g["x2"] ** 2 - 0.4 * g["x1"] * g["x3"]
         + rng.normal(0, 0.3, T))
    ds = Dataset(np.arange(T), y, g, {"x1": "a1", "x2": "a2", "x3": "a3"},
                 target_owner="a1")
    task = TaskSpec(central_agent="a1",
                    ownership={"x1": "a1", "x2": "a2", "x3": "a3"},
                    loss=LossSpec("quadratic"), degree=2, interactions=True,
                    phi_insample=0.1)
    return clear_batch_market(ds, task)


def test_interaction_model_switches_to_feature_game(poly_report):
    assert poly_report.game == "feature-game"


def test_interaction_model_support_share_below_one(poly_report):
    assert 0.5 < poly_report.support_share_sum < 0.8
    assert poly_report.central_share == pytest.approx(
        1.0 - poly_report.support_share_sum)


def test_interaction_model_reports_shortfall(poly_report):
    audit = poly_report.audit["checks"]["budget_balance"]
    assert audit["passed"]  # balanced against its own ledger
    shortfall = audit["shortfall_vs_benchmark"]
    assert shortfall > 0
    assert shortfall == pytest.approx(
        poly_report.benchmark_payment - poly_report.central_total)


# -- screening ---------------------------------------------------------------

def test_screening_always_drops_valueless_column_and_keeps_signal():
    def extra(rng, T):
        return {"dead": np.zeros(T)}

    for seed in range(5):
        ds = linear_market_dataset(T=1200, seed=seed, extra=extra)
        task = linear_task(ownership=dict(ds.ownership))
        retained = screen_features(ds, task)
        assert "dead" not in retained
        assert {"x2", "x3", "x4"} <= set(retained)


def test_screening_rejects_pure_noise_regularly_and_never_signal():
    # a pure-noise feature's cross-validated value hovers around zero, so
    # the sign rule rejects it only in a fraction of runs; real features
    # must never be rejected
    dropped = 0
    for seed in range(12):
        def extra(rng, T):
            return {"junk": rng.normal(size=T)}

        ds = linear_market_dataset(T=1500, seed=seed, extra=extra)
        task = linear_task(ownership=dict(ds.ownership))
        retained = screen_features(ds, task)
        dropped += "junk" not in retained
        assert {"x2", "x3", "x4"} <= set(retained)
    assert dropped >= 2


def case_with_noise(case, T, seed):
    """A study case's dataset and task with a standard-normal column ``junk``
    owned by a4 (lagged once where the case lags its features)."""
    spec = ScenarioSpec(case, T=T, seed=seed)
    ds, _ = generate(spec)
    task = task_for_case(spec)
    rng = np.random.default_rng(seed)
    ds = Dataset(ds.timestamps, ds.target, {**ds.features, "junk": rng.normal(size=T)},
                 {**ds.ownership, "junk": "a4"}, target_owner="a1")
    task = replace(task, ownership={**task.ownership, "junk": "a4"},
                   lags={**task.lags, "junk": (1,)} if task.lags else task.lags)
    return ds, task


@pytest.mark.parametrize("case, retained", [
    ("batch-linear", ("x2", "x3", "x4")),
    # a smooth-quantile loss; the noise column clears the sign rule here
    ("batch-arx-quantile", ("junk", "x2", "x3", "x4")),
])
def test_screening_fits_the_central_folds_once(monkeypatch, case, retained):
    # each fold fits one table: the central model, then the central model
    # plus each support feature alone
    ds, task = case_with_noise(case, 2000, 0)
    _, design, central, report = market._prepare(ds, task, "batch", None)
    sets = [central] + [central | {k} for k in report.support]
    calls = []
    real_fit = market.fit_column_sets
    monkeypatch.setattr(market, "fit_column_sets",
                        lambda *a: calls.append(a[2]) or real_fit(*a))
    assert screen_features(ds, task) == retained
    assert len(calls) == 5
    for masks in calls:
        assert [tuple(np.flatnonzero(m)) for m in masks] == [design.columns_for(S)
                                                             for S in sets]


def per_candidate_screening(dataset, task):
    """Screening by one cross-validated fit per fold and candidate: the
    central model, and it plus each feature, each fitted on its own columns."""
    ds, design, central, report = market._prepare(dataset, task, "batch", None)
    X, y, T = design.values, ds.target, design.T
    bounds = np.linspace(0, T, 6).astype(int)
    folds = [(np.r_[0:lo, hi:T], np.r_[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def cv_loss(coalition):
        idx = list(design.columns_for(coalition))
        loss = 0.0
        for train, val in folds:
            fit = fit_matrix(X[train][:, idx], y[train], task.loss)
            loss += insample_loss(y[val] - X[val][:, idx] @ fit.coefficients, task.loss)
        return loss

    base = cv_loss(central)
    return tuple(k for k in report.support
                 if base - cv_loss(central | {k}) > 1e-12 * max(1.0, abs(base)))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", ["batch-linear", "batch-poly", "batch-arx-quantile",
                                  "online-arx", "online-quantile"])
def test_screening_keeps_the_per_candidate_fits_retained_set(case, seed):
    # the table solves from the whole design's Gram matrix, so its fold
    # losses may differ from per-candidate fits in the last bits; the
    # retained set must not
    ds, task = case_with_noise(case, 2000, seed)
    assert screen_features(ds, task) == per_candidate_screening(ds, task)


def test_screening_needs_a_row_per_fold():
    # a fold with no validation row has no loss to average
    with pytest.raises(ParameterError, match="screening needs 5 rows"):
        screen_features(linear_market_dataset(T=4), linear_task())


def test_screened_out_features_pay_zero():
    def extra(rng, T):
        return {"junk": rng.normal(size=T)}

    ds = linear_market_dataset(T=1200, seed=3, extra=extra)
    task = linear_task(ownership=dict(ds.ownership))
    report = clear_batch_market(ds, task, support=("x2", "x3", "x4"))
    assert report.screened_out == ("junk",)
    assert report.payments["junk"] == 0.0
    assert report.audit["checks"]["zero_element"]["passed"]


@pytest.mark.parametrize("clear", [
    run_online_market,
    lambda ds, task, support: run_oos_market(ds, task, "batch", support=support),
], ids=["online", "oos"])
def test_screened_out_features_pay_zero_in_the_online_and_oos_markets(clear):
    def extra(rng, T):
        return {"junk": rng.normal(size=T)}

    ds = linear_market_dataset(T=600, seed=3, extra=extra)
    task = linear_task(ownership=dict(ds.ownership), lam=0.99, warmup=60,
                       phi_oos=1.0, train_rows=300)
    report = clear(ds, task, support=("x2", "x3", "x4"))
    assert report.screened_out == ("junk",)
    assert report.payments["junk"] == 0.0
    assert "junk" not in report.ledger.feature
    assert report.audit["checks"]["zero_element"] == {"passed": True,
                                                      "payments": {"junk": 0.0}}


@pytest.mark.parametrize("clear", [
    clear_batch_market,
    run_online_market,
    lambda ds, task, support: run_oos_market(ds, task, "batch", support=support),
], ids=["batch", "online", "oos"])
def test_market_with_no_traded_feature_keeps_its_screened_out_features(clear):
    # screening may keep no feature at all: the market then lists, pays
    # and audits the features it dropped as it does when it keeps some
    spec = ScenarioSpec("batch-linear", T=500, seed=3)
    ds, _ = generate(spec)
    task = replace(task_for_case(spec), flag_dummies=("x4",))
    report = clear(ds, task, support=())
    assert report.game == "none" and report.support == ()
    assert report.screened_out == ("x2", "x3", "x4")
    zeros = {"x2": 0.0, "x3": 0.0, "x4": 0.0}
    assert report.payments == zeros and report.ledger == []
    assert report.flag_dummies == ("x4",)
    assert report.audit["checks"]["zero_element"] == {"passed": True, "payments": zeros}
    assert report.audit["passed"]


@pytest.mark.parametrize("clear", [
    clear_batch_market,
    run_online_market,
    lambda ds, task, support: run_oos_market(ds, task, "batch", support=support),
], ids=["batch", "online", "oos"])
@pytest.mark.parametrize("support", [
    ("x2", "zz"),       # a name the design does not have
    ("x2", "x1"),       # the central agent's own feature
], ids=["unknown", "central"])
def test_support_must_name_support_features(clear, support):
    ds = linear_market_dataset(T=600, seed=3)
    task = linear_task(lam=0.99, warmup=60, phi_oos=1.0, train_rows=300)
    with pytest.raises(FeatureLookupError, match="not support features"):
        clear(ds, task, support=support)


def test_empty_oos_report_names_the_oos_policy():
    rng = np.random.default_rng(1)
    T = 200
    ds = Dataset(np.arange(T), rng.normal(size=T), {"x1": rng.normal(size=T)},
                 {"x1": "a1"}, target_owner="a1")
    task = TaskSpec(central_agent="a1", ownership={"x1": "a1"},
                    loss=LossSpec("quadratic"))
    assert task.allocation_policy != task.oos_allocation_policy
    assert run_oos_market(ds, task).allocation_policy == task.oos_allocation_policy
    assert run_online_market(ds, task).allocation_policy == task.allocation_policy


# -- online market -----------------------------------------------------------

@pytest.fixture(scope="module")
def online_report():
    rng = np.random.default_rng(51)
    T = 1600
    feats = {"x2": rng.normal(size=T), "x3": rng.normal(size=T)}
    y = 0.5 * feats["x2"] - 0.7 * feats["x3"] + rng.normal(0, 0.3, T)
    ds = Dataset(np.arange(T), y, feats, {"x2": "a2", "x3": "a3"},
                 target_owner="a1")
    task = TaskSpec(central_agent="a1", ownership={"x2": "a2", "x3": "a3"},
                    loss=LossSpec("quadratic"), lam=0.995, warmup=120,
                    phi_insample=0.1)
    return run_online_market(ds, task)


def test_online_cumulative_payments_non_decreasing(online_report):
    for k, series in online_report.series["cumulative"].items():
        diffs = np.diff(series)
        assert np.all(diffs >= -1e-15)


def test_online_per_step_budget_balance(online_report):
    series = online_report.series
    for i in range(len(series["step"])):
        paid = math.fsum(series["payments"][k][i] for k in ("x2", "x3"))
        assert paid == series["central_payment"][i]


def test_online_totals_add_up(online_report):
    for k in ("x2", "x3"):
        assert online_report.payments[k] == math.fsum(
            online_report.series["payments"][k])
    assert online_report.audit["passed"]


def test_online_payments_reflect_relative_value(online_report):
    # x3 carries about twice x2's signal variance (0.49 vs 0.25); the
    # instantaneous allocation ratios are heavy tailed, so the stable
    # statement is about cumulative payments, not the settled shares
    assert online_report.payments["x3"] > online_report.payments["x2"] > 0


def test_online_market_rejects_interaction_models():
    rng = np.random.default_rng(5)
    T = 300
    feats = {"x1": rng.normal(size=T), "x2": rng.normal(size=T)}
    ds = Dataset(np.arange(T), rng.normal(size=T), feats,
                 {"x1": "a1", "x2": "a2"}, target_owner="a1")
    task = TaskSpec(central_agent="a1", ownership={"x1": "a1", "x2": "a2"},
                    loss=LossSpec("quadratic"), degree=2, interactions=True)
    with pytest.raises(ParameterError):
        run_online_market(ds, task)


def test_online_zero_start_bills_after_rank_acquired():
    rng = np.random.default_rng(8)
    T = 600
    feats = {"x2": rng.normal(size=T)}
    y = 0.8 * feats["x2"] + rng.normal(0, 0.2, T)
    ds = Dataset(np.arange(T), y, feats, {"x2": "a2"}, target_owner="a1")
    task = TaskSpec(central_agent="a1", ownership={"x2": "a2"},
                    loss=LossSpec("quadratic"), lam=0.99,
                    init_policy="zero-start", phi_insample=1.0)
    report = run_online_market(ds, task)
    pays = report.series["payments"]["x2"]
    assert pays[0] == 0.0  # nothing billed before initialisation completes
    assert math.fsum(pays) > 0


def test_online_zero_start_with_quantile_loss():
    rng = np.random.default_rng(14)
    T = 900
    feats = {"x2": rng.normal(size=T), "x3": rng.normal(size=T)}
    y = 0.6 * feats["x2"] - 0.4 * feats["x3"] + rng.normal(0, 0.3, T)
    ds = Dataset(np.arange(T), y, feats, {"x2": "a2", "x3": "a3"},
                 target_owner="a1")
    task = TaskSpec(central_agent="a1", ownership={"x2": "a2", "x3": "a3"},
                    loss=LossSpec("smooth-quantile", tau=0.7, alpha=0.2),
                    lam=0.995, init_policy="zero-start", phi_insample=0.5)
    report = run_online_market(ds, task)
    assert report.central_total > 0
    assert report.audit["passed"]
    assert report.full_loss < report.central_loss


def test_online_market_clears_at_tau_one():
    # the smooth-quantile loss rounded below zero for large negative
    # residuals at tau = 1, and the EWMA update rejected it
    spec = ScenarioSpec("online-quantile", T=3000, seed=2)
    dataset, _ = generate(spec)
    task = task_for_case(spec)
    task = replace(task, loss=replace(task.loss, tau=1.0))
    report = run_online_market(dataset, task)
    assert report.audit["passed"]
    assert len(report.series["step"]) > 0


def constant_support_feature_dataset(T=300, seed=0):
    """x0 and x1 standard normal, x2 = 1.0, y = x0 + x1 + noise; a2 owns x0
    and x2, a3 owns x1.  x2 repeats the intercept, so every coalition
    design holding it is singular."""
    rng = np.random.default_rng(seed)
    feats = {"x0": rng.normal(size=T), "x1": rng.normal(size=T), "x2": np.ones(T)}
    y = feats["x0"] + feats["x1"] + rng.normal(0, 0.3, T)
    owners = {"x0": "a2", "x2": "a2", "x1": "a3"}
    return Dataset(np.arange(T), y, feats, owners, target_owner="a1"), owners


@pytest.mark.parametrize("model_source", [None, "online"], ids=["online", "oos-online"])
def test_zero_start_market_with_a_constant_feature_raises_a_typed_error(model_source):
    # coalition ['x2'] waits while the solve finds its memory singular (it
    # had passed its Cholesky check on a rounding-sized pivot): as a waiting
    # estimator it keeps waiting, with no bare LinAlgError.  At step 21 its
    # memory passes both, so it is ready, and at step 22 it fails the
    # Cholesky check as a ready estimator
    ds, owners = constant_support_feature_dataset()
    task = TaskSpec("a1", owners, init_policy="zero-start")
    with pytest.raises(SingularUpdateError, match=re.escape(
            "coalition ['x2']: memory matrix not positive definite")) as err:
        if model_source is None:
            run_online_market(ds, task)
        else:
            run_oos_market(ds, task, model_source=model_source)
    assert err.value.step == 22


@pytest.mark.parametrize("model_source", [None, "online"], ids=["online", "oos-online"])
@pytest.mark.parametrize("init", ["warm-start", "zero-start"])
@pytest.mark.parametrize("loss", [LossSpec("quadratic"),
                                  LossSpec("smooth-quantile", tau=0.5, alpha=0.2)],
                         ids=["quadratic", "smooth-quantile"])
def test_online_session_pays_an_all_zero_feature_nothing(loss, init, model_source):
    # the session fits no column that is zero on every row it sees, so the
    # coalitions with and without x2 share their columns and losses; a warm
    # start on the zero column would find its memory singular at step 1
    for seed in range(10):
        rng = np.random.default_rng(seed)
        T = 200
        x1 = rng.normal(size=T)
        ds = Dataset(np.arange(T), x1 + rng.normal(0, 0.3, T), {"x1": x1, "x2": np.zeros(T)},
                     {"x1": "a1", "x2": "a2"}, target_owner="a1")
        task = TaskSpec("a1", {"x1": "a1", "x2": "a2"}, loss=loss, lam=0.99, warmup=40,
                        init_policy=init)
        if model_source is None:
            report = run_online_market(ds, task)
            assert report.surplus == 0.0
        else:
            report = run_oos_market(ds, task, model_source=model_source)
        assert report.audit["passed"], seed
        assert report.payments == {"x2": 0.0} and not report.ledger.amount, seed


def test_unpaid_amounts_are_positive_zeros(tmp_path):
    # on the steps before every estimator is ready, the pot is zero and a
    # negative share would make the amount -0.0
    from dataclasses import replace

    from regmarket import scenarios
    from regmarket.market import report_to_json, write_cumulative_csv

    spec = scenarios.ScenarioSpec("online-arx", T=200, seed=2)
    ds, _ = scenarios.generate(spec)
    task = replace(scenarios.task_for_case(spec), init_policy="zero-start")
    report = run_online_market(ds, task)
    series = report.series
    assert any(share < 0.0 and paid == 0.0 for k in report.support
               for share, paid in zip(series["allocations"][k], series["central_payment"]))
    amounts = [*report.payments.values(), *report.ledger.amount, *series["central_payment"]]
    for k in report.support:
        amounts += series["payments"][k] + series["cumulative"][k]
    assert not any(math.copysign(1.0, v) < 0 for v in amounts)
    report_to_json(report, tmp_path / "report.json")
    write_cumulative_csv(report, tmp_path / "cumulative_revenues.csv")
    assert not re.search(r"(?<![\w.])-0\.0(?![\w.])", (tmp_path / "report.json").read_text())
    with open(tmp_path / "cumulative_revenues.csv", newline="") as fh:
        assert not any("-0.0" in row for row in csv.reader(fh))


@pytest.mark.parametrize("policy", ["shapley", "zero-shapley", "absolute-shapley",
                                    "loo-a", "loo-b"])
def test_online_market_pays_each_step_on_its_instant_allocation(policy):
    # the market allocates all steps in one pass; replaying it step by step
    # with instant_allocation on the same EWMA losses must give the same
    # shares and clamped payments; x4's weak signal gives it negative
    # marginals on some steps
    from regmarket import OnlineSession, instant_allocation
    from regmarket.allocation import ABSOLUTE, ADD_ONE, DROP_ONE, ORIGINAL, ZERO
    from regmarket.batch import enumerate_coalitions
    from regmarket.market import split_features

    variant = {"shapley": ORIGINAL, "zero-shapley": ZERO, "absolute-shapley": ABSOLUTE,
               "loo-a": DROP_ONE, "loo-b": ADD_ONE}[policy]
    ds = linear_market_dataset(T=700, seed=3, beta={"x1": -0.3, "x2": 0.5,
                                                    "x3": -0.9, "x4": 0.02})
    task = linear_task(lam=0.99, warmup=100, allocation_policy=policy)
    report = run_online_market(ds, task)
    dsl, design = build_design(ds, task)
    central, support = split_features(design, task)
    X, y = design.values, dsl.target
    session = OnlineSession(design, central, list(enumerate_coalitions(support)),
                            task.lam, task.loss)
    session.init_states(X[:100], y[:100], "warm-start")
    trace = session.stream(X[100:], y[100:])
    clamped = booked = 0
    for i in range(len(trace.ready)):
        ewma = {c: trace.ewma[i, j] for j, c in enumerate(session.coalitions)}
        inst = instant_allocation(ewma, support, variant)
        surplus = ewma[frozenset()] - ewma[frozenset(support)]
        pot = task.phi_insample * max(surplus, 0.0) if trace.ready[i] else 0.0
        for k in support:
            assert report.series["allocations"][k][i] == inst[k]
            amount = pot * inst[k]
            clamped += amount < 0.0
            booked += amount > 0.0
            assert report.series["payments"][k][i] == max(amount, 0.0)
    assert report.clamped_entries == clamped
    # only the variants that keep negative marginals ever clamp
    assert (clamped > 0) == (policy in ("shapley", "loo-a", "loo-b"))
    assert len(report.ledger) == booked
    assert report.audit["passed"]


# -- out-of-sample market ----------------------------------------------------

@pytest.fixture(scope="module")
def oos_setup():
    rng = np.random.default_rng(61)
    T = 1800
    feats = {"x2": rng.normal(size=T), "x3": rng.normal(size=T)}
    y = 0.6 * feats["x2"] - 0.5 * feats["x3"] + rng.normal(0, 0.3, T)
    ds = Dataset(np.arange(T), y, feats, {"x2": "a2", "x3": "a3"},
                 target_owner="a1")
    task = TaskSpec(central_agent="a1", ownership={"x2": "a2", "x3": "a3"},
                    loss=LossSpec("quadratic"), phi_oos=1.5, train_rows=900,
                    warmup=120, lam=0.995)
    return ds, task


def test_oos_batch_source_report(oos_setup):
    ds, task = oos_setup
    report = run_oos_market(ds, task, model_source="batch")
    assert report.rows == 900
    assert report.metrics["with_support"] <= report.metrics["without_support"]
    assert report.audit["passed"]
    for k in ("x2", "x3"):
        assert report.payments[k] == math.fsum(report.series["payments"][k])


def test_oos_benchmark_is_clamped_surplus_identity(oos_setup):
    ds, task = oos_setup
    report = run_oos_market(ds, TaskSpec(**{**task.__dict__,
                                            "oos_allocation_policy": "shapley"}),
                            model_source="batch")
    surplus = np.asarray(report.series["surplus"])
    expected = float(np.sum(np.maximum(surplus, 0.0)) * task.phi_oos)
    assert report.benchmark_payment == pytest.approx(expected, rel=1e-12)
    # per-feature clamping pays realised positive contributions in full, so
    # the central debit can only exceed the surplus benchmark, and stays
    # balanced against its own ledger
    assert report.central_total >= expected - 1e-9
    assert report.central_total == pytest.approx(expected, rel=0.2)
    assert report.central_total == math.fsum(e.amount for e in report.ledger)


@pytest.mark.parametrize("policy", ["loo-a", "loo-b"])
def test_oos_leave_one_out_pays_each_step_its_leave_one_out_gain(oos_setup, policy):
    # a coalition's step loss, from a fit of its columns on the training rows
    from dataclasses import replace

    from regmarket import fit_matrix, loss_value
    from regmarket.market import split_features

    ds, task = oos_setup
    task = replace(task, oos_allocation_policy=policy)
    report = run_oos_market(ds, task, model_source="batch")
    assert report.allocation_policy == policy
    dsl, design = build_design(ds, task)
    central, support = split_features(design, task)
    X, y, train = design.values, dsl.target, task.train_rows

    def step_loss(coalition):
        cols = list(design.columns_for(central | coalition))
        beta = fit_matrix(X[:train][:, cols], y[:train], task.loss).coefficients
        return loss_value(y[train:] - X[train:][:, cols] @ beta, task.loss)

    grand = frozenset(support)
    surplus = np.asarray(report.series["surplus"])
    np.testing.assert_allclose(surplus, step_loss(frozenset()) - step_loss(grand),
                               rtol=1e-9, atol=1e-12)
    positive = surplus > 0
    assert 0 < np.sum(positive) < len(surplus)
    for k in support:
        if policy == "loo-a":
            gain = step_loss(grand - {k}) - step_loss(grand)
        else:
            gain = step_loss(frozenset()) - step_loss(frozenset({k}))
        expected = np.where(positive, np.maximum(gain, 0.0) * task.phi_oos, 0.0)
        np.testing.assert_allclose(report.series["payments"][k], expected,
                                   rtol=1e-9, atol=1e-12)
    assert report.audit["passed"]


def test_oos_online_source_runs_and_balances(oos_setup):
    ds, task = oos_setup
    report = run_oos_market(ds, task, model_source="online")
    assert report.audit["passed"]
    assert report.central_total > 0
    assert report.metrics["with_support"] <= report.metrics["without_support"]


def test_oos_perfect_forecasts_pay_nothing():
    # every coalition forecasts perfectly (the intercept already nails a
    # constant target), so no step has surplus and nothing is ever paid
    rng = np.random.default_rng(71)
    T = 400
    feats = {"x2": rng.normal(size=T)}
    y = np.full(T, 0.7)
    ds = Dataset(np.arange(T), y, feats, {"x2": "a2"}, target_owner="a1")
    task = TaskSpec(central_agent="a1", ownership={"x2": "a2"},
                    loss=LossSpec("quadratic"), phi_oos=1.0, train_rows=200)
    report = run_oos_market(ds, task, model_source="batch")
    assert report.central_total == pytest.approx(0.0, abs=1e-20)
    assert all(v == pytest.approx(0.0, abs=1e-20) for v in report.payments.values())


def test_oos_no_surplus_steps_pay_zero(oos_setup):
    ds, task = oos_setup
    report = run_oos_market(ds, task, model_source="batch")
    surplus = np.asarray(report.series["surplus"])
    paid = np.asarray(report.series["central_payment"])
    assert np.sum(surplus <= 0) > 0  # the fixture has such steps
    assert np.all(paid[surplus <= 0] == 0.0)


def test_oos_windows_metric_structure(oos_setup):
    ds, task = oos_setup
    report = run_oos_market(ds, task, model_source="batch", n_windows=6)
    windows = report.metrics["windows"]
    assert len(windows) == 6
    assert windows[0]["start"] == 0
    assert windows[-1]["end"] == report.rows


def test_oos_rejects_degenerate_train_split(oos_setup):
    ds, task = oos_setup
    bad = TaskSpec(**{**task.__dict__, "train_rows": ds.T + 5})
    with pytest.raises(ParameterError):
        run_oos_market(ds, bad, model_source="batch")
    with pytest.raises(ParameterError):
        run_oos_market(ds, TaskSpec(**{**task.__dict__, "train_rows": 0}),
                       model_source="batch")


# -- audit on hand-built reports ----------------------------------------------

def test_audit_flags_negative_ledger_amount():
    from regmarket.market import LedgerEntry

    report = MarketReport(market="batch", central_agent="a1", rows=10, phi=0.1,
                          allocation_policy="shapley", game="support-coalitions",
                          support=("x2",), feature_owners={"x2": "a2"},
                          payments={"x2": -1.0}, per_agent={"a2": -1.0},
                          central_total=-1.0)
    report.ledger.append(LedgerEntry("batch", "a1", "a2", "x2", -1.0, "batch"))
    audit = audit_ledger(report)
    assert not audit.checks["individual_rationality"]["passed"]


@pytest.mark.parametrize("amounts, payments, passed", [
    ([1.0, 0.5], [1.0, 0.5], True),
    ([1.0, math.nan], [1.0, 0.5], False),
    ([math.nan, 1.0], [1.0, 0.5], False),
    ([1.0, 0.5], [1.0, math.nan], False),
])
def test_audit_fails_individual_rationality_on_a_nan_wherever_it_stands(amounts, payments,
                                                                        passed):
    from regmarket.market import LedgerEntry

    owners = {"x2": "a2", "x3": "a3"}
    report = MarketReport(market="oos", central_agent="a1", rows=2, phi=1.0,
                          allocation_policy="shapley", game="support-coalitions",
                          support=tuple(owners), feature_owners=owners,
                          payments=dict(zip(owners, payments)))
    for t, (k, amount) in enumerate(zip(owners, amounts)):
        report.ledger.append(LedgerEntry(t, "a1", owners[k], k, amount, "oos"))
    check = audit_ledger(report).checks["individual_rationality"]
    assert check["passed"] is passed


def test_fit_all_coalitions_task_wrapper():
    ds = linear_market_dataset(T=600, seed=77)
    table = fit_all_coalitions(ds, linear_task())
    assert len(table.losses) == 8
    assert table.surplus > 0


def test_build_design_marks_ownership():
    ds = linear_market_dataset(T=300, seed=79)
    _, design = build_design(ds, linear_task())
    assert design.feature_owners["x2"] == "a2"
    assert design.market_features == ("x1", "x2", "x3", "x4")


# -- one allocate-and-pay step for batch and online ----------------------------

@pytest.mark.parametrize("policy", ["shapley", "zero-shapley", "absolute-shapley",
                                    "loo-a", "loo-b"])
def test_batch_support_game_pays_the_pot_times_the_tables_shares(policy):
    # the batch market is the one-step case of the online market's
    # allocation; its shares must still be exactly those of the table
    from oracles import loo_allocation, shapley_allocation
    from regmarket.allocation import POLICY_VARIANT

    ds = linear_market_dataset(T=800, seed=21, beta={"x1": -0.3, "x2": 0.5,
                                                     "x3": -0.9, "x4": 0.02})
    task = linear_task(allocation_policy=policy)
    report = clear_batch_market(ds, task)
    table = fit_all_coalitions(ds, task)
    allocate = loo_allocation if policy.startswith("loo") else shapley_allocation
    shares = allocate(table, POLICY_VARIANT[policy]).values
    assert report.allocation_policy == policy and not report.no_surplus
    assert report.allocations == shares
    pot = ds.T * task.loss_scale * task.phi_insample * table.surplus
    assert report.payments == {k: max(pot * v, 0.0) for k, v in shares.items()}
    assert report.clamped_entries == sum(pot * v < 0.0 for v in shares.values())
    assert report.support_share_sum == math.fsum(shares.values())
    assert report.central_share == 1.0 - report.support_share_sum


def poly_dataset(T=800, seed=31):
    rng = np.random.default_rng(seed)
    g = {k: rng.normal(size=T) for k in ("x1", "x2", "x3")}
    y = (0.2 - 0.4 * g["x1"] + 0.6 * g["x2"] + 0.3 * g["x3"]
         - 0.4 * g["x1"] * g["x3"] + rng.normal(0, 0.3, T))
    return Dataset(np.arange(T), y, g, {"x1": "a1", "x2": "a2", "x3": "a3"},
                   target_owner="a1")


def poly_task(**kw):
    return TaskSpec(central_agent="a1", ownership={"x1": "a1", "x2": "a2", "x3": "a3"},
                    loss=LossSpec("quadratic"), degree=2, phi_insample=0.1, **kw)


def test_batch_feature_game_shares_are_snapped_contributions_over_the_game_total():
    from regmarket import shapley_contributions

    ds = poly_dataset()
    report = clear_batch_market(ds, poly_task())
    assert report.game == "feature-game"
    losses = {frozenset(key.split("|")) if key else frozenset(): v
              for key, v in report.loss_table.items()}
    contribs, peaks = shapley_contributions(losses, report.notes["players"])
    total = report.notes["game_total"]
    snap = 1e-12 * max(1.0, abs(total))
    for k in report.support:
        expected = 0.0 if peaks[k] <= snap else contribs[k] / total
        assert report.allocations[k] == pytest.approx(expected, rel=1e-12, abs=0.0)
    pot = ds.T * 0.1 * (report.notes["intercept_only_loss"] - report.full_loss)
    assert report.payments == {k: max(pot * v, 0.0) for k, v in report.allocations.items()}
    assert report.support_share_sum == math.fsum(report.allocations.values())


@pytest.mark.parametrize("policy", ["loo-a", "loo-b"])
def test_feature_game_reports_the_shapley_policy_it_applies(policy):
    ds = poly_dataset()
    shapley = clear_batch_market(ds, poly_task())
    loo = clear_batch_market(ds, poly_task(allocation_policy=policy))
    assert loo.game == "feature-game"
    assert loo.allocation_policy == "shapley"
    assert loo.notes["requested_policy"] == policy
    assert shapley.notes["requested_policy"] == "shapley"
    assert loo.allocations == shapley.allocations
    assert loo.payments == shapley.payments


@pytest.mark.parametrize("game", ["support-coalitions", "feature-game"])
@pytest.mark.parametrize("policy", ["shapley", "zero-shapley", "absolute-shapley",
                                    "loo-a", "loo-b"])
def test_batch_without_surplus_allocates_and_books_nothing(game, policy):
    # a support column of zeros adds nothing: the surplus is zero up to the
    # jitter of the singular fits, never positive
    rng = np.random.default_rng(2)
    T = 60
    feats = {"x1": rng.normal(size=T), "x2": np.zeros(T)}
    ds = Dataset(np.arange(T), 0.5 * feats["x1"], feats, {"x1": "a1", "x2": "a2"},
                 target_owner="a1")
    task = linear_task(ownership={"x1": "a1", "x2": "a2"}, allocation_policy=policy,
                       degree=2 if game == "feature-game" else 1)
    report = clear_batch_market(ds, task)
    assert report.game == game
    assert report.surplus <= 0 and report.no_surplus
    if game == "feature-game":
        # the game's own total is positive: the report's surplus decides
        assert report.notes["game_total"] > 0
    assert report.allocations == {"x2": 0.0}
    assert report.payments == {"x2": 0.0}
    assert report.support_share_sum == 0.0 and report.central_share == 0.0
    assert len(report.ledger) == 0 and report.central_total == 0.0
    assert report.audit["passed"]


@pytest.mark.parametrize("clear", [
    run_online_market,
    lambda ds, task: run_oos_market(ds, task, model_source="online"),
], ids=["online", "oos-online"])
def test_online_paths_honour_the_enumeration_cap(clear):
    from regmarket import EnumerationCapError

    ds = linear_market_dataset(T=300, seed=23)
    task = linear_task(enumeration_cap=1, warmup=40)
    with pytest.raises(EnumerationCapError) as batch_err:
        clear_batch_market(ds, task)
    with pytest.raises(EnumerationCapError) as err:
        clear(ds, task)
    assert str(err.value) == str(batch_err.value)
    assert "3 support features exceed" in str(err.value)
    # the remedy the message names still works above the cap
    assert screen_features(ds, task) == ("x2", "x3", "x4")


@pytest.fixture(scope="module")
def online_arx_400():
    spec = ScenarioSpec("online-arx", T=400, seed=0)
    return generate(spec)[0], task_for_case(spec)


@pytest.mark.parametrize("traded", [True, False], ids=["support", "no-support"])
@pytest.mark.parametrize("kwargs", [{"model_source": "bogus"}, {"n_windows": 0},
                                    {"n_windows": -3}, {"n_windows": 2.5},
                                    {"n_windows": True}, {"n_windows": "10"}],
                         ids=["source", "zero", "negative", "float", "bool", "str"])
def test_oos_arguments_are_checked_with_or_without_support(online_arx_400, traded, kwargs):
    # an invalid argument raises the same typed error whether or not any
    # support feature is traded, so the no-support return accepts nothing
    # that a market with support would refuse
    ds, task = online_arx_400
    if not traded:
        task = replace(task, ownership={k: "a1" for k in task.ownership})
    with pytest.raises(ParameterError, match="model source|n_windows"):
        run_oos_market(ds, task, **kwargs)


def test_oos_windows_accept_a_numpy_integer(online_arx_400):
    ds, task = online_arx_400
    report = run_oos_market(ds, task, n_windows=np.int64(3))
    assert len(report.metrics["windows"]) == 3
