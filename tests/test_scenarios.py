import hashlib
import json
import re
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from regmarket import (
    LossSpec,
    ParameterError,
    ScenarioSpec,
    TaskSpec,
    generate,
    run_online_market,
    run_scenario,
)
from regmarket.scenarios import CASES, dataset_for_central, slice_rows, stream, task_for_case


def test_unknown_case_rejected():
    with pytest.raises(ParameterError):
        ScenarioSpec(case="batch-mystery")


def test_generation_is_deterministic():
    a, ta = generate(ScenarioSpec("batch-linear", T=500, seed=7))
    b, tb = generate(ScenarioSpec("batch-linear", T=500, seed=7))
    assert np.array_equal(a.target, b.target)
    for k in a.feature_names:
        assert np.array_equal(a.features[k], b.features[k])
    assert ta == tb


def test_different_seeds_differ():
    a, _ = generate(ScenarioSpec("batch-linear", T=200, seed=1))
    b, _ = generate(ScenarioSpec("batch-linear", T=200, seed=2))
    assert not np.array_equal(a.target, b.target)


def test_named_streams_are_stable_under_reordering():
    # drawing x2 must not depend on whether x3 was drawn before or after it
    s1 = stream(5, "x2").normal(size=10)
    _ = stream(5, "x3").normal(size=10)
    s2 = stream(5, "x2").normal(size=10)
    assert np.array_equal(s1, s2)


# sha256 of the timestamps, target and named features each case generates
# at T = 500: any change to a generator's draws or arithmetic shows here
DATA_DIGESTS = {
    ("batch-linear", 0): "5cfb8e29e0a9226ff51a72c73480a5881a1ae5e6a994aa0812d8d1e49a17874b",
    ("batch-linear", 1): "fb2ffa5b3cb97133cc6dc351dd61981ef444d6d842c06e85788a544253cddd04",
    ("batch-poly", 0): "76248843775410574ae1ad56103898b9b40d33a6728a839facad5a0a8ab305ea",
    ("batch-poly", 1): "177363bc56ef4426372b450840f558edf787a819912ceaca670fb55b5caed10f",
    ("batch-arx-quantile", 0): "0723ee5fc8b910ed4a901ac2e2e3668c044e7f29a0622823643a61725640b223",
    ("batch-arx-quantile", 1): "36bd3537c2f5cb4686ff7902903d20629352c147b44c1d82cc99dcb3162a45c6",
    ("online-arx", 0): "aade3ea01c4c3487cd00b09d79e2c860862e337d6e7299b23431e3ab380b3851",
    ("online-arx", 1): "12f25b243752d05071eed431870a578195967da4dc7cac5c2fbdb60fa7630176",
    ("online-quantile", 0): "fce68b8212d28910fd714a916828a685233884f4f15e60031d8e0cbbf118db8c",
    ("online-quantile", 1): "451aca7c0104648caee47886713fa8710f5937cc8bc04bb65d09312d8bf87de2",
    ("multi-agent-arx", 0): "423c45a58ae625f1cb04fbd03967d1e4639b46f47b67b4d0a4b412e0211c542f",
    ("multi-agent-arx", 1): "fcc92ddef9f70b9a44df5dce38edc708c13b042ef1fe4aa7cecb3e2ddaaf56d4",
}


def _data_digest(ds) -> str:
    h = hashlib.sha256()
    h.update(ds.timestamps.astype("<i8").tobytes())
    h.update(ds.target.astype("<f8").tobytes())
    for name in ds.feature_names:
        h.update(name.encode())
        h.update(ds.features[name].astype("<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_scenario_data_is_pinned_bit_for_bit(case, seed):
    ds, _ = generate(ScenarioSpec(case, T=500, seed=seed))
    assert _data_digest(ds) == DATA_DIGESTS[case, seed]


def test_truth_records_are_json_serialisable():
    for case in ("batch-linear", "batch-poly", "batch-arx-quantile",
                 "online-arx", "online-quantile"):
        _, truth = generate(ScenarioSpec(case, T=300, seed=0))
        json.dumps(truth)


def test_batch_linear_coefficient_recovery():
    # estimated coefficients land within three standard errors of truth
    ds, truth = generate(ScenarioSpec("batch-linear", T=10_000, seed=3))
    X = np.column_stack([np.ones(ds.T)] + [ds.features[k] for k in sorted(truth["beta"])])
    beta_hat, *_ = np.linalg.lstsq(X, ds.target, rcond=None)
    resid = ds.target - X @ beta_hat
    sigma2 = resid @ resid / (ds.T - X.shape[1])
    cov = sigma2 * np.linalg.inv(X.T @ X)
    se = np.sqrt(np.diag(cov))
    target = np.array([truth["beta0"]] + [truth["beta"][k] for k in sorted(truth["beta"])])
    assert np.all(np.abs(beta_hat - target) <= 3 * se)


def test_online_arx_truth_stores_trajectories():
    ds, truth = generate(ScenarioSpec("online-arx", T=400, seed=1))
    assert set(truth["trajectories"]) == {"x2", "x3", "x4", "y"}
    assert all(len(v) == 400 for v in truth["trajectories"].values())


def test_online_arx_estimates_track_the_drift():
    # after burn-in the tracking error of the grand-coalition estimator is
    # bounded and mean-reverting: the exponential forgetting filter lags
    # the drifting coefficient but never runs away from it
    from regmarket.market import build_design
    from regmarket.online import WARM_START, OnlineSession
    from regmarket.scenarios import task_for_case

    hit = 0
    seeds = range(6)
    for seed in seeds:
        spec = ScenarioSpec("online-arx", T=10_000, seed=seed)
        ds, truth = generate(spec)
        task = task_for_case(spec)
        dsl, design = build_design(ds, task)
        grand = frozenset({"x2", "x3", "x4"})
        session = OnlineSession(design, frozenset({"y"}), [grand], task.lam, task.loss)
        session.init_states(design.values[:150], dsl.target[:150], WARM_START)
        idx = {t.name: i for i, t in enumerate(design.terms)}
        errs = []
        # design drops one leading row per lag; align trajectories accordingly
        offset = ds.T - design.T
        for t in range(150, design.T):
            session.step(design.values[t], dsl.target[t])
            if t >= 1500 and t % 50 == 0:
                beta = session.states[grand].coefficients
                true_b3 = truth["trajectories"]["x3"][t + offset]
                errs.append(beta[idx["x3[t-1]"]] - true_b3)
        errs = np.asarray(errs)
        bounded = np.abs(errs).mean() < 0.2 and np.abs(errs).max() < 0.4
        centred = errs - errs.mean()
        crossings = int(np.sum(np.sign(centred[:-1]) != np.sign(centred[1:])))
        hit += bounded and crossings >= 3
    assert hit >= 5


def test_online_quantile_x4_signal_grows_away_from_median():
    _, truth = generate(ScenarioSpec("online-quantile", T=300, seed=0))
    sig = truth["analytic"]["x4_quantile_signal"]
    assert sig["0.5"] == pytest.approx(0.0)
    assert sig["0.1"] > sig["0.25"] > 0
    assert sig["0.9"] > sig["0.75"] > 0


def _normal_quantile(tau):
    return mp.sqrt(2) * mp.erfinv(2 * mp.mpf(tau) - 1)


def _analytic_reference(case, truth):
    # the closed forms behind the ground-truth constants, in 50 digits from
    # the record's own parameters
    if case == "batch-arx-quantile":
        sd = mp.sqrt(mp.fsum(mp.mpf(b) ** 2 for b in truth["beta"].values())
                     + mp.mpf(truth["sigma_eps"]) ** 2)
        pinball = {tau: mp.npdf(_normal_quantile(tau)) for tau in (0.1, 0.75)}
        return {"central_residual_std": sd,
                "pinball_central": {str(t): sd * d for t, d in pinball.items()},
                "pinball_full": {str(t): mp.mpf(truth["sigma_eps"]) * d
                                 for t, d in pinball.items()}}
    scale = mp.mpf(truth["beta4"]) * mp.mpf(truth["sigma_eps"])
    return {"x4_quantile_signal": {
        str(t): (scale * _normal_quantile(t)) ** 2 / 12
        for t in (0.1, 0.25, 0.5, 0.75, 0.9)}}


def _leaves(record, prefix=""):
    for key, value in record.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}/")
        else:
            yield f"{prefix}{key}", value


@pytest.mark.parametrize("case", ["batch-arx-quantile", "online-quantile"])
def test_analytic_truth_constants_match_high_precision(case):
    _, truth = generate(ScenarioSpec(case, T=50, seed=3))
    got = dict(_leaves(truth["analytic"]))
    got.pop("share_order", None)
    with mp.workdps(50):
        want = dict(_leaves(_analytic_reference(case, truth)))
        assert got.keys() == want.keys()
        for key, ref in want.items():
            assert isinstance(got[key], float), key
            if ref == 0:
                assert got[key] == 0.0, key
            else:
                assert abs((mp.mpf(got[key]) - ref) / ref) <= 1e-15, (key, got[key], ref)


def test_multi_agent_dataset_views():
    ds, truth = generate(ScenarioSpec("multi-agent-arx", T=250, seed=0))
    view = dataset_for_central(ds, 4)
    assert view.target_name == "y4"
    assert "y4" not in view.features
    assert len(view.features) == 8
    assert np.array_equal(view.target, ds.features["y4"])
    part = slice_rows(view, 10, 60)
    assert part.T == 50


def test_run_scenario_small_sample_flag():
    bundle = run_scenario("batch-linear", seed=0, T=64)
    assert bundle["small_sample"]
    assert bundle["report"].central_total >= 0.0


def test_run_scenario_batch_linear_bundle():
    bundle = run_scenario("batch-linear", seed=5, T=3000)
    report = bundle["report"]
    shares = bundle["truth"]["analytic"]["shares"]
    for k, share in shares.items():
        assert report.allocations[k] == pytest.approx(share, abs=0.05)
    assert report.audit["passed"]


def test_run_scenario_is_reproducible_end_to_end():
    a = run_scenario("online-quantile", seed=9, T=1200)
    b = run_scenario("online-quantile", seed=9, T=1200)
    assert a["report"].payments == b["report"].payments
    assert a["report"].series["surplus"].tolist() == b["report"].series["surplus"].tolist()


def test_misspelled_override_is_rejected_with_the_accepted_keys():
    with pytest.raises(ParameterError) as err:
        run_scenario("online-quantile", T=400, overrides={"tua": 0.9})
    message = str(err.value)
    assert "tua" in message
    for key in ("tau", "alpha", "lam", "warmup", "phi", "beta4", "sigma_eps"):
        assert key in message
    with pytest.raises(ParameterError, match="train_row"):
        ScenarioSpec("multi-agent-arx", params={"train_row": 100})


def test_overrides_in_use_still_reach_the_market():
    spec = ScenarioSpec("online-quantile", T=400, seed=0)
    ds, _ = generate(spec)
    task = replace(task_for_case(spec), loss=LossSpec("smooth-quantile", tau=0.9, alpha=0.2))
    direct = run_online_market(ds, task)
    report = run_scenario("online-quantile", T=400, overrides={"tau": 0.9})["report"]
    assert report.payments == direct.payments
    assert report.payments != run_scenario("online-quantile", T=400)["report"].payments

    reports = run_scenario("multi-agent-arx", T=300,
                           overrides={"n_agents": 3, "train_rows": 120})["reports"]
    assert sorted(reports) == ["a1", "a2", "a3"]
    # two lags of the target leave 118 of the 120 training rows
    assert all(r["batch"].rows == 118 and r["oos"].rows == 178 for r in reports.values())


# the study tasks task_for_case built before the cases became one table,
# written out in full
_ARX_LAGS = {"y": (1,), "x2": (1,), "x3": (1,), "x4": (1,)}
STUDY_TASKS = {
    "batch-linear": dict(ownership={"x1": "a1", "x2": "a2", "x3": "a3", "x4": "a3"}),
    "batch-poly": dict(ownership={"x1": "a1", "x2": "a2", "x3": "a3"}, degree=2),
    "batch-arx-quantile": dict(ownership={"x2": "a2", "x3": "a3", "x4": "a3"},
                               loss=LossSpec("smooth-quantile", tau=0.1, alpha=0.03),
                               lags=_ARX_LAGS, phi_insample=1.0),
    "online-arx": dict(ownership={"x2": "a2", "x3": "a3", "x4": "a3"}, lags=_ARX_LAGS),
    "online-quantile": dict(ownership={"x1": "a1", "x2": "a2", "x3": "a3", "x4": "a3"},
                            loss=LossSpec("smooth-quantile", tau=0.5, alpha=0.2),
                            lam=0.999, warmup=150),
}
# each task override key with a value off every default, and what it sets
TASK_KEYS = {"phi": 0.7, "tau": 0.3, "alpha": 0.05, "lam": 0.99, "warmup": 80}
CASE_TASK_KEYS = {"batch-linear": ("phi",), "batch-poly": ("phi",),
                  "batch-arx-quantile": ("tau", "alpha", "phi"),
                  "online-arx": ("phi", "lam", "warmup"),
                  "online-quantile": ("tau", "alpha", "phi", "lam", "warmup")}


def _expected_task(case, params):
    fields = dict(STUDY_TASKS[case])
    fields["lags"] = dict(fields.get("lags", {}))
    if "phi" in params:
        fields["phi_insample"] = params["phi"]
    fields.update({k: params[k] for k in ("lam", "warmup") if k in params})
    loss = {k: params[k] for k in ("tau", "alpha") if k in params}
    if loss:
        fields["loss"] = replace(fields["loss"], **loss)
    return TaskSpec(central_agent="a1", **fields)


@pytest.mark.parametrize("case, keys", [
    *((case, ()) for case in STUDY_TASKS),
    *((case, (key,)) for case, keys in CASE_TASK_KEYS.items() for key in keys),
    *CASE_TASK_KEYS.items(),
])
def test_task_for_case_is_the_study_task(case, keys):
    params = {k: TASK_KEYS[k] for k in keys}
    task = task_for_case(ScenarioSpec(case, T=50, params=params))
    assert task == _expected_task(case, params)
    assert repr(task) == repr(_expected_task(case, params))  # dict orders too


def test_task_for_case_refuses_the_multi_site_study():
    with pytest.raises(ParameterError, match="use run_scenario"):
        task_for_case(ScenarioSpec("multi-agent-arx", T=50))


# every key each case accepts, with a value off its default
ACCEPTED = {
    "batch-linear": {"beta0": 0.2, "beta": {"x1": -0.3, "x2": 0.5, "x3": -0.9, "x4": 0.3},
                     "sigma_eps": 0.4, "phi": 0.7},
    "batch-poly": {"sigma_eps": 0.4, "phi": 0.7},
    "batch-arx-quantile": {"beta0": 0.2, "ar": 0.9,
                           "beta": {"x2": -0.3, "x3": -0.06, "x4": 0.19},
                           "sigma_eps": 0.4, "burn": 150, "tau": 0.3, "alpha": 0.05,
                           "phi": 0.7},
    "online-arx": {"beta0": 0.2, "sigma_eps": 0.4, "burn": 150, "phi": 0.7,
                   "lam": 0.99, "warmup": 80},
    "online-quantile": {"beta0": 0.2, "beta4": 1.5, "sigma_eps": 0.4, "tau": 0.3,
                        "alpha": 0.05, "phi": 0.7, "lam": 0.99, "warmup": 80},
    "multi-agent-arx": {"n_agents": 4, "own": 0.3, "upwind1": 0.5, "upwind2": 0.1,
                        "sigma_eps": 0.2, "burn": 200, "train_rows": 100,
                        "phi_insample": 0.3, "phi_oos": 2.0, "oos_policy": "shapley",
                        "n_windows": 3},
}


def _outcome(case, params):
    # what a scenario produces from its keys: the data and truth, then the
    # study task, or for the nine-site study every report of its markets
    spec = ScenarioSpec(case, T=300, seed=0, params=params)
    ds, truth = generate(spec)
    if case != "multi-agent-arx":
        return _data_digest(ds), json.dumps(truth, sort_keys=True), task_for_case(spec)
    reports = run_scenario(case, seed=0, T=300, overrides=params)["reports"]
    return (_data_digest(ds), json.dumps(truth, sort_keys=True),
            json.dumps({k: [r["batch"].to_dict(), r["oos"].to_dict()]
                        for k, r in reports.items()}, sort_keys=True))


@pytest.mark.parametrize("case", CASES)
def test_every_accepted_key_reaches_the_data_the_task_or_the_reports(case):
    with pytest.raises(ParameterError) as err:
        ScenarioSpec(case, params={"no-such-key": 1})
    assert str(err.value).endswith("accepted: " + ", ".join(sorted(ACCEPTED[case])))
    # three sites keep the nine-site study small; n_agents changes it to four
    base = {"n_agents": 3} if case == "multi-agent-arx" else {}
    before = _outcome(case, base)
    for key, value in ACCEPTED[case].items():
        after = _outcome(case, {**base, key: value})
        assert any(a != b for a, b in zip(after, before)), key
    if case == "multi-agent-arx":
        reports = run_scenario(case, T=300, overrides={**base, "n_windows": 3})["reports"]
        assert all(len(r["oos"].metrics["windows"]) == 3 for r in reports.values())


@pytest.mark.parametrize("case", STUDY_TASKS)
def test_editing_a_returned_task_or_dataset_leaves_the_next_one_unchanged(case):
    spec = ScenarioSpec(case, T=50)
    task = task_for_case(spec)
    task.ownership["x9"] = "a9"
    task.lags["x9"] = (2,)
    assert task_for_case(spec) == _expected_task(case, {})
    ds, _ = generate(spec)
    ds.ownership["x9"] = "a9"
    assert generate(spec)[0].ownership == STUDY_TASKS[case]["ownership"]


@pytest.mark.parametrize("case, key, value, form", [
    ("batch-linear", "sigma_eps", -1, "a finite number >= 0"),
    ("online-quantile", "sigma_eps", float("nan"), "a finite number >= 0"),
    ("online-quantile", "beta4", float("inf"), "a finite number"),
    ("batch-linear", "beta0", "0.1", "a finite number"),
    ("online-arx", "burn", 2.5, "an integer >= 0"),
    ("online-arx", "burn", True, "an integer >= 0"),
    ("multi-agent-arx", "n_agents", 0, "an integer >= 1"),
    ("multi-agent-arx", "n_agents", 2.5, "an integer >= 1"),
    ("batch-linear", "beta", {"x9": 1.0}, "a mapping of x1, x2, x3, x4 to finite numbers"),
    ("batch-linear", "beta", {"x2": "a"}, "a mapping of x1, x2, x3, x4 to finite numbers"),
    ("batch-arx-quantile", "beta", {"x2": "a", "x3": 0.0, "x4": 0.0},
     "a mapping of x2, x3, x4 to finite numbers"),
    ("batch-arx-quantile", "beta", [("x2", 0.1)], "a mapping of x2, x3, x4 to finite numbers"),
])
def test_a_generator_override_of_the_wrong_form_is_rejected(case, key, value, form):
    # each would reach NumPy unchecked: a bare ValueError, TypeError or
    # KeyError, or a DataError about the target it spoils
    with pytest.raises(ParameterError, match=re.escape(f"{key} must be {form}, not {value!r}")):
        run_scenario(case, T=300, overrides={key: value})
    # NumPy scalars and ints where floats are the default are numbers too
    ScenarioSpec("batch-linear", params={"sigma_eps": np.float64(0.0), "beta0": 1,
                                         "beta": {"x1": np.int64(1), "x2": 0.5, "x3": 0.0,
                                                  "x4": -1.0}})
    ScenarioSpec("multi-agent-arx", params={"n_agents": np.int64(1), "burn": 0})


@pytest.mark.parametrize("T", [2.5, True, "100", 100.0])
def test_a_row_count_that_is_not_an_integer_is_rejected(T):
    with pytest.raises(ParameterError, match="T must be an integer"):
        ScenarioSpec("batch-linear", T=T)
    assert generate(ScenarioSpec("batch-linear", T=np.int64(20)))[0].T == 20
