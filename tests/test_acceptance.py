"""Acceptance suite: every criterion of the build contract at its stated
tolerance, one printed PASS/FAIL line per criterion (run with -s to see all).

The heavy study-scale runs are shared through module-scoped fixtures; the
checks on reference values reproduce the simulation studies at T = 10000.
"""

import itertools
import json
import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import regmarket as rm
from regmarket.batch import CoalitionLossTable, enumerate_coalitions
from regmarket.online import ZERO_START, init_state, online_step
from regmarket.scenarios import generate, run_scenario, ScenarioSpec

mp.mp.dps = 40


def record(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def table_from_report(report) -> CoalitionLossTable:
    losses = {}
    for key, value in report.loss_table.items():
        members = frozenset(k for k in key.split("|") if k)
        losses[members] = value
    return CoalitionLossTable(losses, report.support, frozenset())


# ---------------------------------------------------------------------------
# shared study-scale runs


@pytest.fixture(scope="module")
def case1_runs():
    return [run_scenario("batch-linear", seed=s, T=10_000)["report"]
            for s in range(5)]


@pytest.fixture(scope="module")
def case2_run():
    return run_scenario("batch-poly", seed=0, T=10_000)["report"]


@pytest.fixture(scope="module")
def case3_runs():
    return {tau: run_scenario("batch-arx-quantile", seed=0, T=10_000,
                              overrides={"tau": tau})["report"]
            for tau in (0.1, 0.75)}


@pytest.fixture(scope="module")
def online_quantile_runs():
    return {tau: run_scenario("online-quantile", seed=0, T=10_000,
                              overrides={"tau": tau})["report"]
            for tau in (0.1, 0.25, 0.5, 0.75, 0.9)}


@pytest.fixture(scope="module")
def multi_agent_bundle():
    return run_scenario("multi-agent-arx", seed=0)


# ---------------------------------------------------------------------------
# 1. plain linear regression study


def test_criterion_1_batch_linear_reproduction(case1_runs):
    analytic = {"x2": 0.25 / 1.10, "x3": 0.81 / 1.10, "x4": 0.04 / 1.10}
    problems = []
    shapley_means = {k: [] for k in analytic}
    loo_means = {k: [] for k in analytic}
    payments = []
    for i, report in enumerate(case1_runs):
        if not 1.14 <= report.central_loss <= 1.24:
            problems.append(f"seed {i}: central loss {report.central_loss:.4f}")
        if not 0.083 <= report.full_loss <= 0.097:
            problems.append(f"seed {i}: full loss {report.full_loss:.4f}")
        for k, ref in analytic.items():
            if abs(report.allocations[k] - ref) > 0.02:
                problems.append(f"seed {i}: share {k} {report.allocations[k]:.4f}")
        loo = rm.loo_allocation(table_from_report(report), "drop-one")
        for k in analytic:
            shapley_means[k].append(report.allocations[k])
            loo_means[k].append(loo[k])
        payments.append(report.central_total)
    # the two policies coincide up to sampling noise, so their agreement is
    # checked on the reproduction statistics (shares averaged over seeds)
    for k in analytic:
        gap = abs(float(np.mean(shapley_means[k])) - float(np.mean(loo_means[k])))
        if gap > 0.005:
            problems.append(f"loo/shapley mean gap on {k}: {gap:.4f}")
    mean_payment = float(np.mean(payments))
    if abs(mean_payment - 1104) > 0.06 * 1104:
        problems.append(f"payment {mean_payment:.1f}")
    record(1, not problems,
           f"linear study over 5 seeds: mean payment {mean_payment:.1f}, "
           f"shares within 2pp, policies agree within 0.5pp {problems}")


# ---------------------------------------------------------------------------
# 2. polynomial regression study


def test_criterion_2_batch_poly_reproduction(case2_run):
    report = case2_run
    share_sum = report.support_share_sum
    total = report.central_total
    shortfall = report.audit["checks"]["budget_balance"]["shortfall_vs_benchmark"]
    ok = (0.60 <= share_sum <= 0.70
          and abs(total - 520.42) <= 0.10 * 520.42
          and shortfall > 0
          and shortfall == pytest.approx(report.benchmark_payment - total))
    record(2, ok, f"support share sum {share_sum:.4f}, payment {total:.2f}, "
                  f"shortfall {shortfall:.2f} vs benchmark {report.benchmark_payment:.2f}")


# ---------------------------------------------------------------------------
# 3. quantile ARX study


def test_criterion_3_batch_quantile_reproduction(case3_runs):
    refs = {0.1: (0.086, 0.052), 0.75: (0.152, 0.096)}
    problems = []
    for tau, (ref_central, ref_full) in refs.items():
        report = case3_runs[tau]
        if abs(report.central_loss - ref_central) > 0.15 * ref_central:
            problems.append(f"tau={tau}: central {report.central_loss:.4f}")
        if abs(report.full_loss - ref_full) > 0.15 * ref_full:
            problems.append(f"tau={tau}: full {report.full_loss:.4f}")
        psi = report.allocations
        if not psi["x2"] > psi["x4"] > psi["x3"]:
            problems.append(f"tau={tau}: ordering {psi}")
    record(3, not problems, f"quantile losses and x2>x4>x3 ordering {problems}")


# ---------------------------------------------------------------------------
# 4. online quantile study


def test_criterion_4_online_quantile_payments(online_quantile_runs):
    shares = {}
    for tau, report in online_quantile_runs.items():
        total = sum(report.payments.values())
        shares[tau] = report.payments["x4"] / total if total else 0.0
    ok = (shares[0.5] <= 0.02
          and shares[0.1] > shares[0.25]
          and shares[0.9] > shares[0.75])
    record(4, ok, "x4 payment shares by quantile level "
           + ", ".join(f"tau={t}: {s:.3f}" for t, s in sorted(shares.items())))


# ---------------------------------------------------------------------------
# 5. recursive least squares equivalence


def test_criterion_5_rls_equivalence_oracle():
    worst = 0.0
    spec = rm.LossSpec("quadratic")
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        T = int(rng.integers(120, 400))
        n = int(rng.integers(2, 7))
        X = np.column_stack([np.ones(T), rng.normal(size=(T, n - 1))])
        y = X @ rng.normal(size=n) + rng.normal(0, 0.5, T)
        state = init_state(None, None, ZERO_START, spec, 1.0, n=n)
        for t in range(T):
            state, _, _ = online_step(state, X[t], y[t], 1.0, spec)
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        worst = max(worst, float(np.max(np.abs(state.coefficients - ols))))
    record(5, worst <= 1e-6,
           f"single-pass online vs batch least squares, worst gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. derivative oracle


def test_criterion_6_derivative_oracle():
    def loss_mp(e, tau, alpha):
        e, tau, alpha = mp.mpf(e), mp.mpf(tau), mp.mpf(alpha)
        return tau * e + alpha * mp.log(1 + mp.e ** (-e / alpha))

    worst_analytic = 0.0
    worst_verbatim = 0.0
    grid = np.linspace(-5.0, 5.0, 21)
    for alpha in (0.05, 0.2, 1.0):
        for tau in (0.1, 0.5, 0.9):
            spec = rm.LossSpec("smooth-quantile", tau=tau, alpha=alpha)
            vspec = rm.LossSpec("smooth-quantile", tau=tau, alpha=alpha,
                                derivative_variant="paper-verbatim")
            for e in grid:
                d1 = float(mp.diff(lambda x: loss_mp(x, tau, alpha), e))
                d2 = float(mp.diff(lambda x: loss_mp(x, tau, alpha), e, 2))
                worst_analytic = max(
                    worst_analytic,
                    abs(rm.loss_h1(e, spec) - d1) / max(1.0, abs(d1)),
                    abs(rm.loss_h2(e, spec) - d2) / max(1.0, abs(d2)))
                worst_verbatim = max(
                    worst_verbatim,
                    abs(rm.loss_h1(e, vspec) - d1),
                    abs(rm.loss_h2(e, vspec) - d2))
    print(f"  printed-variant max deviation from the loss derivatives: "
          f"{worst_verbatim:.4f} (documented discrepancy)")
    record(6, worst_analytic <= 1e-5 and worst_verbatim > 1e-2,
           f"analytic h1/h2 within {worst_analytic:.2e} of finite differences; "
           f"printed variant deviates by {worst_verbatim:.3f}")


# ---------------------------------------------------------------------------
# 7. Shapley oracle


def random_loss_table(features, rng):
    losses = {}
    for c in enumerate_coalitions(tuple(features)):
        losses[c] = float(2.0 - 0.2 * len(c) + rng.uniform(-0.15, 0.15))
    losses[frozenset()] = 2.4
    losses[frozenset(features)] = 0.4
    return losses


def test_criterion_7_shapley_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        m = int(rng.integers(2, 7))
        features = tuple(f"f{i}" for i in range(m))
        losses = random_loss_table(features, rng)
        table = CoalitionLossTable(losses, features, frozenset())
        alloc = rm.shapley_allocation(table)
        perms = list(itertools.permutations(features))
        acc = {k: 0.0 for k in features}
        for p in perms:
            cur = frozenset()
            for k in p:
                acc[k] += losses[cur] - losses[cur | {k}]
                cur = cur | {k}
        for k in features:
            brute = acc[k] / len(perms) / table.surplus
            worst = max(worst, abs(alloc[k] - brute))
    record(7, worst <= 1e-10,
           f"exact vs permutation enumeration worst gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. market property suite


def case1_dataset(seed, T=10_000, mutate=None):
    ds, _ = generate(ScenarioSpec("batch-linear", T=T, seed=seed))
    if mutate:
        feats = dict(ds.features)
        owners = dict(ds.ownership)
        feats, owners = mutate(feats, owners, seed)
        ds = rm.Dataset(ds.timestamps, ds.target, feats, owners, target_owner="a1")
    return ds


def case1_task(**kw):
    defaults = dict(central_agent="a1",
                    ownership={"x1": "a1", "x2": "a2", "x3": "a3", "x4": "a3"},
                    loss=rm.LossSpec("quadratic"), degree=1, phi_insample=0.1)
    defaults.update(kw)
    return rm.TaskSpec(**defaults)


def test_criterion_8_market_property_suite(case1_runs, case3_runs,
                                           online_quantile_runs,
                                           multi_agent_bundle):
    problems = []

    # budget balance and individual rationality across every collected run
    collected = list(case1_runs) + list(case3_runs.values()) \
        + list(online_quantile_runs.values())
    for pair in multi_agent_bundle["reports"].values():
        collected += [pair["batch"], pair["oos"]]
    for report in collected:
        checks = report.audit["checks"]
        if not checks["budget_balance"]["passed"]:
            problems.append(f"budget balance: {report.market}/{report.central_agent}")
        if not checks["individual_rationality"]["passed"]:
            problems.append(f"rationality: {report.market}/{report.central_agent}")
        if not checks["per_agent_additivity"]["passed"]:
            problems.append(f"additivity: {report.market}/{report.central_agent}")

    # duplicate-column symmetry under the Shapley policy
    def add_twin(feats, owners, seed):
        feats["x2twin"] = feats["x2"].copy()
        owners["x2twin"] = "a4"
        return feats, owners

    ds = case1_dataset(0, T=2000, mutate=add_twin)
    twin_task = case1_task(ownership=dict(ds.ownership),
                           flag_duplicates=(("x2", "x2twin"),))
    twin_report = rm.clear_batch_market(ds, twin_task)
    if not twin_report.audit["checks"]["symmetry"]["passed"]:
        problems.append("duplicate symmetry")

    # dummy feature forced through pays exactly zero
    def add_dead(feats, owners, seed):
        feats["dead"] = np.zeros(len(ds0.target))
        owners["dead"] = "a5"
        return feats, owners

    ds0, _ = generate(ScenarioSpec("batch-linear", T=2000, seed=1))
    ds_dead = case1_dataset(1, T=2000, mutate=add_dead)
    dead_task = case1_task(ownership=dict(ds_dead.ownership), flag_dummies=("dead",))
    dead_report = rm.clear_batch_market(ds_dead, dead_task)
    if dead_report.payments["dead"] != 0.0:
        problems.append(f"dummy payment {dead_report.payments['dead']}")

    # per-agent additivity under an agent split, feature payments unchanged
    base = rm.clear_batch_market(case1_dataset(2, T=2000), case1_task())
    split_owners = {"x1": "a1", "x2": "a2", "x3": "a3u", "x4": "a3v"}
    ds_split = case1_dataset(2, T=2000,
                             mutate=lambda f, o, s: (f, dict(split_owners)))
    split = rm.clear_batch_market(ds_split, case1_task(ownership=split_owners))
    if split.payments != base.payments:
        problems.append("split changed feature payments")
    if base.per_agent["a3"] != split.per_agent["a3u"] + split.per_agent["a3v"]:
        problems.append("split changed agent revenue")

    # truthfulness: distorting a feature lowers its payment in >= 18/20 seeds
    wins = 0
    for seed in range(20):
        honest = rm.clear_batch_market(case1_dataset(seed), case1_task())

        def distort(feats, owners, s):
            noise = np.random.default_rng(909 + s).normal(0, 0.5, feats["x3"].size)
            feats["x3"] = feats["x3"] + noise
            return feats, owners

        noisy = rm.clear_batch_market(case1_dataset(seed, mutate=distort),
                                      case1_task())
        wins += noisy.payments["x3"] < honest.payments["x3"]
    if wins < 18:
        problems.append(f"truthfulness wins {wins}/20")

    record(8, not problems,
           f"balance/rationality/symmetry/zero-element/additivity/truthfulness "
           f"({wins}/20 truthful wins) {problems}")


# ---------------------------------------------------------------------------
# 9. out-of-sample consistency on the multi-site stand-in


def test_criterion_9_oos_consistency(multi_agent_bundle):
    ok_windows = total_windows = 0
    exact_totals = True
    for agent, pair in multi_agent_bundle["reports"].items():
        report = pair["oos"]
        for w in report.metrics["windows"]:
            total_windows += 1
            ok_windows += w["with_support"] <= w["without_support"]
        for k in report.support:
            if report.payments[k] != math.fsum(report.series["payments"][k]):
                exact_totals = False
        if report.central_total != math.fsum(
                report.payments[k] for k in sorted(report.payments)):
            exact_totals = False
    frac = ok_windows / total_windows
    record(9, frac >= 0.95 and exact_totals,
           f"with-support no worse on {ok_windows}/{total_windows} windows "
           f"({100 * frac:.1f}%), per-step sums exact: {exact_totals}")


# ---------------------------------------------------------------------------
# 10. determinism


def test_criterion_10_determinism(tmp_path):
    stable = True
    for case in ("batch-linear", "batch-poly", "batch-arx-quantile",
                 "online-arx", "online-quantile", "multi-agent-arx"):
        a, ta = generate(ScenarioSpec(case, T=400, seed=11))
        b, tb = generate(ScenarioSpec(case, T=400, seed=11))
        stable &= np.array_equal(a.target, b.target) and ta == tb
        stable &= all(np.array_equal(a.features[k], b.features[k])
                      for k in a.feature_names)

    r1 = run_scenario("online-quantile", seed=2, T=1500)["report"]
    r2 = run_scenario("online-quantile", seed=2, T=1500)["report"]
    stable &= json.dumps(r1.to_dict(), sort_keys=True) == \
        json.dumps(r2.to_dict(), sort_keys=True)

    # full command double-run in fresh interpreters
    cfg_text = """\
[run]
version = 1
scenario = batch-linear
rows = 600
seed = 3
out = {out}

[task]
central_agent = a1
loss = quadratic
phi_insample = 0.1

[ownership]
x1 = a1
x2 = a2
x3 = a3
x4 = a3
"""
    blobs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        cfg = tmp_path / f"{sub}.cfg"
        cfg.write_text(cfg_text.format(out=out))
        proc = subprocess.run(
            [sys.executable, "-m", "regmarket.cli", "market", "--mechanism",
             "batch", "--config", str(cfg)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append(b"".join((out / n).read_bytes() for n in
                              ("report.json", "ledger.csv",
                               "cumulative_revenues.csv", "audit.json")))
    stable &= blobs[0] == blobs[1]
    record(10, stable, "scenario generation, report bundles and CLI artifacts "
                       "byte-identical across reruns")
