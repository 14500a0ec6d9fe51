"""Self-tests of the benchmark: span arithmetic, output checks, metric names,
probe coverage, and that the workloads are the study's markets.

    python3 -m pytest benchmarks/test_benchmark.py -q

The workloads run here on small data (a few hundred rows), so the tests
take seconds; the benchmark itself runs at study size.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

assert run.use_checkout_package()

import check  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from regmarket import cli, scenarios  # noqa: E402

SMALL_ROWS = {"online-quantile": 400, "multi-site": 600, "oos-online-arx": 300}
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Workloads on which each probed function must record a span, from the
# prediction table of the README: a layer that runs on a workload must be
# seen there through every function it is entered by.
ALL = set(workloads.WORKLOADS)
ONLINE = {"online-quantile", "oos-online-arx"}
EXPECTED_SPANS = {
    "generate": ALL,
    "build_design": ALL,
    "coalition_design": {"multi-site"},
    "loss_value": ALL,
    "loss_h1": ONLINE,
    "loss_h2": ONLINE,
    "insample_loss": {"multi-site", "online-quantile"},
    "ewma_update": ONLINE,
    "fit_all_coalitions": {"multi-site"},
    "fit_batch": {"multi-site"},
    "fit_matrix": {"multi-site", "online-quantile"},
    "init_state": ONLINE,
    "online_step": ONLINE,
    "OnlineSession.init_states": ONLINE,
    "OnlineSession.step": ONLINE,
    "OnlineSession.ewma_losses": {"online-quantile"},
    "shapley_contributions": ALL,
    "shapley_allocation": {"multi-site"},
    "instant_allocation": {"online-quantile"},
    "clear_batch_market": {"multi-site"},
    "run_online_market": {"online-quantile"},
    "run_oos_market": {"multi-site", "oos-online-arx"},
    "audit_ledger": ALL,
    "report_to_json": ALL,
    "write_ledger_csv": ALL,
    "write_cumulative_csv": ALL,
    "write_loss_table_csv": ALL,
    "write_audit_json": ALL,
}


def _traced_pass(workload: str, tmp_path: Path) -> tracing.Tracer:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        markets = workloads.build(workload, seed=3, rows=SMALL_ROWS[workload])
        outdir = harness._prepare_outdir(tmp_path, workload, markets)
        result = harness.run_pass(markets, outdir, tracer, index=0)
    finally:
        tracer.uninstall()
    assert not result.errors
    return tracer


# -- span arithmetic ---------------------------------------------------------


class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return float(next(self.ticks))


def test_self_time_on_nested_span_tree():
    # pass [0, 100]
    #   run_online_market [1, 91]
    #     OnlineSession.step [2, 42]
    #       online_step [3, 33]
    #         loss_value [4, 9], loss_h1 [10, 12]
    #     instant_allocation [50, 60]
    #       shapley_contributions [51, 58]
    #   report_to_json [92, 99]
    ticks = [0, 1, 2, 3, 4, 9, 10, 12, 33, 42, 50, 51, 58, 60, 91, 92, 99, 100]
    tracer = tracing.Tracer(clock=_Clock(ticks))
    p = tracer.begin_pass(0)
    market = tracer.open("run_online_market")
    step = tracer.open("OnlineSession.step")
    coalition = tracer.open("online_step")
    tracer.close(tracer.open("loss_value"))
    tracer.close(tracer.open("loss_h1"))
    tracer.close(coalition)
    tracer.close(step)
    alloc = tracer.open("instant_allocation")
    tracer.close(tracer.open("shapley_contributions"))
    tracer.close(alloc)
    tracer.close(market)
    tracer.close(tracer.open("report_to_json"))
    tracer.end_pass(p)

    a = tracer.arrays()
    own = tracing.self_times(a["parent"], a["end"] - a["start"])
    assert own.tolist() == [3, 40, 10, 23, 5, 2, 3, 7, 7]
    assert own.sum() == 100

    m = tracing.pass_metrics(tracer, 0)
    assert m["online.self_s"] == 33
    assert m["online.step_s"] == 40
    assert m["online.coalition_step_s"] == 30
    assert m["losses.self_s"] == 7
    assert m["losses.calls"] == 2
    assert m["allocation.self_s"] == 10
    assert m["allocation.calls"] == 1     # the nested call is not an entry
    assert m["allocation.s"] == 10
    assert m["market.self_s"] == 40
    assert m["market.write_s"] == 7
    assert m["trace.clear_s"] == 100
    assert m["trace.unattributed_s"] == 3
    assert m["trace.spans"] == 9


def test_span_closed_out_of_order_is_an_error():
    tracer = tracing.Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


# -- output check ------------------------------------------------------------


@pytest.fixture(scope="module")
def batch_report():
    spec = scenarios.ScenarioSpec("batch-linear", T=500, seed=4)
    dataset, _ = scenarios.generate(spec)
    from regmarket import market
    return market.clear_batch_market(dataset, scenarios.task_for_case(spec))


def test_check_accepts_reduction_order_noise_and_rejects_a_perturbed_payment(batch_report):
    reference = check.summarise(batch_report)
    assert check.compare_summary(check.summarise(batch_report), reference) == []

    feature = sorted(batch_report.payments)[-1]
    noisy = check.summarise(batch_report)
    noisy["payments"][feature] *= 1 + 1e-12
    assert check.compare_summary(noisy, reference) == []

    perturbed = check.summarise(batch_report)
    perturbed["payments"][feature] *= 1 + 1e-4
    problems = check.compare_summary(perturbed, reference)
    assert problems and feature in problems[0]


def test_check_rejects_a_negative_ledger_amount(batch_report):
    assert check.check_ledger(batch_report) == []
    entry = batch_report.ledger[0]
    tampered = dataclasses.replace(
        batch_report, ledger=[dataclasses.replace(entry, amount=-entry.amount)]
        + batch_report.ledger[1:])
    problems = check.check_ledger(tampered)
    assert any("negative" in p for p in problems)
    assert any("central_total" in p for p in problems)


def test_check_rejects_missing_artifacts(batch_report, tmp_path):
    harness.write_artifacts(batch_report, tmp_path)
    problems, sizes = check.check_artifacts(batch_report, tmp_path)
    assert problems == [] and all(sizes.values())
    (tmp_path / "losses.csv").unlink()
    problems, _ = check.check_artifacts(batch_report, tmp_path)
    assert problems == ["artifact losses.csv missing or empty"]


# -- metric names ------------------------------------------------------------


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for section, listed in (("end_to_end", harness.END_TO_END),
                            ("per_layer", harness.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[section]]
        assert declared == list(listed)
        for name, _ in listed:
            assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


# -- probe coverage ----------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_probe_records_spans_where_its_layer_runs(workload, tmp_path):
    tracer = _traced_pass(workload, tmp_path)
    names = np.array(tracer.names)[tracer.arrays()["name_id"]]
    probed = {p.name for p in tracing.PROBES} | {"write_audit_json"}
    assert probed == set(EXPECTED_SPANS)
    for name, expected_on in EXPECTED_SPANS.items():
        count = int(np.sum(names == name))
        if workload in expected_on:
            assert count >= 1, f"{name} recorded no span on {workload}"
    metrics = tracing.pass_metrics(tracer, 0)
    metrics.update(tracing.setup_metrics(tracer))
    if workload == "multi-site":
        assert metrics["online.steps"] == 0
        assert metrics["online.coalition_steps"] == 0
        assert metrics["data.coalition_design_calls"] == 18 * 256
        assert metrics["batch.fits"] == 18 * 256
        assert metrics["allocation.calls"] == 18
    else:
        assert metrics["online.steps"] > 0
    assert metrics["trace.unattributed_s"] < 0.05 * metrics["trace.clear_s"]


def test_install_replaces_every_binding_and_uninstall_restores_them():
    from regmarket import batch, losses, market, online
    originals = (online.loss_h1, losses.loss_h1, market._fit_table, batch.coalition_design)
    tracer = tracing.Tracer()
    bindings = tracer.install()
    try:
        assert online.loss_h1 is losses.loss_h1 is not originals[0]
        assert market._fit_table is batch.fit_all_coalitions is not originals[2]
        assert bindings["loss_h1"] >= 4      # losses, batch, online, package
        assert bindings["fit_all_coalitions"] >= 2
        assert all(bindings.values())
    finally:
        tracer.uninstall()
    assert (online.loss_h1, losses.loss_h1, market._fit_table,
            batch.coalition_design) == originals


# -- the workloads are the study's markets -----------------------------------


def test_multi_site_markets_match_run_scenario():
    rows = SMALL_ROWS["multi-site"]
    markets = workloads.build("multi-site", seed=5, rows=rows)
    ours = {m.id: check.summarise(m.clear()) for m in markets}
    bundle = scenarios.run_scenario("multi-agent-arx", seed=5, T=rows)
    theirs = {f"{agent}-{kind}": check.summarise(report)
              for agent, pair in bundle["reports"].items()
              for kind, report in pair.items()}
    assert ours == theirs


def test_artifacts_match_the_cli(tmp_path):
    (market,) = workloads.build("online-quantile", seed=6, rows=SMALL_ROWS["online-quantile"])
    report = market.clear()
    ours, theirs = tmp_path / "ours", tmp_path / "cli"
    ours.mkdir()
    theirs.mkdir()
    harness.write_artifacts(report, ours)
    cli._write_artifacts(report, theirs)
    assert sorted(p.name for p in ours.iterdir()) == sorted(check.ARTIFACTS)
    for name in check.ARTIFACTS:
        assert (ours / name).read_bytes() == (theirs / name).read_bytes()


# -- command line ------------------------------------------------------------


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "multi-site",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
