"""The benchmark's workloads: study data from a seed, and the markets to clear.

Each workload is built from ``regmarket.scenarios.generate`` alone and
cleared through the public market API.  Functions are looked up on their
modules at call time, so the traced run's wrappers are the ones called.

* ``online-quantile`` -- the online-quantile study (T = 10000) cleared with
  its study task by ``run_online_market``: the online estimator loop and
  the per-step Shapley allocation do the work.
* ``multi-site`` -- the nine-site study (T = 6000) as ``run_scenario`` runs
  it: for every site a batch market on the training half and an
  out-of-sample market with a batch model source, 256 coalitions each.
  Batch fits, coalition designs, array Shapley and serialisation do the
  work; the online layer never runs.
* ``oos-online-arx`` -- the online-arx study data (T = 10000) in the
  out-of-sample market with an online model source, zero-start and
  ``phi_oos = 1``: quadratic loss, not-ready steps, realised per-step losses
  and one allocation pass over the (T, C) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from regmarket import market, scenarios
from regmarket.losses import LossSpec

WORKLOADS = ("online-quantile", "multi-site", "oos-online-arx")


@dataclass(frozen=True)
class Market:
    """One market of a workload: an identifier and the call that clears it."""

    id: str
    clear: Callable[[], market.MarketReport]


def build(workload: str, seed: int, rows: int | None = None) -> list[Market]:
    """Generate the workload's data for ``seed`` and construct its tasks.

    ``rows`` overrides the study size; the self-tests use it to run the
    same markets on small data.
    """
    if workload == "online-quantile":
        spec = scenarios.ScenarioSpec("online-quantile", T=rows, seed=seed)
        dataset, _ = scenarios.generate(spec)
        task = scenarios.task_for_case(spec)
        return [Market("online", lambda: market.run_online_market(dataset, task))]
    if workload == "oos-online-arx":
        spec = scenarios.ScenarioSpec("online-arx", T=rows, seed=seed)
        dataset, _ = scenarios.generate(spec)
        task = replace(scenarios.task_for_case(spec), init_policy="zero-start",
                       phi_oos=1.0)
        return [Market("oos", lambda: market.run_oos_market(
            dataset, task, model_source="online"))]
    if workload == "multi-site":
        spec = scenarios.ScenarioSpec("multi-agent-arx", T=rows, seed=seed)
        dataset, _ = scenarios.generate(spec)
        return _multi_site_markets(dataset, spec.rows)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _multi_site_markets(dataset, rows: int) -> list[Market]:
    # the tasks run_scenario("multi-agent-arx") builds with its default
    # parameters, constructed here so that task construction is set-up
    # rather than part of a pass
    train = rows // 2
    markets = []
    for j in range(1, 10):
        view = scenarios.dataset_for_central(dataset, j)
        lags = {view.target_name: (1, 2)}
        for name in view.features:
            lags[name] = (1,)
        task = market.TaskSpec(
            central_agent=f"a{j}", ownership=dict(view.ownership),
            loss=LossSpec("quadratic"), lags=lags, degree=1,
            phi_insample=0.5, phi_oos=1.5, train_rows=train, loss_unit="percent",
            oos_allocation_policy="zero-shapley")
        train_view = scenarios.slice_rows(view, 0, train)
        markets.append(Market(f"a{j}-batch", partial(_clear_batch, train_view, task)))
        markets.append(Market(f"a{j}-oos", partial(_clear_oos, view, task)))
    return markets


def _clear_batch(dataset, task):
    return market.clear_batch_market(dataset, task)


def _clear_oos(dataset, task):
    return market.run_oos_market(dataset, task, model_source="batch", n_windows=10)
