"""Market mechanisms: batch, online and out-of-sample regression markets.

A central agent posts a task (model recipe, loss, willingness to pay phi)
and support agents' features are valued by coalition analysis.  Payments
per feature are

    pi_k = (billable rows) * surplus * phi * psi_k        (batch)
    pi_{k,t} = surplus_t * phi * psi_{k,t}                (online / OOS)

with the surplus measured by loss improvement and psi by an allocation
policy.  Two market-level guarantees are enforced by construction rather
than checked after the fact: per-feature payments are clamped at zero
(individual rationality), and the central agent's debit is defined as the
sum of the support credits (budget balance).  The pre-clamp full-surplus
amount is always reported as a benchmark so discrepancies (e.g. the
interaction-term shortfall on non-separable models) are visible.

For separable models the coalition game runs over support features on top
of the central agent's model (the classic Shapley allocation).  When the
design mixes central and support features inside one term, allocations
switch to a feature-level game in which the central agent's features,
including its unit feature, are players as well: the support agents are
then paid their share of the intercept-to-grand improvement and the
central agent's own share appears as an explicit shortfall.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

import numpy as np

from .allocation import (
    ABSOLUTE,
    ADD_ONE,
    DROP_ONE,
    ORIGINAL,
    ZERO,
    AllocationVector,
    loo_allocation,
    shapley_allocation,
    shapley_contributions,
    step_allocations,
)
from .batch import (
    CAP_REMEDY,
    CoalitionLossTable,
    coalition_losses,
    enumerate_coalitions,
    fit_all_coalitions as _fit_table,
    fit_column_sets,
    fit_matrix,
)
from .data import AugmentedDesign, Dataset, make_lags, polynomial_expand
from .errors import EnumerationCapError, ParameterError
from .losses import LossSpec, insample_loss
from .online import WARM_START, ZERO_START, OnlineSession

SCHEMA_VERSION = 1
UNIT_PLAYER = "__unit__"

_POLICY_VARIANT = {"shapley": ORIGINAL, "zero-shapley": ZERO, "absolute-shapley": ABSOLUTE}
_LOO_VARIANT = {"loo-a": DROP_ONE, "loo-b": ADD_ONE}
_STEP_VARIANT = {**_POLICY_VARIANT, **_LOO_VARIANT}
_POLICIES = tuple(_STEP_VARIANT)


@dataclass(frozen=True)
class TaskSpec:
    """Everything a central agent declares when posting a regression task."""

    central_agent: str
    ownership: Mapping[str, str]          # market feature name -> agent
    loss: LossSpec = LossSpec()
    lags: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    degree: int = 1
    interactions: bool = True
    phi_insample: float = 0.1
    phi_oos: float = 0.0
    lam: float = 0.998
    horizon: int = 1
    allocation_policy: str = "shapley"
    oos_allocation_policy: str = "zero-shapley"
    init_policy: str = WARM_START
    warmup: int = 100
    train_rows: int | None = None
    loss_unit: str = "raw"
    enumeration_cap: int = 15
    flag_duplicates: tuple[tuple[str, ...], ...] = ()
    flag_dummies: tuple[str, ...] = ()

    def __post_init__(self):
        if self.phi_insample < 0 or self.phi_oos < 0:
            raise ParameterError("willingness to pay must be >= 0")
        if self.horizon < 0:
            raise ParameterError("forecast horizon must be >= 0")
        if not 0.0 < self.lam <= 1.0:
            raise ParameterError("forgetting factor must lie in (0, 1]")
        if self.allocation_policy not in _POLICIES:
            raise ParameterError(f"unknown allocation policy {self.allocation_policy!r}")
        if self.oos_allocation_policy not in _POLICIES:
            raise ParameterError(f"unknown allocation policy {self.oos_allocation_policy!r}")
        if self.loss_unit not in ("raw", "percent"):
            raise ParameterError("loss_unit must be 'raw' or 'percent'")
        if self.init_policy not in (WARM_START, ZERO_START):
            raise ParameterError(f"unknown initialisation policy {self.init_policy!r}")
        # the audit checks flagged features through their payments, so a
        # flag on a feature the market does not pay for would pass vacuously
        if any(not group for group in self.flag_duplicates):
            raise ParameterError("a flag_duplicates group must name at least one feature")
        flagged = {k for group in self.flag_duplicates for k in group}
        paid = {k for k, agent in self.ownership.items() if agent != self.central_agent}
        unpaid = sorted(flagged.union(self.flag_dummies) - paid)
        if unpaid:
            raise ParameterError(f"flagged features {unpaid} are not support features: "
                                 "each must be in ownership and not owned by the "
                                 "central agent")

    @property
    def loss_scale(self) -> float:
        # the percent convention expresses surpluses in percent points of
        # nominal capacity, so phi is per percent point
        return 100.0 if self.loss_unit == "percent" else 1.0


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    time: int | str
    payer: str
    payee: str
    feature: str
    amount: float
    market: str


@dataclass
class MarketReport:
    market: str
    central_agent: str
    rows: int
    phi: float
    allocation_policy: str
    game: str
    support: tuple[str, ...]
    feature_owners: Mapping[str, str]
    allocations: Mapping[str, float] = field(default_factory=dict)
    payments: Mapping[str, float] = field(default_factory=dict)
    per_agent: Mapping[str, float] = field(default_factory=dict)
    central_total: float = 0.0
    benchmark_payment: float = 0.0
    support_share_sum: float = 0.0
    central_share: float = 0.0
    central_loss: float = float("nan")
    full_loss: float = float("nan")
    surplus: float = float("nan")
    loss_table: Mapping[str, float] = field(default_factory=dict)
    series: Mapping[str, object] = field(default_factory=dict)
    metrics: Mapping[str, object] = field(default_factory=dict)
    ledger: list[LedgerEntry] = field(default_factory=list)
    screened_out: tuple[str, ...] = ()
    no_surplus: bool = False
    clamped_entries: int = 0
    notes: dict = field(default_factory=dict)
    flag_duplicates: tuple[tuple[str, ...], ...] = ()
    flag_dummies: tuple[str, ...] = ()
    audit: dict | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        """The report as JSON data, with the ledger as one list per column.

        The result is a new top-level dict with new lists for the tuple
        fields and the ledger columns; every other container (``series``,
        ``metrics``, ``notes``, ``audit``, the per-feature mappings) is the
        report's own object, shared rather than copied.  Copy before
        mutating it.
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["support"] = list(self.support)
        out["screened_out"] = list(self.screened_out)
        out["flag_duplicates"] = [list(g) for g in self.flag_duplicates]
        out["flag_dummies"] = list(self.flag_dummies)
        out["ledger"] = {
            "time": [e.time for e in self.ledger],
            "payer": [e.payer for e in self.ledger],
            "payee": [e.payee for e in self.ledger],
            "feature": [e.feature for e in self.ledger],
            "amount": [e.amount for e in self.ledger],
            "market": [e.market for e in self.ledger],
        }
        return out


def coalition_key(coalition: frozenset) -> str:
    return "|".join(sorted(coalition))


# ---------------------------------------------------------------------------
# design assembly


def build_design(dataset: Dataset, task: TaskSpec) -> tuple[Dataset, AugmentedDesign]:
    """Apply the task's ownership, lag structure and polynomial recipe."""
    ds = dataset.with_ownership(task.ownership, target_owner=task.central_agent)
    if task.lags:
        # ARX recipes use lags in place of levels
        ds = make_lags(ds, task.lags, keep_levels=False)
    design = polynomial_expand(ds, task.degree, task.interactions)
    return ds, design


def split_features(design: AugmentedDesign, task: TaskSpec) -> tuple[frozenset, tuple[str, ...]]:
    owners = design.feature_owners
    central = frozenset(f for f in design.market_features
                        if owners.get(f) == task.central_agent)
    support = tuple(sorted(f for f in design.market_features if f not in central))
    return central, support


def has_mixed_terms(design: AugmentedDesign, central: frozenset, support: Sequence[str]) -> bool:
    sup = frozenset(support)
    return any(t.support & central and t.support & sup for t in design.terms)


def fit_all_coalitions(dataset: Dataset, task: TaskSpec,
                       support: Sequence[str] | None = None) -> CoalitionLossTable:
    """Task-level wrapper: build the design, then fit every coalition."""
    ds, design = build_design(dataset, task)
    central, all_support = split_features(design, task)
    chosen = tuple(sorted(support)) if support is not None else all_support
    return _fit_table(design, ds.target, central=central, support=chosen,
                      spec=task.loss, cap=task.enumeration_cap)


# ---------------------------------------------------------------------------
# screening


def screen_features(dataset: Dataset, task: TaskSpec, method: str = "cv-loss",
                    folds: int = 5, burnin: int = 500) -> tuple[str, ...]:
    """Pre-market feature selection; returns the retained support features."""
    ds, design = build_design(dataset, task)
    central, support = split_features(design, task)
    if not support:
        return ()
    X, y = design.values, ds.target
    if method == "cv-loss":
        retained = []
        for k in support:
            reduction, base = _cv_improvement(design, X, y, central, k,
                                              task.loss, folds)
            # "> 0" up to solver noise, so an exactly valueless column with
            # a jittered fit still reads as zero
            if reduction > 1e-12 * max(1.0, abs(base)):
                retained.append(k)
        return tuple(retained)
    if method == "burn-in-shapley":
        if burnin > design.T:
            raise ParameterError(f"burn-in of {burnin} rows exceeds the {design.T} available")
        coalitions = list(enumerate_coalitions(support))
        session = OnlineSession(design, central, coalitions, task.lam, task.loss)
        warm = min(task.warmup, max(burnin // 4, 2 * design.n))
        session.init_states(X[:warm], y[:warm], WARM_START, min_warm=warm)
        session.stream(X[warm:burnin], y[warm:burnin])
        contribs, _ = shapley_contributions(session.ewma_losses(), support)
        return tuple(k for k in support if contribs[k] >= 0)
    raise ParameterError(f"unknown screening method {method!r}")


def _cv_improvement(design, X, y, central, feature, spec, folds) -> tuple[float, float]:
    T = X.shape[0]
    base_idx = list(design.columns_for(central))
    plus_idx = list(design.columns_for(central | {feature}))
    bounds = np.linspace(0, T, folds + 1).astype(int)
    base_loss = plus_loss = 0.0
    for i in range(folds):
        lo, hi = bounds[i], bounds[i + 1]
        train = np.r_[0:lo, hi:T]
        val = np.r_[lo:hi]
        for idx, sink in ((base_idx, "base"), (plus_idx, "plus")):
            fit = fit_matrix(X[train][:, idx], y[train], spec)
            val_loss = insample_loss(y[val] - X[val][:, idx] @ fit.coefficients, spec)
            if sink == "base":
                base_loss += val_loss
            else:
                plus_loss += val_loss
    return base_loss - plus_loss, base_loss


# ---------------------------------------------------------------------------
# shared payment helpers


def _pay_and_book(report: MarketReport, psi: Mapping[str, float], pot: float,
                  owners: Mapping[str, str], central_agent: str, time_tag,
                  market: str) -> dict[str, float]:
    """Clamp per-feature payments, append ledger entries, return amounts."""
    amounts = {}
    for k in sorted(psi):
        amount = pot * psi[k]
        if amount < 0.0:
            amount = 0.0
            report.clamped_entries += 1
        amounts[k] = amount
        if amount > 0.0:
            report.ledger.append(LedgerEntry(time_tag, central_agent, owners[k],
                                             k, amount, market))
    return amounts


def _book_steps(report: MarketReport, times: list[int], surplus: np.ndarray,
                amounts: np.ndarray, features: Sequence[str],
                owners: Mapping[str, str], payer: str) -> None:
    """Book a (steps, features) matrix of clamped per-step payments.

    Positive amounts become ledger entries in time, then feature order;
    the report gets the per-step series and the per-feature totals.
    """
    pay_series = {k: amounts[:, j].tolist() for j, k in enumerate(features)}
    # ledger amounts reuse the series' float objects: one copy in memory, not two
    rows, cols = np.nonzero(amounts > 0.0)
    report.ledger.extend(
        LedgerEntry(times[i], payer, owners[features[j]], features[j],
                    pay_series[features[j]][i], report.market)
        for i, j in zip(rows.tolist(), cols.tolist()))
    report.series = {
        "step": times,
        "surplus": surplus.tolist(),
        "central_payment": [math.fsum(row) for row in zip(*pay_series.values())],
        "payments": pay_series,
        "cumulative": {k: np.cumsum(pay_series[k]).tolist() for k in features},
    }
    _finalise_totals(report, {k: math.fsum(pay_series[k]) for k in features}, owners)


def _finalise_totals(report: MarketReport, per_feature_totals: Mapping[str, float],
                     owners: Mapping[str, str]) -> None:
    report.payments = {k: per_feature_totals[k] for k in sorted(per_feature_totals)}
    agent_feats: dict[str, list[str]] = {}
    for k in sorted(per_feature_totals):
        agent_feats.setdefault(owners[k], []).append(k)
    report.per_agent = {a: math.fsum(per_feature_totals[k] for k in feats)
                        for a, feats in sorted(agent_feats.items())}
    report.central_total = math.fsum(report.payments[k] for k in sorted(report.payments))


def _empty_report(task: TaskSpec, market: str, rows: int, owners, phi) -> MarketReport:
    return MarketReport(market=market, central_agent=task.central_agent, rows=rows,
                        phi=phi, allocation_policy=task.allocation_policy,
                        game="none", support=(), feature_owners=dict(owners),
                        notes={"reason": "no support features"})


# ---------------------------------------------------------------------------
# batch market


def clear_batch_market(dataset: Dataset, task: TaskSpec,
                       support: Sequence[str] | None = None,
                       previously_billed: int = 0) -> MarketReport:
    """Run the batch regression market end to end.

    ``support`` restricts the tradeable features (screening output);
    ``previously_billed`` implements the sliding-window extension where
    only new rows are paid for.
    """
    ds, design = build_design(dataset, task)
    central, all_support = split_features(design, task)
    chosen = tuple(sorted(support)) if support is not None else all_support
    screened_out = tuple(sorted(set(all_support) - set(chosen)))
    owners = dict(design.feature_owners)
    phi = task.phi_insample
    billable = max(design.T - previously_billed, 0)

    if not chosen:
        report = _empty_report(task, "batch", design.T, owners, phi)
        report.audit = audit_ledger(report).to_dict()
        return report

    if has_mixed_terms(design, central, chosen):
        report = _batch_feature_game(design, ds.target, task, central, chosen,
                                     owners, billable)
    else:
        report = _batch_support_game(design, ds.target, task, central, chosen,
                                     owners, billable)
    report.screened_out = screened_out
    for k in screened_out:
        report.payments = {**report.payments, k: 0.0}
    report.flag_duplicates = task.flag_duplicates
    report.flag_dummies = task.flag_dummies
    report.audit = audit_ledger(report).to_dict()
    return report


def _batch_support_game(design, y, task: TaskSpec, central, support, owners,
                        billable) -> MarketReport:
    table = _fit_table(design, y, central=central, support=support,
                       spec=task.loss, cap=task.enumeration_cap)
    report = MarketReport(
        market="batch", central_agent=task.central_agent, rows=billable,
        phi=task.phi_insample, allocation_policy=task.allocation_policy,
        game="support-coalitions", support=support, feature_owners=owners,
        central_loss=table.central_loss, full_loss=table.full_loss,
        surplus=table.surplus,
        loss_table={coalition_key(c): v for c, v in sorted(
            table.losses.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))},
        notes={"max_jitter": max(f.jitter for f in table.fits.values())})
    pot = billable * task.loss_scale * task.phi_insample * table.surplus
    report.benchmark_payment = max(pot, 0.0)
    if table.surplus <= 0:
        report.no_surplus = True
        report.allocations = {k: 0.0 for k in support}
        _finalise_totals(report, {k: 0.0 for k in support}, owners)
        return report
    alloc = _batch_policy(table, task.allocation_policy)
    report.allocations = dict(alloc.values)
    report.support_share_sum = alloc.total
    report.central_share = 1.0 - alloc.total
    amounts = _pay_and_book(report, alloc.values, pot, owners,
                            task.central_agent, "batch", "batch")
    _finalise_totals(report, amounts, owners)
    return report


def _batch_policy(table: CoalitionLossTable, policy: str) -> AllocationVector:
    if policy in _POLICY_VARIANT:
        return shapley_allocation(table, _POLICY_VARIANT[policy])
    return loo_allocation(table, _LOO_VARIANT[policy])


def _batch_feature_game(design, y, task: TaskSpec, central, support, owners,
                        billable) -> MarketReport:
    """Feature-level game for designs with central/support interaction terms.

    Players are the unit feature, the central agent's features and the
    support features; the value of a coalition is the batch loss of the
    terms it can build.  Support agents receive their Shapley share of the
    improvement from the intercept-only model to the grand model.
    """
    players = (UNIT_PLAYER,) + tuple(sorted(central)) + tuple(support)
    if len(players) > task.enumeration_cap:
        raise EnumerationCapError(
            f"{len(players)} players exceed the enumeration cap "
            f"({task.enumeration_cap}); {CAP_REMEDY}")
    games = list(enumerate_coalitions(players))
    masks = np.array([[UNIT_PLAYER in S if t.kind == "intercept" else t.support <= S
                       for t in design.terms] for S in games])
    # the empty coalition sees no term: its loss is that of the zero forecast
    fitted = masks.any(axis=1)
    _, fits = fit_column_sets(design.values, y, masks[fitted], task.loss,
                              design.term_names)
    losses = iter(f.loss_star for f in fits)
    values = {S: next(losses) if ok else insample_loss(y, task.loss)
              for S, ok in zip(games, fitted)}
    central_loss = values[frozenset({UNIT_PLAYER} | central)]
    full_loss = values[frozenset(players)]
    base_loss = values[frozenset({UNIT_PLAYER})]
    game_total = values[frozenset()] - full_loss

    report = MarketReport(
        market="batch", central_agent=task.central_agent, rows=billable,
        phi=task.phi_insample, allocation_policy=task.allocation_policy,
        game="feature-game", support=support, feature_owners=owners,
        central_loss=central_loss, full_loss=full_loss,
        surplus=central_loss - full_loss,
        loss_table={coalition_key(c): v for c, v in sorted(
            values.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))},
        notes={"players": list(players), "game_total": game_total,
               "intercept_only_loss": base_loss})
    scale = billable * task.loss_scale * task.phi_insample
    report.benchmark_payment = max(scale * (central_loss - full_loss), 0.0)
    if game_total <= 0 or central_loss - full_loss <= 0:
        report.no_surplus = True
        report.allocations = {k: 0.0 for k in support}
        _finalise_totals(report, {k: 0.0 for k in support}, owners)
        return report
    # leave-one-out has no feature-game analogue; fall back to Shapley
    variant = _POLICY_VARIANT.get(task.allocation_policy, ORIGINAL)
    contribs, peaks = shapley_contributions(values, players, variant)
    snap = 1e-12 * max(1.0, abs(game_total))
    shares = {p: (0.0 if peaks[p] <= snap else contribs[p] / game_total)
              for p in players}
    report.allocations = {k: shares[k] for k in support}
    report.support_share_sum = math.fsum(shares[k] for k in support)
    report.central_share = 1.0 - report.support_share_sum
    pot = scale * (base_loss - full_loss)
    amounts = _pay_and_book(report, report.allocations, pot, owners,
                            task.central_agent, "batch", "batch")
    _finalise_totals(report, amounts, owners)
    return report


# ---------------------------------------------------------------------------
# online market


def run_online_market(dataset: Dataset, task: TaskSpec,
                      support: Sequence[str] | None = None) -> MarketReport:
    """Stream the dataset through per-coalition recursive estimators and pay
    per step from time-varying loss estimates and allocations."""
    ds, design = build_design(dataset, task)
    central, all_support = split_features(design, task)
    chosen = tuple(sorted(support)) if support is not None else all_support
    owners = dict(design.feature_owners)
    phi = task.phi_insample
    if not chosen:
        report = _empty_report(task, "online", design.T, owners, phi)
        report.audit = audit_ledger(report).to_dict()
        return report
    if has_mixed_terms(design, central, chosen):
        raise ParameterError(
            "online market requires a model without central/support interaction terms")

    X, y = design.values, ds.target
    coalitions = list(enumerate_coalitions(chosen))
    session, w = _start_session(design, X, y, central, coalitions, task)
    trace = session.stream(X[w:], y[w:])
    # allocate on the recursively maintained loss estimates: by the
    # linearity of Shapley values this equals exponential smoothing of
    # the per-step unnormalised contributions, and it avoids the heavy
    # tails that smoothing the normalised per-step shares would inject
    ewma = {c: trace.ewma[:, j] for j, c in enumerate(session.coalitions)}
    grand = frozenset(chosen)
    psi = step_allocations(ewma, chosen, _STEP_VARIANT[task.allocation_policy])
    surplus = ewma[frozenset()] - ewma[grand]
    pot = np.where(trace.ready, task.loss_scale * phi * np.maximum(surplus, 0.0), 0.0)
    amounts = pot[:, None] * np.column_stack([psi.values[k] for k in chosen])
    clamped = amounts < 0.0
    amounts[clamped] = 0.0

    report = MarketReport(
        market="online", central_agent=task.central_agent, rows=design.T - w,
        phi=phi, allocation_policy=task.allocation_policy,
        game="support-coalitions", support=chosen, feature_owners=owners,
        flag_duplicates=task.flag_duplicates, flag_dummies=task.flag_dummies,
        clamped_entries=int(clamped.sum()))
    _book_steps(report, list(range(w, design.T)), surplus, amounts, chosen, owners,
                task.central_agent)
    report.series["allocations"] = {k: psi.values[k].tolist() for k in chosen}

    final = session.ewma_losses()
    report.central_loss = final[frozenset()]
    report.full_loss = final[grand]
    report.surplus = report.central_loss - report.full_loss
    report.loss_table = {coalition_key(c): v for c, v in sorted(
        final.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))}
    report.allocations = {k: float(psi.values[k][-1]) for k in chosen}
    report.support_share_sum = math.fsum(report.allocations.values())
    report.benchmark_payment = math.fsum(pot.tolist())
    report.audit = audit_ledger(report).to_dict()
    return report


def _start_session(design, X, y, central, coalitions,
                   task: TaskSpec) -> tuple[OnlineSession, int]:
    """A session initialised by the task's policy, and its first streamed row."""
    session = OnlineSession(design, central, coalitions, task.lam, task.loss)
    if task.init_policy == WARM_START:
        w = task.warmup
        if w >= design.T:
            raise ParameterError("warm-up consumes the whole dataset")
        session.init_states(X[:w], y[:w], WARM_START, min_warm=w)
    else:
        w = 0
        session.init_states(None, None, ZERO_START)
    return session, w


# ---------------------------------------------------------------------------
# out-of-sample market


def run_oos_market(dataset: Dataset, task: TaskSpec, model_source: str = "batch",
                   support: Sequence[str] | None = None,
                   n_windows: int = 10) -> MarketReport:
    """Pay for genuine forecast accuracy over an evaluation period.

    ``model_source`` selects where coalition coefficients come from: a
    batch fit over the training rows, or an online session whose estimates
    evolve through the evaluation period (the forecast residual of each
    step is also its learning residual).
    """
    ds, design = build_design(dataset, task)
    central, all_support = split_features(design, task)
    chosen = tuple(sorted(support)) if support is not None else all_support
    owners = dict(design.feature_owners)
    phi = task.phi_oos
    if not chosen:
        report = _empty_report(task, "oos", design.T, owners, phi)
        report.audit = audit_ledger(report).to_dict()
        return report
    if has_mixed_terms(design, central, chosen):
        raise ParameterError(
            "out-of-sample market requires a model without central/support interaction terms")
    if model_source not in ("batch", "online"):
        raise ParameterError(f"unknown model source {model_source!r}")

    X, y = design.values, ds.target
    T = design.T
    train = task.train_rows if task.train_rows is not None else T // 2
    if model_source == "batch" and not 0 < train < T:
        raise ParameterError(f"training rows {train} must split the {T} available rows")
    grand = frozenset(chosen)
    variant_policy = task.oos_allocation_policy

    if model_source == "batch":
        eval_rows = np.arange(train, T)
        losses_by_coalition = _batch_oos_losses(design, X, y, train, central, chosen,
                                                task)
    else:
        eval_rows, losses_by_coalition = _online_oos_losses(
            design, X, y, central, chosen, task)
    n_eval = len(eval_rows)
    if n_eval < 1:
        raise ParameterError("no evaluation rows left for the out-of-sample market")

    scale = task.loss_scale * phi
    surplus = losses_by_coalition[frozenset()] - losses_by_coalition[grand]
    contribs, peaks = shapley_contributions(
        losses_by_coalition, chosen, _POLICY_VARIANT.get(variant_policy, ORIGINAL))
    positive = surplus > 0

    report = MarketReport(
        market="oos", central_agent=task.central_agent, rows=n_eval,
        phi=phi, allocation_policy=variant_policy, game="support-coalitions",
        support=chosen, feature_owners=owners,
        flag_duplicates=task.flag_duplicates, flag_dummies=task.flag_dummies,
        notes={"model_source": model_source, "horizon": task.horizon})

    amounts = np.column_stack([
        np.where(positive, np.maximum(contribs[k], 0.0), 0.0) * scale for k in chosen])
    _book_steps(report, [int(t) for t in eval_rows], surplus, amounts, chosen, owners,
                task.central_agent)
    report.clamped_entries = int(sum(
        int(np.sum(positive & (np.asarray(contribs[k]) < 0))) for k in chosen))

    psi_final = _oos_average_allocation(contribs, surplus, chosen)
    report.allocations = psi_final
    report.support_share_sum = math.fsum(psi_final.values())
    report.benchmark_payment = float(np.sum(np.maximum(surplus, 0.0)) * scale)
    report.central_loss = float(np.mean(losses_by_coalition[frozenset()]))
    report.full_loss = float(np.mean(losses_by_coalition[grand]))
    report.surplus = report.central_loss - report.full_loss
    report.metrics = _oos_metrics(losses_by_coalition, grand, n_windows)
    report.audit = audit_ledger(report).to_dict()
    return report


def _batch_oos_losses(design, X, y, train, central, support, task):
    train_design = AugmentedDesign(design.terms, X[:train], design.feature_owners)
    table = _fit_table(train_design, y[:train], central=central, support=support,
                       spec=task.loss, cap=task.enumeration_cap)
    losses = coalition_losses(table.coefficients, X[train:], y[train:], task.loss)
    return dict(zip(table.losses, losses))


def _online_oos_losses(design, X, y, central, support, task):
    coalitions = list(enumerate_coalitions(support))
    session, w = _start_session(design, X, y, central, coalitions, task)
    trace = session.stream(X[w:], y[w:])
    losses = trace.losses[trace.ready]
    return (np.arange(w, design.T)[trace.ready],
            {c: losses[:, j] for j, c in enumerate(session.coalitions)})


def _oos_average_allocation(contribs, surplus, support) -> dict[str, float]:
    """Period-level shares: summed paid contributions over summed surplus."""
    total = float(np.sum(np.maximum(surplus, 0.0)))
    if total <= 0:
        return {k: 0.0 for k in support}
    positive = surplus > 0
    return {k: float(np.sum(np.where(positive, np.maximum(contribs[k], 0.0), 0.0)) / total)
            for k in support}


def _oos_metrics(losses_by_coalition, grand, n_windows) -> dict:
    l_with = np.asarray(losses_by_coalition[grand])
    l_without = np.asarray(losses_by_coalition[frozenset()])
    n = l_with.size
    bounds = np.linspace(0, n, min(n_windows, n) + 1).astype(int)
    windows = []
    for i in range(len(bounds) - 1):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        windows.append({
            "start": lo, "end": hi,
            "with_support": float(np.mean(l_with[lo:hi])),
            "without_support": float(np.mean(l_without[lo:hi])),
        })
    return {
        "with_support": float(np.mean(l_with)),
        "without_support": float(np.mean(l_without)),
        "windows": windows,
    }


# ---------------------------------------------------------------------------
# audit


@dataclass
class AuditResult:
    checks: dict
    passed: bool

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": self.checks}


def audit_ledger(report: MarketReport) -> AuditResult:
    """Verify the market-design properties on a finished report."""
    checks: dict[str, dict] = {}

    ledger_total = math.fsum(e.amount for e in report.ledger)
    gap = abs(report.central_total - ledger_total)
    tol = 1e-9 * max(abs(report.central_total), 1e-12)
    checks["budget_balance"] = {
        "passed": bool(gap <= tol),
        "central_total": report.central_total,
        "ledger_total": ledger_total,
        "shortfall_vs_benchmark": report.benchmark_payment - report.central_total,
    }

    min_amount = min((e.amount for e in report.ledger), default=0.0)
    neg_payments = [k for k, v in report.payments.items() if v < 0]
    checks["individual_rationality"] = {
        "passed": bool(min_amount >= 0.0 and not neg_payments),
        "min_ledger_amount": min_amount,
    }

    recomputed: dict[str, float] = {}
    for k in sorted(report.payments):
        if k in report.feature_owners:
            agent_feats = recomputed.setdefault(report.feature_owners[k], [])
            agent_feats.append(k)
    per_agent = {a: math.fsum(report.payments[k] for k in feats)
                 for a, feats in sorted(recomputed.items())}
    additivity_ok = all(per_agent.get(a, 0.0) == v for a, v in report.per_agent.items())
    checks["per_agent_additivity"] = {"passed": bool(additivity_ok)}

    if report.flag_duplicates:
        worst = 0.0
        for group in report.flag_duplicates:
            pays = [report.payments.get(k, 0.0) for k in group]
            worst = max(worst, max(pays) - min(pays))
        ref = max(abs(v) for v in report.payments.values()) if report.payments else 1.0
        checks["symmetry"] = {"passed": bool(worst <= 1e-9 * max(ref, 1.0)),
                              "max_gap": worst}

    if report.flag_dummies:
        dummy_pay = {k: report.payments.get(k, 0.0) for k in report.flag_dummies}
        checks["zero_element"] = {
            "passed": bool(all(v == 0.0 for v in dummy_pay.values())),
            "payments": dummy_pay,
        }
    if report.screened_out:
        screened_pay = {k: report.payments.get(k, 0.0) for k in report.screened_out}
        ok = all(v == 0.0 for v in screened_pay.values())
        entry = checks.setdefault("zero_element", {"passed": True, "payments": {}})
        entry["passed"] = bool(entry["passed"] and ok)
        entry["payments"].update(screened_pay)

    passed = all(c["passed"] for c in checks.values())
    return AuditResult(checks=checks, passed=passed)


# ---------------------------------------------------------------------------
# serialization


def report_to_json(report: MarketReport, path) -> None:
    """Write ``report.to_dict()`` to ``path`` as ``report.json``.

    Byte-format contract: the file is exactly
    ``json.dumps(report.to_dict(), indent=1, sort_keys=True) + "\\n"`` --
    a one-space indent per level, keys sorted at every level, ``","`` and
    ``": "`` as separators, non-ASCII characters as ``\\uXXXX`` escapes,
    floats by ``repr`` with ``NaN``, ``Infinity`` and ``-Infinity`` for the
    non-finite ones, and ``[]``/``{}`` for empty containers.  The pieces
    are streamed to the file, so the text is never held as one string.
    """
    with open(path, "w") as fh:
        fh.writelines(_iter_json(report.to_dict(), 0))
        fh.write("\n")


_CONTAINERS = (dict, list, tuple)


def _iter_json(obj, level: int):
    """Yield the pieces of ``json.dumps(obj, indent=1, sort_keys=True)``
    for ``obj`` at indent ``level``.

    A container of scalars goes to the C encoder in one call, with the
    newline and indent of its items in the item separator; only
    containers that hold containers are walked here, item by item, and
    their keys must be strings, as every key of a report is.
    """
    if not isinstance(obj, _CONTAINERS):
        yield json.dumps(obj)
        return
    is_dict = isinstance(obj, dict)
    if not obj:
        yield "{}" if is_dict else "[]"
        return
    inner = "\n" + " " * (level + 1)
    close = "\n" + " " * level + ("}" if is_dict else "]")
    items = obj.values() if is_dict else obj
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, items))):
        text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
        yield text[0] + inner
        yield text[1:-1]
        yield close
        return
    sep = ("{" if is_dict else "[") + inner
    if is_dict:
        for key, value in sorted(obj.items()):
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _iter_json(value, level + 1)
            sep = "," + inner
    else:
        for value in obj:
            yield sep
            yield from _iter_json(value, level + 1)
            sep = "," + inner
    yield close


def _csv_cells(*cells: str) -> str:
    """Cells quoted and joined as ``csv.writer`` writes them inside a row,
    without the line end."""
    buf = io.StringIO()
    # a row of one empty cell would be written as '""'; the extra empty
    # cell keeps every cell's own quoting and is cut off with its comma
    csv.writer(buf).writerow(cells + ("",))
    return buf.getvalue()[:-3]


def write_ledger_csv(report: MarketReport, path) -> None:
    """Write the ledger: one row per entry, amounts by ``repr``, CRLF line
    ends.  The quoted text cells are made once per distinct combination."""
    quoted: dict[tuple, tuple[str, str]] = {}
    rows = []
    for e in report.ledger:
        key = (e.payer, e.payee, e.feature, e.market)
        cells = quoted.get(key)
        if cells is None:
            cells = quoted[key] = (_csv_cells(*key[:3]), _csv_cells(e.market))
        time = _csv_cells(e.time) if isinstance(e.time, str) else e.time
        rows.append(f"{time},{cells[0]},{e.amount!r},{cells[1]}\r\n")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["time", "payer", "payee", "feature", "amount", "market"])
        fh.write("".join(rows))


def write_cumulative_csv(report: MarketReport, path) -> None:
    """Write per-step payments and running totals in long format.

    Rows are ``step,agent,feature,amount,cumulative`` with CRLF line ends
    and floats by ``repr``, grouped by feature in sorted order, one per
    (integer) step; a report with no per-step series has one ``batch`` row
    per feature in ``payments``.  The quoted ``agent,feature`` cells are
    made once per feature.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "agent", "feature", "amount", "cumulative"])
        series = report.series
        if series and "payments" in series:
            steps = series["step"]
            for k in sorted(series["payments"]):
                cells = _csv_cells(report.feature_owners.get(k, ""), k)
                fh.write("".join([f"{t},{cells},{p!r},{c!r}\r\n" for t, p, c in zip(
                    steps, series["payments"][k], series["cumulative"][k])]))
        else:
            running = 0.0
            for k in sorted(report.payments):
                running += report.payments[k]
                writer.writerow(["batch", report.feature_owners.get(k, ""), k,
                                 repr(report.payments[k]), repr(running)])


def write_loss_table_csv(report: MarketReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coalition", "loss"])
        for key, value in report.loss_table.items():
            writer.writerow([key, repr(value)])
