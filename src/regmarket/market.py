"""Market mechanisms: batch, online and out-of-sample regression markets.

A central agent posts a task (model recipe, loss, willingness to pay phi)
and support agents' features are valued by coalition analysis.  The three
markets are one pipeline:

1. design: the task's recipe applied to the dataset, split into central,
   traded and screened-out support features (``_prepare``);
2. loss series per coalition: one batch loss per coalition, the EWMA
   losses of an online session per step, or realised out-of-sample losses
   per evaluation step;
3. allocation: a pre-clamp ``(steps, features)`` payment matrix,

       pi_k = (billable rows) * surplus * phi * psi_k       (batch, one row)
       pi_{k,t} = surplus_t * phi * psi_{k,t}               (online)
       pi_{k,t} = phi * c_{k,t} where surplus_t > 0         (out-of-sample)

   with the surplus measured by loss improvement, psi the shares and c the
   unnormalised contributions of the allocation policy;
4. clamp and book, then audit (``_settle``): per-feature payments are
   clamped at zero (individual rationality), positive amounts become
   ledger entries, and the central agent's debit is defined as the sum of
   the support credits (budget balance).  The audit then checks the
   market-design properties on the finished report.

The pre-clamp full-surplus amount is always reported as a benchmark so
discrepancies (e.g. the interaction-term shortfall on non-separable
models) are visible.

For separable models the coalition game runs over support features on top
of the central agent's model (the classic Shapley allocation).  When the
design mixes central and support features inside one term, the batch
market switches to a feature-level game in which the central agent's
features, including its unit feature, are players as well: the support
agents are then paid their share of the intercept-to-grand improvement and
the central agent's own share appears as an explicit shortfall.  The
online and out-of-sample markets require a separable model.
"""

from __future__ import annotations

import csv
import io
import json
import math
import weakref
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from typing import Mapping

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
    step_contributions,
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
from .errors import EnumerationCapError, FeatureLookupError, ParameterError
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


LEDGER_COLUMNS = tuple(f.name for f in fields(LedgerEntry))


class Ledger(Sequence):
    """The ledger as one list per :class:`LedgerEntry` field.

    It reads as a sequence of ``LedgerEntry`` values, built only when an
    entry is read: ``len``, iteration, indexing, and slicing, which returns
    a list.  It compares equal to a list of the same entries.  Markets
    book into the columns directly; :meth:`append` books one entry.
    """

    __slots__ = LEDGER_COLUMNS

    def __init__(self, entries: Iterable[LedgerEntry] = ()):
        for name in LEDGER_COLUMNS:
            setattr(self, name, [])
        for entry in entries:
            self.append(entry)

    def append(self, entry: LedgerEntry) -> None:
        for name in LEDGER_COLUMNS:
            getattr(self, name).append(getattr(entry, name))

    def extend_columns(self, time: Sequence, payer: Sequence, payee: Sequence,
                       feature: Sequence, amount: Sequence, market: Sequence) -> None:
        """Book many entries at once, given one sequence per column."""
        columns = (time, payer, payee, feature, amount, market)
        if len(set(map(len, columns))) > 1:
            raise ParameterError("ledger columns must have equal lengths")
        for col, values in zip(self._columns(), columns):
            col.extend(values)

    def _columns(self) -> list[list]:
        return [getattr(self, name) for name in LEDGER_COLUMNS]

    def __len__(self) -> int:
        return len(self.amount)

    def __iter__(self):
        return map(LedgerEntry, *self._columns())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(LedgerEntry, *(col[index] for col in self._columns())))
        return LedgerEntry(*(col[index] for col in self._columns()))

    def __eq__(self, other):
        if isinstance(other, (Ledger, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Ledger({list(self)!r})"


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
    ledger: Ledger = field(default_factory=Ledger)
    screened_out: tuple[str, ...] = ()
    no_surplus: bool = False
    clamped_entries: int = 0
    notes: dict = field(default_factory=dict)
    flag_duplicates: tuple[tuple[str, ...], ...] = ()
    flag_dummies: tuple[str, ...] = ()
    audit: dict | None = None
    schema_version: int = SCHEMA_VERSION

    def __setattr__(self, name, value):
        # a ledger given as a list of entries, at construction or later,
        # is stored as columns
        if name == "ledger" and not isinstance(value, Ledger):
            value = Ledger(value)
        super().__setattr__(name, value)

    def to_dict(self) -> dict:
        """The report as JSON data, with the ledger as one list per column.

        The result is a new top-level dict with new lists for the tuple
        fields and a new dict of the ledger's column lists; every other
        container (``series``, ``metrics``, ``notes``, ``audit``, the
        per-feature mappings, the column lists) is the report's own object,
        shared rather than copied.  Copy before mutating it.
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["support"] = list(self.support)
        out["screened_out"] = list(self.screened_out)
        out["flag_duplicates"] = [list(g) for g in self.flag_duplicates]
        out["flag_dummies"] = list(self.flag_dummies)
        out["ledger"] = dict(zip(LEDGER_COLUMNS, self.ledger._columns()))
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


def _prepare(dataset: Dataset, task: TaskSpec, support: Sequence[str] | None):
    """The prologue every market shares: the dataset and design built from
    the task, the central features, the traded support features (those in
    ``support``, or all of them), the screened-out ones, and the owners."""
    ds, design = build_design(dataset, task)
    central, all_support = split_features(design, task)
    unknown = sorted(set(support or ()) - set(all_support))
    if unknown:
        raise FeatureLookupError(f"support names {unknown}, which are not support features "
                                 f"of the task: {list(all_support)}")
    chosen = tuple(sorted(support)) if support is not None else all_support
    screened_out = tuple(sorted(set(all_support) - set(chosen)))
    return ds, design, central, chosen, screened_out, dict(design.feature_owners)


def _require_separable(design, central, support, market: str) -> None:
    if has_mixed_terms(design, central, support):
        raise ParameterError(
            f"{market} market requires a model without central/support interaction terms")


def _loss_table(losses: Mapping[frozenset, float]) -> dict[str, float]:
    """Coalition losses keyed by :func:`coalition_key`, smallest coalitions first."""
    return {coalition_key(c): v for c, v in sorted(
        losses.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))}


def fit_all_coalitions(dataset: Dataset, task: TaskSpec,
                       support: Sequence[str] | None = None) -> CoalitionLossTable:
    """Task-level wrapper: build the design, then fit every coalition."""
    ds, design, central, chosen, _, _ = _prepare(dataset, task, support)
    return _fit_table(design, ds.target, central=central, support=chosen,
                      spec=task.loss, cap=task.enumeration_cap)


# ---------------------------------------------------------------------------
# screening


def screen_features(dataset: Dataset, task: TaskSpec, method: str = "cv-loss",
                    folds: int = 5, burnin: int = 500) -> tuple[str, ...]:
    """Pre-market feature selection; returns the retained support features."""
    ds, design, central, support, _, _ = _prepare(dataset, task, None)
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
# settlement


def _settle(report: MarketReport, task: TaskSpec, amounts: np.ndarray, times: list,
            surplus: np.ndarray | None = None) -> MarketReport:
    """Clamp, book, total and audit a ``(steps, features)`` matrix of
    pre-clamp payments, one column per feature of ``report.support``.

    Strictly negative amounts count as clamped, and every amount that is
    not positive is paid as ``0.0``.  Positive amounts become ledger
    entries in time, then feature order, tagged with ``times``.  Given the
    per-step ``surplus``, the report gets the per-step series.  Each
    feature is paid the exact sum of its column, a screened-out feature
    zero, and the central agent is debited the sum of the support credits.
    The task's flags are copied before the audit.
    """
    features, owners = report.support, report.feature_owners
    report.clamped_entries = int(np.count_nonzero(amounts < 0.0))
    paid = np.where(amounts <= 0.0, 0.0, amounts)
    pay_series = {k: paid[:, j].tolist() for j, k in enumerate(features)}
    rows, cols = np.nonzero(paid > 0.0)
    n = len(rows)
    # object arrays gather references: the ledger's times and amounts are
    # the series' own int and float objects, one copy in memory, not two
    report.ledger.extend_columns(
        time=np.array(times, dtype=object)[rows].tolist(), payer=[task.central_agent] * n,
        payee=np.array([owners[k] for k in features], dtype=object)[cols].tolist(),
        feature=np.array(features, dtype=object)[cols].tolist(),
        amount=np.array(list(pay_series.values()), dtype=object)[cols, rows].tolist(),
        market=[report.market] * n)
    if surplus is not None:
        report.series.update({
            "step": times,
            "surplus": surplus.tolist(),
            "central_payment": [math.fsum(row) for row in zip(*pay_series.values())],
            "payments": pay_series,
            "cumulative": {k: np.cumsum(v).tolist() for k, v in pay_series.items()},
        })
    report.payments = {k: math.fsum(v) for k, v in pay_series.items()}
    agent_feats: dict[str, list[str]] = {}
    for k in features:
        agent_feats.setdefault(owners[k], []).append(k)
    report.per_agent = {a: math.fsum(report.payments[k] for k in feats)
                        for a, feats in sorted(agent_feats.items())}
    report.central_total = math.fsum(report.payments.values())
    report.payments.update(dict.fromkeys(report.screened_out, 0.0))
    report.flag_duplicates = task.flag_duplicates
    report.flag_dummies = task.flag_dummies
    report.audit = audit_ledger(report).to_dict()
    return report


def _empty_report(task: TaskSpec, market: str, rows: int, owners, phi,
                  policy: str) -> MarketReport:
    """The audited report of a market with no support feature to trade."""
    report = MarketReport(market=market, central_agent=task.central_agent, rows=rows,
                          phi=phi, allocation_policy=policy,
                          game="none", support=(), feature_owners=dict(owners),
                          notes={"reason": "no support features"})
    report.audit = audit_ledger(report).to_dict()
    return report


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
    ds, design, central, chosen, screened_out, owners = _prepare(dataset, task, support)
    if not chosen:
        return _empty_report(task, "batch", design.T, owners, task.phi_insample,
                             task.allocation_policy)
    billable = max(design.T - previously_billed, 0)
    game = (_batch_feature_game if has_mixed_terms(design, central, chosen)
            else _batch_support_game)
    report, pot = game(design, ds.target, task, central, chosen, owners, billable)
    report.screened_out = screened_out
    return _settle(report, task, np.array([[pot * report.allocations[k] for k in chosen]]),
                   ["batch"])


def _batch_support_game(design, y, task: TaskSpec, central, support, owners,
                        billable) -> tuple[MarketReport, float]:
    """The report of the coalition game over support features, allocated,
    and the pot its shares are paid from."""
    table = _fit_table(design, y, central=central, support=support,
                       spec=task.loss, cap=task.enumeration_cap)
    report = MarketReport(
        market="batch", central_agent=task.central_agent, rows=billable,
        phi=task.phi_insample, allocation_policy=task.allocation_policy,
        game="support-coalitions", support=support, feature_owners=owners,
        central_loss=table.central_loss, full_loss=table.full_loss,
        surplus=table.surplus, loss_table=_loss_table(table.losses),
        notes={"max_jitter": max(f.jitter for f in table.fits.values())})
    pot = billable * task.loss_scale * task.phi_insample * table.surplus
    report.benchmark_payment = max(pot, 0.0)
    if table.surplus <= 0:
        report.no_surplus = True
        report.allocations = dict.fromkeys(support, 0.0)
        return report, 0.0
    alloc = _batch_policy(table, task.allocation_policy)
    report.allocations = dict(alloc.values)
    report.support_share_sum = alloc.total
    report.central_share = 1.0 - alloc.total
    return report, pot


def _batch_policy(table: CoalitionLossTable, policy: str) -> AllocationVector:
    if policy in _POLICY_VARIANT:
        return shapley_allocation(table, _POLICY_VARIANT[policy])
    return loo_allocation(table, _LOO_VARIANT[policy])


def _batch_feature_game(design, y, task: TaskSpec, central, support, owners,
                        billable) -> tuple[MarketReport, float]:
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
        surplus=central_loss - full_loss, loss_table=_loss_table(values),
        notes={"players": list(players), "game_total": game_total,
               "intercept_only_loss": base_loss})
    scale = billable * task.loss_scale * task.phi_insample
    report.benchmark_payment = max(scale * (central_loss - full_loss), 0.0)
    if game_total <= 0 or central_loss - full_loss <= 0:
        report.no_surplus = True
        report.allocations = dict.fromkeys(support, 0.0)
        return report, 0.0
    # leave-one-out has no feature-game analogue; fall back to Shapley
    variant = _POLICY_VARIANT.get(task.allocation_policy, ORIGINAL)
    contribs, peaks = shapley_contributions(values, players, variant)
    snap = 1e-12 * max(1.0, abs(game_total))
    shares = {p: (0.0 if peaks[p] <= snap else contribs[p] / game_total)
              for p in players}
    report.allocations = {k: shares[k] for k in support}
    report.support_share_sum = math.fsum(shares[k] for k in support)
    report.central_share = 1.0 - report.support_share_sum
    return report, scale * (base_loss - full_loss)


# ---------------------------------------------------------------------------
# online market


def run_online_market(dataset: Dataset, task: TaskSpec,
                      support: Sequence[str] | None = None) -> MarketReport:
    """Stream the dataset through per-coalition recursive estimators and pay
    per step from time-varying loss estimates and allocations."""
    ds, design, central, chosen, screened_out, owners = _prepare(dataset, task, support)
    phi = task.phi_insample
    if not chosen:
        return _empty_report(task, "online", design.T, owners, phi, task.allocation_policy)
    _require_separable(design, central, chosen, "online")

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
    final = session.ewma_losses()
    report = MarketReport(
        market="online", central_agent=task.central_agent, rows=design.T - w,
        phi=phi, allocation_policy=task.allocation_policy,
        game="support-coalitions", support=chosen, feature_owners=owners,
        screened_out=screened_out, central_loss=final[frozenset()],
        full_loss=final[grand], surplus=final[frozenset()] - final[grand],
        loss_table=_loss_table(final), benchmark_payment=math.fsum(pot.tolist()),
        allocations={k: float(psi.values[k][-1]) for k in chosen},
        series={"allocations": {k: psi.values[k].tolist() for k in chosen}})
    report.support_share_sum = math.fsum(report.allocations.values())
    amounts = pot[:, None] * np.column_stack([psi.values[k] for k in chosen])
    return _settle(report, task, amounts, list(range(w, design.T)), surplus)


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
    step is also its learning residual).  Each step with a positive
    realised surplus pays every feature its contribution under
    ``task.oos_allocation_policy``, clamped at zero.
    """
    ds, design, central, chosen, screened_out, owners = _prepare(dataset, task, support)
    phi = task.phi_oos
    if not chosen:
        return _empty_report(task, "oos", design.T, owners, phi, task.oos_allocation_policy)
    _require_separable(design, central, chosen, "out-of-sample")
    if model_source not in ("batch", "online"):
        raise ParameterError(f"unknown model source {model_source!r}")

    X, y = design.values, ds.target
    T = design.T
    train = task.train_rows if task.train_rows is not None else T // 2
    if model_source == "batch" and not 0 < train < T:
        raise ParameterError(f"training rows {train} must split the {T} available rows")
    if model_source == "batch":
        eval_rows = np.arange(train, T)
        losses_by_coalition = _batch_oos_losses(design, X, y, train, central, chosen,
                                                task)
    else:
        eval_rows, losses_by_coalition = _online_oos_losses(
            design, X, y, central, chosen, task)
    if len(eval_rows) < 1:
        raise ParameterError("no evaluation rows left for the out-of-sample market")

    grand = frozenset(chosen)
    scale = task.loss_scale * phi
    surplus = losses_by_coalition[frozenset()] - losses_by_coalition[grand]
    contribs, _ = step_contributions(losses_by_coalition, chosen,
                                     _STEP_VARIANT[task.oos_allocation_policy])
    paid = {k: np.where(surplus > 0, contribs[k], 0.0) for k in chosen}
    # period-level shares: summed paid contributions over summed surplus
    total = float(np.sum(np.maximum(surplus, 0.0)))
    shares = {k: float(np.sum(np.maximum(paid[k], 0.0))) / total if total > 0 else 0.0
              for k in chosen}
    report = MarketReport(
        market="oos", central_agent=task.central_agent, rows=len(eval_rows),
        phi=phi, allocation_policy=task.oos_allocation_policy, game="support-coalitions",
        support=chosen, feature_owners=owners, screened_out=screened_out,
        allocations=shares, support_share_sum=math.fsum(shares.values()),
        benchmark_payment=total * scale,
        central_loss=float(np.mean(losses_by_coalition[frozenset()])),
        full_loss=float(np.mean(losses_by_coalition[grand])),
        metrics=_oos_metrics(losses_by_coalition, grand, n_windows),
        notes={"model_source": model_source})
    report.surplus = report.central_loss - report.full_loss
    amounts = np.column_stack([paid[k] for k in chosen]) * scale
    return _settle(report, task, amounts, [int(t) for t in eval_rows], surplus)


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

    ledger_total = math.fsum(report.ledger.amount)
    gap = abs(report.central_total - ledger_total)
    tol = 1e-9 * max(abs(report.central_total), 1e-12)
    checks["budget_balance"] = {
        "passed": bool(gap <= tol),
        "central_total": report.central_total,
        "ledger_total": ledger_total,
        "shortfall_vs_benchmark": report.benchmark_payment - report.central_total,
    }

    min_amount = min(report.ledger.amount, default=0.0)
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

    Byte-format contract, unchanged by how the writer gets there: the file
    is exactly ``json.dumps(report.to_dict(), indent=1, sort_keys=True) +
    "\\n"`` -- a one-space indent per level, keys sorted at every level,
    ``","`` and ``": "`` as separators, non-ASCII characters as ``\\uXXXX``
    escapes, floats by ``repr`` with ``NaN``, ``Infinity`` and
    ``-Infinity`` for the non-finite ones, and ``[]``/``{}`` for empty
    containers.  The ledger is written as one list per column.  The pieces
    are streamed to the file, so the text is never held as one string.

    The float lists that a CSV file writes as well (the series' payments
    and cumulative payments, the ledger's amounts) are formatted once, for
    this file and the CSV writers together (see :func:`_report_texts`).
    """
    texts = _report_texts(report)
    shared = [report.ledger.amount]
    for name in ("payments", "cumulative"):
        group = report.series.get(name)
        if isinstance(group, dict):
            shared += group.values()
    for values in shared:
        if _is_float_list(values):
            _float_text(values, texts)
    with open(path, "w") as fh:
        fh.writelines(_iter_json(report.to_dict(), 0, texts))
        fh.write("\n")


# The float texts of the report written last: (weak reference to it, texts).
_last_written: tuple[weakref.ref, dict[bytes, str]] | None = None


def _report_texts(report: MarketReport) -> dict[bytes, str]:
    """The memo of float-list texts for ``report``.

    It maps the float64 bytes of a list whose items are all exactly
    ``float`` to ``"\\n".join(map(repr, values))``.  Only the report
    written last keeps its memo: writing another report starts a new one,
    and the texts are dropped when their report is garbage-collected.  The
    memo holds no reference to the report or its lists, and as it is keyed
    by content, a list changed in place gets a new text, never a stale one.
    """
    global _last_written
    memo = _last_written
    if memo is None or memo[0]() is not report:
        texts: dict[bytes, str] = {}
        memo = _last_written = (weakref.ref(report, lambda _: texts.clear()), texts)
    return memo[1]


def _is_float_list(values) -> bool:
    """Whether ``values`` is a non-empty list whose items are all exactly
    ``float``: only such a list has its text in the memo, because an
    ``int`` has the float64 bytes of its float but not its text."""
    return isinstance(values, list) and bool(values) and set(map(type, values)) == {float}


def _float_text(values: list, texts: dict[bytes, str]) -> str:
    """``"\\n".join(map(repr, values))`` for a list of floats, made once
    per content and kept in ``texts``."""
    key = np.array(values, dtype=float).tobytes()
    text = texts.get(key)
    if text is None:
        text = texts[key] = "\n".join(map(repr, values))
    return text


def _repr_lines(values, texts: dict[bytes, str]) -> list[str]:
    """``[repr(v) for v in values]``, from the memo for a list of floats."""
    if _is_float_list(values):
        return _float_text(values, texts).split("\n")
    return [repr(v) for v in values]


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(text: str, sep: str) -> str:
    """The items of a ``"\\n"``-joined float text, joined by ``sep`` and
    spelled as JSON spells them."""
    # finite reprs hold only digits, ".", "-", "+" and "e"; nan and inf hold an "n"
    if "n" not in text:
        return text.replace("\n", sep)
    return sep.join([_JSON_NONFINITE.get(item, item) for item in text.split("\n")])


_CONTAINERS = (dict, list, tuple)
# rows of a CSV file joined for one write: the text of all rows at once
# would cost as much memory again as the float texts
ROWS_PER_WRITE = 4096


def _iter_json(obj, level: int, texts: dict[bytes, str] | None = None):
    """Yield the pieces of ``json.dumps(obj, indent=1, sort_keys=True)``
    for ``obj`` at indent ``level``.

    A container of scalars is made in one step: from its text in the memo
    ``texts`` for a list of floats that has one, otherwise by the C encoder
    in one call, with the newline and indent of its items in the item
    separator.  Only containers that hold containers are walked here, item
    by item, and their keys must be strings, as every key of a report is.
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
    types = set(map(type, items))
    text = None
    if texts and not is_dict and types == {float}:
        text = texts.get(np.array(obj, dtype=float).tobytes())
    if text is not None:
        yield "[" + inner
        yield _json_floats(text, "," + inner)
        yield close
        return
    if not any(issubclass(t, _CONTAINERS) for t in types):
        text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
        yield text[0] + inner
        yield text[1:-1]
        yield close
        return
    sep = ("{" if is_dict else "[") + inner
    if is_dict:
        for key, value in sorted(obj.items()):
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _iter_json(value, level + 1, texts)
            sep = "," + inner
    else:
        for value in obj:
            yield sep
            yield from _iter_json(value, level + 1, texts)
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
    ends.  The quoted text cells are made once per distinct combination,
    the amounts come from the float texts ``report_to_json`` made, and
    the rows are written in blocks of ``ROWS_PER_WRITE``."""
    ledger = report.ledger
    columns = (ledger.time, ledger.payer, ledger.payee, ledger.feature,
               _repr_lines(ledger.amount, _report_texts(report)), ledger.market)
    quoted: dict[tuple, tuple[str, str]] = {}
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["time", "payer", "payee", "feature", "amount", "market"])
        for lo in range(0, len(ledger), ROWS_PER_WRITE):
            rows = []
            for time, payer, payee, feature, amount, market in zip(
                    *(col[lo:lo + ROWS_PER_WRITE] for col in columns)):
                key = (payer, payee, feature, market)
                cells = quoted.get(key)
                if cells is None:
                    cells = quoted[key] = (_csv_cells(payer, payee, feature),
                                           _csv_cells(market))
                if isinstance(time, str):
                    time = _csv_cells(time)
                rows.append(f"{time},{cells[0]},{amount},{cells[1]}\r\n")
            fh.write("".join(rows))


def write_cumulative_csv(report: MarketReport, path) -> None:
    """Write per-step payments and running totals in long format.

    Rows are ``step,agent,feature,amount,cumulative`` with CRLF line ends
    and floats by ``repr``, grouped by feature in sorted order, one per
    (integer) step; a report with no per-step series has one ``batch`` row
    per feature in ``payments``.  The quoted ``agent,feature`` cells are
    made once per feature, the floats come from the texts
    ``report_to_json`` made, and the rows are written in blocks of
    ``ROWS_PER_WRITE``.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "agent", "feature", "amount", "cumulative"])
        series = report.series
        if series and "payments" in series:
            texts = _report_texts(report)
            steps = series["step"]
            for k in sorted(series["payments"]):
                cells = _csv_cells(report.feature_owners.get(k, ""), k)
                pays = _repr_lines(series["payments"][k], texts)
                running = _repr_lines(series["cumulative"][k], texts)
                for lo in range(0, len(steps), ROWS_PER_WRITE):
                    block = slice(lo, lo + ROWS_PER_WRITE)
                    fh.write("".join([f"{t},{cells},{p},{c}\r\n" for t, p, c in zip(
                        steps[block], pays[block], running[block])]))
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
