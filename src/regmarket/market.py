"""Market mechanisms: batch, online and out-of-sample regression markets.

A central agent posts a task (model recipe, loss, willingness to pay phi)
and support agents' features are valued by coalition analysis, exact over
every coalition of the traded features.  The three markets are one
pipeline:

1. design: the task's recipe applied to the dataset, split into central,
   traded and screened-out support features (``_prepare``); the traded
   ones are given, or those :func:`screen_features` retains by 5-fold
   cross-validation;
2. loss series per coalition: one batch loss per coalition, the EWMA
   losses of an online session per step, or realised out-of-sample losses
   per evaluation step;
3. allocation: a pre-clamp ``(steps, features)`` payment matrix,

       pi_k = (billable rows) * surplus * phi * psi_k       (batch, one row)
       pi_{k,t} = surplus_t * phi * psi_{k,t}               (online)
       pi_{k,t} = phi * c_{k,t} where surplus_t > 0         (out-of-sample)

   with the surplus measured by loss improvement, psi the shares and c the
   unnormalised contributions of the allocation policy.  Batch and online
   shares come from one call (``_allocate_and_pay``): the batch market is
   its one-step case, with a scalar loss per coalition and a scalar pot;
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

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

from .allocation import (
    ADD_ONE,
    DROP_ONE,
    POLICY_VARIANT,
    step_allocations,
    step_contributions,
)
from .batch import (
    CAP_REMEDY,
    CoalitionLossTable,
    check_enumeration_cap,
    coalition_losses,
    coalition_masks,
    enumerate_coalitions,
    fit_all_coalitions as _fit_table,
    fit_column_sets,
    solve_column_sets,
)
from .data import AugmentedDesign, Dataset, is_integer, make_lags, polynomial_expand
from .errors import EnumerationCapError, FeatureLookupError, ParameterError
from .losses import LossSpec, insample_loss
from .online import WARM_START, ZERO_START, OnlineSession, SessionTrace

SCHEMA_VERSION = 1
UNIT_PLAYER = "__unit__"
SCREEN_FOLDS = 5


@dataclass(frozen=True)
class TaskSpec:
    """Everything a central agent declares when posting a regression task."""

    # cli.READERS lists the markets that read each field a config may leave out
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
        # a NaN fails every comparison, so each test is for the accepted range
        if not (0.0 <= self.phi_insample < math.inf and 0.0 <= self.phi_oos < math.inf):
            raise ParameterError("willingness to pay must be finite and >= 0")
        for name in ("warmup", "degree", "enumeration_cap", "train_rows"):
            value = getattr(self, name)
            if not (is_integer(value) or name == "train_rows" and value is None):
                raise ParameterError(f"{name} must be an integer, not {value!r}")
        if not self.warmup >= 0:
            raise ParameterError("warm-up must be >= 0 rows")
        if not 0.0 < self.lam <= 1.0:
            raise ParameterError("forgetting factor must lie in (0, 1]")
        if self.allocation_policy not in POLICY_VARIANT:
            raise ParameterError(f"unknown allocation policy {self.allocation_policy!r}")
        if self.oos_allocation_policy not in POLICY_VARIANT:
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
NAME_COLUMNS = ("payer", "payee", "feature", "market")


@dataclass(eq=False)
class _Book:
    """A ledger as arrays: the payments ``paid``, one row per step of
    ``steps`` and one column per ``(payer, payee, feature, market)`` row of
    ``names``, and one entry per pair of ``rows`` and ``codes``, the step
    row and the name row of the entry's amount.

    :func:`_settle` books the clamped ``(T, K)`` payments, one name row per
    feature, and an entry for each positive payment.  A ledger given as
    entries (:meth:`of`) is booked with one step row per entry, its times
    an object column, and one name row per distinct name tuple."""

    names: tuple[tuple[str, str, str, str], ...]
    steps: np.ndarray
    paid: np.ndarray
    rows: np.ndarray
    codes: np.ndarray

    @classmethod
    def of(cls, entries: Iterable[LedgerEntry]) -> _Book:
        entries = list(entries)
        odd = [e.amount for e in entries if not isinstance(e.amount, float)]
        if odd:
            raise ParameterError(f"a ledger amount must be a float, not {odd[0]!r}")
        names: dict[tuple, int] = {}
        codes = np.array([names.setdefault((e.payer, e.payee, e.feature, e.market), len(names))
                          for e in entries], dtype=np.intp)
        rows = np.arange(len(entries))
        paid = np.zeros((len(entries), len(names)))
        paid[rows, codes] = [e.amount for e in entries]
        return cls(tuple(names), np.fromiter((e.time for e in entries), object, len(entries)),
                   paid, rows, codes)

    def gather(self, name: str, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Ledger column ``name`` of entries ``lo`` to ``hi``, as a new array."""
        rows = self.rows[lo:hi]
        if name == "time":
            return self.steps[rows]
        if name == "amount":
            return self.paid[rows, self.codes[lo:hi]]
        j = NAME_COLUMNS.index(name)
        return self.by_code((row[j] for row in self.names), lo, hi)

    def by_code(self, texts: Iterable, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """One of ``texts``, given per name row, for each of entries ``lo``
        to ``hi``, by its code, as a new object array."""
        return np.fromiter(texts, object, len(self.names))[self.codes[lo:hi]]


class Ledger(Sequence):
    """The ledger, booked as columns (``_Book``).

    It reads as a sequence of :class:`LedgerEntry` values of Python
    scalars, each built when it is read: ``len``, iteration, indexing, and
    slicing, which returns a list.  It compares equal to a list of the same
    entries.  A column (``ledger.amount``, ``ledger.payee``, ...) is a new
    read-only array gathered from the book, so an edit through it raises
    ``ValueError``.  A ledger given as entries is booked entry by entry,
    and each amount must be a float.
    """

    __slots__ = ("_book",)

    def __init__(self, entries: Iterable[LedgerEntry] = (), book: _Book | None = None):
        self._book = _Book.of(entries) if book is None else book

    def __getattr__(self, name):
        # reached only for a name that is not a slot: a column
        if name not in LEDGER_COLUMNS:
            raise AttributeError(f"'Ledger' object has no attribute {name!r}")
        column = self._book.gather(name)
        column.flags.writeable = False
        return column

    def _entries(self, lo: int = 0, hi: int | None = None):
        return map(LedgerEntry, *(self._book.gather(name, lo, hi).tolist()
                                  for name in LEDGER_COLUMNS))

    def __len__(self) -> int:
        return len(self._book.rows)

    def __iter__(self):
        return self._entries()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        i = range(len(self))[index]
        return next(self._entries(i, i + 1))

    def __eq__(self, other):
        if isinstance(other, (Ledger, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Ledger({list(self)!r})"


def _series_column(name: str, values) -> np.ndarray:
    """``values`` as a read-only float64 or int64 column, a view where they
    already are one."""
    column = np.asarray(values)
    kind = np.float64 if column.dtype.kind == "f" else np.int64
    if column.ndim != 1 or column.dtype.kind not in "fiu" or not np.can_cast(column.dtype, kind):
        raise ParameterError(f"series column {name!r} is not a list of float64 or int64 "
                             f"values: {column.dtype}, shape {column.shape}")
    column = column.astype(kind, copy=False).view()
    column.flags.writeable = False
    return column


@dataclass
class MarketReport:
    """A cleared market: its header, money, losses, series and ledger.

    ``series`` maps each name to a read-only float64 or int64 column, or
    to a dict of them per feature; a series given as lists is stored as
    such columns.  The ledger is a :class:`Ledger`; one given as entries
    is booked.  So an edit through either raises, and every artifact
    holds what the market settled.  :meth:`to_dict` makes new lists of
    both.
    """

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
        # a ledger given as entries is booked, and a series is stored as
        # read-only columns, at construction or later
        if name == "ledger" and not isinstance(value, Ledger):
            value = Ledger(value)
        elif name == "series":
            value = {key: {k: _series_column(k, v) for k, v in column.items()}
                     if isinstance(column, dict) else _series_column(key, column)
                     for key, column in value.items()}
        super().__setattr__(name, value)

    def __setstate__(self, state):
        # a copied or unpickled report is stored as a new one is
        for name, value in state.items():
            setattr(self, name, value)

    def to_dict(self) -> dict:
        """The report as JSON data, with the ledger as one list per column.

        The result is a new top-level dict with new lists for the tuple
        fields, the series' columns and the ledger's columns; every other
        container (``metrics``, ``notes``, ``audit``, the per-feature
        mappings) is the report's own object, shared rather than copied.
        Copy before mutating it.
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["support"] = list(self.support)
        out["screened_out"] = list(self.screened_out)
        out["flag_duplicates"] = [list(g) for g in self.flag_duplicates]
        out["flag_dummies"] = list(self.flag_dummies)
        out["series"] = {name: {k: v.tolist() for k, v in values.items()}
                         if isinstance(values, dict) else values.tolist()
                         for name, values in self.series.items()}
        out["ledger"] = {name: getattr(self.ledger, name).tolist() for name in LEDGER_COLUMNS}
        return out


# bound only now: .artifacts imports the names above.  The benchmark harness
# calls and traces the writers here until it moves onto regmarket.artifacts
from .artifacts import (report_to_json, write_cumulative_csv,  # noqa: E402,F401
                        write_ledger_csv, write_loss_table_csv)


# ---------------------------------------------------------------------------
# design assembly


def build_design(dataset: Dataset, task: TaskSpec) -> tuple[Dataset, AugmentedDesign]:
    """Apply the task's ownership, lag structure and polynomial recipe."""
    ds = dataset.with_ownership(task.ownership, target_owner=task.central_agent)
    if task.lags:
        # ARX recipes use lags in place of levels
        ds = make_lags(ds, task.lags)
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


def _prepare(dataset: Dataset, task: TaskSpec, market: str,
             support: Sequence[str] | None) -> tuple[Dataset, AugmentedDesign,
                                                     frozenset, MarketReport]:
    """The prologue every market shares: the dataset and design built from
    the task, the central features, and the report header.

    The header holds the market, the central agent, the market's phi and
    allocation policy, the traded support features (those in ``support``,
    or all of them), the screened-out ones and the owners, with one row per
    design row.  A market with no support feature to trade plays game
    ``none`` and is settled as it stands.  The online and out-of-sample
    markets require a separable model.
    """
    ds, design = build_design(dataset, task)
    central, all_support = split_features(design, task)
    unknown = sorted(set(support or ()) - set(all_support))
    if unknown:
        raise FeatureLookupError(f"support names {unknown}, which are not support features "
                                 f"of the task: {list(all_support)}")
    chosen = tuple(sorted(support)) if support is not None else all_support
    repeated = sorted({k for k, j in zip(chosen, chosen[1:]) if k == j})
    if repeated:
        raise ParameterError(f"support names {repeated} are given more than once")
    oos = market == "oos"
    if market != "batch" and has_mixed_terms(design, central, chosen):
        raise ParameterError(f"{'out-of-sample' if oos else market} market requires a "
                             "model without central/support interaction terms")
    report = MarketReport(
        market=market, central_agent=task.central_agent, rows=design.T,
        phi=task.phi_oos if oos else task.phi_insample,
        allocation_policy=task.oos_allocation_policy if oos else task.allocation_policy,
        game="support-coalitions" if chosen else "none", support=chosen,
        feature_owners=dict(design.feature_owners),
        screened_out=tuple(sorted(set(all_support) - set(chosen))),
        notes={} if chosen else {"reason": "no support features"})
    return ds, design, central, report


def _loss_table(losses: Mapping[frozenset, float]) -> dict[str, float]:
    """Coalition losses, in the order given, keyed by each coalition's
    sorted features joined by ``|``."""
    return {"|".join(sorted(c)): v for c, v in losses.items()}


def fit_all_coalitions(dataset: Dataset, task: TaskSpec,
                       support: Sequence[str] | None = None) -> CoalitionLossTable:
    """Task-level wrapper: build the design, then fit every coalition."""
    ds, design, central, report = _prepare(dataset, task, "batch", support)
    return _fit_table(design, ds.target, central=central, support=report.support,
                      spec=task.loss, cap=task.enumeration_cap)


# ---------------------------------------------------------------------------
# screening


def screen_features(dataset: Dataset, task: TaskSpec) -> tuple[str, ...]:
    """Pre-market feature selection; returns the retained support features.

    A feature is retained when adding it to the central model lowers the
    loss of a 5-fold cross-validation.  Each feature is fitted on its own,
    so screening runs above the enumeration cap; each fold fits the central
    model, and it plus each feature alone, once, as one coalition table.
    """
    ds, design, central, report = _prepare(dataset, task, "batch", None)
    if not report.support:
        return ()
    X, y, T = design.values, ds.target, design.T
    if T < SCREEN_FOLDS:
        raise ParameterError(f"screening needs {SCREEN_FOLDS} rows, one per fold; have {T}")
    sets = [central] + [central | {k} for k in report.support]
    masks = np.array([[t.support <= S for t in design.terms] for S in sets])
    cv = np.zeros(len(sets))
    bounds = np.linspace(0, T, SCREEN_FOLDS + 1).astype(int).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        train = np.r_[0:lo, hi:T]
        beta, _ = fit_column_sets(X[train], y[train], masks, task.loss, design.term_names)
        cv += coalition_losses(beta, X[lo:hi], y[lo:hi], task.loss).mean(axis=1)
    # "> 0" up to solver noise: a valueless column's jittered fit reads as zero
    base, gains = cv[0], (cv[0] - cv[1:]).tolist()
    return tuple(k for k, g in zip(report.support, gains) if g > 1e-12 * max(1.0, abs(base)))


# ---------------------------------------------------------------------------
# settlement


def _settle(report: MarketReport, task: TaskSpec, amounts: np.ndarray, times: Sequence,
            surplus: np.ndarray | None = None,
            allocations: np.ndarray | None = None) -> MarketReport:
    """Clamp, book, total and audit a ``(steps, features)`` matrix of
    pre-clamp payments, one column per feature of ``report.support``.

    Strictly negative amounts count as clamped, and every amount that is
    not positive is paid as ``0.0``.  The report keeps the clamped matrix,
    and its positive amounts as ledger entries in time, then feature order,
    tagged with ``times`` (``_Book``).  Given the per-step ``surplus``, it
    keeps the series too: steps, surplus, central payment (each row's exact
    sum), payments, running totals and the ``allocations`` given.  Each
    feature is paid the exact sum of its column, a screened-out feature
    zero, and the central agent is debited the sum of the support credits.
    ``support_share_sum`` is the exact sum of ``report.allocations``.  The
    task's flags are copied before the audit.
    """
    features, owners = report.support, report.feature_owners
    report.clamped_entries = int(np.count_nonzero(amounts < 0.0))
    paid = np.where(amounts <= 0.0, 0.0, amounts)
    steps = np.asarray(times)
    if surplus is not None:
        report.series = {**({} if allocations is None else
                            {"allocations": dict(zip(features, allocations.T))}),
                         "step": steps, "surplus": surplus,
                         "central_payment": np.array(list(map(math.fsum, paid.tolist()))),
                         "payments": dict(zip(features, paid.T)),
                         "cumulative": dict(zip(features, np.cumsum(paid, axis=0).T))}
    names = tuple((task.central_agent, owners[k], k, report.market) for k in features)
    report.ledger = Ledger(book=_Book(names, steps, paid, *np.nonzero(paid > 0.0)))
    report.payments = dict(zip(features, map(math.fsum, paid.T.tolist())))
    report.support_share_sum = math.fsum(report.allocations.values())
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
    if not previously_billed >= 0:
        raise ParameterError("previously billed rows must be >= 0")
    ds, design, central, report = _prepare(dataset, task, "batch", support)
    if not report.support:
        return _settle(report, task, np.zeros((0, 0)), [])
    report.rows = max(design.T - previously_billed, 0)
    game = (_batch_feature_game if has_mixed_terms(design, central, report.support)
            else _batch_support_game)
    players, losses, base_loss = game(report, design, ds.target, task, central)
    report.surplus = report.central_loss - report.full_loss
    report.loss_table = _loss_table(losses)
    scale = report.rows * task.loss_scale * report.phi
    report.benchmark_payment = max(scale * report.surplus, 0.0)
    return _allocate_and_pay(report, task, players, losses,
                             scale * (base_loss - report.full_loss), ["batch"])


def _batch_support_game(report: MarketReport, design, y, task: TaskSpec, central):
    """The coalition game over support features on top of the central
    model.  It sets the report's central and full losses and notes, and
    returns its players, its coalition losses and the loss its pot is
    measured from: the central loss."""
    table = _fit_table(design, y, central=central, support=report.support,
                       spec=task.loss, cap=task.enumeration_cap)
    report.central_loss, report.full_loss = table.central_loss, table.full_loss
    report.notes = {"max_jitter": max(f.jitter for f in table.fits.values())}
    return report.support, table.losses, table.central_loss


def _batch_feature_game(report: MarketReport, design, y, task: TaskSpec, central):
    """Feature-level game for designs with central/support interaction terms.

    Players are the unit feature, the central agent's features and the
    support features; the value of a coalition is the batch loss of the
    terms it can build.  Support agents receive their Shapley share of the
    improvement from the intercept-only model to the grand model, so the
    pot is measured from the intercept-only loss.  Leave-one-out has no
    feature-game analogue: ``loo-a`` and ``loo-b`` apply ``shapley``.
    """
    players = (UNIT_PLAYER,) + tuple(sorted(central)) + report.support
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
    policy = task.allocation_policy
    if POLICY_VARIANT[policy] in (DROP_ONE, ADD_ONE):
        report.allocation_policy = "shapley"
    report.game = "feature-game"
    report.central_loss, report.full_loss = central_loss, full_loss
    report.notes = {"players": list(players), "game_total": values[frozenset()] - full_loss,
                    "intercept_only_loss": base_loss, "requested_policy": policy}
    return players, values, base_loss


def _allocate_and_pay(report: MarketReport, task: TaskSpec, players, losses, pot,
                      times: Sequence, surplus: np.ndarray | None = None) -> MarketReport:
    """Pay each feature of ``report.support`` ``pot`` times its share of the
    game ``losses`` over ``players`` under the report's policy, and settle.

    The online market passes a loss series per coalition and a pot per
    step.  The batch market is the one-step case, with scalars and no
    ``surplus`` series: without a positive game or report surplus it flags
    ``no_surplus`` and pays nothing, else it reports the central share.
    """
    shares = step_allocations(losses, players, POLICY_VARIANT[report.allocation_policy])
    psi = np.column_stack([shares.values[k] for k in report.support])
    if surplus is None:
        report.no_surplus = bool(shares.no_surplus) or not report.surplus > 0
        if report.no_surplus:
            pot, psi = 0.0, np.zeros_like(psi)
    report.allocations = dict(zip(report.support, psi[-1].tolist()))
    report = _settle(report, task, np.reshape(pot, (-1, 1)) * psi, times, surplus, psi)
    if surplus is None and not report.no_surplus:
        report.central_share = 1.0 - report.support_share_sum
    return report


# ---------------------------------------------------------------------------
# online market


def run_online_market(dataset: Dataset, task: TaskSpec,
                      support: Sequence[str] | None = None) -> MarketReport:
    """Stream the dataset through per-coalition recursive estimators and pay
    per step from time-varying loss estimates and allocations."""
    ds, design, central, report = _prepare(dataset, task, "online", support)
    if not report.support:
        return _settle(report, task, np.zeros((0, 0)), [])
    chosen = report.support
    session, w, trace = _stream_session(design, ds.target, central, chosen, task)
    # allocate on the recursively maintained loss estimates: by the
    # linearity of Shapley values this equals exponential smoothing of
    # the per-step unnormalised contributions, and it avoids the heavy
    # tails that smoothing the normalised per-step shares would inject
    ewma = {c: trace.ewma[:, j] for j, c in enumerate(session.coalitions)}
    grand = frozenset(chosen)
    surplus = ewma[frozenset()] - ewma[grand]
    pot = np.where(trace.ready, task.loss_scale * report.phi * np.maximum(surplus, 0.0),
                   0.0)
    final = session.ewma_losses()
    report.rows = design.T - w
    report.central_loss, report.full_loss = final[frozenset()], final[grand]
    report.surplus = report.central_loss - report.full_loss
    report.loss_table = _loss_table(final)
    report.benchmark_payment = math.fsum(pot.tolist())
    return _allocate_and_pay(report, task, chosen, ewma, pot, np.arange(w, design.T), surplus)


def _stream_session(design, y, central, support,
                    task: TaskSpec) -> tuple[OnlineSession, int, SessionTrace]:
    """A session over every coalition of ``support``, within the task's
    enumeration cap and initialised by its policy, its first streamed row,
    and the trace of streaming the rows from there.  No coalition fits a
    column that is zero on every row the session sees, warm-up included."""
    check_enumeration_cap(support, task.enumeration_cap)
    nonzero = design.values.any(axis=0)
    if not nonzero.all():
        design = design.subset(np.flatnonzero(nonzero))
    X = design.values
    session = OnlineSession(design, central, list(enumerate_coalitions(support)),
                            task.lam, task.loss)
    if task.init_policy == WARM_START:
        w = task.warmup
        if w >= design.T:
            raise ParameterError("warm-up consumes the whole dataset")
        session.init_states(X[:w], y[:w], WARM_START)
    else:
        w = 0
        session.init_states(None, None, ZERO_START)
    return session, w, session.stream(X[w:], y[w:])


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
    the report's policy (``task.oos_allocation_policy``), clamped at zero.
    """
    if model_source not in ("batch", "online"):
        raise ParameterError(f"unknown model source {model_source!r}")
    if not is_integer(n_windows) or n_windows < 1:
        raise ParameterError(f"n_windows must be an integer >= 1, not {n_windows!r}")
    ds, design, central, report = _prepare(dataset, task, "oos", support)
    if not report.support:
        return _settle(report, task, np.zeros((0, 0)), [])
    chosen = report.support

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
        eval_rows, losses_by_coalition = _online_oos_losses(design, y, central, chosen,
                                                            task)
    if len(eval_rows) < 1:
        raise ParameterError("no evaluation rows left for the out-of-sample market")

    grand = frozenset(chosen)
    scale = task.loss_scale * report.phi
    surplus = losses_by_coalition[frozenset()] - losses_by_coalition[grand]
    # only the steps with a positive surplus pay, so only they are allocated
    paying = surplus > 0
    contribs, _ = step_contributions({c: v[paying] for c, v in losses_by_coalition.items()},
                                     chosen, POLICY_VARIANT[report.allocation_policy],
                                     peaks=False)
    paid = {k: np.zeros(len(surplus)) for k in chosen}
    for k in chosen:
        paid[k][paying] = contribs[k]
    # period-level shares: summed paid contributions over summed surplus
    total = float(np.sum(np.maximum(surplus, 0.0)))
    shares = {k: float(np.sum(np.maximum(paid[k], 0.0))) / total if total > 0 else 0.0
              for k in chosen}
    report.rows, report.allocations = len(eval_rows), shares
    report.benchmark_payment = total * scale
    report.central_loss = float(np.mean(losses_by_coalition[frozenset()]))
    report.full_loss = float(np.mean(losses_by_coalition[grand]))
    report.metrics = _oos_metrics(losses_by_coalition, grand, n_windows)
    report.notes = {"model_source": model_source}
    report.surplus = report.central_loss - report.full_loss
    amounts = np.column_stack([paid[k] for k in chosen]) * scale
    return _settle(report, task, amounts, eval_rows, surplus)


def _batch_oos_losses(design, X, y, train, central, support, task):
    """Each coalition's realised losses on the evaluation rows, with
    coefficients fitted on the training rows.  A quadratic fit needs only
    the solve; a smooth-quantile fit runs its Newton iterations.  No
    coalition fits a column that is zero on every training row, and
    coalitions left with the same columns share one loss series."""
    coalitions, masks = coalition_masks(design, central, support, task.enumeration_cap)
    masks &= X[:train].any(axis=0)
    first: dict[bytes, int] = {}
    shared = [first.setdefault(m.tobytes(), j) for j, m in enumerate(masks)]
    if task.loss.is_quadratic:
        beta, _ = solve_column_sets(X[:train], y[:train], masks)
    else:
        beta, _ = fit_column_sets(X[:train], y[:train], masks, task.loss, design.term_names)
    losses = coalition_losses(beta, X[train:], y[train:], task.loss)
    return {c: losses[j] for c, j in zip(coalitions, shared)}


def _online_oos_losses(design, y, central, support, task):
    session, w, trace = _stream_session(design, y, central, support, task)
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

    amounts = report.ledger.amount
    ledger_total = math.fsum(amounts.tolist())
    gap = abs(report.central_total - ledger_total)
    tol = 1e-9 * max(abs(report.central_total), 1e-12)
    checks["budget_balance"] = {
        "passed": bool(gap <= tol),
        "central_total": report.central_total,
        "ledger_total": ledger_total,
        "shortfall_vs_benchmark": report.benchmark_payment - report.central_total,
    }

    # each amount and payment on its own, so that a NaN fails wherever it
    # stands, and NumPy's min, which is NaN wherever a NaN stands; Python's
    # min() would pass or fail it, and keep it or not, by its position
    checks["individual_rationality"] = {
        "passed": bool(np.all(amounts >= 0.0))
        and all(v >= 0.0 for v in report.payments.values()),
        "min_ledger_amount": float(amounts.min()) if amounts.size else 0.0,
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
        # NumPy's max and min too, so that a NaN payment fails wherever it stands
        worst = float(np.max([np.ptp([report.payments.get(k, 0.0) for k in group])
                              for group in report.flag_duplicates]))
        ref = float(np.max(np.abs(list(report.payments.values())))) if report.payments else 1.0
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

