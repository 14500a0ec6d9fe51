"""Allocation policies: how the loss-improvement surplus splits over features.

Every policy's values are fractions of the surplus ``L*_central -
L*_grand``.  The Shapley policy is exact: it enumerates every coalition,
whose number the task's enumeration cap bounds, and weighs each
coalition's marginal contribution by ``|w|! (m - |w| - 1)! / m!``; the zero
and absolute variants clamp or rectify negative marginals and may then sum
to more or less than one.  :func:`shapley_contributions` is the one walk
over the coalitions, for a scalar loss table and for loss series alike.  A
feature whose marginals never move any coalition loss beyond 1e-12 is
snapped to an exact zero allocation, which keeps the zero-element market
property exact under solver jitter.

Per-step allocations take one loss series per coalition and work on every
step in one array pass, under the Shapley variants or either leave-one-out
variant: :func:`step_contributions` gives the unnormalised contributions
and :func:`step_allocations` divides them by each step's surplus, with the
zero snap applied step by step.  :func:`instant_allocation` is its one-step
case, and :func:`shapley_allocation` and :func:`loo_allocation` apply that
case to a coalition loss table with a positive surplus.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .batch import CoalitionLossTable, coalition_bits, enumerate_coalitions
from .errors import CoverageError, NoSurplusError, ParameterError

ORIGINAL = "original"
ZERO = "zero"
ABSOLUTE = "absolute"
DROP_ONE = "drop-one"
ADD_ONE = "add-one"

# the allocation policies a task may name, and the variant each applies
POLICY_VARIANT = {"shapley": ORIGINAL, "zero-shapley": ZERO, "absolute-shapley": ABSOLUTE,
                  "loo-a": DROP_ONE, "loo-b": ADD_ONE}
_VARIANT_LABEL = {variant: policy for policy, variant in POLICY_VARIANT.items()}
_DUMMY_SNAP = 1e-12


@dataclass(frozen=True)
class AllocationVector:
    """Per-feature surplus shares under one policy."""

    values: Mapping[str, float]
    policy: str
    normalizer: float
    no_surplus: bool = False

    @property
    def features(self) -> tuple[str, ...]:
        return tuple(self.values)

    @property
    def total(self) -> float:
        return float(sum(self.values.values()))

    def __getitem__(self, feature: str) -> float:
        return self.values[feature]


def shapley_weight(subset_size: int, n_players: int) -> float:
    return (math.factorial(subset_size) * math.factorial(n_players - subset_size - 1)
            / math.factorial(n_players))


def shapley_contributions(losses: Mapping[frozenset, float], players: Sequence[str],
                          variant: str = ORIGINAL, peaks: bool = True):
    """Unnormalised Shapley values of a loss game, plus each player's
    largest absolute marginal (used for exact-zero snapping).

    Losses may be scalars or equal-length arrays; arrays give a Shapley
    trajectory per time step in one pass, and the largest marginal is then
    taken per element.  Each coalition's loss is looked up once and indexed
    by its bit mask over ``players``, which must be distinct.  A player's
    marginals run over the coalitions without it, sizes ascending, then in
    ``itertools`` combination order.  On arrays each marginal is
    transformed, weighted and added in place.  A scalar game takes a
    player's marginals as one array, transforms and weights them, and adds
    them left to right in Python floats.  Without ``peaks`` the marginals
    are None and the sums are the same bits.
    """
    players = tuple(players)
    if variant not in (ORIGINAL, ZERO, ABSOLUTE):
        raise ParameterError(f"unknown Shapley variant {variant!r}")
    m = len(players)
    if len(set(players)) < m:
        raise ParameterError(f"players must be distinct, not {list(players)}")
    try:
        found = [losses[frozenset(combo)] for size in range(m + 1)
                 for combo in itertools.combinations(players, size)]
    except KeyError:
        missing = [c for c in enumerate_coalitions(players) if c not in losses]
        raise CoverageError(
            f"loss table missing {len(missing)} coalitions, e.g. {sorted(missing[0])}",
            missing=missing) from None
    masks = coalition_bits(m)   # in the order of found
    sizes = np.repeat(np.arange(m + 1), [math.comb(m, s) for s in range(m + 1)])
    weights = np.array([shapley_weight(s, m) for s in range(m)])
    walks = []   # per player: its bit, and the masks and weights of the coalitions without it
    for i in range(m):
        free = masks & (1 << i) == 0
        walks.append((1 << i, masks[free], weights[sizes[free]]))
    shape = np.shape(found[0])
    contribs: dict[str, float | np.ndarray] = {}
    max_marginal: dict[str, float | np.ndarray] | None = {} if peaks else None
    if not shape:
        table = np.empty(len(found))
        table[masks] = found
        # no warnings, as Python floats raise none
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (bit, subs, subs_weights) in zip(players, walks):
                diff = table[subs] - table[subs | bit]
                if peaks:
                    size = np.abs(diff)
                    nan = np.isnan(size)
                    # the first NaN, as a running maximum keeps it
                    max_marginal[k] = float(size[nan][0] if nan.any()
                                            else size.max(initial=0.0))
                if variant == ZERO:
                    np.maximum(diff, 0.0, out=diff)
                elif variant == ABSOLUTE:
                    np.abs(diff, out=diff)
                diff *= subs_weights
                contribs[k] = functools.reduce(operator.add, diff.tolist(), 0.0)
        return contribs, max_marginal
    table = [None] * len(found)
    for mask, value in zip(masks.tolist(), found):
        table[mask] = value
    for k, (bit, subs, subs_weights) in zip(players, walks):
        total = np.zeros(shape)
        peak = np.zeros(shape)
        for sub, w in zip(subs.tolist(), subs_weights.tolist()):
            diff = table[sub] - table[sub | bit]
            if peaks:
                np.maximum(peak, np.abs(diff), out=peak)
            if variant == ZERO:
                np.maximum(diff, 0.0, out=diff)
            elif variant == ABSOLUTE:
                np.abs(diff, out=diff)
            diff *= w
            total += diff
        contribs[k] = total
        if peaks:
            max_marginal[k] = peak
    return contribs, max_marginal


def _table_allocation(table: CoalitionLossTable, variant: str) -> AllocationVector:
    if not table.surplus > 0:
        raise NoSurplusError(
            f"loss improvement is {table.surplus:.3e}; market clears at zero")
    return instant_allocation(table.losses, table.support, variant)


def shapley_allocation(table: CoalitionLossTable,
                       variant: str = ORIGINAL) -> AllocationVector:
    """Shapley shares of the support features' surplus (the coalition game
    over support features, every coalition fitted on top of the central
    ones): the table's one-step case of :func:`step_allocations`."""
    if variant not in (ORIGINAL, ZERO, ABSOLUTE):
        raise ParameterError(f"unknown Shapley variant {variant!r}")
    return _table_allocation(table, variant)


def loo_allocation(table: CoalitionLossTable, variant: str = DROP_ONE) -> AllocationVector:
    """Leave-one-out shares: drop a feature from the grand coalition, or add
    it to the central model alone; the table's one-step case of
    :func:`step_allocations`."""
    if variant not in (DROP_ONE, ADD_ONE):
        raise ParameterError(f"unknown leave-one-out variant {variant!r}")
    return _table_allocation(table, variant)


@dataclass(frozen=True)
class AllocationSeries:
    """Per-feature surplus shares of every step, one array per feature."""

    values: Mapping[str, np.ndarray]
    policy: str
    normalizer: np.ndarray

    @property
    def no_surplus(self) -> np.ndarray:
        return self.normalizer <= 0


def step_contributions(losses: Mapping[frozenset, np.ndarray], features: Sequence[str],
                       variant: str = ORIGINAL, peaks: bool = True):
    """Unnormalised contributions of each feature at every step, in one pass.

    ``losses`` maps every coalition to its loss series.  ``variant`` is a
    Shapley variant, giving :func:`shapley_contributions` and, with
    ``peaks``, each feature's largest absolute marginal per step, or
    ``DROP_ONE`` / ``ADD_ONE``, giving the loss change of leaving the
    feature out of the grand coalition or adding it to the central model
    alone, and None for the marginals.
    """
    if variant not in _VARIANT_LABEL:
        raise ParameterError(f"unknown allocation variant {variant!r}")
    features = tuple(sorted(features))
    full = frozenset(features)
    if frozenset() not in losses or full not in losses:
        raise CoverageError("loss map must contain empty and grand coalitions")
    if variant not in (DROP_ONE, ADD_ONE):
        return shapley_contributions(losses, features, variant, peaks)
    # each feature's other coalition: the grand one without it, or it alone
    other = {k: full - {k} if variant == DROP_ONE else frozenset({k}) for k in features}
    missing = [c for c in other.values() if c not in losses]
    if missing:
        raise CoverageError(
            f"loss map missing {len(missing)} coalitions, e.g. {sorted(missing[0])}",
            missing=missing)
    if variant == DROP_ONE:
        return {k: losses[c] - losses[full] for k, c in other.items()}, None
    return {k: losses[frozenset()] - losses[c] for k, c in other.items()}, None


def step_allocations(losses: Mapping[frozenset, np.ndarray], features: Sequence[str],
                     variant: str = ORIGINAL) -> AllocationSeries:
    """Shares of each step's surplus: :func:`step_contributions` over the
    step's surplus.  Scalar losses are one step, and give 0-d shares.

    A step's surplus may have any sign; where it is not positive every
    share of that step is zero.  Under Shapley a feature whose marginals at
    a step all stay within 1e-12 of zero gets an exact zero share at that
    step.
    """
    contribs, peaks = step_contributions(losses, features, variant)
    normalizer = np.asarray(losses[frozenset()] - losses[frozenset(contribs)], dtype=float)
    positive = normalizer > 0
    divisor = np.where(positive, normalizer, 1.0)
    snap = _DUMMY_SNAP * np.maximum(1.0, np.abs(normalizer))
    values = {}
    for k, c in contribs.items():
        keep = positive if peaks is None else positive & (peaks[k] > snap)
        values[k] = np.where(keep, c / divisor, 0.0)
    return AllocationSeries(values=values, policy=_VARIANT_LABEL[variant],
                            normalizer=normalizer)


def instant_allocation(per_coalition_losses: Mapping[frozenset, float],
                       features: Sequence[str],
                       variant: str = ORIGINAL) -> AllocationVector:
    """Shares of a single time step's losses: the one-step case of
    :func:`step_allocations`.

    When the step's surplus is not positive the vector is flagged and
    zeroed, and every payment derived from it is zero for that step.
    """
    series = step_allocations(
        {c: np.atleast_1d(np.asarray(v, dtype=float))
         for c, v in per_coalition_losses.items()}, features, variant)
    return AllocationVector(values={k: float(v[0]) for k, v in series.values.items()},
                            policy=series.policy, normalizer=float(series.normalizer[0]),
                            no_surplus=bool(series.no_surplus[0]))
