"""Allocation policies: how the loss-improvement surplus splits over features.

All policies return an :class:`AllocationVector` whose values are fractions
of the surplus ``L*_central - L*_grand``.  The Shapley policy weighs every
coalition's marginal contribution by ``|w|! (m - |w| - 1)! / m!``; the zero
and absolute variants clamp or rectify negative marginals and may then sum
to more or less than one.  A feature whose marginals never move any
coalition loss beyond 1e-12 is snapped to an exact zero allocation, which
keeps the zero-element market property exact under solver jitter.

Per-step allocations take one loss series per coalition and work on every
step in one array pass, under the Shapley variants or either leave-one-out
variant: :func:`step_contributions` gives the unnormalised contributions
and :func:`step_allocations` divides them by each step's surplus, with the
zero snap applied step by step.  :func:`instant_allocation` is its one-step
case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .batch import CoalitionLossTable, enumerate_coalitions
from .errors import CoverageError, NoSurplusError, ParameterError

ORIGINAL = "original"
ZERO = "zero"
ABSOLUTE = "absolute"
DROP_ONE = "drop-one"
ADD_ONE = "add-one"

_VARIANT_LABEL = {ORIGINAL: "shapley", ZERO: "zero-shapley", ABSOLUTE: "absolute-shapley",
                  DROP_ONE: "loo-a", ADD_ONE: "loo-b"}
_DUMMY_SNAP = 1e-12


@dataclass(frozen=True)
class AllocationVector:
    """Per-feature surplus shares under one policy."""

    values: Mapping[str, float]
    policy: str
    normalizer: float
    no_surplus: bool = False
    stderr: Mapping[str, float] = field(default_factory=dict)

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


def _marginal_transform(variant: str) -> Callable:
    if variant == ORIGINAL:
        return lambda d: d
    if variant == ZERO:
        return lambda d: np.maximum(d, 0.0) if np.ndim(d) else max(d, 0.0)
    if variant == ABSOLUTE:
        return np.abs
    raise ParameterError(f"unknown Shapley variant {variant!r}")


def shapley_contributions(losses: Mapping[frozenset, float], players: Sequence[str],
                          variant: str = ORIGINAL):
    """Unnormalised Shapley values of a loss game, plus each player's
    largest absolute marginal (used for exact-zero snapping).

    Losses may be scalars or equal-length arrays; arrays give a Shapley
    trajectory per time step in one pass, and the largest marginal is then
    taken per element.
    """
    players = tuple(players)
    transform = _marginal_transform(variant)
    missing = [c for c in enumerate_coalitions(players) if c not in losses]
    if missing:
        raise CoverageError(
            f"loss table missing {len(missing)} coalitions, e.g. {sorted(missing[0])}",
            missing=missing)
    m = len(players)
    weights = [shapley_weight(s, m) for s in range(m)]
    contribs: dict[str, float | np.ndarray] = {}
    max_marginal: dict[str, float | np.ndarray] = {}
    for k in players:
        rest = [p for p in players if p != k]
        total = 0.0
        peak = 0.0
        for size in range(m):
            w = weights[size]
            for combo in itertools.combinations(rest, size):
                sub = frozenset(combo)
                diff = losses[sub] - losses[sub | {k}]
                peak = np.maximum(peak, np.abs(diff))
                total = total + w * transform(diff)
        contribs[k] = total
        max_marginal[k] = peak if np.ndim(peak) else float(peak)
    return contribs, max_marginal


def _snap_and_normalise(contribs, max_marginal, normalizer, policy) -> AllocationVector:
    scale = max(1.0, abs(normalizer))
    values = {}
    for k, v in contribs.items():
        if max_marginal[k] <= _DUMMY_SNAP * scale:
            values[k] = 0.0
        else:
            values[k] = float(v) / normalizer
    return AllocationVector(values=values, policy=policy, normalizer=normalizer)


def shapley_allocation(table: CoalitionLossTable,
                       variant: str = ORIGINAL) -> AllocationVector:
    """Shapley shares of the support features' surplus (the coalition game
    over support features, every coalition fitted on top of the central ones)."""
    normalizer = table.surplus
    if normalizer <= 0:
        raise NoSurplusError(
            f"loss improvement is {normalizer:.3e}; market clears at zero")
    contribs, peaks = shapley_contributions(table.losses, table.support, variant)
    return _snap_and_normalise(contribs, peaks, normalizer, _VARIANT_LABEL[variant])


def loo_allocation(table: CoalitionLossTable, variant: str = "drop-one") -> AllocationVector:
    """Leave-one-out shares: drop a feature from the grand coalition, or add
    it to the central model alone."""
    normalizer = table.surplus
    if normalizer <= 0:
        raise NoSurplusError(
            f"loss improvement is {normalizer:.3e}; market clears at zero")
    full = frozenset(table.support)
    values = {}
    for k in table.support:
        if variant == DROP_ONE:
            diff = table.losses[full - {k}] - table.full_loss
        elif variant == ADD_ONE:
            diff = table.central_loss - table.losses[frozenset({k})]
        else:
            raise ParameterError(f"unknown leave-one-out variant {variant!r}")
        values[k] = diff / normalizer
    return AllocationVector(values=values, policy=_VARIANT_LABEL[variant],
                            normalizer=normalizer)


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
                       variant: str = ORIGINAL):
    """Unnormalised contributions of each feature at every step, in one pass.

    ``losses`` maps every coalition to its loss series.  ``variant`` is a
    Shapley variant, giving :func:`shapley_contributions` and each
    feature's largest absolute marginal per step, or ``DROP_ONE`` /
    ``ADD_ONE``, giving the loss change of leaving the feature out of the
    grand coalition or adding it to the central model alone, and None for
    the marginals.
    """
    if variant not in _VARIANT_LABEL:
        raise ParameterError(f"unknown allocation variant {variant!r}")
    features = tuple(sorted(features))
    full = frozenset(features)
    if frozenset() not in losses or full not in losses:
        raise CoverageError("loss map must contain empty and grand coalitions")
    if variant == DROP_ONE:
        return {k: losses[full - {k}] - losses[full] for k in features}, None
    if variant == ADD_ONE:
        return {k: losses[frozenset()] - losses[frozenset({k})] for k in features}, None
    return shapley_contributions(losses, features, variant)


def step_allocations(losses: Mapping[frozenset, np.ndarray], features: Sequence[str],
                     variant: str = ORIGINAL) -> AllocationSeries:
    """Shares of each step's surplus: :func:`step_contributions` over the
    step's surplus.

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


def shapley_montecarlo(loss_oracle: Callable[[frozenset], float],
                       features: Sequence[str], samples: int,
                       seed: int) -> AllocationVector:
    """Monte-Carlo Shapley over sampled feature orderings.

    Permutations are drawn in antithetic pairs (each followed by its
    reverse) to cut variance; asking for at least m! samples switches to
    exact enumeration of all orders.  Deterministic given the seed; the
    reported standard error is the per-permutation spread of each
    feature's marginal contribution.
    """
    if samples < 1:
        raise ParameterError("need at least one permutation sample")
    features = tuple(sorted(features))
    m = len(features)
    cache: dict[frozenset, float] = {}

    def value(coalition: frozenset) -> float:
        if coalition not in cache:
            cache[coalition] = float(loss_oracle(coalition))
        return cache[coalition]

    normalizer = value(frozenset()) - value(frozenset(features))
    if normalizer <= 0:
        raise NoSurplusError(
            f"loss improvement is {normalizer:.3e}; market clears at zero")

    if samples >= math.factorial(m):
        perms = list(itertools.permutations(range(m)))
    else:
        rng = np.random.default_rng(seed)
        perms = []
        while len(perms) < samples:
            p = tuple(rng.permutation(m))
            perms.append(p)
            if len(perms) < samples:
                perms.append(p[::-1])

    draws = {k: [] for k in features}
    for perm in perms:
        members: set[str] = set()
        prev = value(frozenset())
        for idx in perm:
            members.add(features[idx])
            cur = value(frozenset(members))
            draws[features[idx]].append(prev - cur)
            prev = cur
    values = {}
    stderr = {}
    for k in features:
        arr = np.asarray(draws[k])
        values[k] = float(arr.mean()) / normalizer
        spread = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        stderr[k] = spread / math.sqrt(arr.size) / normalizer
    return AllocationVector(values=values, policy="mc-shapley",
                            normalizer=normalizer, stderr=stderr)
