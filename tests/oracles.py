"""Reference implementations that the package's fast paths are held to.

Each oracle is the plain form of a computation the package now does
another way; the differential tests compare the two bit for bit.  The
table allocations take Shapley values from the frozenset walk here.
"""

import itertools
from typing import Mapping, Sequence

import numpy as np

from regmarket.allocation import (
    _DUMMY_SNAP,
    _VARIANT_LABEL,
    ABSOLUTE,
    ADD_ONE,
    DROP_ONE,
    ORIGINAL,
    ZERO,
    AllocationVector,
    shapley_weight,
)
from regmarket.batch import enumerate_coalitions
from regmarket.errors import CoverageError, NoSurplusError, ParameterError


def shapley_contributions(losses: Mapping[frozenset, float], players: Sequence[str],
                          variant: str = ORIGINAL, peaks: bool = True):
    """Unnormalised Shapley values of a loss game, plus each player's
    largest absolute marginal, by one frozenset lookup per marginal.

    Losses may be scalars or equal-length arrays.  Each marginal is
    transformed, weighted and added in place on arrays; scalars give
    Python floats.  Without ``peaks`` the marginals are None.
    """
    players = tuple(players)
    if variant not in (ORIGINAL, ZERO, ABSOLUTE):
        raise ParameterError(f"unknown Shapley variant {variant!r}")
    missing = [c for c in enumerate_coalitions(players) if c not in losses]
    if missing:
        raise CoverageError(
            f"loss table missing {len(missing)} coalitions, e.g. {sorted(missing[0])}",
            missing=missing)
    m = len(players)
    weights = [shapley_weight(s, m) for s in range(m)]
    shape = np.shape(losses[frozenset()])
    contribs: dict[str, float | np.ndarray] = {}
    max_marginal: dict[str, float | np.ndarray] | None = {} if peaks else None
    for k in players:
        rest = [p for p in players if p != k]
        total = np.zeros(shape) if shape else 0.0
        peak = np.zeros(shape) if shape else 0.0
        for size in range(m):
            w = weights[size]
            for combo in itertools.combinations(rest, size):
                sub = frozenset(combo)
                diff = losses[sub] - losses[sub | {k}]
                if peaks:
                    peak = np.maximum(peak, np.abs(diff), out=peak if shape else None)
                if variant == ZERO:
                    diff = np.maximum(diff, 0.0, out=diff) if shape else max(diff, 0.0)
                elif variant == ABSOLUTE:
                    diff = np.abs(diff, out=diff) if shape else abs(diff)
                diff *= w
                total += diff
        contribs[k] = total if shape else float(total)
        if peaks:
            max_marginal[k] = peak if shape else float(peak)
    return contribs, max_marginal


# -- the table entry points: Shapley shares with the zero snap, and
# leave-one-out shares, of one loss table ---------------------------------------

def _snap_and_normalise(contribs, max_marginal, normalizer, policy) -> AllocationVector:
    scale = max(1.0, abs(normalizer))
    values = {}
    for k, v in contribs.items():
        if max_marginal[k] <= _DUMMY_SNAP * scale:
            values[k] = 0.0
        else:
            values[k] = float(v) / normalizer
    return AllocationVector(values=values, policy=policy, normalizer=normalizer)


def shapley_allocation(table, variant: str = ORIGINAL) -> AllocationVector:
    """Shapley shares of the support features' surplus (the coalition game
    over support features, every coalition fitted on top of the central ones)."""
    normalizer = table.surplus
    if normalizer <= 0:
        raise NoSurplusError(
            f"loss improvement is {normalizer:.3e}; market clears at zero")
    contribs, peaks = shapley_contributions(table.losses, table.support, variant)
    return _snap_and_normalise(contribs, peaks, normalizer, _VARIANT_LABEL[variant])


def loo_allocation(table, variant: str = "drop-one") -> AllocationVector:
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
