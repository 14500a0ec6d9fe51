"""Reference implementations that the package's fast paths are held to.

Each oracle is the plain form of a computation the package now does
another way; the differential tests compare the two bit for bit.
"""

import itertools
from typing import Mapping, Sequence

import numpy as np

from regmarket.allocation import ABSOLUTE, ORIGINAL, ZERO, shapley_weight
from regmarket.batch import enumerate_coalitions
from regmarket.errors import CoverageError, ParameterError


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
