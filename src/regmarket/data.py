"""Time-indexed datasets and augmented design matrices with feature ownership.

A :class:`Dataset` holds a target series, named feature series and an
ownership map.  Lagged copies of a series remember their source, so design
terms built from them trade under the source series' name.  An
:class:`AugmentedDesign` is an ordered list of model terms (intercept, raw
columns, lags, monomials) evaluated into a ``T x n`` matrix; every term
carries the set of market-level feature names it depends on, which is what
coalition slicing operates on.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DataError,
    FeatureLookupError,
    InsufficientDataError,
    OrderingError,
    ParameterError,
    SchemaError,
)

INTERCEPT_NAME = "1"


def is_integer(value) -> bool:
    """Whether ``value`` is an int or a NumPy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr = np.array(arr, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable time-indexed dataset with per-series ownership.

    ``lineage`` maps a lagged column to ``(source_name, lag)``; columns not
    in the map are original series.  Ownership is at the market level: a
    lagged column is owned by whoever owns its source.
    """

    timestamps: np.ndarray
    target: np.ndarray
    features: Mapping[str, np.ndarray]
    ownership: Mapping[str, str]
    target_name: str = "y"
    target_owner: str | None = None
    lineage: Mapping[str, tuple[str, int]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "target", _frozen_array(self.target))
        object.__setattr__(self, "features",
                           {k: _frozen_array(v) for k, v in self.features.items()})
        ts = np.asarray(self.timestamps)
        object.__setattr__(self, "timestamps", ts)
        T = self.target.shape[0]
        if T < 1:
            raise ParameterError("dataset needs at least one row")
        if ts.shape[0] != T:
            raise ParameterError("timestamps and target length differ")
        if np.issubdtype(ts.dtype, np.number) and not np.all(np.isfinite(ts.astype(float))):
            raise DataError("non-finite timestamp")
        if T > 1 and not np.all(ts[1:] > ts[:-1]):
            raise OrderingError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(self.target)):
            raise DataError("target contains missing or non-finite values")
        for name, col in self.features.items():
            if col.shape[0] != T:
                raise ParameterError(f"feature {name!r} has length {col.shape[0]}, expected {T}")
            if not np.all(np.isfinite(col)):
                raise DataError(f"feature {name!r} contains missing or non-finite values")
        for name in self.features:
            market = self.market_name(name)
            if market == self.target_name:
                continue  # lags of the target belong to the target owner
            if market not in self.ownership:
                raise ParameterError(f"feature {name!r} has no owner")

    @property
    def T(self) -> int:
        return self.target.shape[0]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.features)

    def market_name(self, column: str) -> str:
        """Market-level name of a column: the source series for lagged ones."""
        if column in self.lineage:
            return self.lineage[column][0]
        return column

    def owner_of(self, column: str) -> str:
        name = self.market_name(column)
        if name == self.target_name:
            if self.target_owner is None:
                raise FeatureLookupError("target owner is not declared")
            return self.target_owner
        try:
            return self.ownership[name]
        except KeyError:
            raise FeatureLookupError(f"unknown feature {name!r}") from None

    def with_ownership(self, ownership: Mapping[str, str], target_owner: str) -> "Dataset":
        """Return a copy with the ownership map (from run config) merged in
        and the target owned by ``target_owner``."""
        return Dataset(self.timestamps, self.target, dict(self.features),
                       {**self.ownership, **ownership}, target_name=self.target_name,
                       target_owner=target_owner, lineage=dict(self.lineage))


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for CSV ingestion.

    Every column other than the timestamp and the target is a feature,
    owned by an agent of its own name until the task's ownership map
    replaces that.  ``capacities`` holds nominal capacities; listed columns
    are divided by them on ingestion (the normalisation used for power
    measurements).
    """

    timestamp: str = "ts"
    target: str = "y"
    capacities: Mapping[str, float] | None = None
    target_owner: str | None = None


def ingest_csv(path, schema: CsvSchema = CsvSchema()) -> Dataset:
    """Read a header-ed CSV into a Dataset, validating as we go.

    Timestamps must parse as numbers or ISO-8601 dates and be strictly
    increasing; all other cells must be numeric with nothing missing.
    Errors carry the 1-based line number of the offending row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if schema.timestamp not in header:
            raise SchemaError(f"missing timestamp column {schema.timestamp!r}")
        if schema.target not in header:
            raise SchemaError(f"missing target column {schema.target!r}")
        feature_names = [h for h in header if h not in (schema.timestamp, schema.target)]
        col_idx = {name: header.index(name) for name in header}

        ts_raw: list = []
        target: list[float] = []
        feats: dict[str, list[float]] = {name: [] for name in feature_names}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(f"expected {len(header)} cells, found {len(row)}", line=lineno)
            ts_raw.append(row[col_idx[schema.timestamp]].strip())
            for name, sink in [(schema.target, target)] + [(n, feats[n]) for n in feature_names]:
                cell = row[col_idx[name]].strip()
                if cell == "":
                    raise DataError(f"missing value in column {name!r}", line=lineno)
                try:
                    sink.append(float(cell))
                except ValueError:
                    raise DataError(f"non-numeric value {cell!r} in column {name!r}",
                                    line=lineno) from None

    if not target:
        raise DataError("file has a header but no data rows")
    timestamps = _parse_timestamps(ts_raw)
    target_arr = np.asarray(target, dtype=float)
    feat_arrs = {n: np.asarray(v, dtype=float) for n, v in feats.items()}
    if schema.capacities:
        for name, cap in schema.capacities.items():
            if not 0 < cap < np.inf:
                raise ParameterError(
                    f"nominal capacity for {name!r} must be finite and positive, not {cap!r}")
            if name == schema.target:
                target_arr = target_arr / cap
            elif name in feat_arrs:
                feat_arrs[name] = feat_arrs[name] / cap
            else:
                raise SchemaError(f"capacity given for unknown column {name!r}")

    return Dataset(timestamps, target_arr, feat_arrs, {n: n for n in feature_names},
                   target_name=schema.target, target_owner=schema.target_owner)


def _parse_timestamps(raw: Sequence[str]) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in raw])
    except ValueError:
        pass
    try:
        ts = np.asarray(raw, dtype="datetime64[s]")
    except ValueError:
        raise DataError("timestamps are neither numeric nor ISO-8601") from None
    return ts


def make_lags(dataset: Dataset, lag_spec: Mapping[str, Sequence[int]]) -> Dataset:
    """Replace each lagged series by its lags and trim rows that would look
    before t=0.

    ``lag_spec`` maps a series name (a feature or the target) to the lags
    wanted for it.  The first ``max(lag)`` rows are dropped so every
    remaining row has complete history; lagged columns inherit the owner
    of their source series.  The contemporaneous column of a lagged
    feature is removed: in the ARX convention lags replace levels.
    """
    if not lag_spec:
        return dataset
    try:
        all_lags = [d for lags in lag_spec.values() for d in lags]
    except TypeError:
        raise ParameterError("each series' lags must be a sequence of integers") from None
    if not all_lags:
        return dataset
    if not all(map(is_integer, all_lags)):
        raise ParameterError(f"lags must be integers, not {all_lags!r}")
    if min(all_lags) < 1:
        raise ParameterError("lags must be >= 1")
    max_lag = max(all_lags)
    if dataset.T <= max_lag:
        raise InsufficientDataError(
            f"need more than {max_lag} rows to build lag {max_lag}, have {dataset.T}")

    def series(name: str) -> np.ndarray:
        if name == dataset.target_name:
            return dataset.target
        try:
            return dataset.features[name]
        except KeyError:
            raise FeatureLookupError(f"unknown series {name!r} in lag spec") from None

    cut = slice(max_lag, None)
    features = {n: v[cut] for n, v in dataset.features.items()}
    lineage = {n: src for n, src in dataset.lineage.items()}
    for name in sorted(lag_spec):
        src = series(name)
        features.pop(name, None)
        for d in sorted(set(lag_spec[name])):
            col = f"{name}[t-{d}]"
            features[col] = src[max_lag - d:dataset.T - d]
            lineage[col] = (dataset.market_name(name), d)
    return Dataset(dataset.timestamps[cut], dataset.target[cut], features,
                   dict(dataset.ownership), target_name=dataset.target_name,
                   target_owner=dataset.target_owner, lineage=lineage)


@dataclass(frozen=True)
class TermDescriptor:
    """One column of an augmented design.

    ``support`` is the set of market-level feature names the term needs;
    it is empty only for the intercept.  Lag terms additionally record
    their source series and lag.
    """

    kind: str                 # "intercept" | "raw" | "lag" | "monomial"
    name: str
    support: frozenset[str]
    source: str | None = None
    lag: int = 0


@dataclass(frozen=True)
class AugmentedDesign:
    """Ordered terms plus their evaluated T x n matrix."""

    terms: tuple[TermDescriptor, ...]
    values: np.ndarray
    feature_owners: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if not self.terms or self.terms[0].kind != "intercept":
            raise ParameterError("first design term must be the intercept")
        if self.values.shape[1] != len(self.terms):
            raise ParameterError("terms and value columns disagree")

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def term_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms)

    @property
    def market_features(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for term in self.terms:
            for f in sorted(term.support):
                seen.setdefault(f)
        return tuple(seen)

    def columns_for(self, allowed: frozenset[str]) -> tuple[int, ...]:
        """Indices of terms whose support lies inside ``allowed``."""
        return tuple(i for i, t in enumerate(self.terms) if t.support <= allowed)

    def subset(self, indices: Sequence[int]) -> "AugmentedDesign":
        return AugmentedDesign(tuple(self.terms[i] for i in indices),
                               self.values[:, list(indices)],
                               self.feature_owners)


def polynomial_expand(dataset: Dataset, degree: int,
                      include_interactions: bool = True) -> AugmentedDesign:
    """Expand dataset columns into an intercept + monomial design.

    With interactions on, all monomials of total degree <= ``degree`` over
    the columns appear, giving C(K + degree, degree) terms; otherwise only
    pure powers of single columns.  Term order: intercept, then ascending
    degree, combinations in column order.
    """
    if degree < 1:
        raise ParameterError("degree must be >= 1")
    cols = dataset.feature_names
    owners = {dataset.market_name(c): dataset.owner_of(c) for c in cols}

    terms: list[TermDescriptor] = [TermDescriptor(
        kind="intercept", name=INTERCEPT_NAME, support=frozenset())]
    columns: list[np.ndarray] = [np.ones(dataset.T)]

    for d in range(1, degree + 1):
        if include_interactions:
            combos = itertools.combinations_with_replacement(cols, d)
        else:
            combos = ((c,) * d for c in cols)
        for combo in combos:
            powers = tuple((c, combo.count(c)) for c in dict.fromkeys(combo))
            support = frozenset(dataset.market_name(c) for c, _ in powers)
            value = np.ones(dataset.T)
            # the features are finite, so only an overflowed product is not
            with np.errstate(over="ignore", invalid="ignore"):
                for c, p in powers:
                    value = value * dataset.features[c] ** p
            term = _describe_term(dataset, powers, support)
            if not np.all(np.isfinite(value)):
                raise ParameterError(f"design term {term.name!r} is not finite: "
                                     "its monomial overflows")
            terms.append(term)
            columns.append(value)
    return AugmentedDesign(tuple(terms), np.column_stack(columns), owners)


def _describe_term(dataset: Dataset, powers, support) -> TermDescriptor:
    name = "*".join(c if p == 1 else f"{c}^{p}" for c, p in powers)
    if len(powers) == 1 and powers[0][1] == 1:
        col = powers[0][0]
        if col in dataset.lineage:
            src, d = dataset.lineage[col]
            return TermDescriptor(kind="lag", name=name, support=support,
                                  source=src, lag=d)
        return TermDescriptor(kind="raw", name=name, support=support)
    return TermDescriptor(kind="monomial", name=name, support=support)


def coalition_design(design: AugmentedDesign, central: frozenset[str] | set[str],
                     coalition: frozenset[str] | set[str]) -> AugmentedDesign:
    """Sub-design a coalition can see: terms supported by central u coalition.

    The intercept is always included.  Term order is preserved, so nested
    coalitions produce nested designs.
    """
    central = frozenset(central)
    coalition = frozenset(coalition)
    if central & coalition:
        raise ParameterError(f"coalition overlaps central features: {sorted(central & coalition)}")
    # central names may legitimately include features with no term yet, but
    # coalition members must exist in the design
    missing = coalition - set(design.market_features)
    if missing:
        raise FeatureLookupError(f"unknown coalition features: {sorted(missing)}")
    return design.subset(design.columns_for(central | coalition))


def dataset_to_csv(dataset: Dataset, path) -> None:
    """Write a dataset back in the default :class:`CsvSchema` layout.

    Floats are written with repr, so a written file re-ingests to exactly
    the same values and re-serialises byte-identically.
    """
    names = list(dataset.feature_names)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([CsvSchema.timestamp, dataset.target_name] + names)
        for i in range(dataset.T):
            ts = dataset.timestamps[i]
            cell = repr(float(ts)) if isinstance(ts, (int, float, np.integer, np.floating)) else str(ts)
            row = [cell, repr(float(dataset.target[i]))]
            row += [repr(float(dataset.features[n][i])) for n in names]
            writer.writerow(row)
