import math
import re

import numpy as np
import pytest

from regmarket import (
    CsvSchema,
    Dataset,
    DataError,
    FeatureLookupError,
    InsufficientDataError,
    OrderingError,
    ParameterError,
    SchemaError,
    TaskSpec,
    clear_batch_market,
    coalition_design,
    dataset_to_csv,
    ingest_csv,
    make_lags,
    polynomial_expand,
)


def small_dataset(T=6, names=("x1", "x2"), owner="a2"):
    rng = np.random.default_rng(0)
    feats = {n: rng.normal(size=T) for n in names}
    y = rng.normal(size=T)
    return Dataset(np.arange(T), y, feats,
                   ownership={n: owner for n in names}, target_owner="a1")


# -- ingestion ---------------------------------------------------------------

def test_ingest_smallest_valid_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("ts,y,x2\n1,0.5,1.0\n2,0.25,2.0\n3,0.125,3.0\n")
    ds = ingest_csv(p)
    assert ds.T == 3
    assert ds.feature_names == ("x2",)
    assert np.allclose(ds.target, [0.5, 0.25, 0.125])


def test_ingest_missing_target_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("ts,x2\n1,1.0\n")
    with pytest.raises(SchemaError):
        ingest_csv(p)


def test_ingest_capacity_normalisation(tmp_path):
    p = tmp_path / "wind.csv"
    p.write_text("ts,y\n1,1.48\n2,2.96\n")
    ds = ingest_csv(p, CsvSchema(capacities={"y": 2.96}))
    assert ds.target[0] == pytest.approx(0.5)
    assert ds.target[1] == pytest.approx(1.0)


@pytest.mark.parametrize("cap", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_ingest_refuses_a_capacity_that_is_not_finite_and_positive(tmp_path, cap):
    # an infinite capacity divides its column down to zeros, and a NaN one
    # turns every value of it into a missing one
    p = tmp_path / "wind.csv"
    p.write_text("ts,y,x2\n1,1.48,0.5\n2,2.96,0.7\n")
    for name in ("y", "x2"):
        with pytest.raises(ParameterError, match=re.escape(
                f"nominal capacity for {name!r} must be finite and positive, not {cap!r}")):
            ingest_csv(p, CsvSchema(capacities={name: cap}))


def test_ingest_row_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("ts,y,x2\n1,0.5,1.0\n2,oops,2.0\n")
    with pytest.raises(DataError) as err:
        ingest_csv(p)
    assert "line 3" in str(err.value)


def test_ingest_rejects_unordered_timestamps(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("ts,y,x2\n2,0.5,1.0\n1,0.6,2.0\n")
    with pytest.raises(OrderingError):
        ingest_csv(p)


def test_ingest_iso_timestamps(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("ts,y,x2\n2020-01-01T00:00:00,0.1,1\n2020-01-01T01:00:00,0.2,2\n")
    ds = ingest_csv(p)
    assert ds.T == 2


def test_csv_round_trip_is_byte_stable(tmp_path):
    ds = small_dataset(T=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dataset_to_csv(ds, p1)
    ds2 = ingest_csv(p1, CsvSchema(target_owner="a1"))
    dataset_to_csv(ds2, p2)
    assert p1.read_bytes() == p2.read_bytes()


# -- lags --------------------------------------------------------------------

def test_make_lags_shifts_by_one():
    ds = Dataset(np.arange(3), np.array([1.0, 2.0, 3.0]), {}, {}, target_owner="a1")
    out = make_lags(ds, {"y": (1,)})
    assert np.allclose(out.target, [2.0, 3.0])
    assert np.allclose(out.features["y[t-1]"], [1.0, 2.0])


def test_make_lags_trims_to_max_lag():
    ds = Dataset(np.arange(10), np.arange(10, dtype=float), {}, {}, target_owner="a1")
    out = make_lags(ds, {"y": (1, 2)})
    assert out.T == 8


def test_make_lags_arx_recipe_produces_four_columns():
    rng = np.random.default_rng(1)
    feats = {f"x{i}": rng.normal(size=12) for i in (2, 3, 4)}
    ds = Dataset(np.arange(12), rng.normal(size=12), feats,
                 {"x2": "a2", "x3": "a3", "x4": "a3"}, target_owner="a1")
    out = make_lags(ds, {"y": (1,), "x2": (1,), "x3": (1,), "x4": (1,)})
    lagged = [n for n in out.features if "[t-" in n]
    assert sorted(lagged) == ["x2[t-1]", "x3[t-1]", "x4[t-1]", "y[t-1]"]
    assert out.owner_of("y[t-1]") == "a1"
    assert out.owner_of("x3[t-1]") == "a3"
    # lags replace levels, the ARX convention
    assert "x2" not in out.features


def test_make_lags_rejects_bad_lags():
    ds = small_dataset()
    with pytest.raises(ParameterError):
        make_lags(ds, {"x1": (0,)})
    with pytest.raises(InsufficientDataError):
        make_lags(ds, {"x1": (10,)})


@pytest.mark.parametrize("lags", [(1.5,), (1.0,), (True,), ("1",), 1],
                         ids=["half", "float", "bool", "str", "bare-int"])
def test_make_lags_rejects_lags_that_are_not_integers(lags):
    # a float lag would fail as a slice index, and a bare int as a sequence
    with pytest.raises(ParameterError, match="integer"):
        make_lags(small_dataset(), {"x1": lags})


def test_make_lags_takes_numpy_integer_lags():
    ds = small_dataset()
    out, expected = make_lags(ds, {"x1": np.array([1, 2])}), make_lags(ds, {"x1": (1, 2)})
    assert list(out.features) == list(expected.features)
    for name, column in expected.features.items():
        assert np.array_equal(out.features[name], column)


# -- polynomial expansion ----------------------------------------------------

def test_expand_order_two_with_two_features():
    ds = small_dataset(names=("x1", "x2"))
    design = polynomial_expand(ds, degree=2)
    assert design.term_names == ("1", "x1", "x2", "x1^2", "x1*x2", "x2^2")
    assert design.n == 6


def test_expand_degree_one_is_plain_linear():
    ds = small_dataset(names=("x1", "x2", "x3"), owner="a2")
    design = polynomial_expand(ds, degree=1)
    assert design.n == 4
    assert all(t.kind in ("intercept", "raw") for t in design.terms)


def test_expand_term_count_matches_binomial():
    for K, d in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        ds = small_dataset(T=8, names=tuple(f"x{i}" for i in range(K)))
        design = polynomial_expand(ds, degree=d)
        # C(K + d, d): a full interaction design, intercept included
        assert design.n == math.comb(K + d, d)


def test_expand_rejects_degree_zero():
    with pytest.raises(ParameterError):
        polynomial_expand(small_dataset(), degree=0)


def test_an_overflowing_monomial_is_a_parameter_error_naming_its_term():
    # x1 near 1e300 is finite, its square is not: the expansion, and the
    # batch market that builds it, raise ParameterError, not a bare NumPy
    # overflow warning (the suite turns RuntimeWarning into an error)
    rng = np.random.default_rng(0)
    ds = Dataset(np.arange(60), rng.normal(size=60),
                 {"x1": 1e300 * rng.normal(size=60), "x2": rng.normal(size=60)},
                 ownership={"x1": "a2", "x2": "a3"}, target_owner="a1")
    with pytest.raises(ParameterError, match=r"'x1\^2'"):
        polynomial_expand(ds, degree=2)
    task = TaskSpec(central_agent="a1", ownership={"x1": "a2", "x2": "a3"}, degree=2)
    with pytest.raises(ParameterError, match=r"'x1\^2'"):
        clear_batch_market(ds, task)
    # at degree 1 the same data expands
    assert polynomial_expand(ds, degree=1).n == 3


def test_lags_then_linear_expand_reproduces_arx_design():
    rng = np.random.default_rng(3)
    feats = {"x1": rng.normal(size=9), "x2": rng.normal(size=9)}
    ds = Dataset(np.arange(9), rng.normal(size=9), feats,
                 {"x1": "a2", "x2": "a3"}, target_owner="a1")
    lagged = make_lags(ds, {"y": (1,), "x1": (1,), "x2": (1,)})
    design = polynomial_expand(lagged, degree=1,
                               include_interactions=False)
    assert design.term_names == ("1", "x1[t-1]", "x2[t-1]", "y[t-1]")
    lag_terms = [t for t in design.terms if t.kind == "lag"]
    assert {t.source for t in lag_terms} == {"x1", "x2", "y"}
    assert all(t.lag == 1 for t in lag_terms)
    # supports resolve to market-level names
    assert design.market_features == ("x1", "x2", "y")


# -- coalition designs -------------------------------------------------------

@pytest.fixture
def poly_design():
    rng = np.random.default_rng(5)
    feats = {f"x{i}": rng.normal(size=10) for i in (1, 2, 3)}
    ds = Dataset(np.arange(10), rng.normal(size=10), feats,
                 {"x1": "a1", "x2": "a2", "x3": "a3"}, target_owner="a1")
    return polynomial_expand(ds, degree=2)


def test_empty_coalition_keeps_central_terms_only(poly_design):
    sub = coalition_design(poly_design, {"x1"}, set())
    assert sub.term_names == ("1", "x1", "x1^2")


def test_coalition_bundles_interaction_terms(poly_design):
    sub = coalition_design(poly_design, {"x1"}, {"x3"})
    assert set(sub.term_names) == {"1", "x1", "x1^2", "x3", "x1*x3", "x3^2"}


def test_full_coalition_restores_design(poly_design):
    sub = coalition_design(poly_design, {"x1"}, {"x2", "x3"})
    assert sub.term_names == poly_design.term_names


def test_coalition_design_is_monotone(poly_design):
    small = coalition_design(poly_design, {"x1"}, {"x2"})
    large = coalition_design(poly_design, {"x1"}, {"x2", "x3"})
    assert set(small.term_names) <= set(large.term_names)


def test_empty_coalition_never_touches_support(poly_design):
    sub = coalition_design(poly_design, {"x1"}, set())
    for term in sub.terms:
        assert not (term.support & {"x2", "x3"})


def test_coalition_design_rejects_unknown_feature(poly_design):
    with pytest.raises(FeatureLookupError):
        coalition_design(poly_design, {"x1"}, {"nope"})


def test_coalition_design_preserves_term_order(poly_design):
    sub = coalition_design(poly_design, {"x1"}, {"x2"})
    positions = [poly_design.term_names.index(n) for n in sub.term_names]
    assert positions == sorted(positions)


# -- dataset invariants ------------------------------------------------------

def test_dataset_rejects_nan():
    with pytest.raises(DataError):
        Dataset(np.arange(3), np.array([1.0, np.nan, 2.0]), {}, {})


def test_dataset_rejects_length_mismatch():
    with pytest.raises(ParameterError):
        Dataset(np.arange(3), np.ones(3), {"x": np.ones(2)}, {"x": "a2"})


def test_dataset_arrays_are_immutable():
    ds = small_dataset()
    with pytest.raises(ValueError):
        ds.target[0] = 99.0
