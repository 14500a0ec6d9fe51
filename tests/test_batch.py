import numpy as np
import pytest
from scipy.optimize import minimize

from regmarket import (
    Dataset,
    EnumerationCapError,
    LossSpec,
    ParameterError,
    fit_batch,
    insample_loss,
    polynomial_expand,
)
from regmarket.batch import enumerate_coalitions, fit_all_coalitions, fit_matrix

QUAD = LossSpec("quadratic")


def linear_dataset(T=400, seed=0, beta=(0.5, -1.0, 0.25), noise=0.1,
                   owners=("a1", "a2", "a3")):
    rng = np.random.default_rng(seed)
    names = tuple(f"x{i+1}" for i in range(len(beta)))
    feats = {n: rng.normal(size=T) for n in names}
    y = sum(b * feats[n] for b, n in zip(beta, names)) + rng.normal(0, noise, T)
    ds = Dataset(np.arange(T), y, feats,
                 {n: o for n, o in zip(names, owners)}, target_owner=owners[0])
    return ds, polynomial_expand(ds, degree=1)


def test_exact_interpolation_gives_zero_loss():
    ds, design = linear_dataset(noise=0.0)
    fit = fit_batch(design, ds.target, QUAD)
    assert fit.loss_star == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(fit.coefficients, [0.0, 0.5, -1.0, 0.25], atol=1e-10)


def test_normal_equation_orthogonality():
    ds, design = linear_dataset(T=600, seed=3, noise=0.4)
    fit = fit_batch(design, ds.target, QUAD)
    res = ds.target - design.values @ fit.coefficients
    bound = 1e-8 * np.linalg.norm(ds.target)
    assert np.all(np.abs(design.values.T @ res) <= bound)


def test_loss_star_round_trips_from_coefficients():
    ds, design = linear_dataset(T=300, seed=9, noise=0.3)
    for spec in (QUAD, LossSpec("smooth-quantile", tau=0.7, alpha=0.1)):
        fit = fit_batch(design, ds.target, spec)
        recomputed = insample_loss(ds.target - design.values @ fit.coefficients, spec)
        assert recomputed == pytest.approx(fit.loss_star, rel=1e-12)


def test_nested_models_never_increase_loss():
    ds, design = linear_dataset(T=500, seed=5, noise=0.5)
    for spec in (QUAD, LossSpec("smooth-quantile", tau=0.3, alpha=0.1)):
        losses = []
        for upto in range(1, design.n + 1):
            sub = design.subset(range(upto))
            losses.append(fit_batch(sub, ds.target, spec).loss_star)
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-8


def test_smooth_quantile_matches_derivative_free_optimiser():
    rng = np.random.default_rng(11)
    T = 400
    x = rng.normal(size=T)
    y = 1.0 + 0.5 * x + rng.normal(0, 0.3, T)
    X = np.column_stack([np.ones(T), x])
    spec = LossSpec("smooth-quantile", tau=0.8, alpha=0.2)
    fit = fit_matrix(X, y, spec)

    def objective(beta):
        return insample_loss(y - X @ beta, spec)

    reference = minimize(objective, x0=np.zeros(2), method="Nelder-Mead",
                         options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000})
    assert np.allclose(fit.coefficients, reference.x, atol=1e-4)
    assert fit.loss_star <= reference.fun + 1e-12


def test_median_limit_on_intercept_only_design():
    rng = np.random.default_rng(2)
    y = rng.normal(size=801)
    X = np.ones((y.size, 1))
    alpha = 1e-3
    spec = LossSpec("smooth-quantile", tau=0.5, alpha=alpha)
    fit = fit_matrix(X, y, spec)
    tol = alpha * np.log(2) + 1e-6
    med = np.median(y)
    # the fitted location's pinball loss cannot beat the sample median's by
    # more than the smoothing gap
    assert abs(fit.coefficients[0] - med) < 0.05
    assert insample_loss(y - fit.coefficients[0], spec) <= \
        insample_loss(y - med, spec) + tol


def test_jitter_recorded_for_collinear_design():
    rng = np.random.default_rng(4)
    T = 100
    x = rng.normal(size=T)
    X = np.column_stack([np.ones(T), x, x])  # exact duplicate column
    y = x + rng.normal(0, 0.1, T)
    fit = fit_matrix(X, y, QUAD)
    assert fit.jitter > 0


def test_coalition_enumeration_sizes():
    assert len(list(enumerate_coalitions(("a",)))) == 2
    assert len(list(enumerate_coalitions(("a", "b", "c")))) == 8


def test_fit_all_coalitions_counts_and_losses():
    ds, design = linear_dataset(T=400, seed=6, noise=0.2)
    table = fit_all_coalitions(design, ds.target, central=frozenset({"x1"}),
                               support=("x2", "x3"), spec=QUAD)
    assert len(table.losses) == 4
    assert table.full_loss <= table.central_loss
    assert table.surplus > 0


def test_fit_all_coalitions_enforces_cap():
    ds, design = linear_dataset(T=50, seed=7, beta=tuple([0.1] * 4),
                                owners=("a1", "a2", "a2", "a2"))
    with pytest.raises(EnumerationCapError):
        fit_all_coalitions(design, ds.target, central=frozenset({"x1"}),
                           support=("x2", "x3", "x4"), spec=QUAD, cap=2)


def test_deterministic_coalition_order():
    ds, design = linear_dataset(T=200, seed=8, noise=0.2)
    t1 = fit_all_coalitions(design, ds.target, central=frozenset({"x1"}),
                            support=("x3", "x2"), spec=QUAD)
    t2 = fit_all_coalitions(design, ds.target, central=frozenset({"x1"}),
                            support=("x2", "x3"), spec=QUAD)
    assert list(t1.losses) == list(t2.losses)
    assert t1.losses == t2.losses
