import numpy as np
import pytest

from regmarket import (
    Dataset,
    LossSpec,
    OnlineSession,
    ParameterError,
    SingularUpdateError,
    init_state,
    loss_h1,
    loss_h2,
    loss_value,
    online_step,
    polynomial_expand,
)
from regmarket.batch import enumerate_coalitions, fit_matrix
from regmarket.online import WARM_START, ZERO_START

QUAD = LossSpec("quadratic")


def stream_data(T=300, n=4, seed=0, noise=0.3):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(T), rng.normal(size=(T, n - 1))])
    beta = rng.normal(size=n)
    y = X @ beta + rng.normal(0, noise, T)
    return X, y, beta


def run_stream(state, X, y, lam, spec):
    for t in range(X.shape[0]):
        state, eps, l_t = online_step(state, X[t], y[t], lam, spec)
    return state


# -- initialisation ----------------------------------------------------------

def test_zero_start_initialises_flat():
    st = init_state(None, None, ZERO_START, QUAD, 0.99, n=3)
    assert np.all(st.coefficients == 0.0)
    assert st.step_count == 0
    assert not st.ready


def test_warm_start_requires_enough_rows():
    X, y, _ = stream_data(T=3, n=4)
    with pytest.raises(ParameterError):
        init_state(X, y, WARM_START, QUAD, 0.99, min_warm=2)


def test_warm_start_recovers_coefficients():
    # over several seeds the warm-start estimate lands near the truth
    gaps = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        T = 100
        X = np.column_stack([np.ones(T), rng.normal(size=(T, 2))])
        beta = np.array([0.1, -0.3, 0.5])
        y = X @ beta + rng.normal(0, 0.3, T)
        st = init_state(X, y, WARM_START, QUAD, 0.998, min_warm=100)
        gaps.append(abs(st.coefficients[2] - 0.5))
    assert np.mean(gaps) < 0.05
    assert max(gaps) < 0.15


def test_warm_start_memory_matches_recursion():
    # running the recursion over the warm rows from zero must land on the
    # same memory the warm start computes in closed form
    X, y, _ = stream_data(T=60, n=3, seed=5)
    lam = 0.97
    warm = init_state(X, y, WARM_START, QUAD, lam, min_warm=10)
    M = np.zeros((3, 3))
    for t in range(60):
        M = lam * M + np.outer(X[t], X[t])  # h2 = 1 for the quadratic loss
    assert np.allclose(warm.memory, M, rtol=1e-12)


# -- stepping ----------------------------------------------------------------

def test_rls_equivalence_with_unit_forgetting():
    for seed in range(5):
        X, y, _ = stream_data(T=250, n=4, seed=seed)
        st = init_state(None, None, ZERO_START, QUAD, 1.0, n=4)
        st = run_stream(st, X, y, 1.0, QUAD)
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.allclose(st.coefficients, ols, atol=1e-6)


def test_warm_start_rls_continues_batch_solution():
    X, y, _ = stream_data(T=400, n=3, seed=9)
    st = init_state(X[:100], y[:100], WARM_START, QUAD, 1.0, min_warm=50)
    st = run_stream(st, X[100:], y[100:], 1.0, QUAD)
    ols = np.linalg.lstsq(X, y, rcond=None)[0]
    assert np.allclose(st.coefficients, ols, atol=1e-6)


def test_perfect_prediction_leaves_coefficients_alone():
    X, y, _ = stream_data(T=120, n=3, seed=1, noise=0.0)
    fit = fit_matrix(X, y, QUAD)
    st = init_state(X, y, WARM_START, QUAD, 0.99, min_warm=10)
    before_M = st.memory.copy()
    x_new = np.array([1.0, 0.4, -0.2])
    y_new = float(fit.coefficients @ x_new)
    st2, eps, l_t = online_step(st, x_new, y_new, 0.99, QUAD)
    assert eps == pytest.approx(0.0, abs=1e-12)
    assert l_t == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(st2.coefficients, st.coefficients, atol=1e-12)
    assert not np.allclose(st2.memory, before_M)  # memory still accumulates


def test_memory_stays_symmetric_and_positive_definite():
    X, y, _ = stream_data(T=500, n=4, seed=3)
    lam = 0.995
    spec = LossSpec("smooth-quantile", tau=0.3, alpha=0.2)
    st = init_state(X[:80], y[:80], WARM_START, spec, lam, min_warm=40)
    for t in range(80, 500):
        st, _, _ = online_step(st, X[t], y[t], lam, spec)
        assert np.max(np.abs(st.memory - st.memory.T)) <= 1e-12
        np.linalg.cholesky(st.memory)  # raises if not positive definite


def test_prior_residual_is_one_step_ahead_error():
    X, y, _ = stream_data(T=150, n=3, seed=4)
    st = init_state(X[:50], y[:50], WARM_START, QUAD, 0.99, min_warm=20)
    beta_before = st.coefficients.copy()
    st2, eps, _ = online_step(st, X[50], y[50], 0.99, QUAD)
    assert eps == pytest.approx(float(y[50] - beta_before @ X[50]))


def test_ewma_replay_matches_definition():
    X, y, _ = stream_data(T=200, n=3, seed=6)
    lam = 0.98
    spec = QUAD
    st = init_state(None, None, ZERO_START, spec, lam, n=3)
    losses = []
    for t in range(200):
        st, eps, l_t = online_step(st, X[t], y[t], lam, spec)
        losses.append(l_t)
        replay = sum(lam ** (len(losses) - 1 - i) * (1 - lam) * li
                     for i, li in enumerate(losses))
        assert st.ewma.value == pytest.approx(replay, rel=1e-9)


# -- sessions ----------------------------------------------------------------

@pytest.fixture
def session_setup():
    rng = np.random.default_rng(12)
    T = 260
    feats = {"x2": rng.normal(size=T), "x3": rng.normal(size=T)}
    y = 0.4 * feats["x2"] - 0.8 * feats["x3"] + rng.normal(0, 0.3, T)
    ds = Dataset(np.arange(T), y, feats, {"x2": "a2", "x3": "a3"},
                 target_owner="a1")
    design = polynomial_expand(ds, degree=1)
    coalitions = list(enumerate_coalitions(("x2", "x3")))
    session = OnlineSession(design, frozenset(), coalitions, 0.99, QUAD)
    return ds, design, session


def test_session_advances_all_coalitions_in_lockstep(session_setup):
    ds, design, session = session_setup
    session.init_states(design.values[:60], ds.target[:60], WARM_START, min_warm=30)
    for t in range(60, 200):
        out = session.step(design.values[t], ds.target[t])
        assert len(out) == 4
    counts = {s.step_count for s in session.states.values()}
    assert counts == {140}


def test_session_with_three_features_runs_eight_states():
    rng = np.random.default_rng(15)
    T = 160
    feats = {k: rng.normal(size=T) for k in ("x2", "x3", "x4")}
    y = (0.4 * feats["x2"] - 0.8 * feats["x3"] + 0.2 * feats["x4"]
         + rng.normal(0, 0.3, T))
    ds = Dataset(np.arange(T), y, feats,
                 {"x2": "a2", "x3": "a3", "x4": "a3"}, target_owner="a1")
    design = polynomial_expand(ds, degree=1)
    coalitions = list(enumerate_coalitions(("x2", "x3", "x4")))
    session = OnlineSession(design, frozenset(), coalitions, 0.995, QUAD)
    session.init_states(design.values[:40], ds.target[:40], WARM_START, min_warm=20)
    for t in range(40, 160):
        session.step(design.values[t], ds.target[t])
    assert len(session.states) == 8
    assert {s.step_count for s in session.states.values()} == {120}


def test_grand_coalition_tracks_lower_loss():
    # on stationary data the grand coalition's loss estimate sits below the
    # central-only one on nearly every post-burn-in step, across seeds
    wins = steps = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        T = 260
        feats = {"x2": rng.normal(size=T), "x3": rng.normal(size=T)}
        y = 0.4 * feats["x2"] - 0.8 * feats["x3"] + rng.normal(0, 0.3, T)
        ds = Dataset(np.arange(T), y, feats, {"x2": "a2", "x3": "a3"},
                     target_owner="a1")
        design = polynomial_expand(ds, degree=1)
        coalitions = list(enumerate_coalitions(("x2", "x3")))
        session = OnlineSession(design, frozenset(), coalitions, 0.99, QUAD)
        session.init_states(design.values[:60], ds.target[:60], WARM_START,
                            min_warm=30)
        for t in range(60, 260):
            session.step(design.values[t], ds.target[t])
            if t >= 120:
                losses = session.ewma_losses()
                steps += 1
                wins += losses[frozenset({"x2", "x3"})] <= losses[frozenset()]
    assert wins / steps >= 0.95


def test_snapshot_round_trip_resumes_exactly(session_setup):
    import json

    ds, design, session = session_setup
    session.init_states(design.values[:60], ds.target[:60], WARM_START, min_warm=30)
    for t in range(60, 150):
        session.step(design.values[t], ds.target[t])
    snap = json.loads(json.dumps(session.to_snapshot()))  # through the wire
    resumed = OnlineSession.from_snapshot(snap, design)
    for t in range(150, 220):
        a = session.step(design.values[t], ds.target[t])
        b = resumed.step(design.values[t], ds.target[t])
        assert a == b
    for c in session.coalitions:
        assert np.array_equal(session.states[c].coefficients,
                              resumed.states[c].coefficients)


# -- stacked engine ----------------------------------------------------------

# alpha comparable to the noise: with a much narrower alpha the zero-start
# Newton step from all-zero coefficients weighs rows by h2 values spread over
# orders of magnitude and overshoots, and the recursion then amplifies any
# rounding difference, so no two summation orders stay within 1e-10
SMOOTH = LossSpec("smooth-quantile", tau=0.3, alpha=0.5)


def unequal_width_setup(T, seed=31):
    # central x1 plus three support features: coalition designs of 2 to 5
    # columns, so every narrower design is padded inside the session
    rng = np.random.default_rng(seed)
    feats = {k: rng.normal(size=T) for k in ("x1", "x2", "x3", "x4")}
    y = (0.5 * feats["x1"] + 0.4 * feats["x2"] - 0.8 * feats["x3"]
         + 0.1 * feats["x4"] + rng.normal(0, 0.3, T))
    owners = {"x1": "a1", "x2": "a2", "x3": "a3", "x4": "a4"}
    ds = Dataset(np.arange(T), y, feats, owners, target_owner="a1")
    design = polynomial_expand(ds, degree=1)
    coalitions = list(enumerate_coalitions(("x2", "x3", "x4")))
    return design, ds.target, coalitions


def reference_step(state, x, y_t, lam, spec):
    """The three update equations for one coalition, written out plainly."""
    beta, M, pending = state["beta"], state["M"], state["pending"]
    eps = y_t - beta @ x
    M = lam * M + np.outer(x, x) * loss_h2(eps, spec)
    steps = state["steps"] + 1
    ready = state["ready"]
    if ready:
        beta = beta + np.linalg.solve(M, x * loss_h1(eps, spec))
    else:
        pending = lam * pending + x * loss_h1(eps, spec)
        if steps >= state["min_warm"]:
            try:
                np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                pass
            else:
                beta, ready = np.linalg.solve(M, pending), True
    ewma = lam * state["ewma"] + (1 - lam) * loss_value(eps, spec)
    return {"beta": beta, "M": M, "pending": pending, "steps": steps,
            "ready": ready, "min_warm": state["min_warm"], "ewma": ewma}


def assert_close(a, b, rel=1e-10):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.max(np.abs(a - b)) <= rel * max(1.0, float(np.max(np.abs(b))))


def run_against_reference(policy, spec, lam, T, warm=60, check_every=1):
    design, y, coalitions = unequal_width_setup(T)
    X = design.values
    session = OnlineSession(design, frozenset({"x1"}), coalitions, lam, spec)
    if policy == WARM_START:
        session.init_states(X[:warm], y[:warm], WARM_START, min_warm=warm)
        start = warm
    else:
        session.init_states(None, None, ZERO_START)
        start = 0
    assert len({len(idx) for idx in session.columns.values()}) == 4
    ref = {}
    for c, st in session.states.items():
        ref[c] = {"beta": st.coefficients, "M": st.memory, "ewma": st.ewma.value,
                  "steps": st.step_count, "ready": st.ready,
                  "min_warm": st.min_warm_steps,
                  "pending": None if st.ready else st.pending_gradient}
    ready_seen = set()
    for t in range(start, T):
        out = session.step(X[t], y[t])
        for c, idx in session.columns.items():
            ref[c] = reference_step(ref[c], X[t, list(idx)], y[t], lam, spec)
        if (t - start) % check_every == 0 or t == T - 1:
            states = session.states
            for c in coalitions:
                assert states[c].ready == ref[c]["ready"]
                assert_close(states[c].coefficients, ref[c]["beta"])
                assert_close(states[c].ewma.value, ref[c]["ewma"])
                ready_seen.add(states[c].ready)
        assert set(out) == set(coalitions)
    return ready_seen


@pytest.mark.parametrize("policy", [WARM_START, ZERO_START])
@pytest.mark.parametrize("spec", [QUAD, SMOOTH], ids=["quadratic", "smooth-quantile"])
def test_stacked_session_matches_per_coalition_loop(policy, spec):
    ready_seen = run_against_reference(policy, spec, lam=0.99, T=400)
    # zero start passes through steps where only the narrow designs are ready
    assert ready_seen == ({True} if policy == WARM_START else {False, True})


@pytest.mark.parametrize("lam, T", [(0.9, 5060), (0.4, 1260)])
def test_identity_padding_survives_fast_forgetting(lam, T):
    # an unreset padding block would decay as lam^t; at lam = 0.9 it sticks
    # at a few subnormal units, below lam = 0.5 it rounds to an exact zero
    # (here after about 815 steps) and the memory turns singular
    run_against_reference(WARM_START, QUAD, lam=lam, T=T, check_every=100)


def test_singular_update_names_its_coalition():
    design, y, coalitions = unequal_width_setup(200)
    X = design.values
    session = OnlineSession(design, frozenset({"x1"}), coalitions, 0.99, QUAD)
    session.init_states(X[:60], y[:60], WARM_START, min_warm=60)
    snap = session.to_snapshot()
    bad = next(e for e in snap["coalitions"] if e["members"] == ["x3"])
    bad["memory"] = (-np.eye(len(bad["terms"]))).tolist()
    broken = OnlineSession.from_snapshot(snap, design)
    before = broken.states
    with pytest.raises(SingularUpdateError, match=r"coalition \['x3'\]") as err:
        broken.step(X[60], y[60])
    assert err.value.step == 1
    # a failed step changes no coalition's state
    after = broken.states
    for c in coalitions:
        assert np.array_equal(after[c].coefficients, before[c].coefficients)
        assert after[c].step_count == before[c].step_count


def test_snapshot_round_trip_while_warming_up():
    import json

    design, y, coalitions = unequal_width_setup(120)
    X = design.values
    session = OnlineSession(design, frozenset({"x1"}), coalitions, 0.98, SMOOTH)
    session.init_states(None, None, ZERO_START)
    for t in range(6):
        session.step(X[t], y[t])
    snap = json.loads(json.dumps(session.to_snapshot()))
    assert {e["ready"] for e in snap["coalitions"]} == {False, True}
    assert all(set(e) == {"members", "terms", "coefficients", "memory", "ewma_loss",
                          "step_count", "ready", "pending_gradient", "min_warm_steps"}
               for e in snap["coalitions"])
    resumed = OnlineSession.from_snapshot(snap, design)
    assert resumed.to_snapshot() == snap
    for t in range(6, 120):
        assert session.step(X[t], y[t]) == resumed.step(X[t], y[t])
    for c in coalitions:
        a, b = session.states[c], resumed.states[c]
        assert a.ready and b.ready
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.memory, b.memory)
        assert a.ewma.value == b.ewma.value
