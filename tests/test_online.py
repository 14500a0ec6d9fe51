import copy
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from regmarket import (
    Dataset,
    EwmaLoss,
    LossSpec,
    OnlineSession,
    OnlineState,
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
from regmarket.losses import loss_terms
from regmarket.online import WARM_START, ZERO_START, _StackedStates

QUAD = LossSpec("quadratic")
# the largest float whose doubling does not overflow
HALF_MAX = np.finfo(float).max / 2


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
        init_state(X, y, WARM_START, QUAD, 0.99)


def test_warm_start_recovers_coefficients():
    # over several seeds the warm-start estimate lands near the truth
    gaps = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        T = 100
        X = np.column_stack([np.ones(T), rng.normal(size=(T, 2))])
        beta = np.array([0.1, -0.3, 0.5])
        y = X @ beta + rng.normal(0, 0.3, T)
        st = init_state(X, y, WARM_START, QUAD, 0.998)
        gaps.append(abs(st.coefficients[2] - 0.5))
    assert np.mean(gaps) < 0.05
    assert max(gaps) < 0.15


def test_warm_start_memory_matches_recursion():
    # running the recursion over the warm rows from zero must land on the
    # same memory the warm start computes in closed form
    X, y, _ = stream_data(T=60, n=3, seed=5)
    lam = 0.97
    warm = init_state(X, y, WARM_START, QUAD, lam)
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
    st = init_state(X[:100], y[:100], WARM_START, QUAD, 1.0)
    st = run_stream(st, X[100:], y[100:], 1.0, QUAD)
    ols = np.linalg.lstsq(X, y, rcond=None)[0]
    assert np.allclose(st.coefficients, ols, atol=1e-6)


def test_perfect_prediction_leaves_coefficients_alone():
    X, y, _ = stream_data(T=120, n=3, seed=1, noise=0.0)
    fit = fit_matrix(X, y, QUAD)
    st = init_state(X, y, WARM_START, QUAD, 0.99)
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
    st = init_state(X[:80], y[:80], WARM_START, spec, lam)
    for t in range(80, 500):
        st, _, _ = online_step(st, X[t], y[t], lam, spec)
        assert np.array_equal(st.memory, st.memory.T)
        np.linalg.cholesky(st.memory)  # raises if not positive definite


def test_prior_residual_is_one_step_ahead_error():
    X, y, _ = stream_data(T=150, n=3, seed=4)
    st = init_state(X[:50], y[:50], WARM_START, QUAD, 0.99)
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
    session.init_states(design.values[:60], ds.target[:60], WARM_START)
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
    session.init_states(design.values[:40], ds.target[:40], WARM_START)
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
        session.init_states(design.values[:60], ds.target[:60], WARM_START)
        for t in range(60, 260):
            session.step(design.values[t], ds.target[t])
            if t >= 120:
                losses = session.ewma_losses()
                steps += 1
                wins += losses[frozenset({"x2", "x3"})] <= losses[frozenset()]
    assert wins / steps >= 0.95


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
        session.init_states(X[:warm], y[:warm], WARM_START)
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


def edit_states(session, edit):
    """Replace each coalition's state by ``edit(coalition, state)``."""
    session._set_states([edit(c, s) for c, s in session.states.items()])


def negate_memory(session, coalition):
    """Make ``coalition``'s memory minus the identity: not positive definite."""
    edit_states(session, lambda c, s: replace(s, memory=-np.eye(s.n)) if c == coalition
                else s)


def decouple_column(session, column, diagonal):
    """In every coalition holding design column ``column``, zero its
    coefficient and its row and column of the memory, and set its diagonal
    entry to ``diagonal``."""
    def edit(c, s):
        if column not in session.columns[c]:
            return s
        k = list(session.columns[c]).index(column)
        memory, coefficients = s.memory.copy(), s.coefficients.copy()
        memory[k, :] = memory[:, k] = 0.0
        memory[k, k] = diagonal
        coefficients[k] = 0.0
        return replace(s, memory=memory, coefficients=coefficients)
    edit_states(session, edit)


def test_singular_update_names_its_coalition():
    design, y, coalitions = unequal_width_setup(200)
    X = design.values
    broken = OnlineSession(design, frozenset({"x1"}), coalitions, 0.99, QUAD)
    broken.init_states(X[:60], y[:60], WARM_START)
    negate_memory(broken, frozenset({"x3"}))
    before = broken.states
    with pytest.raises(SingularUpdateError, match=r"coalition \['x3'\]") as err:
        broken.step(X[60], y[60])
    assert err.value.step == 1
    # a failed step changes no coalition's state
    after = broken.states
    for c in coalitions:
        assert np.array_equal(after[c].coefficients, before[c].coefficients)
        assert after[c].step_count == before[c].step_count


# edits that leave a state of width n not finite
NOT_FINITE = {
    "memory": lambda n: {"memory": np.diag([np.inf] + [1.0] * (n - 1))},
    "memory-nan": lambda n: {"memory": np.where(np.eye(n), 1.0, np.nan)},
    "coefficients": lambda n: {"coefficients": np.full(n, -np.inf)},
    "pending-gradient": lambda n: {"ready": False, "pending_gradient": np.full(n, np.nan),
                                   "min_warm_steps": 2 * n},
    "ewma": lambda n: {"ewma": EwmaLoss(np.inf, 0.99)},
}


@pytest.mark.parametrize("edit", NOT_FINITE.values(), ids=NOT_FINITE.keys())
def test_a_state_that_is_not_finite_is_refused_where_it_enters_the_stack(edit):
    # a ready quadratic state with memory diag(inf, 1), stepped on the row
    # [1, 1] with target 1, would otherwise return coefficients [0, 0.5025]
    state = replace(OnlineState(np.zeros(2), np.eye(2), EwmaLoss(0.0, 0.99)), **edit(2))
    with pytest.raises(ParameterError, match="online state is not finite"):
        online_step(state, np.ones(2), 1.0, 0.99, QUAD)
    design, y, coalitions = unequal_width_setup(100)
    session = OnlineSession(design, frozenset({"x1"}), coalitions, 0.99, QUAD)
    session.init_states(design.values[:60], y[:60], WARM_START)
    before = session.states
    with pytest.raises(ParameterError, match=r"coalition \['x3'\]: online state is not finite"):
        edit_states(session, lambda c, s: replace(s, **edit(s.n)) if c == {"x3"} else s)
    # the session keeps the states it had
    for c in coalitions:
        assert np.array_equal(session.states[c].memory, before[c].memory)


# Singular, with a Cholesky factor: the determinant is 0, Cholesky's second
# pivot 0.5 - (1/sqrt(2))^2 is a rounding-sized positive number, and the LU
# factorisation of np.linalg.solve finds an exact zero pivot
LU_SINGULAR = np.array([[2.0, 1.0], [1.0, 0.5]])


def lu_singular_state(ready, min_warm_steps=0):
    """A state of width 2 whose memory is LU_SINGULAR; a zero row at lam = 1
    leaves its memory as it is."""
    return OnlineState(np.zeros(2), LU_SINGULAR.copy(), EwmaLoss(0.0, 1.0), ready=ready,
                       pending_gradient=None if ready else np.zeros(2),
                       min_warm_steps=min_warm_steps)


def test_a_memory_the_solve_finds_singular_fails_like_one_cholesky_rejects():
    np.linalg.cholesky(LU_SINGULAR)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(LU_SINGULAR, np.ones(2))
    # a waiting estimator keeps waiting
    state, _, _ = online_step(lu_singular_state(ready=False), np.zeros(2), 0.0, 1.0, QUAD)
    assert not state.ready and state.step_count == 1
    assert np.array_equal(state.coefficients, np.zeros(2))
    # a ready one fails its step with a typed error
    with pytest.raises(SingularUpdateError, match="memory matrix not positive definite") as err:
        online_step(lu_singular_state(ready=True), np.zeros(2), 0.0, 1.0, QUAD)
    assert err.value.step == 1


@pytest.mark.parametrize("ready", [False, True], ids=["waiting", "ready"])
def test_scan_declines_a_block_whose_solve_finds_a_memory_singular(session_setup, ready):
    # the waiting estimator's warm-up ends inside the block, so the scan
    # solves it from the block's second step; the block is replayed
    ds, design, _ = session_setup
    scan = OnlineSession(design, frozenset({"x2"}), [frozenset()], 1.0, QUAD)
    scan._set_states([lu_singular_state(ready, min_warm_steps=0 if ready else 2)])
    recursion = copy.deepcopy(scan)
    replays = count_replays(scan)
    X, y = np.zeros((3, design.n)), np.zeros(3)
    if ready:
        with pytest.raises(SingularUpdateError) as stepped:
            step_trace(recursion, X, y)
        with pytest.raises(SingularUpdateError) as streamed:
            scan.stream(X, y)
        assert str(streamed.value) == str(stepped.value) and streamed.value.step == 1
    else:
        losses, ewma, ready_steps = step_trace(recursion, X, y)
        trace = scan.stream(X, y)
        assert not ready_steps.any() and not trace.ready.any()
        assert np.array_equal(trace.losses, losses) and np.array_equal(trace.ewma, ewma)
    assert len(replays) == (1 if ready else 3)
    assert_sessions_equal(scan, recursion)


# -- block scan ----------------------------------------------------------------

def step_trace(session, X, y):
    """The trace ``stream`` records, built from ``step`` and the public state."""
    losses, ewma, ready = [], [], []
    for t in range(len(y)):
        out = session.step(X[t], y[t])
        losses.append([out[c][1] for c in session.coalitions])
        final = session.ewma_losses()
        ewma.append([final[c] for c in session.coalitions])
        ready.append(all(s.ready for s in session.states.values()))
    return np.array(losses), np.array(ewma), np.array(ready)


def assert_sessions_close(a, b):
    sa, sb = a.states, b.states
    for c in a.coalitions:
        assert sa[c].ready == sb[c].ready
        assert sa[c].step_count == sb[c].step_count
        assert sa[c].min_warm_steps == sb[c].min_warm_steps
        assert_close(sa[c].coefficients, sb[c].coefficients)
        assert_close(sa[c].memory, sb[c].memory)
        assert_close(sa[c].ewma.value, sb[c].ewma.value)
        assert (sa[c].pending_gradient is None) == (sb[c].pending_gradient is None)
        if sb[c].pending_gradient is not None:
            assert_close(sa[c].pending_gradient, sb[c].pending_gradient)


def twin_sessions(design, y, coalitions, lam, policy, spec=QUAD, warm=60):
    X = design.values
    pair = []
    for _ in range(2):
        session = OnlineSession(design, frozenset({"x1"}), coalitions, lam, spec)
        if policy == WARM_START:
            session.init_states(X[:warm], y[:warm], WARM_START)
        else:
            session.init_states(None, None, ZERO_START)
        pair.append(session)
    return pair, warm if policy == WARM_START else 0


def assert_stream_matches_recursion(scan, recursion, X, y):
    # every block must run as a scan: one replayed through the recursion
    # would match the recursion whatever the scan got wrong
    replays = []
    advance = scan._stack.advance
    scan._stack.advance = lambda *args: replays.append(args) or advance(*args)
    trace = scan.stream(X, y)
    assert not replays
    losses, ewma, ready = step_trace(recursion, X, y)
    assert np.array_equal(trace.ready, ready)
    assert_close(trace.losses, losses)
    assert_close(trace.ewma, ewma)
    assert_sessions_close(scan, recursion)
    return ready


@pytest.mark.parametrize("policy", [WARM_START, ZERO_START])
@pytest.mark.parametrize("lam", [0.4, 0.9, 0.999, 1.0])
def test_stream_scan_matches_step_recursion(policy, lam):
    # at lam = 0.4 an unreset padding block would round to zero after
    # about 815 steps, and the memory would fail its Cholesky check
    design, y, coalitions = unequal_width_setup(1000)
    (scan, recursion), start = twin_sessions(design, y, coalitions, lam, policy)
    assert len({len(idx) for idx in scan.columns.values()}) == 4
    # several blocks at every lam: 8 steps at 0.4, 66 at 0.9, 163 above
    assert scan._scan_steps() < (1000 - start) // 5
    ready = assert_stream_matches_recursion(scan, recursion, design.values[start:],
                                            y[start:])
    assert ready.all() if policy == WARM_START else not ready[0] and ready[-1]
    assert_memory_exactly_symmetric(scan)


def test_stream_scan_warm_up_across_block_boundaries(monkeypatch):
    # three-step blocks end inside every zero-start warm-up (4 to 10 steps),
    # and x4 is zero for the first 25 rows, so the designs holding it wait
    # past their warm-up until their memory has a Cholesky factor
    monkeypatch.setattr("regmarket.online.SCAN_FLOATS", 3 * 8 * 25)
    design, y, coalitions = unequal_width_setup(200)
    X = design.values.copy()
    X[:25, [t.name for t in design.terms].index("x4")] = 0.0
    (scan, recursion), _ = twin_sessions(design, y, coalitions, 0.95, ZERO_START)
    assert scan._scan_steps() == 3
    assert max(s.min_warm_steps for s in scan.states.values()) == 10
    ready = assert_stream_matches_recursion(scan, recursion, X, y)
    assert np.argmax(ready) + 1 == 26


def test_stream_raises_singular_update_like_the_recursion():
    # x4 is zero from the warm-up on, and each memory holding it keeps only
    # a unit diagonal there: at lam = 0.5 that entry halves exactly on both
    # paths until it rounds to zero at step 1075, inside a ten-step block
    design, y, coalitions = unequal_width_setup(1300)
    X = design.values.copy()
    j = [t.name for t in design.terms].index("x4")
    X[60:, j] = 0.0
    scan = OnlineSession(design, frozenset({"x1"}), coalitions, 0.5, QUAD)
    scan.init_states(X[:60], y[:60], WARM_START)
    decouple_column(scan, j, 1.0)
    recursion = copy.deepcopy(scan)
    assert scan._scan_steps() == 10
    with pytest.raises(SingularUpdateError) as expected:
        step_trace(recursion, X[60:], y[60:])
    with pytest.raises(SingularUpdateError) as raised:
        scan.stream(X[60:], y[60:])
    assert raised.value.step == expected.value.step == 1075
    assert str(raised.value) == str(expected.value)
    assert "x4" in str(raised.value)
    assert_sessions_close(scan, recursion)
    assert {s.step_count for s in scan.states.values()} == {1074}


@pytest.mark.parametrize("value, error, message", [
    (np.nan, ParameterError, "online step needs finite data"),
    # finite, but its squared residual overflows: a numeric failure of the
    # step, raised without a NumPy warning
    (1e155, SingularUpdateError, "coalition ['x3']: residual or loss overflowed"),
], ids=["nan-online step needs finite data", "1e+155-residual or loss overflowed"])
def test_stream_raises_on_non_finite_data_like_the_recursion(value, error, message):
    design, y, coalitions = unequal_width_setup(400)
    X = design.values.copy()
    X[250, [t.name for t in design.terms].index("x3")] = value
    (scan, recursion), start = twin_sessions(design, y, coalitions, 0.99, WARM_START)
    with pytest.raises(error, match=re.escape(message)) as stepped:
        step_trace(recursion, X[start:], y[start:])
    with pytest.raises(error, match=re.escape(message)) as streamed:
        scan.stream(X[start:], y[start:])
    assert str(streamed.value) == str(stepped.value)
    if error is SingularUpdateError:
        assert streamed.value.step == stepped.value.step == 250 - start + 1
    assert_sessions_close(scan, recursion)
    assert {s.step_count for s in scan.states.values()} == {250 - start}


def test_snapshot_after_stream_resumes_with_step():
    design, y, coalitions = unequal_width_setup(300)
    X = design.values
    (scan, recursion), _ = twin_sessions(design, y, coalitions, 0.98, ZERO_START)
    scan.stream(X[:200], y[:200])
    step_trace(recursion, X[:200], y[:200])
    resumed = copy.deepcopy(scan)
    assert_sessions_close(resumed, recursion)
    for t in range(200, 300):
        a, b = resumed.step(X[t], y[t]), recursion.step(X[t], y[t])
        assert_close([a[c] for c in coalitions], [b[c] for c in coalitions])
    assert_sessions_close(resumed, recursion)


def test_session_rejects_zero_forgetting():
    # lam = 0 keeps only the last row's outer product in memory, which no
    # design wider than one column can factorise
    design, y, coalitions = unequal_width_setup(50)
    with pytest.raises(ParameterError, match="forgetting factor"):
        OnlineSession(design, frozenset({"x1"}), coalitions, 0.0, QUAD)


@pytest.mark.parametrize("lam", [1e-3, 0.4, 0.9, 0.998, 1.0])
def test_scan_block_respects_rescale_and_float_budget(lam):
    from regmarket.online import SCALE_LIMIT, SCAN_FLOATS

    design, y, coalitions = unequal_width_setup(50)
    session = OnlineSession(design, frozenset({"x1"}), coalitions, lam, QUAD)
    steps = session._scan_steps()
    assert 1 <= steps and steps * 8 * 5 * 5 <= SCAN_FLOATS
    assert lam ** -(steps - 1) <= SCALE_LIMIT
    assert steps == SCAN_FLOATS // 200 or lam ** -steps > SCALE_LIMIT


@pytest.mark.parametrize("policy", [WARM_START, ZERO_START])
def test_smooth_quantile_stream_is_the_step_recursion(policy):
    design, y, coalitions = unequal_width_setup(300)
    X = design.values
    (stream, recursion), start = twin_sessions(design, y, coalitions, 0.99, policy,
                                               spec=SMOOTH)
    trace = stream.stream(X[start:], y[start:])
    losses, ewma, ready = step_trace(recursion, X[start:], y[start:])
    assert np.array_equal(trace.losses, losses)
    assert np.array_equal(trace.ewma, ewma)
    assert np.array_equal(trace.ready, ready)


@pytest.mark.parametrize("row", [250, 399])
def test_overflowed_memory_raises_at_its_step(row):
    # x4's coefficient is small, so at 3e154 the squared residual stays
    # finite while the memory's x4 entry, the value squared, overflows;
    # row 399 is the last step of the stream and of its scan block
    design, y, coalitions = unequal_width_setup(400)
    X = design.values.copy()
    X[row, [t.name for t in design.terms].index("x4")] = 3e154
    (scan, recursion), start = twin_sessions(design, y, coalitions, 0.99, WARM_START)
    step_trace(recursion, X[start:row], y[start:row])
    before = recursion.states
    with pytest.raises(SingularUpdateError, match="memory overflowed") as stepped:
        recursion.step(X[row], y[row])
    after = recursion.states
    for c in coalitions:
        assert after[c].step_count == before[c].step_count
        assert np.array_equal(after[c].coefficients, before[c].coefficients)
        assert np.array_equal(after[c].memory, before[c].memory)
        assert after[c].ewma.value == before[c].ewma.value
    with pytest.raises(SingularUpdateError, match="memory overflowed") as streamed:
        scan.stream(X[start:], y[start:])
    assert streamed.value.step == stepped.value.step == row - start + 1
    assert str(streamed.value) == str(stepped.value)
    assert "coalition ['x4']" in str(streamed.value)
    assert_sessions_close(scan, recursion)


# -- smooth-quantile Newton blocks ----------------------------------------------

def count_replays(session):
    """How many steps ``advance`` replays in ``session``'s stream."""
    replays = []
    advance = session._stack.advance
    session._stack.advance = lambda *args: replays.append(args) or advance(*args)
    return replays


def assert_sessions_equal(a, b):
    sa, sb = a.states, b.states
    for c in a.coalitions:
        assert sa[c].ready == sb[c].ready
        assert sa[c].step_count == sb[c].step_count
        assert sa[c].min_warm_steps == sb[c].min_warm_steps
        assert np.array_equal(sa[c].coefficients, sb[c].coefficients)
        assert np.array_equal(sa[c].memory, sb[c].memory)
        assert sa[c].ewma.value == sb[c].ewma.value
        assert (sa[c].pending_gradient is None) == (sb[c].pending_gradient is None)
        if sb[c].pending_gradient is not None:
            assert np.array_equal(sa[c].pending_gradient, sb[c].pending_gradient)


@given(lam=st.sampled_from([0.9, 0.97, 0.99, 0.999, 1.0]),
       tau=st.floats(0.05, 0.95), alpha=st.floats(0.2, 2.0),
       variant=st.sampled_from(["analytic", "paper-verbatim"]),
       policy=st.sampled_from([WARM_START, ZERO_START]),
       block=st.integers(2, 17), T=st.integers(61, 160))
@settings(max_examples=40, deadline=None)
def test_smooth_quantile_stream_equals_step(lam, tau, alpha, variant, policy, block, T):
    spec = LossSpec("smooth-quantile", tau=tau, alpha=alpha, derivative_variant=variant)
    design, y, coalitions = unequal_width_setup(T + 60)
    X = design.values
    (stream, recursion), start = twin_sessions(design, y, coalitions, lam, policy,
                                               spec=spec)
    with pytest.MonkeyPatch.context() as mp:
        # blocks of `block` steps: the stream spans several, with a remainder
        mp.setattr("regmarket.online.SCAN_FLOATS", block * 8 * 25)
        assert stream._scan_steps() == block
        replays = count_replays(stream)
        trace = stream.stream(X[start:], y[start:])
    losses, ewma, ready = step_trace(recursion, X[start:], y[start:])
    assert np.array_equal(trace.losses, losses)
    assert np.array_equal(trace.ewma, ewma)
    assert np.array_equal(trace.ready, ready)
    assert_sessions_equal(stream, recursion)
    # only the blocks that start before every estimator is ready replay
    assert len(replays) < len(y) - start
    if policy == WARM_START:
        assert not replays


def assert_stream_raises_like_step(stream, recursion, X, y):
    """Both sessions raise the same error at the same step and keep the same state."""
    replays = count_replays(stream)
    with pytest.raises(Exception) as stepped:
        step_trace(recursion, X, y)
    with pytest.raises(type(stepped.value)) as streamed:
        stream.stream(X, y)
    assert str(streamed.value) == str(stepped.value)
    assert getattr(streamed.value, "step", None) == getattr(stepped.value, "step", None)
    assert_sessions_equal(stream, recursion)
    return stepped.value, replays


@pytest.mark.parametrize("column, value, error, message", [
    ("x3", np.nan, ParameterError, "online step needs finite data"),
    # x4's outer product overflows the memory
    ("x4", 3e154, SingularUpdateError, "memory overflowed"),
])
def test_smooth_quantile_stream_raises_mid_block_like_the_step(column, value, error,
                                                               message):
    design, y, coalitions = unequal_width_setup(400)
    X = design.values.copy()
    X[250, [t.name for t in design.terms].index(column)] = value
    (stream, recursion), start = twin_sessions(design, y, coalitions, 0.99, WARM_START,
                                               spec=SMOOTH)
    block = stream._scan_steps()
    step = 250 - start + 1
    assert step % block not in (0, 1)
    err, replays = assert_stream_raises_like_step(stream, recursion, X[start:], y[start:])
    assert isinstance(err, error) and message in str(err)
    # the blocks before the failing one run as blocks; that one is replayed
    assert len(replays) == step - (step - 1) // block * block
    assert {s.step_count for s in stream.states.values()} == {step - 1}


def test_smooth_quantile_stream_raises_singular_update_mid_block(monkeypatch):
    # x4 is zero after the warm-up, so the memory entry it keeps only halves
    # each step at lam = 0.5; started at 2^-1050 it rounds to zero at step
    # 25, inside the third ten-step block.  Long before step 1075, where
    # a unit entry would reach zero, this estimator diverges at lam = 0.5.
    monkeypatch.setattr("regmarket.online.SCAN_FLOATS", 10 * 8 * 25)
    design, y, coalitions = unequal_width_setup(200)
    X = design.values.copy()
    j = [t.name for t in design.terms].index("x4")
    X[60:, j] = 0.0
    stream = OnlineSession(design, frozenset({"x1"}), coalitions, 0.5, SMOOTH)
    stream.init_states(X[:60], y[:60], WARM_START)
    decouple_column(stream, j, 2.0 ** -1050)
    recursion = copy.deepcopy(stream)
    assert stream._scan_steps() == 10
    err, replays = assert_stream_raises_like_step(stream, recursion, X[60:], y[60:])
    assert isinstance(err, SingularUpdateError) and err.step == 25
    assert "x4" in str(err) and "not positive definite" in str(err)
    assert len(replays) == 5


def test_smooth_quantile_stream_checks_every_memory():
    # an indefinite memory that a solve still inverts: only the Cholesky
    # check stops it, at the first step, as in the recursion
    design, y, coalitions = unequal_width_setup(300)
    X = design.values
    stream = OnlineSession(design, frozenset({"x1"}), coalitions, 0.99, SMOOTH)
    stream.init_states(X[:60], y[:60], WARM_START)
    negate_memory(stream, frozenset({"x3"}))
    recursion = copy.deepcopy(stream)
    err, _ = assert_stream_raises_like_step(stream, recursion, X[60:], y[60:])
    assert isinstance(err, SingularUpdateError) and err.step == 1
    assert "coalition ['x3']: memory matrix not positive definite" in str(err)


# -- the Newton block against the step it replaced -------------------------------

def per_step_newton(session, X, y):
    """The Newton recursion of a ready session over the rows of ``X`` and
    ``y``, written out apart from the package's kernel as one step made it
    before the block took its elementwise work out of the loop: every step
    forms its outer products, symmetrises the memory and computes its loss,
    h1, h2 and EWMA.  Returns the losses and EWMA losses, ``(T, C)``, and
    the final coefficients, memory and EWMA value, all stacked and padded."""
    stack, spec, lam = session._stack, session.spec, session.lam
    beta, M, value = stack.coefficients, stack.memory, stack.ewma.value
    losses, ewma = [], []
    for x, y_t in zip(session._gather_rows(X), y):
        x = x.copy()
        eps = y_t - np.einsum("cn,cn->c", beta, x)
        upper, lower = eps / spec.alpha, -eps / spec.alpha
        loss = np.maximum(spec.tau * eps + spec.alpha * np.logaddexp(0.0, lower), 0.0)
        up, down = expit(upper), expit(lower)
        if spec.derivative_variant == "analytic":
            h1, h2 = spec.tau - down, up * down / spec.alpha
        else:
            h1, h2 = spec.tau + spec.alpha * up - down, (1.0 + spec.alpha) * (up * down)
        M = lam * M + h2[:, None, None] * (x[:, :, None] * x[:, None, :])
        M = 0.5 * (M + M.transpose(0, 2, 1))
        M[stack.padding] = 1.0
        rhs = lam * stack.pending_gradient + x * h1[:, None]
        beta = beta + np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
        value = lam * value + (1.0 - lam) * loss
        losses.append(loss)
        ewma.append(value)
    return np.array(losses), np.array(ewma), beta, M, value


def assert_stream_is_per_step_newton(session, X, y):
    """``session.stream`` runs every block as a block and gives the bits of
    :func:`per_step_newton`; returns the trace."""
    losses, ewma, beta, M, value = per_step_newton(session, X, y)
    replays = count_replays(session)
    trace = session.stream(X, y)
    assert not replays
    assert trace.ready.all()
    assert np.array_equal(trace.losses, losses)
    assert np.array_equal(trace.ewma, ewma)
    stack = session._stack
    assert np.array_equal(stack.coefficients, beta)
    assert np.array_equal(stack.memory, M)
    assert np.array_equal(stack.ewma.value, value)
    return trace


def assert_memory_exactly_symmetric(session):
    memory = session._stack.memory
    assert np.array_equal(memory, memory.transpose(0, 2, 1))


@given(lam=st.sampled_from([0.9, 0.97, 0.99, 0.999, 1.0]),
       tau=st.floats(0.0, 1.0), alpha=st.floats(0.2, 2.0),
       variant=st.sampled_from(["analytic", "paper-verbatim"]),
       block=st.integers(2, 17), T=st.integers(61, 160))
@settings(max_examples=40, deadline=None)
def test_newton_blocks_are_the_per_step_arithmetic(lam, tau, alpha, variant, block, T):
    spec = LossSpec("smooth-quantile", tau=tau, alpha=alpha, derivative_variant=variant)
    design, y, coalitions = unequal_width_setup(T + 60)
    X = design.values
    (session, _), start = twin_sessions(design, y, coalitions, lam, WARM_START, spec=spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("regmarket.online.SCAN_FLOATS", block * 8 * 25)
        assert session._scan_steps() == block
        assert_stream_is_per_step_newton(session, X[start:], y[start:])
    assert_memory_exactly_symmetric(session)


def skew_memories(session):
    """Raise every memory's (0, 1) entry by one ulp, so that no state is
    exactly symmetric; the stack symmetrises each as it enters."""
    def edit(c, s):
        memory = s.memory.copy()
        memory[0, 1] = np.nextafter(memory[0, 1], np.inf)
        assert not np.array_equal(memory, memory.T)
        return replace(s, memory=memory)
    edit_states(session, edit)
    assert_memory_exactly_symmetric(session)


def test_a_symmetric_state_enters_the_stack_as_it_is():
    # the mean of a memory and its transpose would overflow the large entry
    # if summed before halving, and round the subnormal one if halved first
    memory = np.array([[1.5 * HALF_MAX, 5e-324], [5e-324, 1.0]])
    state = OnlineState(coefficients=np.zeros(2), memory=memory, ewma=EwmaLoss(0.0, 0.99))
    assert np.array_equal(_StackedStates([state], 0.99, QUAD).state(0).memory, memory)


def test_a_skewed_state_enters_the_stack_symmetrised_and_blocks_like_the_step(monkeypatch):
    # no step symmetrises, so a state that is not exactly symmetric must be
    # symmetrised where it enters the stack, and block and step then agree
    monkeypatch.setattr("regmarket.online.SCAN_FLOATS", 7 * 8 * 25)
    design, y, coalitions = unequal_width_setup(200)
    X = design.values
    (stream, recursion), start = twin_sessions(design, y, coalitions, 0.99, WARM_START,
                                               spec=SMOOTH)
    skew_memories(stream)
    skew_memories(recursion)
    assert_stream_is_per_step_newton(copy.deepcopy(stream), X[start:], y[start:])
    trace = stream.stream(X[start:], y[start:])
    losses, ewma, _ = step_trace(recursion, X[start:], y[start:])
    assert np.array_equal(trace.losses, losses)
    assert np.array_equal(trace.ewma, ewma)
    assert_sessions_equal(stream, recursion)
    assert_memory_exactly_symmetric(stream)
    assert_memory_exactly_symmetric(recursion)


@pytest.mark.parametrize("policy", [WARM_START, ZERO_START])
def test_smooth_quantile_stream_keeps_the_memory_exactly_symmetric(policy):
    # zero start replays its first blocks through the step, and no path
    # symmetrises after the stack does
    design, y, coalitions = unequal_width_setup(300)
    (stream, _), start = twin_sessions(design, y, coalitions, 0.99, policy, spec=SMOOTH)
    stream.stream(design.values[start:], y[start:])
    assert_memory_exactly_symmetric(stream)


def test_newton_block_losses_are_the_per_row_loss_terms():
    # the block computes its (B, C) losses in one call after its loop
    spec = LossSpec("smooth-quantile", tau=0.9, alpha=0.3, derivative_variant="paper-verbatim")
    design, y, coalitions = unequal_width_setup(400)
    X = design.values
    (stream, recursion), start = twin_sessions(design, y, coalitions, 0.98, WARM_START,
                                               spec=spec)
    replays = count_replays(stream)
    trace = stream.stream(X[start:], y[start:])
    assert not replays
    eps = np.array([[out[c][0] for c in coalitions]
                    for out in (recursion.step(X[t], y[t]) for t in range(start, len(y)))])
    for t, row in enumerate(eps):
        assert np.array_equal(trace.losses[t], loss_terms(row, spec)[0])


def test_a_memory_entry_at_half_the_largest_float_streams_in_blocks_like_the_recursion(
        monkeypatch):
    # x4's memory entry starts at exactly half the largest float, which the
    # stack's symmetrisation keeps, and x4 = 1e150 at step 15, the fifth of
    # the second ten-step block, lifts it just above half: no step
    # symmetrises, so it stays finite and the blocks run as blocks; and
    # online_step, which stacks its state anew at each call, keeps it too
    monkeypatch.setattr("regmarket.online.SCAN_FLOATS", 10 * 8 * 25)
    design, y, coalitions = unequal_width_setup(200)
    X = design.values.copy()
    j = [t.name for t in design.terms].index("x4")
    X[60 + 14, j] = 1e150
    stream = OnlineSession(design, frozenset({"x1"}), coalitions, 1.0, SMOOTH)
    stream.init_states(X[:60], y[:60], WARM_START)
    decouple_column(stream, j, HALF_MAX)
    assert stream._stack.memory.max() == HALF_MAX
    recursion, start = copy.deepcopy(stream), stream.states
    replays = count_replays(stream)
    trace = stream.stream(X[60:], y[60:])
    assert not replays
    assert stream._stack.memory.max() > HALF_MAX
    losses, ewma, _ = step_trace(recursion, X[60:], y[60:])
    assert np.array_equal(trace.losses, losses)
    assert np.array_equal(trace.ewma, ewma)
    assert_sessions_equal(stream, recursion)
    assert_memory_exactly_symmetric(stream)
    for c, state in start.items():
        for t in range(60, len(y)):
            state, _, _ = online_step(state, X[t, list(stream.columns[c])], y[t], 1.0, SMOOTH)
        assert np.array_equal(state.memory, stream.states[c].memory)


def test_newton_block_where_an_exp_overflows_is_the_step_bit_for_bit(monkeypatch):
    # y falls by 400 at step 15, the fifth of the second ten-step block:
    # residuals near -400 at alpha = 0.5 put exp(800) in h1 and h2, which
    # overflows math.exp, so that step's derivatives come from scipy's
    # ufunc, inside the block's np.errstate(over="raise")
    monkeypatch.setattr("regmarket.online.SCAN_FLOATS", 10 * 8 * 25)
    design, y, coalitions = unequal_width_setup(200)
    y = y.copy()
    y[60 + 14] -= 400.0
    (stream, recursion), start = twin_sessions(design, y, coalitions, 0.99, WARM_START,
                                               spec=SMOOTH)
    calls = []
    monkeypatch.setattr("regmarket.losses.expit",
                        lambda x: calls.append(x.size) or expit(x))
    replays = count_replays(stream)
    trace = stream.stream(design.values[start:], y[start:])
    # only the overflowing step took the ufunc, and scipy's expit signals
    # no overflow, so the block ran as a block
    assert calls == [8, 8] and not replays
    losses, ewma, _ = step_trace(recursion, design.values[start:], y[start:])
    assert calls == [8, 8] * 2
    assert np.array_equal(trace.losses, losses)
    assert np.array_equal(trace.ewma, ewma)
    assert_sessions_equal(stream, recursion)
