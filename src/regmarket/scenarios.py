"""Seeded data-generating processes for the simulation studies.

Six cases: plain linear regression, order-2 polynomial regression with
interaction terms, an ARX quantile model, two online variants with
drifting parameters, and a nine-agent vector-autoregressive stand-in for
a multi-site forecasting study.  Generation is deterministic: every
random series draws from its own counter-based stream keyed by the seed
and the series name, so adding or reordering features never shifts the
draws of the others.

The drifting-parameter cases use smooth ramp/sinusoid trajectories; the
ground-truth record carries them (plus analytic loss levels and shares
where they exist in closed form) so tests can assert structure rather
than matching arbitrary numbers.  The standard-normal quantiles and
densities in those analytic constants come from the standard library's
``statistics.NormalDist``, which keeps ``scipy.stats`` (most of the
package's import time) off the import path; no market reads them.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .data import Dataset, is_integer
from .errors import ParameterError
from .losses import LossSpec
from .market import (
    TaskSpec,
    clear_batch_market,
    run_online_market,
    run_oos_market,
)

# the standard normal behind the analytic quantile-loss constants
_STD_NORMAL = NormalDist()


@dataclass(frozen=True)
class ScenarioSpec:
    case: str
    T: int | None = None
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.case not in CASES:
            raise ParameterError(f"unknown scenario case {self.case!r}")
        if self.T is not None and not is_integer(self.T):
            raise ParameterError(f"T must be an integer, not {self.T!r}")
        if self.T is not None and self.T < 1:
            raise ParameterError("T must be >= 1")
        accepted = sorted([*_CASES[self.case]["params"], *_CASES[self.case]["keys"]])
        unknown = sorted(set(self.params) - set(accepted))
        if unknown:
            raise ParameterError(f"unknown {self.case} parameter(s) {', '.join(unknown)}; "
                                 f"accepted: {', '.join(accepted)}")
        for key, default in _CASES[self.case]["params"].items():
            if key in self.params:
                _check_override(key, self.params[key], default)

    @property
    def rows(self) -> int:
        return self.T if self.T is not None else _CASES[self.case]["rows"]


# the least value of the generator parameters that have one
_LEAST = {"sigma_eps": 0, "burn": 0, "n_agents": 1}


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value))


def _check_override(key: str, value, default) -> None:
    """Raise ParameterError unless ``value`` has the form of the generator
    default it replaces: a finite number for a float, an integer for an
    int, and a mapping of the same keys to finite numbers for a dict."""
    if isinstance(default, dict):
        valid = (isinstance(value, Mapping) and set(value) == set(default)
                 and all(_is_finite_number(v) for v in value.values()))
        form = f"a mapping of {', '.join(sorted(default))} to finite numbers"
    else:
        valid = is_integer(value) if isinstance(default, int) else _is_finite_number(value)
        form = "an integer" if isinstance(default, int) else "a finite number"
        if key in _LEAST:
            valid = valid and value >= _LEAST[key]
            form += f" >= {_LEAST[key]}"
    if not valid:
        raise ParameterError(f"{key} must be {form}, not {value!r}")


def stream(seed: int, name: str) -> np.random.Generator:
    """Counter-based generator for one named random series."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def generate(spec: ScenarioSpec) -> tuple[Dataset, dict]:
    """Simulate a scenario; returns the dataset and its ground-truth
    record, which starts with the case, the seed and T."""
    case = _CASES[spec.case]
    # the overrides replace the generator defaults; the default coefficient
    # dicts are copied, since the truth record hands them out
    p = {k: spec.params.get(k, dict(v) if isinstance(v, dict) else v)
         for k, v in case["params"].items()}
    target, features, truth = case["generator"](spec, p)
    ownership = case["ownership"]
    if ownership is None:
        ownership = {f"y{j}": f"a{j}" for j in range(1, len(features) + 1)}
    ds = Dataset(np.arange(spec.rows), target, features, ownership=dict(ownership),
                 target_owner="a1")
    return ds, {"case": spec.case, "seed": spec.seed, "T": spec.rows, **truth}


# ---------------------------------------------------------------------------
# batch cases


def _gen_batch_linear(spec: ScenarioSpec, p: dict):
    T = spec.rows
    betas = p["beta"]
    xs = {k: stream(spec.seed, k).normal(0.0, 1.0, T) for k in sorted(betas)}
    eps = stream(spec.seed, "eps").normal(0.0, p["sigma_eps"], T)
    y = p["beta0"] + sum(betas[k] * xs[k] for k in sorted(betas)) + eps
    explained = {k: betas[k] ** 2 for k in ("x2", "x3", "x4")}
    surplus = sum(explained.values())
    truth = {
        "beta0": p["beta0"], "beta": betas, "sigma_eps": p["sigma_eps"],
        "analytic": {
            "central_loss": surplus + p["sigma_eps"] ** 2,
            "full_loss": p["sigma_eps"] ** 2,
            "surplus": surplus,
            "shares": {k: v / surplus for k, v in explained.items()},
        },
    }
    return y, xs, truth


def _gen_batch_poly(spec: ScenarioSpec, p: dict):
    T = spec.rows
    g = {k: stream(spec.seed, k).normal(0.0, 1.0, T) for k in ("x1", "x2", "x3")}
    eps = stream(spec.seed, "eps").normal(0.0, p["sigma_eps"], T)
    # true terms: intercept, x1, x2, x3, x2^2 and the x1*x3 interaction
    y = (0.2 - 0.4 * g["x1"] + 0.6 * g["x2"] + 0.3 * g["x3"]
         + 0.1 * g["x2"] ** 2 - 0.4 * g["x1"] * g["x3"] + eps)
    truth = {
        "beta": {"1": 0.2, "x1": -0.4, "x2": 0.6, "x3": 0.3,
                 "x2^2": 0.1, "x1*x3": -0.4},
        "sigma_eps": p["sigma_eps"],
        "analytic": {"central_loss": 0.72, "full_loss": p["sigma_eps"] ** 2,
                     "benchmark_payment": 630.0},
    }
    return y, g, truth


def _gen_batch_arx_quantile(spec: ScenarioSpec, p: dict):
    # Coefficients are calibrated so that the quantile-loss levels and the
    # allocation ordering of the reference tables both hold: the support
    # signal variance is ~0.145 with x2 strongest, then x4, then x3.
    n = spec.rows + p["burn"]
    y, xs = _arx_series(spec, p, np.full(n, p["ar"]),
                        {k: np.full(n, b) for k, b in sorted(p["beta"].items())})
    var_u = sum(b ** 2 for b in p["beta"].values()) + p["sigma_eps"] ** 2
    # the expected pinball loss of N(0, s^2) at its own tau-quantile is
    # s * pdf(inv_cdf(tau)) of the standard normal
    density = {tau: _STD_NORMAL.pdf(_STD_NORMAL.inv_cdf(tau)) for tau in (0.1, 0.75)}
    truth = {
        "beta0": p["beta0"], "ar": p["ar"], "beta": p["beta"],
        "sigma_eps": p["sigma_eps"],
        "analytic": {
            "central_residual_std": math.sqrt(var_u),
            "pinball_central": {
                str(tau): math.sqrt(var_u) * d for tau, d in density.items()},
            "pinball_full": {
                str(tau): p["sigma_eps"] * d for tau, d in density.items()},
            "share_order": ["x2", "x4", "x3"],
        },
    }
    return y, xs, truth


# ---------------------------------------------------------------------------
# online cases


def _gen_online_arx(spec: ScenarioSpec, p: dict):
    T = spec.rows
    burn = p["burn"]
    t_axis = np.arange(-burn, T) / T
    traj = {
        "y": 0.35 + 0.10 * np.sin(2 * np.pi * t_axis),
        "x2": -0.3 - 0.6 * np.clip(t_axis, 0.0, 1.0),
        "x3": 0.5 + 0.35 * np.sin(3 * np.pi * t_axis),
        "x4": 0.4 * np.clip(1.0 - 2.0 * t_axis, 0.0, 1.0),
    }
    y, xs = _arx_series(spec, p, traj["y"], {k: traj[k] for k in ("x2", "x3", "x4")})
    truth = {
        "beta0": p["beta0"], "sigma_eps": p["sigma_eps"],
        "trajectories": {k: traj[k][burn:].tolist() for k in sorted(traj)},
    }
    return y, xs, truth


def _arx_series(spec: ScenarioSpec, p: dict, ar: np.ndarray,
                coefs: dict[str, np.ndarray]):
    """The target and features of both ARX cases, with one coefficient per step:

        y_t = beta0 + ar_t * y_{t-1} + sum_k coefs[k]_t * x_{k,t-1} + eps_t

    from y_0 = 0 over ``p["burn"]`` steps before the ``spec.rows`` kept.
    Each feature in ``coefs`` is standard normal, eps is N(0, sigma_eps^2).
    """
    n = spec.rows + p["burn"]
    xs = {k: stream(spec.seed, k).normal(0.0, 1.0, n) for k in coefs}
    eps = stream(spec.seed, "eps").normal(0.0, p["sigma_eps"], n)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = (p["beta0"] + ar[t] * y[t - 1]
                + sum(coefs[k][t] * xs[k][t - 1] for k in coefs)
                + eps[t])
    sl = slice(p["burn"], None)
    return y[sl], {k: v[sl] for k, v in xs.items()}


def _gen_online_quantile(spec: ScenarioSpec, p: dict):
    T = spec.rows
    t_axis = np.arange(T) / T
    traj = {
        "x1": 0.5 + 0.20 * np.sin(2 * np.pi * t_axis),
        "x2": 0.6 + 0.25 * np.sin(3 * np.pi * t_axis),
        "x3": -0.7 + 0.30 * np.cos(2 * np.pi * t_axis),
    }
    xs = {k: stream(spec.seed, k).normal(0.0, 1.0, T) for k in ("x1", "x2", "x3")}
    x4 = stream(spec.seed, "x4").uniform(0.5, 1.5, T)
    eps = stream(spec.seed, "eps").normal(0.0, p["sigma_eps"], T)
    # x4 scales the noise: it carries no signal for the median but real
    # signal for quantiles away from it
    y = (p["beta0"] + traj["x1"] * xs["x1"] + traj["x2"] * xs["x2"]
         + traj["x3"] * xs["x3"] + p["beta4"] * x4 * eps)

    def x4_quantile_signal(tau: float) -> float:
        z = _STD_NORMAL.inv_cdf(tau)
        return (p["beta4"] * p["sigma_eps"] * z) ** 2 / 12.0

    truth = {
        "beta0": p["beta0"], "beta4": p["beta4"], "sigma_eps": p["sigma_eps"],
        "trajectories": {k: v.tolist() for k, v in sorted(traj.items())},
        "analytic": {"x4_quantile_signal": {str(tau): x4_quantile_signal(tau)
                                            for tau in (0.1, 0.25, 0.5, 0.75, 0.9)}},
    }
    return y, dict(sorted({**xs, "x4": x4}.items())), truth


# ---------------------------------------------------------------------------
# multi-agent stand-in


def _var_matrix(n_agents: int, own: float, upwind1: float, upwind2: float) -> np.ndarray:
    # ring of sites with an advected signal: each site is driven mostly by
    # its upwind neighbour's previous value, so others' data carries real
    # forecast value beyond a site's own history
    A = np.zeros((n_agents, n_agents))
    for j in range(n_agents):
        A[j, j] = own
        A[j, (j - 1) % n_agents] = upwind1
        A[j, (j - 2) % n_agents] = upwind2
    return A


def _gen_multi_agent(spec: ScenarioSpec, p: dict):
    n_agents = p["n_agents"]
    A = _var_matrix(n_agents, p["own"], p["upwind1"], p["upwind2"])
    n = spec.rows + p["burn"]
    noise = np.column_stack([
        stream(spec.seed, f"agent{j + 1}").normal(0.0, p["sigma_eps"], n)
        for j in range(n_agents)])
    Y = np.zeros((n, n_agents))
    for t in range(1, n):
        Y[t] = A @ Y[t - 1] + noise[t]
    Y = Y[p["burn"]:]
    # each series doubles as a feature for the other agents' tasks; target
    # selection happens when the per-central dataset is assembled
    series = {f"y{j + 1}": Y[:, j] for j in range(n_agents)}
    truth = {
        "n_agents": n_agents, "sigma_eps": p["sigma_eps"],
        "var_matrix": A.tolist(),
    }
    return Y[:, 0], series, truth


def dataset_for_central(multi_ds: Dataset, agent_index: int) -> Dataset:
    """View of the multi-agent dataset with one agent's series as target."""
    name = f"y{agent_index}"
    if name not in multi_ds.features:
        raise ParameterError(f"no series for agent index {agent_index}")
    feats = {k: v for k, v in multi_ds.features.items() if k != name}
    return Dataset(multi_ds.timestamps, multi_ds.features[name], feats,
                   ownership=dict(multi_ds.ownership), target_name=name,
                   target_owner=f"a{agent_index}")


def slice_rows(ds: Dataset, start: int, stop: int) -> Dataset:
    return Dataset(ds.timestamps[start:stop], ds.target[start:stop],
                   {k: v[start:stop] for k, v in ds.features.items()},
                   ownership=dict(ds.ownership), target_name=ds.target_name,
                   target_owner=ds.target_owner, lineage=dict(ds.lineage))


# ---------------------------------------------------------------------------
# the study cases
#
# Each case, written once:
#   rows       T when the spec gives none
#   generator  (spec, params) -> (target, features, truth)
#   params     the generator parameters with their defaults, which overrides replace
#   ownership  feature -> agent, with a1 owning the target; None for the
#              nine-site study, in which site j owns series y_j
#   market     the study's market; None for the nine-site study, which runs
#              a batch and an out-of-sample market per site
#   task       the study task's TaskSpec arguments; tau and alpha make its
#              smooth-quantile loss, n_windows goes to run_oos_market
#   keys       the override keys that set task arguments

_ARX_LAGS = {"y": (1,), "x2": (1,), "x3": (1,), "x4": (1,)}
# override keys named apart from the task argument they set
_ARG_OF_KEY = {"phi": "phi_insample", "oos_policy": "oos_allocation_policy"}

_CASES = {
    "batch-linear": dict(
        rows=10_000, generator=_gen_batch_linear,
        params={"beta0": 0.1, "beta": {"x1": -0.3, "x2": 0.5, "x3": -0.9, "x4": 0.2},
                "sigma_eps": 0.3},
        ownership={"x1": "a1", "x2": "a2", "x3": "a3", "x4": "a3"},
        market=clear_batch_market, task={}, keys=("phi",)),
    "batch-poly": dict(
        rows=10_000, generator=_gen_batch_poly, params={"sigma_eps": 0.3},
        ownership={"x1": "a1", "x2": "a2", "x3": "a3"},
        market=clear_batch_market, task={"degree": 2}, keys=("phi",)),
    "batch-arx-quantile": dict(
        rows=10_000, generator=_gen_batch_arx_quantile,
        params={"beta0": 0.1, "ar": 0.92, "beta": {"x2": -0.32, "x3": -0.06, "x4": 0.19},
                "sigma_eps": 0.3, "burn": 200},
        ownership={"x2": "a2", "x3": "a3", "x4": "a3"},
        market=clear_batch_market,
        task={"tau": 0.1, "alpha": 0.03, "lags": _ARX_LAGS, "phi_insample": 1.0},
        keys=("tau", "alpha", "phi")),
    "online-arx": dict(
        rows=10_000, generator=_gen_online_arx,
        params={"beta0": 0.1, "sigma_eps": 0.3, "burn": 200},
        ownership={"x2": "a2", "x3": "a3", "x4": "a3"},
        market=run_online_market, task={"lags": _ARX_LAGS}, keys=("phi", "lam", "warmup")),
    "online-quantile": dict(
        rows=10_000, generator=_gen_online_quantile,
        params={"beta0": 0.1, "beta4": 2.0, "sigma_eps": 0.5},
        ownership={"x1": "a1", "x2": "a2", "x3": "a3", "x4": "a3"},
        market=run_online_market,
        task={"tau": 0.5, "alpha": 0.2, "lam": 0.999, "warmup": 150},
        keys=("tau", "alpha", "phi", "lam", "warmup")),
    "multi-agent-arx": dict(
        rows=6_000, generator=_gen_multi_agent,
        params={"n_agents": 9, "own": 0.25, "upwind1": 0.55, "upwind2": 0.12,
                "sigma_eps": 0.1, "burn": 300},
        ownership=None, market=None,
        task={"phi_insample": 0.5, "phi_oos": 1.5, "loss_unit": "percent",
              "oos_allocation_policy": "zero-shapley", "n_windows": 10},
        keys=("train_rows", "phi_insample", "phi_oos", "oos_policy", "n_windows")),
}
CASES = tuple(_CASES)


# ---------------------------------------------------------------------------
# end-to-end drivers


def _task_args(spec: ScenarioSpec) -> dict:
    """The case's study task arguments with the overrides in ``spec.params``;
    the lags are a fresh dict, as the table's must not reach a task."""
    case = _CASES[spec.case]
    args = {**case["task"], **{_ARG_OF_KEY.get(k, k): spec.params[k]
                               for k in case["keys"] if k in spec.params}}
    if "lags" in args:
        args["lags"] = dict(args["lags"])
    if "tau" in args:
        args["loss"] = LossSpec("smooth-quantile", tau=args.pop("tau"),
                                alpha=args.pop("alpha"))
    return args


def task_for_case(spec: ScenarioSpec) -> TaskSpec:
    """The study task of a single-market case, with the overrides in ``spec.params``."""
    case = _CASES[spec.case]
    if case["market"] is None:
        raise ParameterError("multi-agent-arx builds one task per central agent; "
                             "use run_scenario")
    return TaskSpec(central_agent="a1", ownership=dict(case["ownership"]),
                    **_task_args(spec))


def run_scenario(case: str, seed: int = 0, T: int | None = None,
                 overrides: dict | None = None) -> dict:
    """Generate a scenario and run its market mechanism(s).

    Returns a bundle with the ground truth, the market report(s) and a
    small-sample flag for runs far below the study horizon.
    """
    spec = ScenarioSpec(case=case, T=T, seed=seed, params=dict(overrides or {}))
    ds, truth = generate(spec)
    bundle: dict = {"case": case, "seed": seed, "truth": truth,
                    "small_sample": spec.rows < 1000}
    market = _CASES[case]["market"]
    if market is None:
        bundle["reports"] = _run_multi_agent(ds, spec)
    else:
        bundle["report"] = market(ds, task_for_case(spec))
    return bundle


def _run_multi_agent(ds: Dataset, spec: ScenarioSpec) -> dict:
    args = _task_args(spec)
    n_windows = args.pop("n_windows")
    train = args.setdefault("train_rows", spec.rows // 2)
    out: dict[str, dict] = {}
    for j in range(1, len(ds.features) + 1):
        central = f"a{j}"
        view = dataset_for_central(ds, j)
        lags = {view.target_name: (1, 2), **dict.fromkeys(view.features, (1,))}
        task = TaskSpec(central_agent=central, ownership=dict(view.ownership),
                        lags=lags, **args)
        batch_report = clear_batch_market(slice_rows(view, 0, train), task)
        oos_report = run_oos_market(view, task, model_source="batch", n_windows=n_windows)
        out[central] = {"batch": batch_report, "oos": oos_report}
    return out
