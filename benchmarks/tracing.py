"""Span tracing of regmarket's public functions, installed from outside.

The package has no timers of its own, so the traced run replaces each
public function with a wrapper that records a span (name, start, end,
parent span, pass id).  ``market.py``, ``online.py`` and ``batch.py``
import with ``from .x import y``, so a function is bound in several
modules; :meth:`Tracer.install` replaces the attribute in every
``regmarket`` module that holds the same function object (aliases such as
``market._fit_table`` included) and :meth:`Tracer.uninstall` restores
them.  Counts are read from the objects the functions return; nothing is
added to the package.

Spans live in flat arrays while the run goes on and are written out once,
when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

NO_PARENT = -1
SETUP_PASS = -1
PASS_SPAN = "pass"


@dataclass(frozen=True)
class Probe:
    """One traced function: where it is defined, its layer, its counters."""

    module: str                 # defining module, e.g. "regmarket.online"
    name: str                   # "online_step", or "OnlineSession.step" for a method
    layer: str
    observe: Callable | None = None   # (result, counts) -> None


def _observe_fit(fit, counts):
    counts["batch.fits"] += 1
    counts["batch.newton_iters"] += fit.iterations
    counts["batch.jitter_fits"] += fit.jitter > 0.0


def _observe_online_step(result, counts):
    state = result[0]
    counts["online.ready_steps"] += state.ready
    counts["online.not_ready_steps"] += not state.ready


def _observe_allocation(vector, counts):
    counts["allocation.no_surplus"] += vector.no_surplus


def _observe_market(report, counts):
    counts["market.ledger_entries"] += len(report.ledger)
    counts["market.clamped_entries"] += report.clamped_entries


# Every public function the three workloads reach, by layer.  Layers are the
# package modules, except that ``build_design`` (defined in market.py) is the
# design-assembly step of the data layer and the artifact writers form the
# market's write layer.
PROBES = (
    Probe("regmarket.scenarios", "generate", "scenarios"),
    Probe("regmarket.market", "build_design", "data"),
    Probe("regmarket.data", "coalition_design", "data"),
    Probe("regmarket.losses", "loss_value", "losses"),
    Probe("regmarket.losses", "loss_h1", "losses"),
    Probe("regmarket.losses", "loss_h2", "losses"),
    Probe("regmarket.losses", "insample_loss", "losses"),
    Probe("regmarket.losses", "ewma_update", "losses"),
    Probe("regmarket.batch", "fit_all_coalitions", "batch"),
    Probe("regmarket.batch", "fit_batch", "batch"),
    Probe("regmarket.batch", "fit_matrix", "batch", _observe_fit),
    Probe("regmarket.online", "init_state", "online"),
    Probe("regmarket.online", "online_step", "online", _observe_online_step),
    Probe("regmarket.online", "OnlineSession.init_states", "online"),
    Probe("regmarket.online", "OnlineSession.step", "online"),
    Probe("regmarket.online", "OnlineSession.ewma_losses", "online"),
    Probe("regmarket.allocation", "shapley_contributions", "allocation"),
    Probe("regmarket.allocation", "shapley_allocation", "allocation", _observe_allocation),
    Probe("regmarket.allocation", "instant_allocation", "allocation", _observe_allocation),
    Probe("regmarket.market", "clear_batch_market", "market", _observe_market),
    Probe("regmarket.market", "run_online_market", "market", _observe_market),
    Probe("regmarket.market", "run_oos_market", "market", _observe_market),
    Probe("regmarket.market", "audit_ledger", "market"),
    Probe("regmarket.market", "report_to_json", "write"),
    Probe("regmarket.market", "write_ledger_csv", "write"),
    Probe("regmarket.market", "write_cumulative_csv", "write"),
    Probe("regmarket.market", "write_loss_table_csv", "write"),
)

MARKET_ENTRIES = ("clear_batch_market", "run_online_market", "run_oos_market")


class Tracer:
    """Records spans around wrapped functions; one tracer per traced run."""

    def __init__(self, probes=PROBES, clock=time.perf_counter):
        self.probes = tuple(probes)
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.layer_of: dict[str, str | None] = {PASS_SPAN: None}
        for p in self.probes:
            self.layer_of[p.name] = p.layer
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.pass_id = array("i")
        self._stack = [NO_PARENT]
        self.current_pass = SETUP_PASS
        self.counts: Counter = Counter()
        self.pass_counts: dict[int, Counter] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str, layer: str | None = None) -> int:
        if name not in self.layer_of:
            self.layer_of[name] = layer
        sid = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.pass_id.append(self.current_pass)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} was open")

    @contextlib.contextmanager
    def span(self, name: str, layer: str | None = None):
        sid = self.open(name, layer)
        try:
            yield sid
        finally:
            self.close(sid)

    def begin_pass(self, index: int) -> int:
        self.current_pass = index
        self.counts = Counter()
        return self.open(PASS_SPAN)

    def end_pass(self, sid: int) -> None:
        self.close(sid)
        self.pass_counts[self.current_pass] = self.counts
        self.current_pass = SETUP_PASS
        self.counts = Counter()

    def wrap(self, fn: Callable, probe: Probe) -> Callable:
        name, observe, tracer = probe.name, probe.observe, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                tracer.counts[f"{name}:{type(err).__name__}"] += 1
                raise
            finally:
                tracer.close(sid)
            if observe is not None:
                observe(result, tracer.counts)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> dict[str, int]:
        """Wrap every probe in every regmarket module that binds it.

        Returns the number of bindings replaced per probe.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "regmarket" or n.startswith("regmarket."))]
        bindings: dict[str, int] = {}
        for probe in self.probes:
            owner = sys.modules[probe.module]
            if "." in probe.name:
                cls_name, meth = probe.name.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self.wrap(original, probe))
                bindings[probe.name] = 1
                continue
            original = getattr(owner, probe.name)
            wrapper = self.wrap(original, probe)
            count = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
                        count += 1
            bindings[probe.name] = count
        return bindings

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved = []

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a traced call costs more than a plain one, measured on a
    function that does nothing (median of ``repeats`` rounds)."""
    tracer = Tracer(probes=())

    def noop():
        return None

    traced = tracer.wrap(noop, Probe("", "noop", ""))
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return float(np.median(costs))


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans are recorded by one thread, so the children of a span never
    overlap each other and lie inside it; summing self times over any set
    of spans therefore counts no interval twice.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.shape[0])
    return duration - covered


@dataclass
class SpanTable:
    """The spans of one pass (or of set-up), with derived per-span values."""

    name_ids: dict[str, int]
    name_id: np.ndarray
    layer: np.ndarray      # layer per span, "" for spans outside any layer
    duration: np.ndarray
    self_time: np.ndarray
    entry: np.ndarray      # True where the parent span is in another layer

    def named(self, *names: str) -> np.ndarray:
        ids = [self.name_ids[n] for n in names if n in self.name_ids]
        return np.isin(self.name_id, ids)

    def total(self, mask: np.ndarray) -> float:
        return float(np.sum(self.duration[mask]))


def span_table(tracer: Tracer, pass_index: int) -> SpanTable:
    a = tracer.arrays()
    duration = a["end"] - a["start"]
    own = self_times(a["parent"], duration)
    name_layer = np.array([tracer.layer_of.get(n) or "" for n in tracer.names] or [""],
                          dtype=object)
    layer = name_layer[a["name_id"]]
    parent = a["parent"]
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], "")
    keep = a["pass_id"] == pass_index
    return SpanTable(dict(tracer._name_ids), a["name_id"][keep], layer[keep],
                     duration[keep], own[keep], (layer != parent_layer)[keep])


def pass_metrics(tracer: Tracer, pass_index: int) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    t = span_table(tracer, pass_index)
    counts = tracer.pass_counts.get(pass_index, Counter())
    named, total = t.named, t.total

    out: dict[str, float] = {}
    for name in ("data", "losses", "batch", "online", "allocation"):
        out[f"{name}.self_s"] = float(np.sum(t.self_time[t.layer == name]))
    out["data.build_design_s"] = total(named("build_design"))
    out["data.coalition_design_calls"] = int(np.sum(named("coalition_design")))
    out["data.coalition_design_s"] = total(named("coalition_design"))
    loss_entries = (t.layer == "losses") & t.entry
    out["losses.calls"] = int(np.sum(loss_entries))
    out["losses.s"] = total(loss_entries)
    out["batch.fits"] = counts["batch.fits"]
    out["batch.fit_s"] = total(named("fit_matrix"))
    out["batch.newton_iters"] = counts["batch.newton_iters"]
    out["batch.jitter_fits"] = counts["batch.jitter_fits"]
    out["online.init_s"] = total(named("OnlineSession.init_states"))
    out["online.steps"] = int(np.sum(named("OnlineSession.step")))
    out["online.step_s"] = total(named("OnlineSession.step"))
    coalition_steps = int(np.sum(named("online_step")))
    out["online.coalition_steps"] = coalition_steps
    out["online.coalition_step_s"] = total(named("online_step"))
    out["online.not_ready_steps"] = counts["online.not_ready_steps"]
    out["online.ready_ratio"] = (counts["online.ready_steps"] / coalition_steps
                                 if coalition_steps else 0.0)
    out["online.singular_errors"] = counts["online_step:SingularUpdateError"]
    alloc_entries = (t.layer == "allocation") & t.entry
    out["allocation.calls"] = int(np.sum(alloc_entries))
    out["allocation.s"] = total(alloc_entries)
    out["allocation.no_surplus"] = counts["allocation.no_surplus"]
    out["market.self_s"] = float(np.sum(t.self_time[named(*MARKET_ENTRIES)]))
    out["market.audit_s"] = total(named("audit_ledger"))
    out["market.ledger_entries"] = counts["market.ledger_entries"]
    out["market.clamped_entries"] = counts["market.clamped_entries"]
    out["market.write_s"] = total(t.layer == "write")
    pass_span = named(PASS_SPAN)
    out["trace.clear_s"] = total(pass_span)
    out["trace.unattributed_s"] = float(np.sum(t.self_time[pass_span]))
    out["trace.spans"] = int(t.name_id.shape[0])
    return out


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    t = span_table(tracer, SETUP_PASS)
    return {"scenarios.generate_s": t.total(t.named("generate"))}
