"""Passes, measurement and the result line of one benchmark run.

A run builds one workload for one seed, then clears its markets back to
back in passes -- one process, one Python thread, a closed loop with one
client -- for about ``--seconds`` seconds and at least ``MIN_PASSES`` passes.  Each
pass clears every market, which includes the market's own audit, and
writes the five artifacts the ``regmarket market`` command writes.  The
outputs are checked after each pass, outside its timing.

Untraced runs report the end-to-end metrics.  Traced runs alternate
untraced and traced passes, so that the tracing overhead is measured in the
same process, and report the per-layer metrics of the traced passes.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from regmarket import market

import check
import tracing
import workloads

# Fresh processes timed for set-up; the median is reported.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
# Passes in every run, however long a pass takes; a pass time is the median
# of at least this many.
MIN_PASSES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("clear_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_bytes", "bytes"),
    ("ok_ratio", "ratio"),
)

PER_LAYER = (
    ("scenarios.generate_s", "s"),
    ("data.self_s", "s"),
    ("data.build_design_s", "s"),
    ("data.coalition_design_calls", "count"),
    ("data.coalition_design_s", "s"),
    ("losses.self_s", "s"),
    ("losses.calls", "count"),
    ("losses.s", "s"),
    ("batch.self_s", "s"),
    ("batch.fits", "count"),
    ("batch.fit_s", "s"),
    ("batch.newton_iters", "count"),
    ("batch.jitter_fits", "count"),
    ("online.self_s", "s"),
    ("online.init_s", "s"),
    ("online.steps", "count"),
    ("online.step_s", "s"),
    ("online.coalition_steps", "count"),
    ("online.coalition_step_s", "s"),
    ("online.not_ready_steps", "count"),
    ("online.ready_ratio", "ratio"),
    ("online.singular_errors", "count"),
    ("allocation.self_s", "s"),
    ("allocation.calls", "count"),
    ("allocation.s", "s"),
    ("allocation.no_surplus", "count"),
    ("market.self_s", "s"),
    ("market.audit_s", "s"),
    ("market.ledger_entries", "count"),
    ("market.clamped_entries", "count"),
    ("market.write_s", "s"),
    ("market.report_json_bytes", "bytes"),
    ("market.csv_bytes", "bytes"),
    ("trace.clear_s", "s"),
    ("trace.untraced_clear_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_est_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
)


def write_artifacts(report, outdir: Path, tracer=None) -> None:
    """The artifact set of ``regmarket market``, written the way it writes it."""
    market.report_to_json(report, outdir / "report.json")
    market.write_ledger_csv(report, outdir / "ledger.csv")
    market.write_cumulative_csv(report, outdir / "cumulative_revenues.csv")
    market.write_loss_table_csv(report, outdir / "losses.csv")
    span = (tracer.span("write_audit_json", "write") if tracer is not None
            else contextlib.nullcontext())
    with span, open(outdir / "audit.json", "w") as fh:
        json.dump(report.audit, fh, indent=1, sort_keys=True)
        fh.write("\n")


@dataclass
class PassResult:
    """Timing, reports and failures of one pass."""

    seconds: float
    reports: dict
    errors: dict


def run_pass(markets, outdir: Path, tracer=None, index: int = 0) -> PassResult:
    """Clear and write every market back to back; a market that raises is
    recorded as failed and the pass goes on."""
    reports, errors = {}, {}
    gc.collect()  # every pass starts with no garbage left by the last one
    sid = tracer.begin_pass(index) if tracer is not None else None
    t0 = time.perf_counter()
    for m in markets:
        try:
            report = m.clear()
            write_artifacts(report, outdir / m.id, tracer)
        except Exception as err:  # a failed market is a measured outcome
            errors[m.id] = f"{type(err).__name__}: {err}"
            continue
        reports[m.id] = report
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_pass(sid)
    return PassResult(seconds, reports, errors)


def another_pass(times: list[float], elapsed: float, seconds: float) -> bool:
    """Whether to start another pass: the first MIN_PASSES always run, the
    rest only while the next pass should end within ``seconds``, so a run's
    length stays near ``seconds`` whatever the workload."""
    return len(times) < MIN_PASSES or elapsed + statistics.median(times) <= seconds


class Tally:
    """Failures and artifact sizes over the passes of a run."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.artifact_bytes: list[int] = []
        self.report_json_bytes: list[int] = []
        self.csv_bytes: list[int] = []

    def add(self, markets, result: PassResult, outdir: Path) -> None:
        sizes = {name: 0 for name in check.ARTIFACTS}
        for m in markets:
            self.attempted += 1
            if m.id in result.errors:
                problems = [f"raised {result.errors[m.id]}"]
            else:
                ref = None if self.reference is None else self.reference.get(m.id)
                if self.reference is not None and ref is None:
                    problems = ["no reference summary for this market"]
                else:
                    problems, market_sizes = check.check_market(
                        result.reports[m.id], ref, outdir / m.id)
                    for name, size in market_sizes.items():
                        sizes[name] += size
            if problems:
                self.failed += 1
                self.problems += [f"{m.id}: {p}" for p in problems]
        self.artifact_bytes.append(sum(sizes.values()))
        self.report_json_bytes.append(sizes["report.json"])
        self.csv_bytes.append(sum(v for k, v in sizes.items() if k.endswith(".csv")))


def measure_setup(run_py: Path, workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import the package, generate the
    workload's data and construct its tasks, then exit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(run_py), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def _prepare_outdir(root: Path, workload: str, markets) -> Path:
    outdir = root / ".bench_out" / workload
    for m in markets:
        (outdir / m.id).mkdir(parents=True, exist_ok=True)
    return outdir


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        run_py: Path) -> dict:
    """One benchmark run; prints a summary and returns the result object."""
    reference = check.load_reference(workload, seed)
    if trace:
        result = _run_traced(workload, seed, seconds, root, reference)
    else:
        result = _run_untraced(workload, seed, seconds, root, run_py, reference)
    if reference is None:
        print(f"note: no reference recorded for seed {seed}; outputs checked "
              "against the ledger invariants, the audit and the artifacts only")
    return result


def _run_untraced(workload, seed, seconds, root, run_py, reference) -> dict:
    setup = measure_setup(run_py, workload, seed)
    markets = workloads.build(workload, seed)
    outdir = _prepare_outdir(root, workload, markets)
    tally = Tally(reference)
    times: list[float] = []
    t0 = time.perf_counter()
    while another_pass(times, time.perf_counter() - t0, seconds):
        result = run_pass(markets, outdir)
        times.append(result.seconds)
        tally.add(markets, result, outdir)
        # drop this pass's reports before the next pass builds its own
        del result
    metrics = {
        "setup_s": statistics.median(setup),
        "clear_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_bytes": statistics.median(tally.artifact_bytes),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    print(f"workload {workload}, seed {seed}: {len(times)} passes of "
          f"{len(markets)} markets; set-up sampled in {len(setup)} fresh processes")
    print(f"  pass times (s): {', '.join(f'{t:.4f}' for t in times)}; fewer than 11 "
          "passes, so no tail percentile is reported")
    return _finish(tally, metrics, END_TO_END)


def _run_traced(workload, seed, seconds, root, reference) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        markets = workloads.build(workload, seed)
    finally:
        tracer.uninstall()
    outdir = _prepare_outdir(root, workload, markets)
    tally = Tally(reference)
    untraced: list[float] = []
    traced: list[int] = []
    times: list[float] = []
    t0 = time.perf_counter()
    while another_pass(times, time.perf_counter() - t0, seconds):
        if len(untraced) <= len(traced):
            result = run_pass(markets, outdir)
            untraced.append(result.seconds)
        else:
            index = len(traced)
            tracer.install()
            try:
                result = run_pass(markets, outdir, tracer, index)
            finally:
                tracer.uninstall()
            traced.append(index)
        times.append(result.seconds)
        tally.add(markets, result, outdir)
        del result
    per_pass = [tracing.pass_metrics(tracer, i) for i in traced]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update(tracing.setup_metrics(tracer))
    metrics["market.report_json_bytes"] = statistics.median(tally.report_json_bytes)
    metrics["market.csv_bytes"] = statistics.median(tally.csv_bytes)
    metrics["trace.untraced_clear_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.clear_s"] - metrics["trace.untraced_clear_s"]
    metrics["trace.overhead_est_s"] = metrics["trace.spans"] * tracing.span_cost()
    spans_path = outdir / "spans.npz"
    tracer.save(spans_path)
    share = metrics["trace.unattributed_s"] / metrics["trace.clear_s"]
    print(f"workload {workload}, seed {seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes; spans written to {spans_path.relative_to(root)}")
    print(f"  tracing overhead {metrics['trace.overhead_s']:.4f} s measured, "
          f"{metrics['trace.overhead_est_s']:.4f} s from the cost of a span, on "
          f"{metrics['trace.untraced_clear_s']:.4f} s; time in the pass outside "
          f"any layer {100 * share:.3f} %")
    return _finish(tally, metrics, PER_LAYER)


def _finish(tally: Tally, metrics: dict, listed) -> dict:
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, unit in listed:
        print(f"  {name:30s} {metrics[name]!r} {unit}")
    print(f"  markets failed {tally.failed} of {tally.attempted}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in listed},
    }
