"""Output checks: reference summaries, ledger invariants and artifacts.

A market passes when

* its report's own audit passed;
* budget balance and individual rationality hold when recomputed from the
  ledger itself: every amount is finite and >= 0, the amounts sum to
  ``central_total``, and the amounts paid to each agent sum to its
  ``per_agent`` total;
* its summary (per-feature payments, per-agent totals, ``central_total``,
  surplus and final allocations) matches the reference recorded for the
  workload and seed, where one exists;
* its five artifacts exist, and ``ledger.csv`` has one row per ledger entry.

References are compared at a relative tolerance of ``RTOL``.  That is far
looser than the reduction-order changes an optimisation may bring (a
batched estimator moved coefficients by 4.4e-15), and it still catches a
payment that moves by more than a millionth of the market's total.
Amounts near zero, where relative error means nothing, are compared at
``RTOL`` of the market's total instead.
"""

from __future__ import annotations

import json
import math
import os
from collections import defaultdict
from pathlib import Path

RTOL = 1e-6
LEDGER_RTOL = 1e-9
ARTIFACTS = ("report.json", "ledger.csv", "cumulative_revenues.csv", "losses.csv",
             "audit.json")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def summarise(report) -> dict:
    """The figures a reference records for one market."""
    return {
        "payments": dict(report.payments),
        "per_agent": dict(report.per_agent),
        "central_total": report.central_total,
        "surplus": report.surplus,
        "allocations": dict(report.allocations),
    }


def load_reference(workload: str, seed: int) -> dict | None:
    """Recorded summaries of every market of ``workload`` at ``seed``, if any."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)["seeds"].get(str(seed))


def _close(value: float, ref: float, scale: float) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= RTOL * max(abs(ref), scale)


def compare_summary(summary: dict, reference: dict) -> list[str]:
    """Differences between a market summary and its reference."""
    problems = []
    money = max(abs(reference["central_total"]), 1e-300)
    scales = {"payments": money, "per_agent": money, "central_total": money,
              "surplus": 0.0, "allocations": 1.0}
    for key, scale in scales.items():
        got, want = summary[key], reference[key]
        if isinstance(want, dict):
            if sorted(got) != sorted(want):
                problems.append(f"{key}: names {sorted(got)} != reference {sorted(want)}")
                continue
            for name in sorted(want):
                if not _close(got[name], want[name], scale):
                    problems.append(f"{key}[{name}] = {got[name]!r}, reference {want[name]!r}")
        elif not _close(got, want, scale):
            problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems


def check_ledger(report) -> list[str]:
    """Budget balance and individual rationality recomputed from the ledger."""
    problems = []
    amounts = [e.amount for e in report.ledger]
    bad = [a for a in amounts if not (math.isfinite(a) and a >= 0.0)]
    if bad:
        problems.append(f"{len(bad)} ledger amounts negative or not finite, e.g. {bad[0]!r}")
    total = math.fsum(amounts)
    tol = LEDGER_RTOL * max(abs(report.central_total), 1e-300)
    if abs(total - report.central_total) > tol:
        problems.append(f"ledger sums to {total!r}, central_total is {report.central_total!r}")
    by_payee = defaultdict(list)
    for e in report.ledger:
        by_payee[e.payee].append(e.amount)
    for agent in sorted(set(by_payee) | set(report.per_agent)):
        paid = math.fsum(by_payee.get(agent, ()))
        booked = report.per_agent.get(agent, 0.0)
        if abs(paid - booked) > tol:
            problems.append(f"ledger pays {agent} {paid!r}, per_agent says {booked!r}")
    return problems


def check_artifacts(report, outdir: Path) -> tuple[list[str], dict[str, int]]:
    """Presence of the five artifacts and the ledger row count; bytes per file."""
    problems = []
    sizes = {}
    for name in ARTIFACTS:
        path = outdir / name
        sizes[name] = os.path.getsize(path) if path.is_file() else 0
        if sizes[name] == 0:
            problems.append(f"artifact {name} missing or empty")
    ledger_csv = outdir / "ledger.csv"
    if ledger_csv.is_file():
        with open(ledger_csv, "rb") as fh:
            rows = fh.read().count(b"\n") - 1
        if rows != len(report.ledger):
            problems.append(f"ledger.csv has {rows} rows for {len(report.ledger)} entries")
    return problems, sizes


def check_market(report, reference: dict | None,
                 outdir: Path) -> tuple[list[str], dict[str, int]]:
    """Every check of one cleared market; returns (problems, bytes per artifact)."""
    problems = []
    if not (report.audit and report.audit.get("passed")):
        problems.append("report audit did not pass")
    problems += check_ledger(report)
    if reference is not None:
        problems += compare_summary(summarise(report), reference)
    artifact_problems, sizes = check_artifacts(report, outdir)
    return problems + artifact_problems, sizes
