"""Command-line entry points: simulate, market, report.

Run configuration is a flat INI-style file with [run], [task] and
[ownership] sections (see README).  Exit codes: 0 success, 1 configuration
problem, 2 I/O or parse problem, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from pathlib import Path

from . import scenarios
from .data import CsvSchema, dataset_to_csv, ingest_csv
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    EnumerationCapError,
    FeatureLookupError,
    RegMarketError,
    SingularDesignError,
    SingularUpdateError,
)
from .losses import LossSpec
from .market import (
    MarketReport,
    TaskSpec,
    clear_batch_market,
    report_to_json,
    run_online_market,
    run_oos_market,
    screen_features,
    write_cumulative_csv,
    write_ledger_csv,
    write_loss_table_csv,
)

EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

CONFIG_VERSION = 1
SECTIONS = ("run", "task", "ownership")
RUN_KEYS = ("version", "csv", "scenario", "rows", "seed", "out", "screening",
            "model_source", "timestamp_column", "target_column", "capacities")
TASK_KEYS = ("central_agent", "loss", "tau", "alpha", "derivative_variant", "degree",
             "interactions", "phi_insample", "phi_oos", "lambda", "allocation",
             "oos_allocation", "init_policy", "warmup", "train_rows", "loss_unit",
             "enumeration_cap", "lags_<series>")


def _default_out() -> str:
    return os.environ.get("REGMARKET_OUT", ".")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="regmarket",
                                     description="Regression market toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a scenario dataset")
    sim.add_argument("--case", required=True, choices=scenarios.CASES)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--rows", type=int, default=None)
    sim.add_argument("--out", default=None)

    mkt = sub.add_parser("market", help="run a market mechanism from a config")
    mkt.add_argument("--mechanism", required=True, choices=["batch", "online", "oos"])
    mkt.add_argument("--config", required=True)
    mkt.add_argument("--out", default=None)
    mkt.add_argument("--strict-audit", action="store_true",
                     help="exit non-zero when any audit check fails")

    rep = sub.add_parser("report", help="render tables from a report.json")
    rep.add_argument("path")
    group = rep.add_mutually_exclusive_group()
    group.add_argument("--summary", action="store_true")
    group.add_argument("--per-agent", action="store_true")
    group.add_argument("--per-feature", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "market":
            return _cmd_market(args)
        return _cmd_report(args)
    except (ConfigError, EnumerationCapError, FeatureLookupError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, DataError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except (SingularDesignError, SingularUpdateError, ConvergenceError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except RegMarketError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def _cmd_simulate(args) -> int:
    outdir = Path(args.out if args.out is not None else _default_out())
    outdir.mkdir(parents=True, exist_ok=True)
    spec = scenarios.ScenarioSpec(case=args.case, T=args.rows, seed=args.seed)
    dataset, truth = scenarios.generate(spec)
    dataset_to_csv(dataset, outdir / "dataset.csv")
    with open(outdir / "truth.json", "w") as fh:
        json.dump(truth, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {outdir / 'dataset.csv'} and {outdir / 'truth.json'}")
    return 0


def _cmd_market(args) -> int:
    cfg_path = Path(args.config)
    if not cfg_path.exists():
        print(f"error: config {cfg_path} not found", file=sys.stderr)
        return EXIT_IO
    run_cfg, task, screening = load_config(cfg_path)
    dataset = _resolve_dataset(run_cfg, task)

    support = None
    if screening:
        support = screen_features(dataset, task)
    if args.mechanism == "batch":
        report = clear_batch_market(dataset, task, support=support)
    elif args.mechanism == "online":
        report = run_online_market(dataset, task, support=support)
    else:
        report = run_oos_market(dataset, task,
                                model_source=run_cfg.get("model_source", "batch"),
                                support=support)
    # made only now, so that a configuration error leaves no empty directory
    outdir = Path(args.out if args.out is not None else
                  run_cfg.get("out", _default_out()))
    outdir.mkdir(parents=True, exist_ok=True)
    _write_artifacts(report, outdir)
    print(f"{args.mechanism} market cleared: central pays "
          f"{report.central_total:.2f} to {len(report.per_agent)} agent(s)")
    if args.strict_audit and report.audit and not report.audit["passed"]:
        print("audit failed", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


def _write_artifacts(report: MarketReport, outdir: Path) -> None:
    report_to_json(report, outdir / "report.json")
    write_ledger_csv(report, outdir / "ledger.csv")
    write_cumulative_csv(report, outdir / "cumulative_revenues.csv")
    write_loss_table_csv(report, outdir / "losses.csv")
    with open(outdir / "audit.json", "w") as fh:
        json.dump(report.audit, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _cmd_report(args) -> int:
    path = Path(args.path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot parse {path}: {err}", file=sys.stderr)
        return EXIT_IO
    if args.per_agent:
        _print_table(["agent", "revenue"],
                     [(a, f"{v:.2f}") for a, v in sorted(data["per_agent"].items())])
    elif args.per_feature:
        rows = [(k, f"{100 * data['allocations'].get(k, 0.0):.2f}%",
                 f"{v:.2f}")
                for k, v in sorted(data["payments"].items())]
        _print_table(["feature", "psi", "payment"], rows)
    else:
        surplus = data.get("surplus")
        rows = [
            ("market", data["market"]),
            ("central agent", data["central_agent"]),
            ("loss improvement", "n/a" if surplus is None else f"{surplus:.6f}"),
            ("central payment", f"{data['central_total']:.2f}"),
            ("support revenue", f"{sum(data['payments'].values()):.2f}"),
            ("benchmark payment", f"{data['benchmark_payment']:.2f}"),
            ("audit passed", str(data.get("audit", {}).get("passed"))),
        ]
        _print_table(["field", "value"], rows)
    return 0


def _print_table(header, rows) -> None:
    rows = [tuple(str(c) for c in r) for r in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


# ---------------------------------------------------------------------------
# configuration


def load_config(path) -> tuple[dict, TaskSpec, str | None]:
    """Parse the INI run configuration into (run options, task, screening)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from None
    # configparser would ignore an unknown section and copy every [DEFAULT]
    # key into each section, so neither may hold a key nothing reads
    unknown = [name for name in parser.sections() if name not in SECTIONS]
    if unknown:
        raise ConfigError(f"unknown section [{unknown[0]}]; accepted sections: "
                          + ", ".join(f"[{name}]" for name in SECTIONS))
    if parser.defaults():
        raise ConfigError(f"section [{parser.default_section}] is not accepted: its "
                          f"key(s) {', '.join(parser.defaults())} would apply to "
                          "every section")
    if "run" not in parser or "task" not in parser:
        raise ConfigError("config needs [run] and [task] sections")
    run = dict(parser["run"])
    task_section = dict(parser["task"])
    _check_keys("run", run, RUN_KEYS)
    _check_keys("task", [k for k in task_section if not k.startswith("lags_")], TASK_KEYS)
    version = _number(run, "version", int, CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}")
    sources = [k for k in ("csv", "scenario") if run.get(k)]
    if len(sources) != 1:
        raise ConfigError("exactly one dataset source (csv or scenario) required")

    ownership = dict(parser["ownership"]) if "ownership" in parser else {}
    loss = LossSpec(
        family=task_section.get("loss", "quadratic"),
        tau=_number(task_section, "tau", float, 0.5),
        alpha=_number(task_section, "alpha", float, 0.2),
        derivative_variant=task_section.get("derivative_variant", "analytic"))
    lags: dict[str, tuple[int, ...]] = {}
    for key, value in task_section.items():
        if key.startswith("lags_"):
            series = key[len("lags_"):]
            lags[series] = tuple(_parse(int, key, v) for v in value.split())
    task = TaskSpec(
        central_agent=task_section.get("central_agent", "central"),
        ownership=ownership,
        loss=loss,
        lags=lags,
        degree=_number(task_section, "degree", int, 1),
        interactions=_parse_bool(task_section.get("interactions", "true")),
        phi_insample=_number(task_section, "phi_insample", float, 0.1),
        phi_oos=_number(task_section, "phi_oos", float, 0.0),
        lam=_number(task_section, "lambda", float, 0.998),
        allocation_policy=task_section.get("allocation", "shapley"),
        oos_allocation_policy=task_section.get("oos_allocation", "zero-shapley"),
        init_policy=task_section.get("init_policy", "warm-start"),
        warmup=_number(task_section, "warmup", int, 100),
        train_rows=_number(task_section, "train_rows", int, None),
        loss_unit=task_section.get("loss_unit", "raw"),
        enumeration_cap=_number(task_section, "enumeration_cap", int, 15))
    screening = run.get("screening") or None
    if screening not in (None, "cv-loss"):
        raise ConfigError(f"unknown screening method {screening!r}")
    return run, task, screening


def _check_keys(name: str, keys, accepted: tuple[str, ...]) -> None:
    """Reject keys that nothing would read."""
    unknown = sorted(set(keys).difference(accepted))
    if unknown:
        raise ConfigError(f"unknown [{name}] key(s) {', '.join(unknown)}; "
                          f"accepted keys: {', '.join(accepted)}")


def _parse(kind, key: str, text: str):
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} = {text!r} is not {noun}") from None


def _number(section: dict, key: str, kind, default):
    return _parse(kind, key, section[key]) if key in section else default


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _resolve_dataset(run_cfg: dict, task: TaskSpec):
    if run_cfg.get("scenario"):
        spec = scenarios.ScenarioSpec(
            case=run_cfg["scenario"],
            T=_parse(int, "rows", run_cfg["rows"]) if run_cfg.get("rows") else None,
            seed=_number(run_cfg, "seed", int, 0))
        dataset, _ = scenarios.generate(spec)
        return dataset
    schema = CsvSchema(
        timestamp=run_cfg.get("timestamp_column", "ts"),
        target=run_cfg.get("target_column", "y"),
        target_owner=task.central_agent,
        capacities=_parse_capacities(run_cfg.get("capacities")))
    return ingest_csv(run_cfg["csv"], schema)


def _parse_capacities(text: str | None):
    if not text:
        return None
    out = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not value:
            raise ConfigError(f"capacity entry {part!r} is not name=value")
        out[name.strip()] = _parse(float, "capacities", value)
    return out


if __name__ == "__main__":
    sys.exit(main())
