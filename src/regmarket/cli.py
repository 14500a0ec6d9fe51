"""Command-line entry points: simulate, market, report.

Run configuration is a flat INI-style file with [run], [task] and
[ownership] sections (see README).  Exit codes: 0 success, 1 configuration
problem, 2 I/O or parse problem, 3 numeric failure, 4 internal error (an
exception that is not one of the package's typed errors).
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
from .artifacts import write_artifacts
from .losses import LossSpec
from .market import (
    TaskSpec,
    clear_batch_market,
    run_online_market,
    run_oos_market,
    screen_features,
)
from .online import WARM_START

EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

CONFIG_VERSION = 1
SECTIONS = ("run", "task", "ownership")


def _default_out() -> str:
    return os.environ.get("REGMARKET_OUT", ".")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="regmarket",
                                     description="Regression market toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a scenario dataset")
    sim.add_argument("--case", required=True, choices=scenarios.CASES)
    # left out, ScenarioSpec's own defaults apply
    sim.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sim.add_argument("--rows", type=int, dest="T", metavar="ROWS",
                     default=argparse.SUPPRESS)
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
    except Exception as err:  # SystemExit and KeyboardInterrupt are not caught
        message = str(err).replace("\n", " ")
        print(f"internal error: {type(err).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def _cmd_simulate(args) -> int:
    outdir = Path(args.out if args.out is not None else _default_out())
    outdir.mkdir(parents=True, exist_ok=True)
    spec = scenarios.ScenarioSpec(**{k: v for k, v in vars(args).items()
                                     if k in ("case", "T", "seed")})
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
    run_cfg, task, screening = load_config(cfg_path, args.mechanism)
    dataset = _resolve_dataset(run_cfg, task)

    support = None
    if screening:
        support = screen_features(dataset, task)
    if args.mechanism == "batch":
        report = clear_batch_market(dataset, task, support=support)
    elif args.mechanism == "online":
        report = run_online_market(dataset, task, support=support)
    else:
        report = run_oos_market(dataset, task, support=support, **run_cfg["oos"])
    # made only now, so that a configuration error leaves no empty directory
    outdir = Path(args.out if args.out is not None else
                  run_cfg["run"].get("out", _default_out()))
    outdir.mkdir(parents=True, exist_ok=True)
    write_artifacts(report, outdir)
    print(f"{args.mechanism} market cleared: central pays "
          f"{report.central_total:.2f} to {len(report.per_agent)} agent(s)")
    if args.strict_audit and report.audit and not report.audit["passed"]:
        print("audit failed", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


# benchmarks/test_benchmark.py writes the command's artifacts by this name
_write_artifacts = write_artifacts


def _cmd_report(args) -> int:
    path = Path(args.path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot parse {path}: {err}", file=sys.stderr)
        return EXIT_IO
    if not isinstance(data, dict):
        print(f"error: {path} is not a report: not a JSON object", file=sys.stderr)
        return EXIT_IO
    # each table is built before it is printed, so a missing key prints nothing
    try:
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
    except KeyError as err:
        print(f"error: {path} is not a report: it has no key {err}", file=sys.stderr)
        return EXIT_IO
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


def _parse(kind, key: str, text: str):
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} = {text!r} is not {noun}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_capacities(text: str):
    if not text:
        return None
    out = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not value:
            raise ConfigError(f"capacity entry {part!r} is not name=value")
        out[name.strip()] = _parse(float, "capacities", value)
    return out


# Each table maps what its keys set to {key: (field, parser)}.  Only keys
# present in the file are passed on, so a key left out keeps the default of
# the spec, schema or function whose field it sets.
TASK_KEYS = {
    "loss": {"loss": ("family", str), "tau": ("tau", float), "alpha": ("alpha", float),
             "derivative_variant": ("derivative_variant", str)},       # LossSpec
    "task": {"central_agent": ("central_agent", str), "degree": ("degree", int),
             "interactions": ("interactions", _parse_bool),
             "phi_insample": ("phi_insample", float), "phi_oos": ("phi_oos", float),
             "lambda": ("lam", float), "allocation": ("allocation_policy", str),
             "oos_allocation": ("oos_allocation_policy", str),
             "init_policy": ("init_policy", str), "warmup": ("warmup", int),
             "train_rows": ("train_rows", int), "loss_unit": ("loss_unit", str),
             "enumeration_cap": ("enumeration_cap", int)},             # TaskSpec
}
# a dataset source's keys are accepted only with that source
SOURCES = ("csv", "scenario")
RUN_KEYS = {
    "run": {"version": ("version", int), "out": ("out", str),
            "screening": ("screening", str)},
    "oos": {"model_source": ("model_source", str)},                    # run_oos_market
    "scenario": {"scenario": ("case", str), "rows": ("T", int),
                 "seed": ("seed", int)},                               # ScenarioSpec
    "csv": {"csv": ("path", str), "timestamp_column": ("timestamp", str),
            "target_column": ("target", str),
            "capacities": ("capacities", _parse_capacities)},          # CsvSchema
}
# The keys that not every market reads, grouped by what reads them: a market
# that does not would accept such a key and ignore it.  Each test takes the
# mechanism, whether its model is an online session, and the task.
ONLINE_MODEL = "the online mechanism and oos with model_source = online"
READERS = (
    ("run", ("model_source",), "the oos mechanism", lambda mech, online, task: mech == "oos"),
    ("task", ("lambda", "init_policy"), ONLINE_MODEL, lambda mech, online, task: online),
    ("task", ("warmup",), f"{ONLINE_MODEL}, under init_policy = {WARM_START}",
     lambda mech, online, task: online and task.init_policy == WARM_START),
    ("task", ("phi_insample", "allocation"), "the batch and online mechanisms",
     lambda mech, online, task: mech != "oos"),
    ("task", ("phi_oos", "oos_allocation"), "the oos mechanism",
     lambda mech, online, task: mech == "oos"),
    ("task", ("train_rows",), "the oos mechanism with model_source = batch",
     lambda mech, online, task: mech == "oos" and not online),
    ("task", ("tau", "alpha"), "the smooth-quantile loss",
     lambda mech, online, task: not task.loss.is_quadratic),
    ("task", ("derivative_variant",), f"the smooth-quantile loss in {ONLINE_MODEL}",
     lambda mech, online, task: online and not task.loss.is_quadratic),
    ("task", ("interactions",), "designs of degree >= 2",
     lambda mech, online, task: task.degree >= 2),
)


def load_config(path, mechanism: str) -> tuple[dict, TaskSpec, str | None]:
    """Parse the INI run configuration of a market that ``mechanism`` will
    clear into (run options, task, screening); the run options map each group
    of :data:`RUN_KEYS` to its fields.  A key that the market would not read
    (:data:`READERS`) is rejected."""
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
    run_section = dict(parser["run"])
    run = _read_section("run", run_section, RUN_KEYS)
    version = run["run"].get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version}")
    sources = [k for k in SOURCES if run_section.get(k)]
    if len(sources) != 1:
        raise ConfigError("exactly one dataset source (csv or scenario) required")
    other = next(s for s in SOURCES if s != sources[0])
    stray = sorted(set(run_section).intersection(RUN_KEYS[other]))
    if stray:
        raise ConfigError(f"[run] key(s) {', '.join(stray)} apply to a {other} source, "
                          f"but the dataset source is {sources[0]}")

    fields = _read_section("task", {k: v for k, v in parser["task"].items()
                                    if not k.startswith("lags_")},
                           TASK_KEYS, "lags_<series>")
    lags = {key[len("lags_"):]: tuple(_parse(int, key, v) for v in value.split())
            for key, value in parser["task"].items() if key.startswith("lags_")}
    task = TaskSpec(**{"central_agent": "central", **fields["task"]},
                    ownership=dict(parser["ownership"]) if "ownership" in parser else {},
                    loss=LossSpec(**fields["loss"]), lags=lags)
    screening = run["run"].get("screening") or None
    if screening not in (None, "cv-loss"):
        raise ConfigError(f"unknown screening method {screening!r}")
    # "batch" is run_oos_market's default model source
    _refuse_unread(mechanism, run["oos"].get("model_source", "batch"), task,
                   {"run": run_section, "task": parser["task"]})
    return run, task, screening


def _refuse_unread(mechanism: str, source: str, task: TaskSpec, present: dict) -> None:
    """Raise ConfigError naming every key in ``present`` (section -> keys)
    that the market of ``mechanism`` and model ``source`` would not read."""
    online = mechanism == "online" or mechanism == "oos" and source == "online"
    market = f"oos with model_source = {source}" if mechanism == "oos" else mechanism
    unread = []
    for section, keys, reader, reads in READERS:
        stray = [key for key in keys if key in present[section]]
        if stray and not reads(mechanism, online, task):
            unread.append(f"[{section}] key(s) {', '.join(stray)} apply only to {reader}, "
                          f"not to {market}")
    if unread:
        raise ConfigError("; ".join(unread))


def _read_section(name: str, section: dict, table: dict, *more: str) -> dict[str, dict]:
    """Each key of ``section`` parsed by its entry in ``table``, grouped as
    the table groups it.  A key not in the table is rejected: nothing would
    read it (``more`` names further keys read elsewhere)."""
    groups = {key: group for group, keys in table.items() for key in keys}
    unknown = sorted(set(section).difference(groups))
    if unknown:
        raise ConfigError(f"unknown [{name}] key(s) {', '.join(unknown)}; "
                          f"accepted keys: {', '.join([*groups, *more])}")
    out: dict[str, dict] = {group: {} for group in table}
    for key, text in section.items():
        field, kind = table[groups[key]][key]
        out[groups[key]][field] = _parse(kind, key, text)
    return out


def _resolve_dataset(run_cfg: dict, task: TaskSpec):
    if run_cfg["scenario"]:
        dataset, _ = scenarios.generate(scenarios.ScenarioSpec(**run_cfg["scenario"]))
        return dataset
    schema = dict(run_cfg["csv"])
    return ingest_csv(schema.pop("path"), CsvSchema(target_owner=task.central_agent, **schema))


if __name__ == "__main__":
    sys.exit(main())
