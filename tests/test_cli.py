import json
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from regmarket import Dataset, LossSpec, TaskSpec, cli, dataset_to_csv
from regmarket.cli import TASK_KEYS, load_config, main

CONFIG = """\
[run]
version = 1
scenario = batch-linear
rows = 600
seed = 4
out = {out}

[task]
central_agent = a1
loss = quadratic
degree = 1
phi_insample = 0.1
allocation = shapley

[ownership]
x1 = a1
x2 = a2
x3 = a3
x4 = a3
"""


def run_cli(args):
    return main(args)


def test_simulate_writes_dataset_and_truth(tmp_path, capsys):
    code = run_cli(["simulate", "--case", "batch-linear", "--seed", "7",
                    "--rows", "200", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "dataset.csv").exists()
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["seed"] == 7


def test_simulate_unknown_case_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["simulate", "--case", "not-a-case"])
    assert err.value.code == 2  # argparse rejects the choice


def test_simulate_rerun_is_byte_identical(tmp_path):
    # run through fresh interpreters so hash randomisation cannot hide
    # ordering bugs
    for sub in ("a", "b"):
        r = subprocess.run(
            [sys.executable, "-m", "regmarket.cli", "simulate", "--case",
             "online-quantile", "--seed", "3", "--rows", "300",
             "--out", str(tmp_path / sub)],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
    a = (tmp_path / "a" / "dataset.csv").read_bytes()
    b = (tmp_path / "b" / "dataset.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "truth.json").read_bytes() == \
        (tmp_path / "b" / "truth.json").read_bytes()


@pytest.fixture
def config_file(tmp_path):
    out = tmp_path / "artifacts"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(out=out))
    return cfg, out


def test_market_batch_writes_artifacts(config_file, capsys):
    cfg, out = config_file
    code = run_cli(["market", "--mechanism", "batch", "--config", str(cfg)])
    assert code == 0
    for name in ("report.json", "ledger.csv", "cumulative_revenues.csv",
                 "losses.csv", "audit.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["market"] == "batch"
    assert report["audit"]["passed"]
    audit = json.loads((out / "audit.json").read_text())
    assert audit["passed"]


def test_market_missing_config_is_io_error(tmp_path, capsys):
    code = run_cli(["market", "--mechanism", "batch", "--config",
                    str(tmp_path / "nope.cfg")])
    assert code == 2


def test_market_bad_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[run]\nversion = 1\n\n[task]\ncentral_agent = a1\n")
    code = run_cli(["market", "--mechanism", "batch", "--config", str(cfg)])
    assert code == 1  # no dataset source


def test_market_rerun_is_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = tmp_path / f"{sub}.cfg"
        cfg.write_text(CONFIG.format(out=out))
        r = subprocess.run(
            [sys.executable, "-m", "regmarket.cli", "market", "--mechanism",
             "batch", "--config", str(cfg)],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    for name in ("report.json", "ledger.csv", "cumulative_revenues.csv",
                 "losses.csv", "audit.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_market_online_from_csv(tmp_path, capsys):
    # simulate to CSV, then run the online market against that file
    code = run_cli(["simulate", "--case", "batch-linear", "--seed", "2",
                    "--rows", "700", "--out", str(tmp_path)])
    assert code == 0
    out = tmp_path / "mkt"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""\
[run]
version = 1
csv = {tmp_path / 'dataset.csv'}
out = {out}

[task]
central_agent = a1
loss = quadratic
lambda = 0.99
warmup = 80
phi_insample = 0.1

[ownership]
x1 = a1
x2 = a2
x3 = a3
x4 = a3
""")
    code = run_cli(["market", "--mechanism", "online", "--config", str(cfg)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["market"] == "online"
    assert report["central_total"] > 0


def test_report_summary_and_tables(config_file, capsys):
    cfg, out = config_file
    assert run_cli(["market", "--mechanism", "batch", "--config", str(cfg)]) == 0
    capsys.readouterr()

    assert run_cli(["report", str(out / "report.json"), "--summary"]) == 0
    text = capsys.readouterr().out
    assert "central payment" in text

    assert run_cli(["report", str(out / "report.json"), "--per-agent"]) == 0
    text = capsys.readouterr().out
    assert "a2" in text and "a3" in text

    assert run_cli(["report", str(out / "report.json"), "--per-feature"]) == 0
    text = capsys.readouterr().out
    assert "x2" in text and "%" in text


def test_report_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "report.json"
    bad.write_text("{not json")
    assert run_cli(["report", str(bad), "--summary"]) == 2


def test_market_with_screening_from_config(tmp_path, capsys):
    out = tmp_path / "screened"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""\
[run]
version = 1
scenario = batch-linear
rows = 900
seed = 1
out = {out}
screening = cv-loss

[task]
central_agent = a1
loss = quadratic
phi_insample = 0.1

[ownership]
x1 = a1
x2 = a2
x3 = a3
x4 = a3
""")
    assert run_cli(["market", "--mechanism", "batch", "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    # all simulated features carry real signal, so screening keeps them
    assert sorted(report["support"]) == ["x2", "x3", "x4"]


def test_oos_mechanism_via_cli(tmp_path, capsys):
    out = tmp_path / "oos"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""\
[run]
version = 1
scenario = batch-linear
rows = 800
seed = 6
out = {out}

[task]
central_agent = a1
loss = quadratic
phi_oos = 1.0
train_rows = 400

[ownership]
x1 = a1
x2 = a2
x3 = a3
x4 = a3
""")
    assert run_cli(["market", "--mechanism", "oos", "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["market"] == "oos"
    assert report["metrics"]["with_support"] <= report["metrics"]["without_support"]


@pytest.mark.parametrize("section, line, key", [
    ("[task]", "lamda = 0.9", "lamda"),
    ("[task]", "horizon = 1", "horizon"),
    ("[run]", "sead = 4", "sead"),
])
def test_unknown_config_key_is_config_error(tmp_path, capsys, section, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out").replace(
        f"{section}\n", f"{section}\n{line}\n"))
    code = run_cli(["market", "--mechanism", "batch", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"unknown {section} key(s) {key}" in err
    assert "accepted keys:" in err and ("lambda" in err or section == "[run]")
    assert not (tmp_path / "out").exists()


def test_lag_keys_stay_valid(tmp_path):
    from regmarket.cli import load_config

    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out").replace(
        "[task]\n", "[task]\nlags_y = 1 2\nlags_x2 = 1\n"))
    _, task, _ = load_config(cfg)
    assert dict(task.lags) == {"y": (1, 2), "x2": (1,)}


@pytest.mark.parametrize("section, line, key", [
    ("[task]", "phi_oos = abc", "phi_oos"),
    ("[task]", "warmup = 1.5", "warmup"),
    ("[task]", "lags_y = 1 two", "lags_y"),
    ("[run]", "rows = many", "rows"),
])
def test_non_numeric_config_value_is_config_error(tmp_path, capsys, section, line, key):
    cfg = tmp_path / "run.cfg"
    text = CONFIG.format(out=tmp_path / "out")
    if key == "rows":
        text = text.replace("rows = 600\n", "")
    cfg.write_text(text.replace(f"{section}\n", f"{section}\n{line}\n"))
    code = run_cli(["market", "--mechanism", "oos", "--config", str(cfg)])
    assert code == 1
    assert f"error: {key} = " in capsys.readouterr().err


@pytest.mark.parametrize("before, after, section", [
    # a misspelt [task]: its lambda would be ignored
    ("", "\n[tsk]\nlambda = 0.5\n", "[tsk]"),
    # configparser would copy seed into [run], [task] and [ownership]
    ("[DEFAULT]\nseed = 5\n\n", "", "[DEFAULT]"),
])
def test_unknown_or_default_section_is_config_error(tmp_path, capsys, before, after,
                                                    section):
    from regmarket.cli import load_config
    from regmarket.errors import ConfigError

    cfg = tmp_path / "run.cfg"
    cfg.write_text(before + CONFIG.format(out=tmp_path / "out") + after)
    with pytest.raises(ConfigError, match=re.escape(section)):
        load_config(cfg)
    code = run_cli(["market", "--mechanism", "batch", "--config", str(cfg)])
    assert code == 1
    assert section in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, message", [
    ("lags_zz = 1", "zz"),
    ("enumeration_cap = 1", "exceed the exact enumeration cap (1)"),
], ids=["unknown-lag-series", "enumeration-cap"])
@pytest.mark.parametrize("mechanism", ["batch", "online", "oos"])
def test_feature_lookup_and_enumeration_cap_errors_are_config_errors(tmp_path, capsys,
                                                                    mechanism, line,
                                                                    message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out").replace("[task]\n", f"[task]\n{line}\n"))
    code = run_cli(["market", "--mechanism", mechanism, "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("line, message", [
    ("phi_insample = nan", "willingness to pay must be finite"),
    ("phi_oos = inf", "willingness to pay must be finite"),
    ("warmup = -5", "warm-up must be >= 0"),
    ("alpha = nan", "alpha must be positive and finite"),
])
def test_out_of_range_task_value_is_config_error(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    key = line.partition(" = ")[0]
    text = re.sub(rf"^{key} = .*\n", "", CONFIG.format(out=tmp_path / "out"), flags=re.M)
    cfg.write_text(text.replace("[task]\n", f"[task]\n{line}\n"))
    code = run_cli(["market", "--mechanism", "online", "--config", str(cfg)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_overflowing_online_step_is_a_numeric_error(tmp_path, capsys):
    # 1e155 is finite, but its squared residual overflows: the step fails
    # as a numeric error naming its step and coalition, without a warning
    assert run_cli(["simulate", "--case", "batch-linear", "--seed", "2",
                    "--rows", "300", "--out", str(tmp_path)]) == 0
    data = tmp_path / "dataset.csv"
    lines = data.read_text().splitlines(keepends=True)
    header = lines[0].strip().split(",")
    cells = lines[201].rstrip("\n").split(",")
    cells[header.index("x3")] = "1e155"
    lines[201] = ",".join(cells) + "\n"
    data.write_text("".join(lines))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out")
                   .replace("scenario = batch-linear\n", f"csv = {data}\n")
                   .replace("rows = 600\nseed = 4\n", ""))
    code = run_cli(["market", "--mechanism", "online", "--config", str(cfg)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: step 101: coalition ['x3']: ")
    assert "overflowed" in err
    assert not (tmp_path / "out").exists()


def test_singular_zero_start_memory_is_a_numeric_error(tmp_path, capsys):
    # x2 = 1.0 repeats the intercept: under zero start the online market
    # fails at a singular memory with a typed error, not a bare LinAlgError
    rng = np.random.default_rng(0)
    T = 300
    feats = {"x0": rng.normal(size=T), "x1": rng.normal(size=T), "x2": np.ones(T)}
    y = feats["x0"] + feats["x1"] + rng.normal(0, 0.3, T)
    owners = {"x0": "a2", "x2": "a2", "x1": "a3"}
    dataset_to_csv(Dataset(np.arange(T), y, feats, owners, target_owner="a1"),
                   tmp_path / "dataset.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[run]\ncsv = {tmp_path / 'dataset.csv'}\nout = {tmp_path / 'out'}\n"
                   "[task]\ncentral_agent = a1\ninit_policy = zero-start\n"
                   "[ownership]\nx0 = a2\nx2 = a2\nx1 = a3\n")
    code = run_cli(["market", "--mechanism", "online", "--config", str(cfg)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: step 22: coalition ['x2']: memory matrix not "
                          "positive definite")
    assert not (tmp_path / "out").exists()


def test_an_overflowing_batch_loss_is_a_config_error(tmp_path, capsys):
    # the squared residuals of a 1e160 target overflow: the batch market
    # would write NaN payments and exit 0
    rng = np.random.default_rng(0)
    T = 200
    owners = {"x1": "a2", "x2": "a3"}
    dataset_to_csv(Dataset(np.arange(T), 1e160 * rng.normal(size=T),
                           {"x1": rng.normal(size=T), "x2": rng.normal(size=T)}, owners,
                           target_owner="a1"), tmp_path / "dataset.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[run]\ncsv = {tmp_path / 'dataset.csv'}\nout = {tmp_path / 'out'}\n"
                   "[task]\ncentral_agent = a1\nphi_oos = 1.0\n"
                   "[ownership]\nx1 = a2\nx2 = a3\n")
    code = run_cli(["market", "--mechanism", "batch", "--config", str(cfg)])
    assert code == 1
    assert "rescale the target" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_untyped_exception_is_an_internal_error(config_file, monkeypatch, capsys):
    cfg, out = config_file
    error = RuntimeError("boom\nsecond line")

    def clear(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "clear_batch_market", clear)
    code = run_cli(["market", "--mechanism", "batch", "--config", str(cfg)])
    assert code == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom second line\n"
    # an interrupt still ends the command as an interrupt
    error = KeyboardInterrupt()
    with pytest.raises(KeyboardInterrupt):
        run_cli(["market", "--mechanism", "batch", "--config", str(cfg)])


def test_error_while_clearing_leaves_no_output_directory(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out")
                   .replace("[task]\n", "[task]\nenumeration_cap = 1\n"))
    code = run_cli(["market", "--mechanism", "online", "--config", str(cfg)])
    assert code == 1
    assert "exceed the exact enumeration cap (1)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["inf", "nan", "0"])
def test_a_capacity_that_is_not_finite_and_positive_is_config_error(tmp_path, capsys, value):
    # an infinite capacity would divide x2 down to zeros and clear with exit 0
    assert run_cli(["simulate", "--case", "batch-linear", "--rows", "300",
                    "--out", str(tmp_path)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out")
                   .replace("scenario = batch-linear\n",
                            f"csv = {tmp_path / 'dataset.csv'}\ncapacities = x2={value}\n")
                   .replace("rows = 600\nseed = 4\n", ""))
    code = run_cli(["market", "--mechanism", "batch", "--config", str(cfg)])
    assert code == 1
    assert "nominal capacity for 'x2' must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source, line, key, other", [
    ("scenario", "capacities = y=2.96", "capacities", "csv"),
    ("scenario", "timestamp_column = when", "timestamp_column", "csv"),
    ("scenario", "target_column = nope", "target_column", "csv"),
    ("csv", "rows = 600", "rows", "scenario"),
    ("csv", "seed = 4", "seed", "scenario"),
])
def test_run_key_of_the_other_dataset_source_is_config_error(tmp_path, capsys, source,
                                                             line, key, other):
    # each such key would be accepted and ignored: it only sets its own source
    text = CONFIG.format(out=tmp_path / "out").replace("rows = 600\nseed = 4\n", "")
    if source == "csv":
        assert run_cli(["simulate", "--case", "batch-linear", "--rows", "300",
                        "--out", str(tmp_path)]) == 0
        text = text.replace("scenario = batch-linear\n", f"csv = {tmp_path / 'dataset.csv'}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace("[run]\n", f"[run]\n{line}\n"))
    code = run_cli(["market", "--mechanism", "batch", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"[run] key(s) {key} apply to a {other} source" in err
    assert f"the dataset source is {source}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mechanism", ["batch", "online"])
def test_model_source_outside_the_oos_mechanism_is_config_error(tmp_path, capsys,
                                                                mechanism):
    # only the out-of-sample market reads model_source; any other would
    # accept and ignore it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out")
                   .replace("[run]\n", "[run]\nmodel_source = online\n"))
    code = run_cli(["market", "--mechanism", mechanism, "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"model_source apply only to the oos mechanism, not to {mechanism}" in err
    assert not (tmp_path / "out").exists()


# the TaskSpec fields no [task] key sets: [ownership] and lags_<series> set
# the first two, the loss keys the LossSpec, and the flags are library-only
NOT_TASK_KEYS = ("ownership", "lags", "loss", "flag_duplicates", "flag_dummies")


def test_task_keys_set_every_spec_field_exactly_once():
    set_by = {group: sorted(name for name, _ in keys.values())
              for group, keys in TASK_KEYS.items()}
    assert set_by == {
        "loss": sorted(f.name for f in fields(LossSpec)),
        "task": sorted(f.name for f in fields(TaskSpec) if f.name not in NOT_TASK_KEYS)}


def test_task_keys_left_out_keep_the_spec_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nscenario = batch-linear\n\n[task]\ncentral_agent = a1\n")
    run, task, screening = load_config(cfg)
    expected = TaskSpec(central_agent="a1", ownership={})
    assert {f.name: getattr(task, f.name) for f in fields(TaskSpec)} == \
        {f.name: getattr(expected, f.name) for f in fields(TaskSpec)}
    assert run == {"run": {}, "oos": {}, "scenario": {"case": "batch-linear"}, "csv": {}}
    assert screening is None
