import json
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from regmarket import (Dataset, LossSpec, TaskSpec, clear_batch_market, cli, dataset_to_csv,
                       run_online_market, run_oos_market, scenarios)
from regmarket.cli import ONLINE_MODEL, READERS, TASK_KEYS, load_config, main
from regmarket.errors import ParameterError
from regmarket.online import WARM_START, ZERO_START

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
    # JSON that is not a report: an I/O or parse problem, not an internal error
    for text, keys in (("[]", None), ('{"market": "x"}', ("central_agent", "per_agent",
                                                         "payments"))):
        bad.write_text(text)
        capsys.readouterr()
        for j, flag in enumerate(("--summary", "--per-agent", "--per-feature")):
            assert run_cli(["report", str(bad), flag]) == 2, (text, flag)
            out, err = capsys.readouterr()
            why = "not a JSON object" if keys is None else f"it has no key {keys[j]!r}"
            assert out == "" and err == f"error: {bad} is not a report: {why}\n"


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
    _, task, _ = load_config(cfg, "batch")
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
        load_config(cfg, "batch")
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
    text = CONFIG.format(out=tmp_path / "out")
    if mechanism == "oos":
        # the oos market reads neither key
        text = text.replace("phi_insample = 0.1\nallocation = shapley\n", "")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace("[task]\n", f"[task]\n{line}\n"))
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
                   "[task]\ncentral_agent = a1\n"
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


def market_config(tmp_path, task_lines, source=None):
    """A config of the batch-linear scenario whose [task] holds the central
    agent and ``task_lines``, with ``model_source = source`` when given."""
    cfg = tmp_path / "run.cfg"
    model_source = f"model_source = {source}\n" if source else ""
    cfg.write_text(f"[run]\nscenario = batch-linear\nrows = 600\nseed = 4\n"
                   f"out = {tmp_path / 'out'}\n{model_source}\n"
                   f"[task]\ncentral_agent = a1\n{task_lines}\n\n"
                   "[ownership]\nx1 = a1\nx2 = a2\nx3 = a3\nx4 = a3\n")
    return cfg


@pytest.mark.parametrize("mechanism, source, lines, message", [
    ("batch", None, "lambda = 0.5\ninit_policy = zero-start",
     f"[task] key(s) lambda, init_policy apply only to {ONLINE_MODEL}, not to batch"),
    ("batch", None, "warmup = 40", f"warmup apply only to {ONLINE_MODEL}, under init_policy"),
    ("batch", None, "phi_oos = 9.0\noos_allocation = shapley",
     "[task] key(s) phi_oos, oos_allocation apply only to the oos mechanism, not to batch"),
    ("batch", None, "train_rows = 100",
     "train_rows apply only to the oos mechanism with model_source = batch, not to batch"),
    ("online", None, "phi_oos = 9.0", "phi_oos apply only to the oos mechanism, not to online"),
    ("online", None, "oos_allocation = shapley", "oos_allocation apply only to the oos"),
    ("online", None, "train_rows = 100", "train_rows apply only to the oos mechanism"),
    ("online", None, "init_policy = zero-start\nwarmup = 40",
     f"[task] key(s) warmup apply only to {ONLINE_MODEL}, under init_policy = warm-start, "
     "not to online"),
    ("oos", None, "phi_insample = 0.1\nallocation = shapley",
     "[task] key(s) phi_insample, allocation apply only to the batch and online mechanisms, "
     "not to oos with model_source = batch"),
    ("oos", None, "lambda = 0.5",
     f"lambda apply only to {ONLINE_MODEL}, not to oos with model_source = batch"),
    ("oos", None, "init_policy = warm-start\nwarmup = 40", "init_policy apply only to"),
    ("oos", "online", "train_rows = 100",
     "train_rows apply only to the oos mechanism with model_source = batch, "
     "not to oos with model_source = online"),
    ("oos", "online", "phi_insample = 0.1", "phi_insample apply only to the batch and online"),
    ("batch", None, "tau = 0.3\nalpha = 0.5",
     "[task] key(s) tau, alpha apply only to the smooth-quantile loss, not to batch"),
    ("online", None, "alpha = 0.5", "alpha apply only to the smooth-quantile loss"),
    ("online", None, "derivative_variant = paper-verbatim",
     f"derivative_variant apply only to the smooth-quantile loss in {ONLINE_MODEL}"),
    ("batch", None, "loss = smooth-quantile\nderivative_variant = paper-verbatim",
     f"derivative_variant apply only to the smooth-quantile loss in {ONLINE_MODEL}, "
     "not to batch"),
    ("oos", None, "loss = smooth-quantile\nderivative_variant = paper-verbatim",
     "not to oos with model_source = batch"),
    ("batch", None, "degree = 1\ninteractions = false",
     "[task] key(s) interactions apply only to designs of degree >= 2, not to batch"),
], ids=["batch-lambda", "batch-warmup", "batch-phi_oos", "batch-train_rows", "online-phi_oos",
        "online-oos_allocation", "online-train_rows", "online-zero-start-warmup",
        "oos-phi_insample", "oos-lambda", "oos-init_policy", "oos-online-train_rows",
        "oos-online-phi_insample", "batch-quadratic-tau", "online-quadratic-alpha",
        "online-quadratic-derivative_variant", "batch-derivative_variant",
        "oos-derivative_variant", "batch-degree-1-interactions"])
def test_a_task_key_its_market_does_not_read_is_config_error(tmp_path, capsys, mechanism,
                                                             source, lines, message):
    # each such key would be accepted and ignored: the market writes the
    # bytes it writes without it
    cfg = market_config(tmp_path, lines, source)
    code = run_cli(["market", "--mechanism", mechanism, "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mechanism, source, lines", [
    ("batch", None, "loss = smooth-quantile\ntau = 0.3\nalpha = 0.5\ndegree = 2\n"
     "interactions = false\nphi_insample = 0.1\nallocation = shapley"),
    ("online", None, "loss = smooth-quantile\ntau = 0.3\nalpha = 0.5\n"
     "derivative_variant = paper-verbatim\nlambda = 0.99\ninit_policy = warm-start\n"
     "warmup = 40\nphi_insample = 0.1\nallocation = shapley"),
    ("online", None, "init_policy = zero-start\nlambda = 0.99"),
    ("oos", None, "phi_oos = 1.0\noos_allocation = shapley\ntrain_rows = 300"),
    ("oos", "online", "loss = smooth-quantile\nderivative_variant = paper-verbatim\n"
     "lambda = 0.99\ninit_policy = warm-start\nwarmup = 40\nphi_oos = 1.0"),
], ids=["batch", "online", "online-zero-start", "oos", "oos-online"])
def test_every_key_its_market_reads_is_accepted(tmp_path, mechanism, source, lines):
    load_config(market_config(tmp_path, lines, source), mechanism)


# a second value of each [task] key that READERS lists; init_policy swaps
CHANGED = {"lambda": 0.99, "warmup": 60, "phi_insample": 0.2, "allocation": "loo-a",
           "phi_oos": 2.0, "oos_allocation": "loo-a", "train_rows": 200, "tau": 0.3,
           "alpha": 0.5, "derivative_variant": "paper-verbatim", "interactions": True}


def with_changed_key(task, key):
    group, (name, _) = next((g, keys[key]) for g, keys in TASK_KEYS.items() if key in keys)
    value = CHANGED[key] if key in CHANGED else \
        {WARM_START: ZERO_START, ZERO_START: WARM_START}[task.init_policy]
    if group == "loss":
        return replace(task, loss=replace(task.loss, **{name: value}))
    return replace(task, **{name: value})


@pytest.mark.parametrize("task", [
    # every condition of READERS holds: at degree 2 an interaction term would
    # mix central and support features, which only the batch market accepts
    TaskSpec("a1", {"x1": "a1", "x2": "a2", "x3": "a3", "x4": "a3"}, degree=2,
             interactions=False, loss=LossSpec("smooth-quantile"), phi_oos=1.0),
    # and none does
    TaskSpec("a1", {"x1": "a1", "x2": "a2", "x3": "a3", "x4": "a3"}, init_policy=ZERO_START,
             phi_oos=1.0),
], ids=["smooth-quantile-degree-2-warm-start", "quadratic-degree-1-zero-start"])
@pytest.mark.parametrize("mechanism, source", [
    ("batch", None), ("online", None), ("oos", "batch"), ("oos", "online")])
def test_readers_name_exactly_the_markets_whose_outcome_each_key_changes(task, mechanism,
                                                                          source):
    # READERS restates what the markets read, so a market that starts (or
    # stops) reading a key must fail here until READERS says so too
    dataset, _ = scenarios.generate(scenarios.ScenarioSpec("batch-linear", T=300, seed=4))

    def outcome(task):
        try:
            if mechanism == "batch":
                report = clear_batch_market(dataset, task)
            elif mechanism == "online":
                report = run_online_market(dataset, task)
            else:
                report = run_oos_market(dataset, task, model_source=source)
        except ParameterError as err:
            return repr(err)
        return json.dumps(report.to_dict(), sort_keys=True)

    before = outcome(task)
    assert before.startswith("{")
    online = mechanism == "online" or source == "online"
    for section, keys, _, reads in READERS:
        for key in keys if section == "task" else ():
            changes = outcome(with_changed_key(task, key)) != before
            assert changes == reads(mechanism, online, task), key


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
    run, task, screening = load_config(cfg, "batch")
    expected = TaskSpec(central_agent="a1", ownership={})
    assert {f.name: getattr(task, f.name) for f in fields(TaskSpec)} == \
        {f.name: getattr(expected, f.name) for f in fields(TaskSpec)}
    assert run == {"run": {}, "oos": {}, "scenario": {"case": "batch-linear"}, "csv": {}}
    assert screening is None
