"""The artifact writers against plain reference writers, byte for byte.

The references below are the straightforward forms of the byte-format
contract: ``dataclasses.asdict`` for the report dict, ``json.dump`` with
``indent=1`` and sorted keys for ``report.json``, and one
``csv.writer.writerow`` per row for the CSV files.
"""

import csv
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmarket import (
    Dataset,
    LossSpec,
    TaskSpec,
    clear_batch_market,
    run_online_market,
    run_oos_market,
)
from regmarket.market import (
    LedgerEntry,
    MarketReport,
    _iter_json,
    audit_ledger,
    report_to_json,
    write_cumulative_csv,
    write_ledger_csv,
    write_loss_table_csv,
)


# -- reference writers ---------------------------------------------------------

def reference_dict(report: MarketReport) -> dict:
    out = asdict(report)
    out["support"] = list(report.support)
    out["screened_out"] = list(report.screened_out)
    out["flag_duplicates"] = [list(g) for g in report.flag_duplicates]
    out["flag_dummies"] = list(report.flag_dummies)
    out["ledger"] = {
        "time": [e.time for e in report.ledger],
        "payer": [e.payer for e in report.ledger],
        "payee": [e.payee for e in report.ledger],
        "feature": [e.feature for e in report.ledger],
        "amount": [e.amount for e in report.ledger],
        "market": [e.market for e in report.ledger],
    }
    return out


def reference_json(report, path):
    with open(path, "w") as fh:
        json.dump(reference_dict(report), fh, indent=1, sort_keys=True)
        fh.write("\n")


def reference_ledger_csv(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "payer", "payee", "feature", "amount", "market"])
        for e in report.ledger:
            writer.writerow([e.time, e.payer, e.payee, e.feature, repr(e.amount), e.market])


def reference_cumulative_csv(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "agent", "feature", "amount", "cumulative"])
        series = report.series
        if series and "payments" in series:
            steps = series["step"]
            for k in sorted(series["payments"]):
                running = series["cumulative"][k]
                pays = series["payments"][k]
                agent = report.feature_owners.get(k, "")
                for i, t in enumerate(steps):
                    writer.writerow([t, agent, k, repr(pays[i]), repr(running[i])])
        else:
            running = 0.0
            for k in sorted(report.payments):
                running += report.payments[k]
                writer.writerow(["batch", report.feature_owners.get(k, ""), k,
                                 repr(report.payments[k]), repr(running)])


def reference_loss_table_csv(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coalition", "loss"])
        for key, value in report.loss_table.items():
            writer.writerow([key, repr(value)])


WRITERS = {
    "report.json": (report_to_json, reference_json),
    "ledger.csv": (write_ledger_csv, reference_ledger_csv),
    "cumulative_revenues.csv": (write_cumulative_csv, reference_cumulative_csv),
    "losses.csv": (write_loss_table_csv, reference_loss_table_csv),
}


def assert_artifacts_match(report, tmp_path):
    for name, (write, reference) in WRITERS.items():
        write(report, tmp_path / name)
        reference(report, tmp_path / f"ref-{name}")
        got = (tmp_path / name).read_bytes()
        want = (tmp_path / f"ref-{name}").read_bytes()
        assert got == want, name


# -- reports from the markets -------------------------------------------------

def two_feature_dataset(T, seed):
    rng = np.random.default_rng(seed)
    feats = {"x2": rng.normal(size=T), "x3": rng.normal(size=T)}
    y = 0.6 * feats["x2"] - 0.5 * feats["x3"] + rng.normal(0, 0.3, T)
    return Dataset(np.arange(T), y, feats, {"x2": "a2", "x3": "a3"}, target_owner="a1")


def two_feature_task(**kw):
    return TaskSpec(central_agent="a1", ownership={"x2": "a2", "x3": "a3"},
                    loss=LossSpec("quadratic"), lam=0.99, warmup=40, **kw)


def test_batch_support_game_artifacts(tmp_path):
    report = clear_batch_market(two_feature_dataset(300, 1),
                                two_feature_task(phi_insample=0.1))
    assert report.game == "support-coalitions" and report.ledger
    assert_artifacts_match(report, tmp_path)


def test_batch_feature_game_artifacts(tmp_path):
    rng = np.random.default_rng(31)
    T = 400
    g = {k: rng.normal(size=T) for k in ("x1", "x2", "x3")}
    y = 0.2 - 0.4 * g["x1"] + 0.6 * g["x2"] - 0.4 * g["x1"] * g["x3"] + rng.normal(0, 0.3, T)
    ds = Dataset(np.arange(T), y, g, {"x1": "a1", "x2": "a2", "x3": "a3"}, target_owner="a1")
    task = TaskSpec(central_agent="a1", ownership={"x1": "a1", "x2": "a2", "x3": "a3"},
                    loss=LossSpec("quadratic"), degree=2, phi_insample=0.1)
    report = clear_batch_market(ds, task)
    assert report.game == "feature-game"
    assert_artifacts_match(report, tmp_path)


def test_online_market_artifacts(tmp_path):
    report = run_online_market(two_feature_dataset(400, 2),
                               two_feature_task(phi_insample=0.1))
    assert len(report.series["step"]) == 360 and report.ledger
    assert_artifacts_match(report, tmp_path)


@pytest.mark.parametrize("source", ["batch", "online"])
def test_oos_market_artifacts(tmp_path, source):
    report = run_oos_market(two_feature_dataset(400, 3),
                            two_feature_task(phi_oos=1.5, train_rows=200),
                            model_source=source, n_windows=4)
    assert len(report.metrics["windows"]) == 4 and report.ledger
    assert_artifacts_match(report, tmp_path)


def test_empty_report_artifacts(tmp_path):
    rng = np.random.default_rng(4)
    ds = Dataset(np.arange(50), rng.normal(size=50), {"x1": rng.normal(size=50)},
                 {"x1": "a1"}, target_owner="a1")
    report = clear_batch_market(ds, TaskSpec(central_agent="a1", ownership={"x1": "a1"}))
    assert report.game == "none" and not report.ledger and not report.series
    assert_artifacts_match(report, tmp_path)


def hand_built_report() -> MarketReport:
    inf = float("inf")
    nan = float("nan")
    owners = {"vind,møller": 'a "two"', "站点_x": "a3", "x4": "a3"}
    report = MarketReport(
        market="oos", central_agent="ä1", rows=3, phi=inf, allocation_policy="shapley",
        game="support-coalitions", support=tuple(sorted(owners)), feature_owners=owners,
        allocations={"vind,møller": nan, "站点_x": -inf, "x4": 0.25},
        payments={"vind,møller": 1e-300, "站点_x": 0.0, "x4": -0.0},
        central_loss=nan, full_loss=-inf, surplus=inf,
        loss_table={"": 1.5, "vind,møller|站点_x": nan},
        series={"step": [0, 1, 2], "surplus": [nan, inf, -inf], "central_payment": [],
                "payments": {"vind,møller": [0.1, nan, 0.2], "站点_x": [0.0, 0.0, inf],
                             "x4": [1e16, 1e-7, 2.5]},
                "cumulative": {"vind,møller": [0.1, nan, nan], "站点_x": [0.0, 0.0, inf],
                               "x4": [1e16, 1e16, 1e16]},
                "allocations": {}},
        metrics={"with_support": nan, "without_support": 1.0,
                 "windows": [{"start": 0, "end": 2, "with_support": inf,
                              "without_support": -inf},
                             {"start": 2, "end": 3, "with_support": 0.5,
                              "without_support": 0.75, "tags": ["é", [], {}]}]},
        ledger=[LedgerEntry(0, "ä1", 'a "two"', "vind,møller", 0.1, "oos"),
                LedgerEntry("batch, late", "ä1", "a3", "站点_x", inf, "o\"os"),
                LedgerEntry(2, "ä1", "a3", "x4", 2.5, "")],
        screened_out=("z\n1",), flag_duplicates=(("vind,møller", "x4"),),
        flag_dummies=("x4",), notes={"players": [], "nested": {"deep": {"empty": {}}},
                                     "ü ": None, "flags": [True, False, None]})
    report.audit = audit_ledger(report).to_dict()
    return report


def test_hand_built_report_artifacts(tmp_path):
    assert_artifacts_match(hand_built_report(), tmp_path)


def test_hand_built_batch_cumulative_csv(tmp_path):
    report = hand_built_report()
    report.series = {}
    assert_artifacts_match(report, tmp_path)


def test_to_dict_shares_containers_and_matches_asdict():
    report = hand_built_report()
    out = report.to_dict()
    assert out["series"] is report.series and out["audit"] is report.audit
    assert json.dumps(out, sort_keys=True) == json.dumps(reference_dict(report), sort_keys=True)
    assert list(out) == list(reference_dict(report))


def test_ledger_entries_have_no_instance_dict():
    entry = LedgerEntry(0, "a1", "a2", "x2", 1.0, "oos")
    assert not hasattr(entry, "__dict__")


# -- the JSON writer on arbitrary data ------------------------------------------

SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
           | st.floats(allow_nan=True, allow_infinity=True))
KEYS = st.text(max_size=3) | st.integers(-5, 5).map(str)
JSON_DATA = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(JSON_DATA)
def test_json_writer_matches_json_dumps(obj):
    assert "".join(_iter_json(obj, 0)) == json.dumps(obj, indent=1, sort_keys=True)
