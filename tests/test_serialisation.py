"""The artifact writers against plain reference writers, byte for byte.

The references below are the straightforward forms of the byte-format
contract: ``dataclasses.asdict`` for the report dict, ``json.dump`` with
``indent=1`` and sorted keys for ``report.json``, and one
``csv.writer.writerow`` per row for the CSV files.
"""

import csv
import dataclasses
import gc
import json
import weakref
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
    Ledger,
    LedgerEntry,
    MarketReport,
    _float_text,
    _is_float_list,
    _iter_json,
    _report_texts,
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


def interaction_dataset(T=400, seed=31):
    rng = np.random.default_rng(seed)
    g = {k: rng.normal(size=T) for k in ("x1", "x2", "x3")}
    y = 0.2 - 0.4 * g["x1"] + 0.6 * g["x2"] - 0.4 * g["x1"] * g["x3"] + rng.normal(0, 0.3, T)
    return Dataset(np.arange(T), y, g, {"x1": "a1", "x2": "a2", "x3": "a3"}, target_owner="a1")


@pytest.mark.parametrize("policy", ["shapley", "zero-shapley", "absolute-shapley",
                                    "loo-a", "loo-b"])
@pytest.mark.parametrize("game", ["support-coalitions", "feature-game"])
def test_batch_amount_cells_are_plain_floats(tmp_path, game, policy):
    if game == "feature-game":
        ds = interaction_dataset()
        task = TaskSpec(central_agent="a1", ownership={"x1": "a1", "x2": "a2", "x3": "a3"},
                        loss=LossSpec("quadratic"), degree=2, phi_insample=0.1,
                        allocation_policy=policy)
    else:
        ds = two_feature_dataset(300, 1)
        task = two_feature_task(phi_insample=0.1, allocation_policy=policy)
    report = clear_batch_market(ds, task)
    assert report.game == game and report.ledger
    write_ledger_csv(report, tmp_path / "ledger.csv")
    write_cumulative_csv(report, tmp_path / "cumulative_revenues.csv")
    for name, columns in (("ledger.csv", ("amount",)),
                          ("cumulative_revenues.csv", ("amount", "cumulative"))):
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            for column in columns:
                float(row[column])


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


# -- the columnar ledger and the float texts ---------------------------------------

def oos_report():
    return run_oos_market(two_feature_dataset(400, 3),
                          two_feature_task(phi_oos=1.5, train_rows=200),
                          model_source="batch", n_windows=4)


def test_oos_ledger_is_the_positive_payments_in_time_then_feature_order():
    report = oos_report()
    pays = report.series["payments"]
    want = [LedgerEntry(t, report.central_agent, report.feature_owners[k], k,
                        pays[k][i], "oos")
            for i, t in enumerate(report.series["step"])
            for k in sorted(pays) if pays[k][i] > 0.0]
    assert len(want) > 100
    assert list(report.ledger) == want
    assert all(type(e.time) is int and type(e.amount) is float for e in report.ledger)


def test_ledger_reads_as_a_sequence_of_frozen_entries():
    entries = [LedgerEntry(0, "a1", "a2", "x2", 0.5, "oos"),
               LedgerEntry(1, "a1", "a3", "x3", 0.25, "oos"),
               LedgerEntry("batch", "a1", "a2", "x2", 1.0, "batch")]
    report = MarketReport(market="oos", central_agent="a1", rows=2, phi=1.0,
                          allocation_policy="shapley", game="support-coalitions",
                          support=("x2", "x3"), feature_owners={"x2": "a2", "x3": "a3"},
                          ledger=entries[:2])
    ledger = report.ledger
    assert isinstance(ledger, Ledger) and len(ledger) == 2
    assert ledger == entries[:2] and entries[:2] == ledger and ledger != entries
    assert ledger[0] == entries[0] and ledger[-1] == entries[1]
    assert ledger[1:] == [entries[1]] and type(ledger[1:]) is list
    assert list(ledger) == entries[:2] and entries[1] in ledger
    with pytest.raises(IndexError):
        ledger[2]
    ledger.append(entries[2])
    assert ledger == entries
    assert ledger.time == [0, 1, "batch"] and ledger.amount == [0.5, 0.25, 1.0]
    replaced = dataclasses.replace(report, ledger=entries[::-1])
    assert isinstance(replaced.ledger, Ledger) and replaced.ledger == entries[::-1]
    replaced.ledger = entries[:1]
    assert isinstance(replaced.ledger, Ledger) and replaced.ledger == entries[:1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ledger[0].amount = 2.0
    assert ledger[0].amount == 0.5


def test_artifacts_are_identical_when_written_again_after_another_report(tmp_path):
    a = run_online_market(two_feature_dataset(400, 2), two_feature_task(phi_insample=0.1))
    b = oos_report()

    def written(report, name):
        out = tmp_path / name
        out.mkdir()
        for artifact, (write, _) in WRITERS.items():
            write(report, out / artifact)
        return {artifact: (out / artifact).read_bytes() for artifact in WRITERS}

    first = written(a, "a")
    other = written(b, "b")
    assert written(a, "a-again") == first
    assert written(b, "b-again") == other
    assert_artifacts_match(a, tmp_path)


@pytest.mark.parametrize("before, after", [
    (0.0, -0.0),            # equal as floats, different bytes and text
    (0.5, float("nan")),
    (1.0, 1),               # the same float64 bytes, different text
])
def test_csv_writers_see_lists_changed_in_place_after_the_json(tmp_path, before, after):
    report = oos_report()
    pays = report.series["payments"]["x2"]
    amounts = report.ledger.amount
    pays[5] = amounts[5] = before
    report_to_json(report, tmp_path / "report.json")
    pays[5] = amounts[5] = after
    for name in ("cumulative_revenues.csv", "ledger.csv"):
        write, reference = WRITERS[name]
        write(report, tmp_path / name)
        reference(report, tmp_path / f"ref-{name}")
        assert (tmp_path / name).read_bytes() == (tmp_path / f"ref-{name}").read_bytes()
    assert_artifacts_match(report, tmp_path)


def test_float_texts_are_kept_for_the_report_written_last_only(tmp_path):
    a, b = oos_report(), oos_report()
    report_to_json(a, tmp_path / "a.json")
    texts = _report_texts(a)
    assert texts and _report_texts(a) is texts
    report_to_json(b, tmp_path / "b.json")
    assert _report_texts(b) is not texts
    # the memo holds no reference to its report: it goes, and its texts with it
    texts = _report_texts(b)
    gone = weakref.ref(b)
    del b
    gc.collect()
    assert gone() is None and not texts


def put_float_texts(obj, texts):
    """Put the text of every list of floats in ``obj`` into ``texts``."""
    if _is_float_list(obj):
        _float_text(obj, texts)
    for value in (obj.values() if isinstance(obj, dict) else
                  obj if isinstance(obj, (list, tuple)) else ()):
        put_float_texts(value, texts)


FLOAT_LISTS = st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.just(-0.0),
                       min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    SCALARS | FLOAT_LISTS,
    lambda inner: (st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=20))
def test_json_writer_with_float_texts_matches_json_dumps(obj):
    texts = {}
    put_float_texts(obj, texts)
    assert "".join(_iter_json(obj, 0, texts)) == json.dumps(obj, indent=1, sort_keys=True)
