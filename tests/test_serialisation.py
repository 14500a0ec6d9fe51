"""The artifact writers against plain reference writers, byte for byte.

The references below are the straightforward forms of the byte-format
contract: ``dataclasses.asdict`` for the report dict, with the series'
columns as lists, ``json.dump`` with ``indent=1`` and sorted keys for
``report.json``, and one ``csv.writer.writerow`` per row for the CSV
files.
"""

import builtins
import collections
import copy
import csv
import dataclasses
import gc
import json
import math
import tracemalloc
import weakref
from dataclasses import asdict
from unittest import mock

import numpy as np
import orjson
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
from regmarket import artifacts, market, scenarios
from regmarket.artifacts import (
    _array_lines,
    _Lines,
    _iter_json,
    report_to_json,
    write_artifacts,
    write_cumulative_csv,
    write_ledger_csv,
    write_loss_table_csv,
)
from regmarket.market import (
    Ledger,
    LedgerEntry,
    MarketReport,
    audit_ledger,
)
from regmarket.errors import ParameterError


# -- reference writers ---------------------------------------------------------

def series_lists(report: MarketReport) -> dict:
    """The report's series with each column as a list."""
    return {name: {k: v.tolist() for k, v in values.items()}
            if isinstance(values, dict) else values.tolist()
            for name, values in report.series.items()}


def reference_dict(report: MarketReport) -> dict:
    out = asdict(report)
    out["series"] = series_lists(report)
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
        series = series_lists(report)
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
    report = feature_game_report()
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
    report = no_support_report()
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


def written(report, outdir) -> dict[str, bytes]:
    """The five files as ``write_artifacts`` writes them into ``outdir``."""
    outdir.mkdir()
    write_artifacts(report, outdir)
    return {path.name: path.read_bytes() for path in outdir.iterdir()}


def per_file_artifacts(report, outdir):
    """The five files as the benchmark harness writes them: the four
    per-file writers in turn, then the audit by ``json.dump``."""
    for name, (write, _) in WRITERS.items():
        write(report, outdir / name)
    with open(outdir / "audit.json", "w") as fh:
        json.dump(report.audit, fh, indent=1, sort_keys=True)
        fh.write("\n")


def feature_game_report():
    task = TaskSpec(central_agent="a1", ownership={"x1": "a1", "x2": "a2", "x3": "a3"},
                    loss=LossSpec("quadratic"), degree=2, phi_insample=0.1)
    return clear_batch_market(interaction_dataset(), task)


def no_support_report():
    rng = np.random.default_rng(4)
    ds = Dataset(np.arange(50), rng.normal(size=50), {"x1": rng.normal(size=50)},
                 {"x1": "a1"}, target_owner="a1")
    return clear_batch_market(ds, TaskSpec(central_agent="a1", ownership={"x1": "a1"}))


REPORTS = {
    "support-game": lambda: clear_batch_market(two_feature_dataset(300, 1),
                                               two_feature_task(phi_insample=0.1)),
    "feature-game": feature_game_report,
    "online": lambda: run_online_market(two_feature_dataset(400, 2),
                                        two_feature_task(phi_insample=0.1)),
    "oos": lambda: oos_report(),
    "no-support": no_support_report,
}


@pytest.mark.parametrize("kind", REPORTS)
def test_write_artifacts_writes_the_bytes_of_the_per_file_writers(tmp_path, kind):
    report = REPORTS[kind]()
    assert report.audit is not None
    assert (report.game == "none") == (kind == "no-support")
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    ours.mkdir()
    theirs.mkdir()
    write_artifacts(report, str(ours))
    per_file_artifacts(report, theirs)
    names = ["report.json", "ledger.csv", "cumulative_revenues.csv", "losses.csv",
             "audit.json"]
    assert sorted(p.name for p in ours.iterdir()) == sorted(names)
    for name in names:
        assert (ours / name).read_bytes() == (theirs / name).read_bytes(), name


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


@pytest.mark.parametrize("amount", ["1,5", 1, True, None])
def test_a_hand_built_ledger_amount_that_is_not_a_float_is_refused(amount):
    report = hand_built_report()
    entries = list(report.ledger)
    entries[0] = dataclasses.replace(entries[0], amount=amount)
    with pytest.raises(ParameterError, match="ledger amount must be a float"):
        report.ledger = entries
    with pytest.raises(ParameterError, match="ledger amount must be a float"):
        dataclasses.replace(report, ledger=entries)
    assert report.ledger[0].amount == 0.1


@pytest.mark.parametrize("column", [["1,5", 2.0], [None, 1.0], [True, False], [[1.0], [2.0]],
                                    2.0, [1 + 2j], [2**64 - 1]])
def test_a_hand_built_series_column_that_is_not_numeric_is_refused(column):
    report = hand_built_report()
    for series in ({**report.series, "surplus": column},
                   {**report.series, "payments": {**report.series["payments"], "x4": column}}):
        with pytest.raises(ParameterError, match="series column"):
            report.series = series
    with pytest.raises(ParameterError, match="series column"):
        dataclasses.replace(report, series={"step": column})
    assert report.series["surplus"].dtype == np.float64


def test_to_dict_shares_containers_and_matches_asdict():
    report = hand_built_report()
    out = report.to_dict()
    assert out["audit"] is report.audit and out["metrics"] is report.metrics
    assert json.dumps(out, sort_keys=True) == json.dumps(reference_dict(report), sort_keys=True)
    assert list(out) == list(reference_dict(report))
    # the series and the ledger are new lists, so editing them leaves the report as it is
    assert out["series"] is not report.series and type(out["series"]["payments"]["x4"]) is list
    out["series"]["payments"]["x4"][0] = out["ledger"]["amount"][0] = "1,5"
    assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(reference_dict(report),
                                                                      sort_keys=True)


@pytest.mark.parametrize("kind", REPORTS)
def test_copied_and_replaced_reports_write_the_same_bytes(tmp_path, kind):
    # the copies keep the contract: their columns are read-only too
    report = REPORTS[kind]()
    want = written(report, tmp_path / "report")
    copies = {"deepcopy": copy.deepcopy(report), "replace": dataclasses.replace(report),
              "entries": dataclasses.replace(report, ledger=list(report.ledger))}
    for name, other in copies.items():
        assert written(other, tmp_path / name) == want, name
        assert asdict(other)["ledger"] == other.ledger
        for column in [other.ledger.amount, *settled_columns(other, *other.series)]:
            with pytest.raises(ValueError, match="read-only"):
                column[:1] = 0
    # a ledger given as entries writes the reference writers' bytes
    assert_artifacts_match(copies["entries"], tmp_path)


def test_ledger_entries_have_no_instance_dict():
    entry = LedgerEntry(0, "a1", "a2", "x2", 1.0, "oos")
    assert not hasattr(entry, "__dict__")


# -- the JSON writer on arbitrary data ------------------------------------------

SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
           | st.floats(allow_nan=True, allow_infinity=True))
KEYS = st.text(max_size=3) | st.integers(-5, 5).map(str)
FLOAT_LISTS = st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.just(-0.0),
                       min_size=1, max_size=5)
JSON_DATA = st.recursive(
    SCALARS | FLOAT_LISTS,
    lambda inner: (st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)),
    max_leaves=20)


def as_lines(obj):
    """``obj`` with each non-empty list of floats given as the ``_Lines`` of
    their reprs, as the writers give a settled column."""
    if isinstance(obj, dict):
        return {k: as_lines(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if obj and all(type(v) is float for v in obj):
            return _Lines(",".join(map(repr, obj)))
        return type(obj)(map(as_lines, obj))
    return obj


@settings(max_examples=300, deadline=None)
@given(JSON_DATA)
def test_json_writer_matches_json_dumps(obj):
    assert "".join(_iter_json(obj, 0)) == json.dumps(obj, indent=1, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(JSON_DATA)
def test_json_writer_with_float_texts_matches_json_dumps(obj):
    assert "".join(_iter_json(as_lines(obj), 0)) == json.dumps(obj, indent=1, sort_keys=True)


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
    assert not hasattr(ledger, "append")
    report.ledger = entries
    ledger = report.ledger
    assert ledger == entries
    # each column is a new read-only array, its entries the Python scalars given
    assert ledger.time.tolist() == [0, 1, "batch"] and ledger.amount.tolist() == [0.5, 0.25, 1.0]
    assert ledger.payee.tolist() == ["a2", "a3", "a2"] and ledger.market.tolist()[-1] == "batch"
    assert ledger.amount is not ledger.amount and not ledger.amount.flags.writeable
    assert [type(e.time) for e in ledger] == [int, int, str]
    replaced = dataclasses.replace(report, ledger=entries[::-1])
    assert isinstance(replaced.ledger, Ledger) and replaced.ledger == entries[::-1]
    replaced.ledger = entries[:1]
    assert isinstance(replaced.ledger, Ledger) and replaced.ledger == entries[:1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ledger[0].amount = 2.0
    assert ledger[0].amount == 0.5


@pytest.mark.parametrize("kind", ["online", "oos"])
def test_a_settled_report_keeps_its_series_and_ledger_as_columns(kind):
    # about 8 bytes per series value and 16 per ledger entry, where a list
    # of float objects takes over 30; reading the ledger's length, its
    # entries or its audit keeps nothing more
    spec = scenarios.ScenarioSpec("online-arx", T=2000, seed=1)
    ds, _ = scenarios.generate(spec)
    task = dataclasses.replace(scenarios.task_for_case(spec), phi_oos=1.0)
    if kind == "online":
        def clear():
            return run_online_market(ds, task)
    else:
        def clear():
            return run_oos_market(ds, task, model_source="online")
    clear()  # imports and caches that outlive a market are made here
    tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        report = clear()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
        assert len(report.ledger) > 1000
        assert sum(1 for _ in report.ledger) == len(report.ledger)
        assert audit_ledger(report).passed
        gc.collect()
        # the interpreter's free lists may keep a few objects
        assert tracemalloc.get_traced_memory()[0] - base - kept < 4096
    finally:
        tracemalloc.stop()
    values = sum(len(v) for series in report.series.values()
                 for v in (series.values() if isinstance(series, dict) else [series]))
    assert values > 10000
    assert kept / (values + len(report.ledger)) < 16


def test_a_report_read_as_lists_keeps_no_lines_after_it_is_written(tmp_path):
    # to_dict() makes new lists and the report keeps none of them, so the
    # writers format its columns and keep nothing
    spec = scenarios.ScenarioSpec("online-arx", T=2000, seed=1)
    ds, _ = scenarios.generate(spec)
    report = run_online_market(ds, scenarios.task_for_case(spec))
    lists = report.to_dict()
    assert len(lists["series"]["step"]) > 1000 and len(lists["ledger"]["amount"]) > 1000
    del lists
    write_artifacts(clear_batch_market(two_feature_dataset(300, 1),
                                       two_feature_task(phi_insample=0.1)), tmp_path)
    tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        write_artifacts(report, tmp_path)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept < 4096
    assert_artifacts_match(report, tmp_path)


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
def test_an_edit_through_a_column_raises_and_moves_no_byte(tmp_path, before, after):
    # the series' columns and the ledger's are read-only, so no edit made
    # between two writes reaches the second
    report = oos_report()
    want = written(report, tmp_path / "first")
    series, ledger = report.series, report.ledger
    columns = [series["payments"]["x2"], series["cumulative"]["x3"], series["surplus"],
               series["step"], ledger.amount, ledger.time, ledger.payee]
    for column in columns:
        for value in (before, after):
            with pytest.raises(ValueError, match="read-only"):
                column[5] = value
    assert written(report, tmp_path / "second") == want
    assert_artifacts_match(report, tmp_path)


def test_writers_keep_nothing_of_a_settled_report_once_they_return(tmp_path):
    # each writer formats what it writes and keeps no line of it, nor any
    # reference to the report
    report = oos_report()
    write_artifacts(oos_report(), tmp_path)  # imports and compiled patterns
    tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        write_artifacts(report, tmp_path)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept < 4096
    gone = weakref.ref(report)
    del report
    gc.collect()
    assert gone() is None


@pytest.mark.parametrize("first", ["report.json", "ledger.csv"])
def test_ledger_times_and_amounts_are_formatted_from_gathers(tmp_path, monkeypatch, first):
    # report.json and ledger.csv, in either order, each put the gathers of
    # the ledger's times and amounts through orjson once, and no value
    # through repr
    report = run_online_market(two_feature_dataset(400, 2), two_feature_task(phi_insample=0.1))
    assert report.ledger
    reprs = count_float_reprs(monkeypatch)
    calls = count_formatted_columns(monkeypatch)
    second = "report.json" if first == "ledger.csv" else "ledger.csv"
    for name in (first, second):
        done = len(calls)
        WRITERS[name][0](report, tmp_path / name)
        assert collections.Counter(calls[done:]) == written_columns(report, name), name
    monkeypatch.undo()
    assert reprs == []
    assert_artifacts_match(report, tmp_path)


def test_ledger_amounts_not_in_the_series_are_formatted_by_repr(tmp_path):
    # a ledger edited after settling, and booked again entry by entry, holds
    # floats that no series holds; each is written as repr writes it
    report = run_online_market(two_feature_dataset(400, 2), two_feature_task(phi_insample=0.1))
    entries = list(report.ledger)
    entries[0] = dataclasses.replace(entries[0], amount=entries[0].amount + 1.0)
    entries[1] = dataclasses.replace(entries[1], amount=float(repr(entries[1].amount)))
    report.ledger = entries
    assert report.ledger.amount[0] not in report.series["payments"][entries[0].feature]
    assert_artifacts_match(report, tmp_path)


def test_each_settled_column_reaches_orjson_once_per_writer_that_writes_it(tmp_path,
                                                                           monkeypatch):
    # the writers in the order the market command calls them: each formats
    # every settled column it writes in one orjson call, and no finite
    # value goes through repr
    report = oos_report()
    assert report.ledger
    reprs = count_float_reprs(monkeypatch)
    calls = count_formatted_columns(monkeypatch)
    for name, (write, _) in WRITERS.items():
        done = len(calls)
        write(report, tmp_path / "out")
        assert collections.Counter(calls[done:]) == written_columns(report, name), name
    monkeypatch.undo()
    assert reprs == []
    assert_artifacts_match(report, tmp_path)


# -- the ledger's amounts gathered from the payment series ---------------------

PAYMENT = st.sampled_from([0.0, -0.0, -1.5, 1e-300]) | st.floats(-5.0, 5.0)
LEDGER_EDITS = st.sampled_from(["none", "equal", "negative-zero", "nan", "append",
                                "remove", "batch"])


def settled_report(amounts: np.ndarray, edit: str, at: int) -> MarketReport:
    """A report settled from a ``(T, K)`` matrix of pre-clamp payments by
    the markets' own booking, with its ledger edited as entries after
    booking and booked again."""
    K = amounts.shape[1]
    features = tuple(f"x{j}" for j in range(K))
    owners = {k: f"a{j % 2 + 2}" for j, k in enumerate(features)}
    task = TaskSpec(central_agent="a1", ownership=owners)
    batch = edit == "batch"
    report = MarketReport(market="batch" if batch else "oos", central_agent="a1",
                          rows=len(amounts), phi=1.0, allocation_policy="shapley",
                          game="support-coalitions", support=features, feature_owners=owners)
    if batch:
        # one row, booked with the batch market's string time and no series
        return market._settle(report, task, amounts[:1], ["batch"])
    report = market._settle(report, task, amounts, list(range(len(amounts))),
                            np.ones(len(amounts)))
    entries = list(report.ledger)
    i = at % max(len(entries), 1)
    if edit == "append":
        entries.append(LedgerEntry(len(amounts), "a1", owners["x0"], "x0", 0.5, "oos"))
    elif entries and edit == "remove":
        del entries[i]
    elif entries and edit != "none":
        amount = {"equal": float(repr(entries[i].amount)), "negative-zero": -0.0,
                  "nan": float("nan")}[edit]
        entries[i] = dataclasses.replace(entries[i], amount=amount)
    if edit != "none":
        report.ledger = entries
    return report


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda T: st.integers(1, 4).flatmap(
           lambda K: st.tuples(st.lists(st.lists(PAYMENT, min_size=K, max_size=K),
                                        min_size=T, max_size=T),
                               st.lists(st.booleans(), min_size=K, max_size=K)))),
       LEDGER_EDITS, st.integers(0, 100))
def test_gathered_ledger_amounts_match_the_reference_writers(tmp_path_factory, matrix, edit,
                                                              at):
    rows, zero_columns = matrix
    amounts = np.array(rows, dtype=float)
    amounts[:, zero_columns] = 0.0
    report = settled_report(amounts, edit, at)
    tmp_path = tmp_path_factory.mktemp("gather")
    for name in ("report.json", "ledger.csv"):
        write, reference = WRITERS[name]
        write(report, tmp_path / name)
        reference(report, tmp_path / f"ref-{name}")
        assert (tmp_path / name).read_bytes() == (tmp_path / f"ref-{name}").read_bytes(), name


@pytest.mark.parametrize("edit", ["equal", "negative-zero", "nan", "append", "remove"])
def test_an_edited_streamed_ledger_formats_every_amount_by_repr(tmp_path, monkeypatch, edit):
    # a ledger edited as entries is booked again, and takes no line from the
    # series, written before it or not: ledger.csv formats the gather of its
    # amounts in one orjson call, each cell as repr writes it, and puts only
    # a NaN through repr; its times, now objects, are cells as csv writes them
    report = settled_report(np.array([[0.5, 0.0, 2.0], [0.25, 0.0, -1.0], [1.0, 0.0, 3.0]]),
                            edit, 1)
    report_to_json(report, tmp_path / "report.json")
    reprs = count_float_reprs(monkeypatch)
    calls = count_formatted_columns(monkeypatch)
    write_ledger_csv(report, tmp_path / "ledger.csv")
    monkeypatch.undo()
    amounts = report.ledger.amount
    assert calls == [column_key(amounts)]
    assert len(reprs) == int(np.isnan(amounts).sum()) == (edit == "nan")
    with open(tmp_path / "ledger.csv", newline="") as fh:
        assert [row["amount"] for row in csv.DictReader(fh)] == list(map(repr, amounts.tolist()))
    assert_artifacts_match(report, tmp_path)


def test_ledger_cells_of_equal_values_of_different_types(tmp_path):
    # 1, 1.0 and True are equal, but csv.writer writes each its own way
    report = hand_built_report()
    report.ledger = [LedgerEntry(t, "ä1", 'a "two"', "vind,møller", 0.5, "oos")
                     for t in (1, 1.0, True, 1, "1")]
    assert_artifacts_match(report, tmp_path)


def test_non_int_steps_and_times_are_cells_as_csv_writes_them(tmp_path):
    report = hand_built_report()
    report.series = {**report.series, "step": [-0.5, 1e-05, 2.5]}
    report.ledger = [LedgerEntry(t, "ä1", "a3", "x4", 0.5, "oos")
                     for t in (None, 'x "y"', 1.5, 2)]
    assert_artifacts_match(report, tmp_path)


# -- settled reports keep columns, and each writer formats them in one call ---

# quiet NaNs with different payloads, and the same NaN with its sign bit set
NAN_BITS = np.array([0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000001],
                    dtype=np.uint64)
SPECIAL = np.concatenate([[0.0, -0.0, 1.0, np.inf, -np.inf], NAN_BITS.view(float)])
# the float columns of a settled series; "step" holds ints
SERIES_FLOATS = ("surplus", "central_payment", "payments", "cumulative", "allocations")


def bits(values) -> np.ndarray:
    return np.array(values, dtype=float).view(np.uint64)


def settled_columns(report, *names) -> list[np.ndarray]:
    """Every column of the series ``names``."""
    series = report.series
    return [column for name in names if name in series
            for column in (series[name].values() if isinstance(series[name], dict)
                           else [series[name]])]


def column_key(column: np.ndarray) -> tuple[str, bytes]:
    return column.dtype.str, column.tobytes()


def written_columns(report, writer: str) -> collections.Counter:
    """The settled columns ``writer`` writes, each once: series columns and
    the gathers of the ledger's times and amounts, as :func:`column_key`."""
    series = {"report.json": ("step", *SERIES_FLOATS),
              "cumulative_revenues.csv": ("step", "payments", "cumulative")}.get(writer, ())
    ledger = ("time", "amount") if writer in ("report.json", "ledger.csv") else ()
    return collections.Counter(map(column_key, settled_columns(report, *series)
                                   + [getattr(report.ledger, name) for name in ledger]))


def count_float_reprs(monkeypatch) -> list:
    """Patch the writers' ``repr``; the returned list gets the bits of each
    float it is called on."""
    calls = []

    def counting_repr(value):
        if type(value) is float:
            calls.append(bits(value).item())
        return builtins.repr(value)

    monkeypatch.setattr(artifacts, "repr", counting_repr, raising=False)
    return calls


def count_formatted_columns(monkeypatch) -> list:
    """Patch the writers' :func:`_array_lines` and ``orjson.dumps``; the
    returned list gets the :func:`column_key` of each column formatted,
    and each column must be formatted by one orjson call."""
    calls, dumped = [], []
    dumps, array_lines = orjson.dumps, artifacts._array_lines

    def counting_dumps(value, *args, **kwargs):
        dumped.append(value)
        return dumps(value, *args, **kwargs)

    def counting_lines(column):
        done = len(dumped)
        lines = array_lines(column)
        assert len(dumped) == done + 1
        calls.append(column_key(column))
        return lines

    monkeypatch.setattr(orjson, "dumps", counting_dumps)
    monkeypatch.setattr(artifacts, "_array_lines", counting_lines)
    return calls


def test_array_lines_put_only_non_finite_values_through_repr(monkeypatch):
    column = np.concatenate([SPECIAL[[0, 0, 1, 1, 0, 3, 4, 5, 5, 6, 7, 7, 2, 2, 2]],
                             [1.5e-5, -1e-5, 1e-6, 1e16]])
    reprs = count_float_reprs(monkeypatch)
    calls = count_formatted_columns(monkeypatch)
    lines = artifacts._array_lines(column)
    assert lines == ",".join(map(repr, column.tolist()))
    # inf, -inf and five NaNs, one repr each, in one orjson call
    assert sorted(reprs) == sorted(bits(column[~np.isfinite(column)]).tolist())
    assert len(reprs) == 7 and len(calls) == 1
    # a strided column, as a series takes it from its matrix
    matrix = np.stack([column, column[::-1]], axis=1)
    for j in range(2):
        assert (artifacts._array_lines(matrix[:, j])
                == ",".join(map(repr, matrix[:, j].tolist())))
    empty = artifacts._array_lines(np.array([]))
    assert empty == "" and empty.cells() == []
    assert len(calls) == 4 and len(reprs) == 21


def shifted_bits(base: float) -> st.SearchStrategy:
    """Floats a few million ulps or less from ``base``, either sign."""
    return st.tuples(st.integers(-2**22, 2**22), st.booleans()).map(
        lambda c: (-1.0 if c[1] else 1.0)
        * np.array(np.float64(base).view(np.uint64) + np.int64(c[0])).view(float).item())


ANY_BITS = st.integers(0, 2**64 - 1).map(
    lambda b: np.array(b, dtype=np.uint64).view(float).item())
NEAR_BOUNDARIES = st.sampled_from([1e-5, 1e-4, 1e16]).flatmap(shifted_bits)
FLOAT64S = (ANY_BITS | NEAR_BOUNDARIES | st.sampled_from(SPECIAL.tolist() + [5e-324])
            | st.floats(1e-6, 1e17) | st.floats(allow_nan=True, allow_infinity=True))
INT64S = st.sampled_from([-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 1]) | st.integers(-2**63,
                                                                                 2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOAT64S, max_size=40), st.lists(INT64S, max_size=10), st.integers(1, 3))
def test_array_lines_are_the_joined_reprs_of_any_column(floats, ints, stride):
    # the contract with orjson's float writer: every float64 bit pattern,
    # dense draws around both ends of repr's positional notation, and int64
    # extremes, contiguous, strided and empty; repr formats only non-finite
    # values
    column = np.array(floats, dtype=float)
    matrix = np.repeat(column, stride).reshape(-1, stride)
    calls = []
    with mock.patch.object(artifacts, "repr", lambda v: calls.append(v) or repr(v),
                           create=True):
        for c in (column, column[::stride], matrix[:, stride - 1]):
            assert _array_lines(c) == ",".join(map(repr, c.tolist()))
    assert len(calls) == sum(int(np.count_nonzero(~np.isfinite(c)))
                             for c in (column, column[::stride], matrix[:, stride - 1]))
    ints = np.array(ints, dtype=np.int64)
    for c in (ints, ints[::stride]):
        assert _array_lines(c) == ",".join(map(repr, c.tolist()))


RUN_PAYMENT = st.sampled_from([0.0, -0.0, -1.5, 0.5, 2.0]) | st.floats(-5.0, 5.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 15).flatmap(lambda T: st.integers(1, 4).flatmap(
           lambda K: st.tuples(st.lists(st.lists(RUN_PAYMENT, min_size=K, max_size=K),
                                        min_size=T, max_size=T),
                               st.lists(st.booleans(), min_size=K, max_size=K),
                               st.lists(st.integers(0, len(SPECIAL) - 1), min_size=T,
                                        max_size=T)))))
def test_settled_columns_are_formatted_once_per_writer(tmp_path_factory, case):
    rows, zero_columns, surplus_picks = case
    amounts = np.array(rows, dtype=float)
    amounts[:, zero_columns] = 0.0
    surplus = SPECIAL[surplus_picks]
    K = amounts.shape[1]
    features = tuple(f"x{j}" for j in range(K))
    owners = {k: f"a{j % 2 + 2}" for j, k in enumerate(features)}
    report = MarketReport(market="oos", central_agent="a1", rows=len(amounts), phi=1.0,
                          allocation_policy="shapley", game="support-coalitions",
                          support=features, feature_owners=owners)
    report = market._settle(report, TaskSpec(central_agent="a1", ownership=owners), amounts,
                            list(range(len(amounts))), surplus)
    # the report keeps the clamped matrix and its series as float64 columns
    paid = np.where(amounts <= 0.0, 0.0, amounts)
    columns = report.series
    assert all(c.dtype == np.float64 for c in settled_columns(report, *SERIES_FLOATS))
    assert np.array_equal(bits(columns["surplus"]), bits(surplus))
    assert np.array_equal(bits(columns["central_payment"]),
                          bits([math.fsum(row) for row in paid.tolist()]))
    for j, k in enumerate(features):
        assert np.array_equal(bits(columns["payments"][k]), bits(paid[:, j]))
        assert np.array_equal(bits(columns["cumulative"][k]),
                              bits(np.cumsum(paid[:, j].tolist())))

    # each writer puts each settled column it writes through orjson once,
    # and repr formats only the non-finite surplus values report.json writes
    with pytest.MonkeyPatch.context() as patch:
        reprs = count_float_reprs(patch)
        calls = count_formatted_columns(patch)
        for name, (write, _) in WRITERS.items():
            done = len(calls)
            write(report, tmp_path_factory.mktemp("runs") / "out")
            assert collections.Counter(calls[done:]) == written_columns(report, name), name
    assert sorted(reprs) == sorted(bits(surplus[~np.isfinite(surplus)]).tolist())
    assert_artifacts_match(report, tmp_path_factory.mktemp("runs"))
