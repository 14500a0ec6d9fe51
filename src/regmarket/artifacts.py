"""The five artifacts of a cleared market, written byte for byte.

:func:`write_artifacts` writes ``report.json``, ``ledger.csv``,
``cumulative_revenues.csv``, ``losses.csv`` and ``audit.json``, in that
order, as ``regmarket market`` does; each writer states its byte format.
The float lists that ``report.json`` and a CSV file both write go through
``repr`` once: the memo of :func:`_report_texts` keeps their lines.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator
import struct
import weakref
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .market import LEDGER_COLUMNS, MarketReport


def write_artifacts(report: MarketReport, outdir) -> None:
    """Write the report's five artifacts into the directory ``outdir``."""
    outdir = Path(outdir)
    report_to_json(report, outdir / "report.json")
    write_ledger_csv(report, outdir / "ledger.csv")
    write_cumulative_csv(report, outdir / "cumulative_revenues.csv")
    write_loss_table_csv(report, outdir / "losses.csv")
    with open(outdir / "audit.json", "w") as fh:
        json.dump(report.audit, fh, indent=1, sort_keys=True)
        fh.write("\n")


def report_to_json(report: MarketReport, path) -> None:
    """Write ``report.to_dict()`` to ``path`` as ``report.json``.

    Byte-format contract, unchanged by how the writer gets there: the file
    is exactly ``json.dumps(report.to_dict(), indent=1, sort_keys=True) +
    "\\n"`` -- a one-space indent per level, keys sorted at every level,
    ``","`` and ``": "`` as separators, non-ASCII characters as ``\\uXXXX``
    escapes, floats by ``repr`` with ``NaN``, ``Infinity`` and
    ``-Infinity`` for the non-finite ones, and ``[]``/``{}`` for empty
    containers.  The ledger is written as one list per column.  The pieces
    are streamed to the file, so the text is never held as one string; the
    float lists a CSV file writes as well are joined from the memo's lines.
    """
    texts = _report_texts(report)
    _amount_lines(report, texts)
    for name in ("payments", "cumulative"):
        if isinstance(report.series.get(name), dict):
            for values in report.series[name].values():
                _float_text(values, texts)
    with open(path, "w") as fh:
        fh.writelines(_iter_json(report.to_dict(), 0, texts))
        fh.write("\n")


# The float lines of the report written last: (weak reference to it, lines).
_last_written: tuple[weakref.ref, dict[bytes, list[str]]] | None = None


def _report_texts(report: MarketReport) -> dict[bytes, list[str]]:
    """The memo of ``report``'s float lines, keyed by the lists' float64
    bytes.  Only the report written last keeps one, and it goes with its
    report; it holds no reference to the report or its lists, and a list
    changed in place gets new lines, never stale ones."""
    global _last_written
    memo = _last_written
    if memo is None or memo[0]() is not report:
        texts: dict[bytes, list[str]] = {}
        memo = _last_written = (weakref.ref(report, lambda _: texts.clear()), texts)
    return memo[1]


def _content_key(values) -> bytes:
    """The float64 bytes of a list of floats: its key in the memo."""
    return struct.pack(f"{len(values)}d", *values)


def _float_text(values, texts: dict[bytes, list[str]], make=None) -> list[str] | None:
    """The ``repr`` lines of a non-empty list of exact floats, made once per
    content and kept in ``texts``; None for anything else (an ``int`` has
    its float's bytes, not its text).  ``make(values)`` gives the lines
    where it can; otherwise a run of one float object in neighbouring
    places (:func:`_shared_runs`) goes through ``repr`` once.
    """
    if not (isinstance(values, list) and values
            and list(map(type, values)).count(float) == len(values)):
        return None
    key = _content_key(values)
    if key not in texts:
        lines = make(values) if make is not None else None
        if lines is None:
            heads = [True, *map(operator.is_not, itertools.islice(values, 1, None), values)]
            lines = list(map(repr, itertools.compress(values, heads)))
            if len(lines) < len(values):
                lines = np.array(lines, dtype=object)[np.cumsum(heads) - 1].tolist()
        texts[key] = lines
    return texts[key]


def _amount_lines(report: MarketReport, texts: dict[bytes, list[str]]) -> list[str] | None:
    """The ``repr`` lines of the ledger's amounts, kept in ``texts``, or
    None when they are not a list of floats.  :func:`_settle` books a
    streamed report's positive payments as the series' own floats in time,
    then feature order: when every amount is the series' float gathered in
    that order, the amounts take the gathered lines, and any other ledger
    (batch, hand-built, edited) is put through ``repr``."""
    def gathered(amounts: list) -> list[str] | None:
        payments = report.series.get("payments")
        columns = list(payments.values()) if isinstance(payments, dict) else []
        lines = [_float_text(values, texts) for values in columns]
        if not columns or None in lines or len(set(map(len, columns))) > 1:
            return None
        positive = np.array(columns).T > 0.0
        booked, booked_lines = (np.array(table, dtype=object).T[positive].tolist()
                                for table in (columns, lines))
        matched = len(booked) == len(amounts) and all(map(operator.is_, booked, amounts))
        return booked_lines if matched else None

    return _float_text(report.ledger.amount, texts, gathered)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONTAINERS = (dict, list, tuple)
# CSV rows, or JSON list items for the C encoder, joined at once: a bound on memory
ROWS_PER_WRITE = 1024


def _iter_json(obj, level: int, texts: dict[bytes, list[str]] | None = None):
    """Yield the pieces of ``json.dumps(obj, indent=1, sort_keys=True)``
    for ``obj`` at indent ``level``.

    A container of scalars is one piece, its items joined by a separator
    that holds their newline and indent: a list of floats from its lines in
    the memo ``texts`` where it has them, a list of strings from each
    distinct string's code, anything else by the C encoder,
    ``ROWS_PER_WRITE`` items at a time.  Only containers of containers are
    walked item by item, and their keys must be strings.
    """
    if not isinstance(obj, _CONTAINERS):
        yield json.dumps(obj)
        return
    is_dict = isinstance(obj, dict)
    if not obj:
        yield "{}" if is_dict else "[]"
        return
    inner = "\n" + " " * (level + 1)
    close = "\n" + " " * level + ("}" if is_dict else "]")
    types = set(map(type, obj.values() if is_dict else obj))
    sep = "," + inner
    if not any(issubclass(t, _CONTAINERS) for t in types):
        lines = (texts.get(_content_key(obj))
                 if texts and not is_dict and types == {float} else None)
        if lines is not None:
            body = sep.join(lines)
            # finite reprs hold only digits, ".", "-", "+" and "e"; nan and inf an "n"
            if "n" in body:
                body = sep.join(map(_JSON_NONFINITE.get, lines, lines))
        elif not is_dict and types == {str}:
            codes = {s: encode_basestring_ascii(s) for s in set(obj)}
            body = sep.join(map(codes.__getitem__, obj))
        else:
            blocks = [obj] if is_dict else (obj[lo:lo + ROWS_PER_WRITE]
                                            for lo in range(0, len(obj), ROWS_PER_WRITE))
            body = sep.join(json.dumps(block, sort_keys=True, separators=(sep, ": "))[1:-1]
                            for block in blocks)
        yield ("{" if is_dict else "[") + inner
        yield body
        yield close
        return
    start = ("{" if is_dict else "[") + inner
    if is_dict:
        for key, value in sorted(obj.items()):
            yield start + encode_basestring_ascii(key) + ": "
            yield from _iter_json(value, level + 1, texts)
            start = sep
    else:
        for value in obj:
            yield start
            yield from _iter_json(value, level + 1, texts)
            start = sep
    yield close


def _csv_cells(*cells: str) -> str:
    """Cells quoted and joined as ``csv.writer`` writes them inside a row,
    without the line end."""
    buf = io.StringIO()
    # a row of one empty cell would be written as '""'; the extra empty
    # cell keeps every cell's own quoting and is cut off with its comma
    csv.writer(buf).writerow(cells + ("",))
    return buf.getvalue()[:-3]


def _csv_column(values: list, end: str = ",") -> Iterable[str]:
    """Each of ``values`` as a cell of ``csv.writer`` followed by ``end``: an
    int as its ``str``, a string quoted once per distinct string."""
    if values and type(values[0]) is int and set(map(type, values)) == {int}:
        return map(("{}" + end).format, values)
    distinct = set(values)
    if all(type(v) is str for v in distinct):
        return map({v: _csv_cells(v) + end for v in distinct}.__getitem__, values)
    return (_csv_cells(v) + end for v in values)


def _write_rows(fh, *columns: Iterable[str]) -> None:
    """Write rows of one text per column, the last ending the row, joined in C."""
    rows = zip(*columns)
    while block := "".join(itertools.chain.from_iterable(
            itertools.islice(rows, ROWS_PER_WRITE))):
        fh.write(block)


def write_ledger_csv(report: MarketReport, path) -> None:
    """Write the ledger: one row per entry, amounts by ``repr``, CRLF ends.

    The amounts are the payments' lines gathered by :func:`_amount_lines`,
    and the rows are joined in C by :func:`_write_rows`.
    """
    ledger = report.ledger
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(LEDGER_COLUMNS)
        _write_rows(fh, *map(_csv_column, (ledger.time, ledger.payer, ledger.payee,
                                           ledger.feature)),
                    _amount_lines(report, _report_texts(report)) or map(repr, ledger.amount),
                    itertools.repeat(","), _csv_column(ledger.market, "\r\n"))


def write_cumulative_csv(report: MarketReport, path) -> None:
    """Write per-step payments and running totals in long format.

    Rows are ``step,agent,feature,amount,cumulative`` with CRLF line ends
    and floats by ``repr``, grouped by feature in sorted order, one per
    (integer) step; a report with no per-step series has one ``batch`` row
    per feature in ``payments``.  The floats are the memo's lines, the
    ``agent,feature`` cells are quoted once per feature, and the rows are
    joined in C by :func:`_write_rows`.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "agent", "feature", "amount", "cumulative"])
        series = report.series
        if series and "payments" in series:
            texts = _report_texts(report)
            steps = list(_csv_column(series["step"]))
            for k in sorted(series["payments"]):
                pays, running = (_float_text(v, texts) or map(repr, v)
                                 for v in (series["payments"][k], series["cumulative"][k]))
                middle = _csv_cells(report.feature_owners.get(k, ""), k) + ","
                _write_rows(fh, steps, itertools.repeat(middle), pays, itertools.repeat(","),
                            running, itertools.repeat("\r\n"))
        else:
            running = 0.0
            for k in sorted(report.payments):
                running += report.payments[k]
                writer.writerow(["batch", report.feature_owners.get(k, ""), k,
                                 repr(report.payments[k]), repr(running)])


def write_loss_table_csv(report: MarketReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coalition", "loss"])
        for key, value in report.loss_table.items():
            writer.writerow([key, repr(value)])
