"""The five artifacts of a cleared market, written byte for byte.

:func:`write_artifacts` writes ``report.json``, ``ledger.csv``,
``cumulative_revenues.csv``, ``losses.csv`` and ``audit.json``, in that
order, as ``regmarket market`` does; each writer states its byte format.

A settled report keeps its series and its ledger as columns
(:class:`~regmarket.market.MarketReport`).  :func:`_array_lines` formats
such a float64 or int64 column in one ``orjson`` call, as its ``repr``
lines joined by commas; each writer formats the columns it writes, a
settled ledger's times and amounts from their gathers, and keeps nothing;
``ledger.csv`` quotes a settled ledger's names once per feature and
gathers them by the entries' feature codes.  The CSV writers lay out
each block of rows in one list.
A series or ledger read as lists is written by the encoders that define
its bytes, the C ``json`` encoder and ``repr``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from dataclasses import fields
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .market import LEDGER_COLUMNS, Ledger, MarketReport

# CSV rows, or JSON list items for the C encoder, made at a time: a bound
# on memory
ROWS_PER_WRITE = 1024


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
    are streamed to the file, so the text is never held as one string.
    """
    data = {f.name: getattr(report, f.name) for f in fields(report)
            if f.name not in ("series", "ledger")}
    columns = report._series_columns()
    # a settled column is formatted when the writer reaches it
    data["series"] = report.series if columns is None else {
        name: {k: partial(_array_lines, c) for k, c in values.items()}
        if isinstance(values, dict) else partial(_array_lines, values)
        for name, values in columns.items()}
    data["ledger"] = {name: partial(_ledger_column, report.ledger, name)
                      for name in LEDGER_COLUMNS}
    with open(path, "w") as fh:
        fh.writelines(_iter_json(data, 0))
        fh.write("\n")


def _ledger_column(ledger: Ledger, name: str):
    """Ledger column ``name`` to write: a settled ledger's numeric times and
    its amounts as the :func:`_array_lines` of their gathers, else the
    column as a list."""
    if name in ("time", "amount") and ledger._lists is None:
        gathered = ledger._book.gather(name)
        if gathered.dtype.kind in "if":
            return _array_lines(gathered)
    return ledger._column(name)


class _Lines(str):
    """A JSON list or CSV column given as the ``repr`` lines of its
    numbers, joined by commas."""

    def cells(self) -> list[str]:
        return self.split(",") if self else []


# orjson writes an exponent with no "+", or with one digit, where repr
# writes two; each pattern starts with a literal, which the scan looks for
_ORJSON_PLUS = re.compile(r"e(?=\d)")
_ORJSON_ONE_DIGIT = re.compile(r"e-(?=\d(?!\d))")


def _orjson_lines(column: np.ndarray) -> str:
    """orjson's text of a contiguous column, unbracketed, with ``repr``'s exponents."""
    import orjson
    text = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode("ascii")
    return _ORJSON_ONE_DIGIT.sub("e-0", _ORJSON_PLUS.sub("e+", text)) if "e" in text else text


def _array_lines(column: np.ndarray) -> _Lines:
    """``",".join(map(repr, column.tolist()))`` of a float64 or int64
    column, from one ``orjson`` call over the whole column.

    orjson writes each float's shortest round-trip digits, as ``repr``
    does, and in ``repr``'s notation but for its exponents
    (:func:`_orjson_lines`) and two kinds of value: those of [1e-5, 1e-4),
    which it writes positionally (``0.000015`` for ``1.5e-05``), and the
    non-finite ones, which it writes as ``null``.  Those values are written
    apart, the first from the digits orjson writes for them after the
    column, the second by ``repr``, and each takes the place of a ``null``.
    A strided column is copied, as orjson takes contiguous arrays only.
    orjson is imported on the first call: importing the package does not
    load it.
    """
    apart = np.zeros(len(column), dtype=bool)
    if column.dtype.kind == "f":
        size = np.abs(column)
        apart = ~((size < 1e-5) | (size >= 1e-4) & (size < np.inf))  # a NaN compares false
    if not apart.any():
        return _Lines(_orjson_lines(np.ascontiguousarray(column)))
    values = column[apart]
    finite = np.isfinite(values)
    # the finite values written apart follow the column, in the same call
    text, *tail = _orjson_lines(np.concatenate([np.where(apart, np.nan, column),
                                                values[finite]])).rsplit(",", finite.sum())
    # "-0.0000ddd" to "-d.dde-05"
    tail = (f"{sign}{d[0]}{'.' * (len(d) > 1)}{d[1:]}e-05"
            for sign, _, d in (t.rpartition("0.0000") for t in tail))
    lines = [next(tail) if ok else repr(v) for v, ok in zip(values.tolist(), finite.tolist())]
    pieces = text.split("null")
    return _Lines("".join(itertools.chain.from_iterable(zip(pieces, lines))) + pieces[-1])


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONTAINERS = (dict, list, tuple)
_SCALARS = (str, int, float, type(None))


def _iter_json(obj, level: int):
    """Yield the pieces of ``json.dumps(obj, indent=1, sort_keys=True)``
    for ``obj`` at indent ``level``.

    A container of scalars is one piece, its items joined by a separator
    that holds their newline and indent: a :class:`_Lines` with it for
    each comma, a list of strings from each distinct string's code,
    anything else by the C encoder, ``ROWS_PER_WRITE`` items at a time.
    A callable is called for the value to write when it is reached.  Other
    containers are walked item by item, and their keys must be strings.
    """
    if callable(obj):
        obj = obj()
    is_lines = type(obj) is _Lines
    if not (is_lines or isinstance(obj, _CONTAINERS)):
        yield json.dumps(obj)
        return
    is_dict = isinstance(obj, dict)
    if not obj:
        yield "{}" if is_dict else "[]"
        return
    inner = "\n" + " " * (level + 1)
    close = "\n" + " " * level + ("}" if is_dict else "]")
    sep = "," + inner
    start = ("{" if is_dict else "[") + inner
    types = set() if is_lines else set(map(type, obj.values() if is_dict else obj))
    # a _Lines is a str that stands for a list
    if _Lines in types or not all(issubclass(t, _SCALARS) for t in types):
        items = (((encode_basestring_ascii(k) + ": ", v) for k, v in sorted(obj.items()))
                 if is_dict else (("", v) for v in obj))
        for key, value in items:
            yield start + key
            yield from _iter_json(value, level + 1)
            start = sep
        yield close
        return
    if is_lines:
        body = obj.replace(",", sep)
        # finite reprs hold only digits, ".", "-", "+" and "e"; nan and inf an "n"
        if "n" in body:
            lines = obj.cells()
            body = sep.join(map(_JSON_NONFINITE.get, lines, lines))
    elif not is_dict and types == {str}:
        codes = {s: encode_basestring_ascii(s) for s in set(obj)}
        body = sep.join(map(codes.__getitem__, obj))
    else:
        blocks = [obj] if is_dict else (obj[lo:lo + ROWS_PER_WRITE]
                                        for lo in range(0, len(obj), ROWS_PER_WRITE))
        body = sep.join(json.dumps(block, sort_keys=True, separators=(sep, ": "))[1:-1]
                        for block in blocks)
    yield start
    yield body
    yield close


def _csv_cells(*cells: str) -> str:
    """Cells quoted and joined as ``csv.writer`` writes them inside a row,
    without the line end."""
    buf = io.StringIO()
    # a row of one empty cell would be written as '""'; the extra empty
    # cell keeps every cell's own quoting and is cut off with its comma
    csv.writer(buf).writerow(cells + ("",))
    return buf.getvalue()[:-3]


def _csv_column(values: list | _Lines) -> list[str]:
    """Each of ``values`` as a cell of ``csv.writer``: a :class:`_Lines`'
    lines as they are, an int as its ``str``, a string quoted once per
    distinct string."""
    if type(values) is _Lines:
        return values.cells()
    if values and type(values[0]) is int and set(map(type, values)) == {int}:
        return list(map(str, values))
    distinct = set(values)
    if all(type(v) is str for v in distinct):
        return list(map({v: _csv_cells(v) for v in distinct}.__getitem__, values))
    return [_csv_cells(v) for v in values]


def _write_rows(fh, *columns: str | list[str]) -> None:
    """Write rows of one text per column, the last ending the row.

    A str column is the same text on every row; a list holds one text per
    row.  Each block of ``ROWS_PER_WRITE`` rows is laid out in one list,
    the constant texts once and each other column by one extended-slice
    assignment, and joined in C.
    """
    width = len(columns)
    varying = [(j, column) for j, column in enumerate(columns) if not isinstance(column, str)]
    count = min(len(column) for _, column in varying)
    block = [column if isinstance(column, str) else "" for column in columns]
    block *= min(count, ROWS_PER_WRITE)
    for lo in range(0, count, ROWS_PER_WRITE):
        rows = min(count - lo, ROWS_PER_WRITE)
        del block[rows * width:]
        for j, column in varying:
            block[j::width] = column[lo:lo + rows]
        fh.write("".join(block))


def write_ledger_csv(report: MarketReport, path) -> None:
    """Write the ledger: one row per entry, amounts by ``repr``, CRLF ends.

    A settled ledger's times and amounts are formatted from their gathers
    (:func:`_ledger_column`); its ``payer,payee,feature`` cells are quoted
    once per feature and gathered by code, and its market cell once.  A
    ledger read as lists puts each amount through ``repr`` and quotes each
    distinct name once per column.  :func:`_write_rows` lays out the rows.
    """
    ledger = report.ledger
    times = _csv_column(_ledger_column(ledger, "time"))
    amounts = _ledger_column(ledger, "amount")
    amounts = amounts.cells() if type(amounts) is _Lines else list(map(repr, amounts))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(LEDGER_COLUMNS)
        if ledger._lists is None:
            book = ledger._book
            names = book.by_code(f",{_csv_cells(book.payer, payee, feature)},"
                                 for payee, feature in zip(book.payees, book.features))
            _write_rows(fh, times, names, amounts, f",{_csv_cells(book.market)}\r\n")
        else:
            payer, payee, feature, market = (_csv_column(ledger._column(name))
                                             for name in ("payer", "payee", "feature", "market"))
            _write_rows(fh, times, ",", payer, ",", payee, ",", feature, ",", amounts, ",",
                        market, "\r\n")


def write_cumulative_csv(report: MarketReport, path) -> None:
    """Write per-step payments and running totals in long format.

    Rows are ``step,agent,feature,amount,cumulative`` with CRLF line ends
    and floats by ``repr``, grouped by feature in sorted order, one per
    (integer) step; a report with no per-step series has one ``batch`` row
    per feature in ``payments``.  A settled series' columns are formatted
    by :func:`_array_lines`, a series read as lists goes through
    ``repr``, the ``agent,feature`` cells are quoted once per feature, and
    the rows are joined in C by :func:`_write_rows`.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "agent", "feature", "amount", "cumulative"])
        columns = report._series_columns()
        series = report.series if columns is None else columns
        if series and "payments" in series:
            lines = ((lambda values: list(map(repr, values))) if columns is None
                     else lambda column: _array_lines(column).cells())
            steps = _csv_column(series["step"] if columns is None
                                else _array_lines(series["step"]))
            for k in sorted(series["payments"]):
                pays, running = (lines(series[name][k]) for name in ("payments", "cumulative"))
                middle = f",{_csv_cells(report.feature_owners.get(k, ''), k)},"
                _write_rows(fh, steps, middle, pays, ",", running, "\r\n")
        else:
            running = 0.0
            for k in sorted(report.payments):
                running += report.payments[k]
                writer.writerow(["batch", report.feature_owners.get(k, ""), k,
                                 repr(report.payments[k]), repr(running)])


def write_loss_table_csv(report: MarketReport, path) -> None:
    """Write the coalition losses: a ``coalition,loss`` header, then one row
    per entry of ``loss_table`` in its order, the key as ``csv.writer``
    quotes it and the loss by ``repr``, with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coalition", "loss"])
        for key, value in report.loss_table.items():
            writer.writerow([key, repr(value)])
