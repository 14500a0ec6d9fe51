"""The five artifacts of a cleared market, written byte for byte.

:func:`write_artifacts` writes ``report.json``, ``ledger.csv``,
``cumulative_revenues.csv``, ``losses.csv`` and ``audit.json``, in that
order, as ``regmarket market`` does; each writer states its byte format.

A settled report keeps its series and its ledger as columns
(:class:`~regmarket.market.MarketReport`), and the writers format them
from there without making their lists: :func:`_array_lines` puts each run
of bit-identical values through ``repr`` once.  ``report.json`` and a CSV
file both write the payments and their running totals, so the lines of
those columns of the report written last are kept, keyed by column
(:func:`_column_lines`), and a ledger amount's line is the line of its
payment.  A series or ledger read as lists is written by the encoders
that define its bytes, the C ``json`` encoder and ``repr``, and no line of
it is kept.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import weakref
from collections.abc import Iterable
from dataclasses import fields
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .market import LEDGER_COLUMNS, Ledger, MarketReport

# float runs made into Python objects, CSV rows, or JSON list items for the
# C encoder, at a time: a bound on memory
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
    texts = _report_texts(report)
    data = {f.name: getattr(report, f.name) for f in fields(report)
            if f.name not in ("series", "ledger")}
    columns = report._series_columns()
    # a settled column's lines are made when the writer reaches it; the
    # payments and running totals, which the CSV files write again, are kept
    data["series"] = report.series if columns is None else {
        name: {k: partial(_column_lines, c, texts if name in ("payments", "cumulative")
                          else None) for k, c in values.items()}
        if isinstance(values, dict) else partial(_column_lines, values)
        for name, values in columns.items()}
    ledger = report.ledger
    data["ledger"] = {name: partial(_ledger_column, ledger, name, texts) for name in LEDGER_COLUMNS}
    with open(path, "w") as fh:
        fh.writelines(_iter_json(data, 0))
        fh.write("\n")


def _ledger_column(ledger: Ledger, name: str, texts: dict):
    """Ledger column ``name`` to write: a settled ledger's amounts as the
    lines of their payments, else the column as a list."""
    if name == "amount" and ledger._lists is None:
        return _amount_lines(ledger, texts)
    return ledger._column(name)


# The lines of the report written last: (weak reference to it, lines).
_last_written: tuple[weakref.ref, dict] | None = None


def _report_texts(report: MarketReport) -> dict:
    """The memo of ``report``'s lines, keyed by the ``id`` of their settled
    column (:func:`_column_lines`).  Only the report written last keeps
    one, and it goes with its report; it holds no reference to the report."""
    global _last_written
    memo = _last_written
    if memo is None or memo[0]() is not report:
        texts: dict = {}
        memo = _last_written = (weakref.ref(report, lambda _: texts.clear()), texts)
    return memo[1]


def _array_lines(column: np.ndarray) -> list[str]:
    """``list(map(repr, column.tolist()))`` of a float64 or int64 column,
    with each run of bit-identical neighbours put through ``repr`` once and
    sharing its line.  Values are compared as ``uint64``, so ``0.0`` and
    ``-0.0``, and NaNs with different payloads, stay apart; ``tolist``
    takes ``ROWS_PER_WRITE`` runs at a time."""
    bits = column.view(np.uint64)
    heads = np.empty(len(bits), dtype=bool)
    heads[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=heads[1:])
    firsts = column[heads]
    lines = list(itertools.chain.from_iterable(
        map(repr, firsts[lo:lo + ROWS_PER_WRITE].tolist())
        for lo in range(0, len(firsts), ROWS_PER_WRITE)))
    if len(lines) < len(column):
        lines = np.array(lines, dtype=object)[np.cumsum(heads) - 1].tolist()
    return lines


def _column_lines(column: np.ndarray, texts: dict | None = None) -> _Lines:
    """The lines of a settled column (:func:`_array_lines`), kept in the
    memo ``texts``, when one is given, with the column they were made from."""
    if texts is None:
        return _Lines(_array_lines(column))
    kept = texts.get(id(column))
    if kept is None or kept[0] is not column:
        kept = texts[id(column)] = (column, _Lines(_array_lines(column)))
    return kept[1]


def _amount_lines(ledger: Ledger, texts: dict) -> _Lines:
    """The lines of a settled ledger's amounts: each is the line of its
    payment, at its (row, feature) index."""
    book = ledger._book
    lines = [_column_lines(column, texts) for column in book.series["payments"].values()]
    return _Lines(np.array(lines, dtype=object)[book.codes, book.rows].tolist()
                  if len(book.rows) else [])


class _Lines(list):
    """A JSON list given as the ``repr`` lines of its numbers."""


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONTAINERS = (dict, list, tuple)
_SCALARS = (str, int, float, type(None))


def _iter_json(obj, level: int):
    """Yield the pieces of ``json.dumps(obj, indent=1, sort_keys=True)``
    for ``obj`` at indent ``level``.

    A container of scalars is one piece, its items joined by a separator
    that holds their newline and indent: a :class:`_Lines` from its lines,
    a list of strings from each distinct string's code, anything else by
    the C encoder, ``ROWS_PER_WRITE`` items at a time.  A callable is
    called for the value to write when it is reached.  Other containers
    are walked item by item, and their keys must be strings.
    """
    if callable(obj):
        obj = obj()
    if not isinstance(obj, _CONTAINERS):
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
    is_lines = type(obj) is _Lines
    types = set() if is_lines else set(map(type, obj.values() if is_dict else obj))
    if not all(issubclass(t, _SCALARS) for t in types):
        items = (((encode_basestring_ascii(k) + ": ", v) for k, v in sorted(obj.items()))
                 if is_dict else (("", v) for v in obj))
        for key, value in items:
            yield start + key
            yield from _iter_json(value, level + 1)
            start = sep
        yield close
        return
    if is_lines:
        body = sep.join(obj)
        # finite reprs hold only digits, ".", "-", "+" and "e"; nan and inf an "n"
        if "n" in body:
            body = sep.join(map(_JSON_NONFINITE.get, obj, obj))
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

    A settled ledger's amounts are the lines of their payments
    (:func:`_amount_lines`), a ledger read as lists puts each amount
    through ``repr``, and the rows are joined in C by :func:`_write_rows`.
    """
    ledger = report.ledger
    lines = (_amount_lines(ledger, _report_texts(report)) if ledger._lists is None
             else map(repr, ledger._lists["amount"]))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(LEDGER_COLUMNS)
        _write_rows(fh, *(_csv_column(ledger._column(name))
                          for name in ("time", "payer", "payee", "feature")),
                    lines, itertools.repeat(","), _csv_column(ledger._column("market"), "\r\n"))


def write_cumulative_csv(report: MarketReport, path) -> None:
    """Write per-step payments and running totals in long format.

    Rows are ``step,agent,feature,amount,cumulative`` with CRLF line ends
    and floats by ``repr``, grouped by feature in sorted order, one per
    (integer) step; a report with no per-step series has one ``batch`` row
    per feature in ``payments``.  A settled series' floats are the memo's
    lines (:func:`_column_lines`), a series read as lists goes through
    ``repr``, the ``agent,feature`` cells are quoted once per feature, and
    the rows are joined in C by :func:`_write_rows`.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "agent", "feature", "amount", "cumulative"])
        columns = report._series_columns()
        series = report.series if columns is None else columns
        if series and "payments" in series:
            lines = (partial(map, repr) if columns is None
                     else partial(_column_lines, texts=_report_texts(report)))
            steps = series["step"]
            steps = list(_csv_column(steps if columns is None else steps.tolist()))
            for k in sorted(series["payments"]):
                pays, running = (lines(series[name][k]) for name in ("payments", "cumulative"))
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
    """Write the coalition losses: a ``coalition,loss`` header, then one row
    per entry of ``loss_table`` in its order, the key as ``csv.writer``
    quotes it and the loss by ``repr``, with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coalition", "loss"])
        for key, value in report.loss_table.items():
            writer.writerow([key, repr(value)])
