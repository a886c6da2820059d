"""CSV/JSON serialization of sweep results, lossless at 17 significant digits."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import time
from pathlib import Path

import numpy as np

from ._text import _CELL, g17
from .sweep import COLUMNS, SweepResult

FLOAT_FMT = "%.17g"
BLOCK_ROWS = 256     # table rows rendered at a time


def _f(x: float) -> str:
    return FLOAT_FMT % x


def timestamp() -> str:
    """ISO timestamp; honors SOURCE_DATE_EPOCH, a whole number of seconds,
    for byte-reproducible output."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        t = time.gmtime(int(epoch) if epoch else None)
    except (ValueError, OverflowError, OSError):
        raise ValueError(f"SOURCE_DATE_EPOCH must be a whole number of seconds, got {epoch!r}")
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", t)


# records.json lays each row out as json.dump(indent=1) does a list of strings
_JSON_OPEN = b',\n  [\n   "'      # the first record of the file drops the comma
_JSON_NEXT = b'",\n   "'
_JSON_CLOSE = b'"\n  ]'


def _row_blocks(table: np.ndarray, as_csv: bool, as_json: bool):
    """The rows of the float matrix table, BLOCK_ROWS at a time, as (csv, json)
    bytes: CSV lines with CRLF ends, and the records of records.json, each after
    the first led by a comma.  Either is None unless asked for.

    Each block is rendered once, into NUL-padded cells laid out between the CSV
    separators; the JSON cells are copied from those contiguous slots.  Dropping
    the NULs leaves the text.
    """
    rows, cols = table.shape
    block = min(BLOCK_ROWS, rows)
    if not (block and cols):
        return
    cells = np.empty((_CELL, block * cols), np.uint8)
    csv_buf = np.zeros((block, cols, _CELL + 2), np.uint8)
    csv_buf[:, :, _CELL] = ord(",")
    csv_buf[:, -1, _CELL:] = np.frombuffer(b"\r\n", np.uint8)
    if as_json:
        lead, sep = len(_JSON_OPEN), len(_JSON_NEXT)
        json_buf = np.zeros((block, lead + cols * (_CELL + sep)), np.uint8)
        json_buf[:, :lead] = np.frombuffer(_JSON_OPEN, np.uint8)
        json_cells = json_buf[:, lead:].reshape(block, cols, _CELL + sep)
        json_cells[:, :, _CELL:] = np.frombuffer(_JSON_NEXT, np.uint8)
        json_cells[:, -1, _CELL:] = np.frombuffer(_JSON_CLOSE.ljust(sep, b"\0"), np.uint8)
    for start in range(0, rows, block):
        x = table[start:start + block].ravel()
        r = len(x) // cols
        g17(x, cells[:, :len(x)])
        csv_buf[:r, :, :_CELL] = cells[:, :len(x)].reshape(_CELL, r, cols).transpose(1, 2, 0)
        csv_text = csv_buf[:r].tobytes().translate(None, b"\0") if as_csv else None
        json_text = None
        if as_json:
            json_cells[:r, :, :_CELL] = csv_buf[:r, :, :_CELL]
            json_buf[0, 0] = ord(",") if start else 0
            json_text = json_buf[:r].tobytes().translate(None, b"\0")
        yield csv_text, json_text


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Write header and the numbers rows as CSV: FLOAT_FMT cells, CRLF lines.  Returns path.

    Each row holds one number per header name; no rows writes the header alone.
    """
    table = np.asarray(rows, dtype=float)
    if table.ndim == 1 and not table.size:
        table = table.reshape(0, len(header))
    if table.ndim != 2 or table.shape[1] != len(header):
        width = table.shape[1] if table.ndim == 2 else f"shaped {table.shape}"
        raise ValueError(f"the header is {len(header)} wide but the rows are {width}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for text, _ in _row_blocks(table, as_csv=True, as_json=False):
            fh.write(text)
    return Path(path)


def write_json(path: str | Path, doc) -> Path:
    """Write doc as JSON with a one-space indent and a final newline.  Returns path."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return Path(path)


def record_columns(result: SweepResult) -> list[str]:
    k = (result.table.shape[1] - len(COLUMNS)) // 2
    return list(COLUMNS) + [f"pop_{j}" for j in range(k)] + [f"c_abs_{j}" for j in range(k)]


def _json_head_tail(result: SweepResult, cols: list[str], metadata: dict | None
                    ) -> tuple[str, str]:
    """records.json as it would be with an empty records list, split around that list."""
    from . import __version__
    meta = {"config": metadata or {}, "code_version": __version__, "timestamp": timestamp()}
    doc = {"metadata": meta, "columns": cols, "records": []}
    for key, loci in (("drops", result.drop_loci), ("minima", result.minima_2d)):
        if loci:
            doc[key] = [{"P": _f(p), "sigma": _f(s), "energy": _f(e)} for p, s, e in loci]
    if result.minima_line_fit is not None:
        fit = result.minima_line_fit
        doc["minima_line_fit"] = {
            "slope": _f(fit.slope),
            "intercepts": {str(n): _f(b) for n, b in fit.intercepts.items()},
            "rms_residual": _f(fit.rms_residual),
        }
    # Only a top-level key sits at a one-space indent after a newline, and a
    # JSON string cannot hold a raw newline, so this split point is unique.
    head, tail = json.dumps(doc, indent=1).split('\n "records": []', 1)
    return head + '\n "records": [', "]" + tail + "\n"


def write_records(result: SweepResult, outdir: str | Path,
                  formats: tuple[str, ...] = ("csv", "json"),
                  metadata: dict | None = None) -> list[Path]:
    """Write the per-point records plus any drop/minima/fit outputs.

    Floats are rendered with 17 significant digits so a read-back round-trips
    bit-exactly.  The rows of result.table are rendered BLOCK_ROWS at a time,
    each block once for both files, so memory holds one block of text.
    Returns the paths written.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cols, table = record_columns(result), result.table
    csv_path = outdir / "records.csv" if "csv" in formats else None
    json_path = outdir / "records.json" if "json" in formats else None
    if json_path:   # before any file is opened: the timestamp may reject SOURCE_DATE_EPOCH
        head, tail = _json_head_tail(result, cols, metadata)
    written = []

    with contextlib.ExitStack() as stack:
        csv_fh = json_fh = None
        if csv_path:
            csv_fh = stack.enter_context(open(csv_path, "wb"))
            csv_fh.write((",".join(cols) + "\r\n").encode())
        if json_path:
            json_fh = stack.enter_context(open(json_path, "wb"))
            json_fh.write(head.encode())
        for csv_text, json_text in _row_blocks(table, bool(csv_fh), bool(json_fh)):
            if csv_fh:
                csv_fh.write(csv_text)
            if json_fh:
                json_fh.write(json_text)
        if json_fh:
            json_fh.write((("\n " if len(table) else "") + tail).encode())

    if csv_path:
        written.append(csv_path)
        for name, loci in (("drops.csv", result.drop_loci), ("minima.csv", result.minima_2d)):
            if loci:
                written.append(write_csv(outdir / name, ["P", "sigma", "energy"], loci))
    if json_path:
        written.append(json_path)
    if result.errors:
        points = zip(result.table[list(result.errors), :2].tolist(), result.errors.values())
        written.append(write_json(outdir / "failures.json",
                                  [{"P": p, "sigma": s, "error": e} for (p, s), e in points]))
    return written


def read_records_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read back a records.csv or any write_csv file; returns (columns, float matrix)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return rows[0], data.reshape(len(rows) - 1, len(rows[0]))


def read_records_json(path: str | Path) -> tuple[list[str], np.ndarray, dict]:
    """Read back a records.json; returns (columns, float matrix, metadata)."""
    with open(path) as fh:
        doc = json.load(fh)
    rows, cols = doc["records"], doc["columns"]
    data = np.array([[float(v) for v in row] for row in rows]).reshape(len(rows), len(cols))
    return cols, data, doc["metadata"]
