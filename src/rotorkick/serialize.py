"""CSV/JSON serialization of sweep results, lossless at 17 significant digits."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import time
from pathlib import Path

import numpy as np

from .sweep import COLUMNS, SweepResult

FLOAT_FMT = "%.17g"
BLOCK_ROWS = 256     # rows rendered by one "%" call


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


def _csv_blocks(table: np.ndarray):
    """The rows of table as CSV text: BLOCK_ROWS rows at a time, rendered by one
    "%" call and yielded as one string of CRLF-joined lines."""
    row_fmt = ",".join([FLOAT_FMT] * table.shape[1])
    for start in range(0, len(table), BLOCK_ROWS):
        block = table[start:start + BLOCK_ROWS]
        yield "\r\n".join([row_fmt] * len(block)) % tuple(block.ravel().tolist())


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Write header and the numbers rows as CSV: FLOAT_FMT cells, CRLF lines.  Returns path."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for text in _csv_blocks(table):
            fh.write(text + "\r\n")
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
            csv_fh = stack.enter_context(open(csv_path, "w", newline=""))
            csv_fh.write(",".join(cols) + "\r\n")
        if json_path:
            json_fh = stack.enter_context(open(json_path, "w"))
            json_fh.write(head)
        # Each block of CSV lines is rendered once for both files.  No cell
        # holds a comma, quote, backslash or newline, so these are the lines
        # csv.writer writes, and two replacements give json.dump's indent=1
        # layout of the rows as lists of strings.
        for i, text in enumerate(_csv_blocks(table)):
            if csv_fh:
                csv_fh.write(text + "\r\n")
            if json_fh:
                json_fh.write(("," if i else "") + '\n  [\n   "' + text.replace(
                    ",", '",\n   "').replace("\r\n", '"\n  ],\n  [\n   "') + '"\n  ]')
        if json_fh:
            json_fh.write(("\n " if len(table) else "") + tail)

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
