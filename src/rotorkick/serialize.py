"""CSV/JSON serialization of sweep results, lossless at 17 significant digits."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import time
from pathlib import Path

import numpy as np

from .sweep import SweepResult

FLOAT_FMT = "%.17g"


def _f(x: float) -> str:
    return FLOAT_FMT % x


def _timestamp() -> str:
    """ISO timestamp; honors SOURCE_DATE_EPOCH for byte-reproducible output."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def record_columns(result: SweepResult) -> list[str]:
    k = max((r.populations.size for r in result.records if not r.failed), default=0)
    return (["P", "sigma", "j0", "energy", "orientation", "alignment"]
            + [f"pop_{j}" for j in range(k)]
            + [f"c_abs_{j}" for j in range(k)])


def _record_matrix(result: SweepResult, k: int) -> np.ndarray:
    """(n, 6 + 2k) float matrix of the records; populations and |C| zero-padded to k."""
    mat = np.zeros((len(result.records), 6 + 2 * k))
    for row, rec in zip(mat, result.records):
        row[:6] = (rec.p, rec.sigma, rec.j0, rec.energy, rec.orientation, rec.alignment)
        row[6:6 + k][: rec.populations.size] = rec.populations
        row[6 + k:][: rec.coeff_abs.size] = rec.coeff_abs
    return mat


def _write_loci_csv(path: Path, loci) -> Path:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["P", "sigma", "energy"])
        w.writerows([_f(p), _f(s), _f(e)] for p, s, e in loci)
    return path


def _json_head_tail(result: SweepResult, cols: list[str], metadata: dict | None
                    ) -> tuple[str, str]:
    """records.json as it would be with an empty records list, split around that list."""
    from . import __version__
    doc = {
        "metadata": {
            "config": metadata or {},
            "code_version": __version__,
            "timestamp": _timestamp(),
        },
        "columns": cols,
        "records": [],
    }
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

    Floats are rendered with 17 significant digits so a read-back
    round-trips bit-exactly.  Each record value is rendered once and its
    row is written to records.csv and records.json together, so memory
    holds one row of text.  Returns the paths written.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cols = record_columns(result)
    mat = _record_matrix(result, (len(cols) - 6) // 2)
    csv_path = outdir / "records.csv" if "csv" in formats else None
    json_path = outdir / "records.json" if "json" in formats else None
    written = []

    with contextlib.ExitStack() as stack:
        csv_fh = json_fh = None
        if csv_path:
            csv_fh = stack.enter_context(open(csv_path, "w", newline=""))
            csv_fh.write(",".join(cols) + "\r\n")
        if json_path:
            json_fh = stack.enter_context(open(json_path, "w"))
            head, tail = _json_head_tail(result, cols, metadata)
            json_fh.write(head)
        # One "%" call renders a row, its cells split by NULs.  No cell holds
        # a comma, quote, backslash or newline, so the CSV line is what
        # csv.writer writes and the JSON block is json.dump's indent=1 layout
        # of a list of strings.
        row_fmt = "\0".join([FLOAT_FMT] * len(cols))
        sep = ""
        for row in mat.tolist():
            text = row_fmt % tuple(row)
            if csv_fh:
                csv_fh.write(text.replace("\0", ",") + "\r\n")
            if json_fh:
                json_fh.write(sep + '\n  [\n   "' + text.replace("\0", '",\n   "') + '"\n  ]')
                sep = ","
        if json_fh:
            json_fh.write(("\n " if len(mat) else "") + tail)

    if csv_path:
        written.append(csv_path)
        for name, loci in (("drops.csv", result.drop_loci), ("minima.csv", result.minima_2d)):
            if loci:
                written.append(_write_loci_csv(outdir / name, loci))
    if json_path:
        written.append(json_path)

    failures = result.failures()
    if failures:
        path = outdir / "failures.json"
        with open(path, "w") as fh:
            json.dump([{"P": r.p, "sigma": r.sigma, "error": r.error} for r in failures],
                      fh, indent=1)
            fh.write("\n")
        written.append(path)
    return written


def read_records_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read back a records.csv; returns (columns, float matrix)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]]).reshape(len(rows) - 1, len(cols))
    return cols, data


def read_records_json(path: str | Path) -> tuple[list[str], np.ndarray, dict]:
    """Read back a records.json; returns (columns, float matrix, metadata)."""
    with open(path) as fh:
        doc = json.load(fh)
    rows, cols = doc["records"], doc["columns"]
    data = np.array([[float(v) for v in row] for row in rows]).reshape(len(rows), len(cols))
    return cols, data, doc["metadata"]
