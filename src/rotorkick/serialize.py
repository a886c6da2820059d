"""CSV/JSON serialization of sweep results, lossless at 17 significant digits."""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import time
from pathlib import Path

import numpy as np

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


# The cell kernel: FLOAT_FMT for a whole array, byte for byte.  A finite x != 0
# prints as the 17 digits of m = round(|x| 10^(16-k)), 10^16 <= m < 10^17, k
# its decimal exponent, with trailing zeros stripped: in fixed notation for
# -4 <= k < 17, as d.ddd e±kk otherwise.  10^(16-k) is held as a double-double
# hi + lo, and |x| hi as Dekker's exact two-product (Numer. Math. 18, 1971),
# so the scaled value ph + pl is off by less than 2^-47 at 10^17.  Rounding it
# needs only the side of 1/2 its fraction lies on: a cell whose fraction is
# within _TIE of 1/2, exact ties included, goes to "%" itself, as do nan, ±inf
# and |x| outside [1e-99, 1e100), whose exponents need three digits.
_CELL = 28              # bytes of a rendered cell, NUL-padded: rows of _render's out
_EXP_LIMIT = 99
_TIE = 2.0 ** -40
_SPLIT = 134217729.0    # 2^27 + 1, Dekker's splitter


@functools.cache
def _tables() -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """hi, lo and hi's Dekker halves of 10^(16-k) at index k + _EXP_LIMIT + 1, for
    |k| <= _EXP_LIMIT + 1; and the four ASCII digits of each i < 10^4 as a uint32."""
    hi, lo = [], []
    for k in range(-_EXP_LIMIT - 1, _EXP_LIMIT + 2):
        if k <= 16:
            p = 10 ** (16 - k)
            hi.append(float(p))
            lo.append(float(p - int(hi[-1])))
        else:           # 1/p: int / int is correctly rounded, and so is the remainder's
            p = 10 ** (k - 16)
            hi.append(1 / p)
            m, d = hi[-1].as_integer_ratio()
            lo.append((d - m * p) / (d * p))
    hi = np.array(hi)
    c = _SPLIT * hi
    head = c - (c - hi)
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    return (hi, np.array(lo), head, hi - head), digits.copy().view(np.uint32).ravel()


def _scaled(a, a_head, a_tail, k, scale):
    """a 10^(16-k) as the unevaluated sum ph + pl; a = a_head + a_tail split by _SPLIT."""
    i = k + _EXP_LIMIT + 1
    hi, lo, head, tail = (column[i] for column in scale)
    ph = a * hi
    return ph, ((a_head * head - ph) + a_head * tail + a_tail * head) + a_tail * tail + a * lo


def _render(x: np.ndarray, out: np.ndarray) -> None:
    """Write FLOAT_FMT % x[i] into out[:, i], NUL-padded, for the float64 vector x.

    out is a (_CELL, len(x)) uint8 array.  A cell's rows: 0 the sign, 1-5 the
    "0.000" of a fixed value below 1, 6-23 the digits with the point after the
    first q of them, 24-27 "e±kk".
    """
    scale, digit_lut = _tables()
    n = len(x)
    a = np.abs(x)
    regular = (a >= 10.0 ** -_EXP_LIMIT) & (a < 10.0 ** (_EXP_LIMIT + 1))
    a[~regular] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    ph, pl = _scaled(a, a_head, a_tail, k, scale)
    # log10 may be one off next to a power of ten: correct k where ph + pl
    # falls outside [10^16, 10^17).  ph is exact here, an integer above 2^53.
    low = (ph < 1e16) | ((ph == 1e16) & (pl < 0))
    high = (ph > 1e17) | ((ph == 1e17) & (pl >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += high[fix].astype(np.int64) - low[fix]
        ph[fix], pl[fix] = _scaled(a[fix], a_head[fix], a_tail[fix], k[fix], scale)
    whole = np.floor(pl)
    frac = pl - whole
    m = ph.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = m == 10 ** 17
    m -= carry * (9 * 10 ** 16)
    k += carry
    m *= regular            # 0, and the fallback cells, print as "0" below
    k *= regular
    fallback = regular & ((np.abs(frac - 0.5) <= _TIE) | (k > _EXP_LIMIT)
                          | (m < 10 ** 16) | (m >= 10 ** 17))
    fallback |= ~regular & (x != 0)

    # the 17 digits of m: the first, then four groups of four from the table
    top = m // 10 ** 16
    rest = m - top * 10 ** 16
    upper = rest // 10 ** 8
    lower = rest - upper * 10 ** 8
    groups = np.empty((4, n), np.int64)
    np.floor_divide(upper, 10 ** 4, out=groups[0])
    np.subtract(upper, groups[0] * 10 ** 4, out=groups[1])
    np.floor_divide(lower, 10 ** 4, out=groups[2])
    np.subtract(lower, groups[2] * 10 ** 4, out=groups[3])
    digits = np.empty((17, n), np.uint8)
    digits[0] = top + ord("0")
    digits[1:].reshape(4, 4, n)[...] = (digit_lut[groups].view(np.uint8)
                                        .reshape(4, n, 4).transpose(0, 2, 1))
    j = np.arange(18, dtype=np.uint8)[:, None]
    nd = np.maximum((j[1:] * (digits != ord("0"))).max(axis=0), 1)    # digits to print

    fixed = (k >= -4) & (k < 17)
    whole_part = fixed & (k >= 0)
    below_one = fixed & (k < 0)
    q = ((k + 1) * whole_part + ~whole_part).astype(np.uint8)   # digits before the point
    q[below_one] = nd[below_one]
    shown = np.maximum(nd, q)   # 100 prints 3 digits, though nd is 1
    out[0] = np.signbit(x) * np.uint8(ord("-"))
    out[1] = below_one * np.uint8(ord("0"))
    out[2] = below_one * np.uint8(ord("."))
    for row, last in ((3, -2), (4, -3), (5, -4)):
        out[row] = (below_one & (k <= last)) * np.uint8(ord("0"))
    body = out[6:24]
    np.multiply(digits, j[:17] < q, out=body[:17])
    body[17] = 0
    body[1:] += digits * ((j[:17] >= q) & (j[:17] < shown))
    body += (j == q) * ((nd > q) * np.uint8(ord(".")))
    sci = ~fixed
    tens = np.abs(k).astype(np.uint8)
    ones = tens % 10
    tens //= 10
    out[24] = sci * np.uint8(ord("e"))
    out[25] = sci * (np.uint8(ord("+")) + (k < 0) * np.uint8(ord("-") - ord("+")))
    out[26] = sci * (tens + np.uint8(ord("0")))
    out[27] = sci * (ones + np.uint8(ord("0")))
    if fallback.any():
        cells = np.flatnonzero(fallback)
        text = b"".join((b"%.17g" % v).ljust(_CELL, b"\0") for v in x[cells].tolist())
        out[:, cells] = np.frombuffer(text, np.uint8).reshape(-1, _CELL).T


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
        _render(x, cells[:, :len(x)])
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
