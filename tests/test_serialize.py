import csv
import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotorkick import SweepGrid, run_sweep
from rotorkick.serialize import (
    _f,
    _timestamp,
    read_records_csv,
    read_records_json,
    record_columns,
    write_records,
)
from rotorkick.sweep import PointRecord, SweepResult


@pytest.fixture(scope="module")
def result():
    grid = SweepGrid.from_ranges(1.5, 2.5, 3.5, 0.1, j0=0)
    return run_sweep(grid)


class TestColumns:
    def test_order_and_padding(self, result):
        cols = record_columns(result)
        k = max(r.populations.size for r in result.records)
        assert cols[:6] == ["P", "sigma", "j0", "energy", "orientation", "alignment"]
        assert cols[6] == "pop_0"
        assert cols[6 + k] == "c_abs_0"
        assert len(cols) == 6 + 2 * k


class TestRoundTrip:
    def test_csv_bit_exact(self, result, tmp_path):
        write_records(result, tmp_path, formats=("csv",))
        cols, data = read_records_csv(tmp_path / "records.csv")
        assert cols == record_columns(result)
        for i, rec in enumerate(result.records):
            assert data[i, 0] == rec.p
            assert data[i, 1] == rec.sigma
            assert data[i, 3] == rec.energy          # 17 sig digits round-trips exactly
            assert data[i, 4] == rec.orientation
            k = (len(cols) - 6) // 2
            assert np.array_equal(data[i, 6:6 + rec.populations.size], rec.populations)

    def test_json_bit_exact_and_metadata(self, result, tmp_path):
        write_records(result, tmp_path, formats=("json",), metadata={"P": 1.5})
        cols, data, meta = read_records_json(tmp_path / "records.json")
        assert meta["config"] == {"P": 1.5}
        assert "code_version" in meta and "timestamp" in meta
        energies = np.array([r.energy for r in result.records])
        assert np.array_equal(data[:, 3], energies)

    def test_csv_json_agree(self, result, tmp_path):
        write_records(result, tmp_path)
        _, d_csv = read_records_csv(tmp_path / "records.csv")
        _, d_json, _ = read_records_json(tmp_path / "records.json")
        assert np.array_equal(d_csv, d_json)

    def test_no_records_read_back_as_zero_rows(self, tmp_path):
        res = _hand_built([])
        write_records(res, tmp_path)
        cols, d_csv = read_records_csv(tmp_path / "records.csv")
        cols_json, d_json, _ = read_records_json(tmp_path / "records.json")
        assert cols == cols_json == record_columns(res)
        assert d_csv.shape == d_json.shape == (0, len(cols))

    def test_drops_file(self, tmp_path):
        grid = SweepGrid.from_ranges(1.5, 2.0, 4.0, 0.05, j0=0)
        res = run_sweep(grid)
        assert res.drop_loci
        paths = write_records(res, tmp_path, formats=("csv",))
        assert tmp_path / "drops.csv" in paths
        lines = (tmp_path / "drops.csv").read_text().splitlines()
        assert lines[0] == "P,sigma,energy"
        assert len(lines) == 1 + len(res.drop_loci)


class TestReproducibility:
    def test_byte_identical_with_source_date_epoch(self, result, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        write_records(result, tmp_path / "a")
        write_records(result, tmp_path / "b")
        for name in ("records.csv", "records.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        doc = json.loads((tmp_path / "a" / "records.json").read_text())
        assert doc["metadata"]["timestamp"] == "2023-11-14T22:13:20Z"


class TestFailures:
    def test_failures_json_written(self, tmp_path):
        grid = SweepGrid(p_values=(500.0,), sigma_values=(0.001, 0.002), j0=0,
                         leak_tol=1e-14)
        res = run_sweep(grid)
        paths = write_records(res, tmp_path)
        assert tmp_path / "failures.json" in paths
        doc = json.loads((tmp_path / "failures.json").read_text())
        assert len(doc) == 2
        assert all("error" in d for d in doc)


def reference_write_records(result, outdir, formats=("csv", "json"), metadata=None):
    """The writer write_records replaced: csv.writer rows and one json.dump of
    the whole document, every value rendered by _f for each format."""
    from rotorkick import __version__
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cols = record_columns(result)
    k = (len(cols) - 6) // 2
    rows = []
    for rec in result.records:
        pops, cabs = np.zeros(k), np.zeros(k)
        pops[: rec.populations.size] = rec.populations
        cabs[: rec.coeff_abs.size] = rec.coeff_abs
        rows.append([rec.p, rec.sigma, rec.j0, rec.energy, rec.orientation, rec.alignment]
                    + pops.tolist() + cabs.tolist())
    written = []

    def loci_csv(name, loci):
        with open(outdir / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["P", "sigma", "energy"])
            for p, s, e in loci:
                w.writerow([_f(p), _f(s), _f(e)])
        written.append(outdir / name)

    if "csv" in formats:
        with open(outdir / "records.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for row in rows:
                w.writerow([str(int(row[2])) if i == 2 else _f(v) for i, v in enumerate(row)])
        written.append(outdir / "records.csv")
        if result.drop_loci:
            loci_csv("drops.csv", result.drop_loci)
        if result.minima_2d:
            loci_csv("minima.csv", result.minima_2d)
    if "json" in formats:
        doc = {"metadata": {"config": metadata or {}, "code_version": __version__,
                            "timestamp": _timestamp()},
               "columns": cols,
               "records": [[_f(v) for v in row] for row in rows]}
        if result.drop_loci:
            doc["drops"] = [{"P": _f(p), "sigma": _f(s), "energy": _f(e)}
                            for p, s, e in result.drop_loci]
        if result.minima_2d:
            doc["minima"] = [{"P": _f(p), "sigma": _f(s), "energy": _f(e)}
                             for p, s, e in result.minima_2d]
        if result.minima_line_fit is not None:
            fit = result.minima_line_fit
            doc["minima_line_fit"] = {
                "slope": _f(fit.slope),
                "intercepts": {str(n): _f(b) for n, b in fit.intercepts.items()},
                "rms_residual": _f(fit.rms_residual)}
        with open(outdir / "records.json", "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        written.append(outdir / "records.json")
    failures = result.failures()
    if failures:
        with open(outdir / "failures.json", "w") as fh:
            json.dump([{"P": r.p, "sigma": r.sigma, "error": r.error} for r in failures],
                      fh, indent=1)
            fh.write("\n")
        written.append(outdir / "failures.json")
    return written


def _hand_built(records):
    return SweepResult(grid=SweepGrid(p_values=(1.0,), sigma_values=(1.0,)), records=records)


def _surface():
    p = tuple(np.round(4.1 + np.arange(32) * 0.1, 12))
    return run_sweep(SweepGrid.from_ranges(p, 5.7, 8.8, 0.1))


GATE_CASES = {
    "fig2_line": (lambda: run_sweep(SweepGrid.from_ranges(1.5, 0.02, 10.0, 0.02)),
                  ("csv", "json")),
    "surface": (_surface, ("csv", "json", "svg")),
    "all_failed": (lambda: run_sweep(SweepGrid(p_values=(500.0,), sigma_values=(0.001, 0.002),
                                               leak_tol=1e-14)), ("csv", "json")),
    "csv_only": (lambda: run_sweep(SweepGrid.from_ranges(1.5, 2.0, 4.0, 0.05)), ("csv",)),
    "json_only": (lambda: run_sweep(SweepGrid.from_ranges(1.5, 2.0, 4.0, 0.05)), ("json",)),
    "one_point": (lambda: run_sweep(SweepGrid(p_values=(1.5,), sigma_values=(1.0,))),
                  ("csv", "json")),
    "mixed_rungs": (lambda: run_sweep(SweepGrid(
        p_values=(1.5, 500.0), sigma_values=(0.001, 0.002, 0.5, 1.0, 3.0, 6.0), leak_tol=1e-14)),
        ("csv", "json")),
    "no_records": (lambda: _hand_built([]), ("csv", "json")),
    "special_values": (lambda: _hand_built([PointRecord(
        p=1.0, sigma=5e-324, j0=3, j_max=0, energy=math.nan, orientation=math.inf,
        alignment=-math.inf, populations=np.array([-0.0, 2.2250738585072014e-308]),
        coeff_abs=np.array([1e308]))]), ("csv", "json")),
}


@functools.cache
def _gate_result(case):
    return GATE_CASES[case][0]()


class TestEqualityGate:
    """write_records against the writer it replaced, byte for byte."""

    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    def test_same_bytes_as_reference(self, case, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        res, formats = _gate_result(case), GATE_CASES[case][1]
        # A nested "records": [] must not be taken for the records slot.
        meta = {"P": 1.5, "records": [], "note": '"records": []'}
        new = write_records(res, tmp_path / "new", formats=formats, metadata=meta)
        ref = reference_write_records(res, tmp_path / "ref", formats=formats, metadata=meta)
        assert [p.name for p in new] == [p.name for p in ref]
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == sorted(
            p.name for p in ref)
        for path in ref:
            assert (tmp_path / "new" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_cases_cover_the_outputs(self):
        res = {name: _gate_result(name) for name in GATE_CASES}
        assert res["fig2_line"].drop_loci
        assert res["surface"].minima_2d and res["surface"].minima_line_fit is not None
        assert res["all_failed"].failures() == res["all_failed"].records
        assert all(r.populations.size == 0 for r in res["all_failed"].records)
        assert len(res["one_point"].records) == 1

    def test_mixed_case_spans_rungs_and_a_failed_row(self):
        res = _gate_result("mixed_rungs")
        assert len({r.j_max for r in res.records if not r.failed}) >= 2
        assert [r.failed for r in res.records[6:8]] == [True, True]
        assert not any(r.failed for r in res.records[8:])


def _arr(draw, size):
    return np.array(draw(st.lists(st.floats(), min_size=size, max_size=size)), dtype=float)


@st.composite
def sweep_results(draw):
    """Hand-built results: any float64 (nan, +-inf, subnormals, +-0.0) in every
    value column, ragged populations and |C| of at most k entries."""
    k = draw(st.integers(0, 4))
    records = []
    for i in range(draw(st.integers(1, 5))):
        records.append(PointRecord(
            p=draw(st.floats()), sigma=draw(st.floats()), j0=draw(st.integers(0, 40)),
            j_max=0, energy=draw(st.floats()), orientation=draw(st.floats()),
            alignment=draw(st.floats()),
            # the first record is not failed and has k populations, so k columns
            populations=_arr(draw, k if i == 0 else draw(st.integers(0, k))),
            coeff_abs=_arr(draw, draw(st.integers(0, k))),
            failed=i > 0 and draw(st.booleans()), error="x"))
    return _hand_built(records)


def _same_bits(a, b):
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


class TestRoundTripProperty:
    @given(sweep_results())
    def test_every_value_round_trips_bit_for_bit(self, res):
        k = (len(record_columns(res)) - 6) // 2
        expected = np.zeros((len(res.records), 6 + 2 * k))
        for row, r in zip(expected, res.records):
            row[:6] = [r.p, r.sigma, r.j0, r.energy, r.orientation, r.alignment]
            row[6:6 + r.populations.size] = r.populations
            row[6 + k:6 + k + r.coeff_abs.size] = r.coeff_abs
        with tempfile.TemporaryDirectory() as d:
            write_records(res, d)
            _, d_csv = read_records_csv(Path(d) / "records.csv")
            _, d_json, _ = read_records_json(Path(d) / "records.json")
        assert _same_bits(d_csv, expected)
        assert _same_bits(d_json, expected)
