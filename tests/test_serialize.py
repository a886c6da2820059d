import json

import numpy as np
import pytest

from rotorkick import SweepGrid, run_sweep
from rotorkick.serialize import (
    read_records_csv,
    read_records_json,
    record_columns,
    write_records,
)


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
