import csv
import functools
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rotorkick.cli as cli
import rotorkick.serialize
from rotorkick import (
    PulseSpec,
    SweepGrid,
    build_cos2_matrix,
    build_cos_matrix,
    compute_all,
    converge_basis,
    propagate_spectral,
    run_sweep,
    zero_loci,
)
from rotorkick.serialize import (
    FLOAT_FMT,
    _f,
    _row_blocks,
    read_records_csv,
    read_records_json,
    record_columns,
    timestamp,
    write_csv,
    write_records,
)
from rotorkick.sweep import PointRecord, SweepResult, axis
from rotorkick.validate import CheckResult


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


def _propagate_files():
    pulse = PulseSpec(strength=1.5, sigma=3.044)
    basis = converge_basis(pulse, 0)
    psi = propagate_spectral(pulse, 0, basis).final
    obs = compute_all(psi, build_cos_matrix(basis), build_cos2_matrix(basis))
    c = psi.coefficients
    return {"propagate.csv": (["J", "re", "im", "population"],
                              np.column_stack((np.arange(basis.dim), c.real, c.imag,
                                               obs.populations))),
            "propagate.json": {"j_max": basis.j_max, "kinetic_energy": obs.kinetic_energy,
                               "orientation": obs.orientation, "alignment": obs.alignment,
                               "coefficients_re": c.real.tolist(),
                               "coefficients_im": c.imag.tolist(),
                               "populations": obs.populations.tolist()}}


def _analytic_files():
    loci = zero_loci(0, 1.5, 3)
    return {"zero_loci.csv": (["n", "sigma_exact", "sigma_taylor"],
                              [(z.n, z.sigma_exact, z.sigma_taylor) for z in loci]),
            "zero_loci.json": {"loci": [{"n": z.n, "sigma_exact": z.sigma_exact,
                                         "sigma_taylor": z.sigma_taylor} for z in loci]}}


def _sweep_files(res):
    files = dict.fromkeys(("records.csv", "records.json"), (record_columns(res), res.table))
    for name, loci in (("drops.csv", res.drop_loci), ("minima.csv", res.minima_2d)):
        if loci:
            files[name] = (["P", "sigma", "energy"], loci)
    if res.errors:
        files["failures.json"] = [{"P": r.p, "sigma": r.sigma, "error": r.error}
                                  for r in res.failures()]
    return files


def _last_point_failed(grid, drop_rel_threshold=0.10):
    """A sweep of one P whose last point failed: a real first point and a hand-made failure."""
    first = run_sweep(SweepGrid(grid.p_values, grid.sigma_values[:1])).records[0]
    return SweepResult(grid, records=[first, PointRecord(
        p=grid.p_values[0], sigma=grid.sigma_values[-1], j0=grid.j0, j_max=-1, energy=math.nan,
        orientation=math.nan, alignment=math.nan, populations=np.array([]),
        coeff_abs=np.array([]), failed=True, error="basis did not converge")])


# a check's comparisons may give a numpy bool, which json cannot write
_CHECKS = [CheckResult("stub-pass", True, "ok"), CheckResult("stub-fail", False, "bad 1.5"),
           CheckResult("numpy-bool", np.float64(1.0) > 0.5, "ok")]
_SURFACE_ARGS = ["--P-min", "4.1", "--P-max", "7.2", "--P-step", "0.1",
                 "--sigma-min", "5.7", "--sigma-max", "8.8", "--sigma-step", "0.1"]

# Each CLI run: its argv, the cli names it replaces by stubs, and the values
# each file it writes must read back as, computed in-process.
CLI_RUNS = {
    "propagate": (["propagate", "--P", "1.5", "--sigma", "3.044"], {}, _propagate_files),
    "analytic": (["analytic", "--P", "1.5", "--n-max", "3"], {}, _analytic_files),
    "sweep": (["sweep"] + _SURFACE_ARGS, {}, lambda: _sweep_files(run_sweep(
        SweepGrid.from_ranges(axis("P", 4.1, 7.2, 0.1), 5.7, 8.8, 0.1)))),
    "failed_sweep": (["sweep", "--P", "1.5", "--sigma-min", "1", "--sigma-max", "1.5",
                      "--sigma-step", "0.5"], {"run_sweep": _last_point_failed},
                     lambda: _sweep_files(_last_point_failed(SweepGrid((1.5,), (1.0, 1.5))))),
    "validate": (["validate"], {"run_acceptance": lambda **kw: _CHECKS}, lambda: {
        "validate.json": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                          for c in _CHECKS]}),
}


class TestCliFiles:
    """Every CSV and JSON file the CLI writes reads back as the values it was
    written from, bit for bit; every CSV is csv.writer's CRLF layout of
    FLOAT_FMT cells."""

    def test_runs_cover_every_file(self):
        names = {name for *_, files in CLI_RUNS.values() for name in files()}
        assert names == {"propagate.csv", "propagate.json", "zero_loci.csv", "zero_loci.json",
                         "records.csv", "records.json", "drops.csv", "minima.csv",
                         "failures.json", "validate.json"}

    @pytest.mark.parametrize("run", sorted(CLI_RUNS))
    def test_files_read_back_bit_for_bit(self, run, tmp_path, monkeypatch):
        argv, stubs, files = CLI_RUNS[run]
        for name, stub in stubs.items():
            monkeypatch.setattr(cli, name, stub)
        assert cli.main(argv + ["--formats", "csv,json", "--out", str(tmp_path)]) in (0, 2, 3)
        want = files()
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix in (".csv", ".json")) == (
            sorted(want))
        for name, value in want.items():
            path = tmp_path / name
            if name == "records.json":
                cols, data, _ = read_records_json(path)
            elif name.endswith(".csv"):
                cols, data = read_records_csv(path)
                layout = io.StringIO(newline="")
                csv.writer(layout).writerows([cols] + [[_f(v) for v in row] for row in data])
                assert path.read_bytes() == layout.getvalue().encode(), name
            else:
                doc = json.loads(path.read_text())
                assert (doc == value if isinstance(value, list)
                        else {k: doc[k] for k in value} == value), name
                continue
            assert cols == list(value[0]), name
            assert _same_bits(data, np.asarray(value[1], dtype=float).reshape(-1, len(cols))), name


class TestReproducibility:
    def test_byte_identical_with_source_date_epoch(self, result, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        write_records(result, tmp_path / "a")
        write_records(result, tmp_path / "b")
        for name in ("records.csv", "records.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        doc = json.loads((tmp_path / "a" / "records.json").read_text())
        assert doc["metadata"]["timestamp"] == "2023-11-14T22:13:20Z"

    @pytest.mark.parametrize("epoch", ["abc", "1e3", "1.5", " ", "99999999999999999999"])
    def test_malformed_source_date_epoch_writes_no_file(self, epoch, result, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        with pytest.raises(ValueError, match="^SOURCE_DATE_EPOCH must be a whole number of "
                                             f"seconds, got '{epoch}'$"):
            write_records(result, tmp_path)
        assert not any(tmp_path.iterdir())


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
                            "timestamp": timestamp()},
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
    @given(st.lists(st.floats(), max_size=40), st.integers(1, 4))
    def test_write_csv_round_trips_bit_for_bit(self, values, n_cols):
        rows = np.array(values[:len(values) - len(values) % n_cols]).reshape(-1, n_cols)
        header = [f"c{j}" for j in range(n_cols)]
        # three-row blocks, so that a few rows span several "%" calls
        with tempfile.TemporaryDirectory() as d, mock.patch.object(
                rotorkick.serialize, "BLOCK_ROWS", 3):
            path = write_csv(Path(d) / "t.csv", header, rows)
            cols, data = read_records_csv(path)
        assert cols == header
        assert _same_bits(data, rows)

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


def reference_blocks(table, block_rows=256):
    """The renderer the cell kernel replaced: CSV lines by one "%" call a block,
    and records.json's rows from the same text by two replacements."""
    row_fmt = ",".join(["%.17g"] * table.shape[1])
    for start in range(0, len(table), block_rows):
        block = table[start:start + block_rows]
        text = "\r\n".join([row_fmt] * len(block)) % tuple(block.ravel().tolist())
        yield (text + "\r\n").encode(), (("," if start else "") + '\n  [\n   "' + text.replace(
            ",", '",\n   "').replace("\r\n", '"\n  ],\n  [\n   "') + '"\n  ]').encode()


def _kernel_matches_reference(values, n_cols=1):
    table = np.asarray(values, dtype=float).reshape(-1, n_cols)
    new = list(_row_blocks(table, as_csv=True, as_json=True))
    ref = list(reference_blocks(table))
    for (csv_new, json_new), (csv_ref, json_ref) in zip(new, ref):
        assert csv_new == csv_ref
        assert json_new == json_ref
    assert len(new) == len(ref)


class TestCellKernel:
    """The numpy %.17g kernel gives the bytes "%" gives, for any float64."""

    @given(st.lists(st.floats() | st.integers(0, 2**64 - 1).map(
        lambda n: float(np.frombuffer(n.to_bytes(8, "little"), np.float64)[0])),
        min_size=1, max_size=24), st.integers(1, 3))
    def test_any_floats_give_the_reference_bytes(self, values, n_cols):
        _kernel_matches_reference(values[:len(values) - len(values) % n_cols] or [0.0] * n_cols,
                                  n_cols)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(19).integers(0, 2**64, 100_000, dtype=np.uint64,
                                                  endpoint=False)
        _kernel_matches_reference(bits.view(np.float64), 4)

    def test_near_every_power_of_ten(self):
        # where log10 can be one off and the rounding can carry into a new digit
        powers = 10.0 ** np.arange(-101, 102)
        _kernel_matches_reference(np.concatenate(
            [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers]))

    @pytest.mark.parametrize("x, text", [
        (1234567890123456.75, "1234567890123456.8"),      # an exact tie, rounded to even
        (1234567890123457.25, "1234567890123457.2"),      # and one rounded down to even
        (9.9999999999999995e-05, "9.9999999999999991e-05"),
        (1e-4, "0.0001"),                                 # the last fixed value
        (1e-5, "1.0000000000000001e-05"),
        (0.1, "0.10000000000000001"),
        (123.0, "123"),
        (1e16, "10000000000000000"),
        (99999999999999999.0, "1e+17"),
        (1e100, "1e+100"),                                # a three-digit exponent
        (5e-324, "4.9406564584124654e-324"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        (-1.7976931348623157e308, "-1.7976931348623157e+308"),
        (-0.0, "-0"),
        (0.0, "0"),
        (math.nan, "nan"),
        (-math.inf, "-inf"),
    ])
    def test_named_values(self, x, text):
        assert text == FLOAT_FMT % x
        (csv_text, json_text), = _row_blocks(np.array([[x]]), as_csv=True, as_json=True)
        assert csv_text == text.encode() + b"\r\n"
        assert json_text == b'\n  [\n   "' + text.encode() + b'"\n  ]'


class TestWriteCsv:
    def test_rows_of_the_wrong_width_write_nothing(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="^the header is 3 wide but the rows are 2$"):
            write_csv(path, ["a", "b", "c"], [[1, 2], [3, 4], [5, 6]])
        with pytest.raises(ValueError, match=r"^the header is 2 wide but the rows are shaped \(2,\)$"):
            write_csv(path, ["a", "b"], [1, 2])
        assert not path.exists()

    def test_no_rows_write_the_header_alone(self, tmp_path):
        for rows in ([], np.zeros((0, 3))):
            path = write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
            assert path.read_bytes() == b"a,b,c\r\n"
