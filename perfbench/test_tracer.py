"""The tracer sees every call in one process, accounts for all of cli.main's
time, restores the program afterwards and survives functions that are gone."""

import contextlib
import io
import sys

import pytest

import rotorkick
import rotorkick.cli
import rotorkick.sweep
from tracer import InlineExecutor, Tracer


def _small_sweep(tmp_path):
    # 40 points: enough for run_sweep to take its process-pool branch.
    argv = ["sweep", "--P", "1.5", "--sigma-min", "0.05", "--sigma-max", "2",
            "--sigma-step", "0.05", "--formats", "csv,json,svg", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert rotorkick.cli.main(argv) == 0
    return 40


def test_single_process_and_self_times_add_up(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        assert rotorkick.sweep.ProcessPoolExecutor is InlineExecutor
        points = _small_sweep(tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.calls["sweep.evaluate_point"] == points
    assert tracer.calls["cli.main"] == 1
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.incl_s["cli.main"], rel=1e-9)
    names = {s[0] for s in tracer.spans}
    assert {"serialize.write_records", "svgplot.emit_plot", "core.build_hamiltonian"} <= names


def test_uninstall_restores_the_program():
    before = (rotorkick.converge_basis, rotorkick.sweep.converge_basis, rotorkick.cli.main,
              rotorkick.sweep.ProcessPoolExecutor)
    tracer = Tracer()
    tracer.install()
    assert rotorkick.sweep.converge_basis is not before[1]
    tracer.uninstall()
    assert (rotorkick.converge_basis, rotorkick.sweep.converge_basis, rotorkick.cli.main,
            rotorkick.sweep.ProcessPoolExecutor) == before


def test_missing_module_and_function_read_zero(monkeypatch):
    monkeypatch.setitem(sys.modules, "rotorkick.kernels", None)     # module gone
    monkeypatch.delattr(rotorkick.sweep, "evaluate_point")          # function gone
    tracer = Tracer()
    names = tracer.install()
    try:
        assert "kernels.rk4_propagate" not in names
        assert "sweep.evaluate_point" not in names
        pulse = rotorkick.PulseSpec(strength=1.0, sigma=1.0)
        rotorkick.converge_basis(pulse, 0)
    finally:
        tracer.uninstall()
    assert tracer.calls.get("kernels.rk4_propagate", 0) == 0
    assert tracer.calls.get("sweep.evaluate_point", 0) == 0
    assert tracer.calls["propagate.converge_basis"] == 1
