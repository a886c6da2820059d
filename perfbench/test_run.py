"""BENCHMARK.json matches what run.py reports, run.py refuses to run without
the program's sources, and the traced run notices work outside its process."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import run
from workloads import WORKLOADS, Pass

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in SPEC["end_to_end"])


def test_percentile():
    values = [float(i) for i in range(1000, 0, -1)]
    assert run.percentile(values, 99) == 990.0      # ten values lie beyond it
    assert run.percentile(values, 50) == 500.0
    assert run.percentile([3.0], 99) == 3.0


def test_call_times():
    short = [Pass(1.0, [0.3, 0.5], 2, 0), Pass(1.0, [0.4, 0.2], 2, 0), Pass(1.0, [0.6, 0.9], 2, 0)]
    assert run.call_times(short) == ([0.3, 0.2], 0.5)          # each call at its fastest
    long = [Pass(w, [w - 0.1], 1, 0) for w in (2.0, 1.0, 4.0, 3.0, 1.5)]
    assert run.call_times(long) == ([1.9], 2.0)                # the median pass


class _Busy:
    """A workload whose pass burns CPU, in this process or in a child."""

    n_points = 1

    def __init__(self, workdir, in_child):
        self.workdir, self.in_child = workdir, in_child

    def run_pass(self):
        t0 = perf_counter()
        if self.in_child:
            subprocess.run([sys.executable, "-c", "sum(range(5 * 10**6))"], check=True)
        else:
            sum(range(5 * 10**6))
        return Pass(perf_counter() - t0, [], 1, 0)

    def check(self):
        return []


@pytest.mark.parametrize("in_child", [False, True])
def test_traced_run_notices_work_in_child_processes(tmp_path, in_child):
    import rotorkick
    _, _, findings = run.traced(_Busy(tmp_path, in_child), 0.0, rotorkick)
    assert any("child processes" in f for f in findings) == in_child


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fig2", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
