"""rotorkick benchmark: sweeps, single points and the RK4 oracle.

Run from the root of a rotorkick checkout; rotorkick is imported from ./src.

  python3 perfbench/run.py --workload fig2 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --trace 1   # every workload, traced too

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics (from a single-process traced run) with --trace 1.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "core.build_hamiltonian.calls": "count",
    "core.build_hamiltonian.self_s": "s",
    "core.build_cos_matrix.calls": "count",
    "core.build_cos_matrix.self_s": "s",
    "core.build_cos2_matrix.calls": "count",
    "core.build_cos2_matrix.self_s": "s",
    "core.self_s": "s",
    "propagate.converge_basis.calls": "count",
    "propagate.converge_basis.self_s": "s",
    "propagate.propagate_spectral.calls": "count",
    "propagate.propagate_spectral.self_s": "s",
    "propagate.spectral_useful_ratio": "ratio",
    "propagate.propagate_ode.calls": "count",
    "propagate.propagate_ode.self_s": "s",
    "propagate.rk4_steps_per_s": "1/s",
    "propagate.self_s": "s",
    "kernels.rk4_propagate.calls": "count",
    "kernels.rk4_propagate.self_s": "s",
    "kernels.self_s": "s",
    "observables.calls": "count",
    "observables.self_s": "s",
    "analytic.zero_loci.calls": "count",
    "analytic.zero_loci.self_s": "s",
    "analytic.self_s": "s",
    "sweep.run_sweep.self_s": "s",
    "sweep.evaluate_point.calls": "count",
    "sweep.evaluate_point.self_s": "s",
    "sweep.points_per_s": "1/s",
    "sweep.detect_drops.self_s": "s",
    "sweep.detect_surface_minima.self_s": "s",
    "sweep.fit_minima_line.self_s": "s",
    "sweep.j_max_mean": "count",
    "sweep.failed_points": "count",
    "sweep.self_s": "s",
    "serialize.write_records.self_s": "s",
    "serialize.bytes": "B",
    "serialize.mib_per_s": "MiB/s",
    "serialize.self_s": "s",
    "svgplot.emit_plot.calls": "count",
    "svgplot.emit_plot.self_s": "s",
    "svgplot.bytes": "B",
    "svgplot.self_s": "s",
    "cli.self_s": "s",
    "trace.total_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}

# Spans of these functions are reported one by one; the rest only in their layer's total.
SPAN_CALLS = ("core.build_hamiltonian", "core.build_cos_matrix", "core.build_cos2_matrix",
              "propagate.converge_basis", "propagate.propagate_spectral",
              "propagate.propagate_ode", "kernels.rk4_propagate", "analytic.zero_loci",
              "sweep.evaluate_point", "svgplot.emit_plot")
SPAN_SELF = SPAN_CALLS + ("sweep.run_sweep", "sweep.detect_drops", "sweep.detect_surface_minima",
                          "sweep.fit_minima_line", "serialize.write_records")

SETUP_CODE = """\
import sys
sys.path.insert(0, "src")
import rotorkick as rk
pulse = rk.PulseSpec(strength={p!r}, sigma={sigma!r})
basis = rk.converge_basis(pulse, {j0})
psi = rk.propagate_spectral(pulse, {j0}, basis).final
rk.compute_all(psi, rk.build_cos_matrix(basis), rk.build_cos2_matrix(basis))
"""


def import_rotorkick():
    """Import rotorkick from this checkout's src/, never from an installed copy."""
    if not (SRC / "rotorkick" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC}/rotorkick not found; run from the root of a rotorkick checkout")
    sys.path.insert(0, str(SRC))
    import rotorkick
    if Path(rotorkick.__file__).resolve().parent != (SRC / "rotorkick").resolve():
        raise SystemExit(f"error: imported rotorkick from {rotorkick.__file__}, not from {SRC}")
    return rotorkick


def environment() -> dict:
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    blas = {k: v for k, v in os.environ.items()
            if k.endswith("_NUM_THREADS") or k in ("VECLIB_MAXIMUM_THREADS", "OPENBLAS_CORETYPE")}
    return {
        "python": platform.python_version(),
        **versions,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas,
        "machine": platform.machine(),
    }


def time_setup(point: tuple[float, float, int]) -> float:
    """Wall time of a fresh process that imports rotorkick and evaluates one point."""
    p, sigma, j0 = point
    code = SETUP_CODE.format(p=p, sigma=sigma, j0=j0)
    # No timeout: with one, Popen.wait polls in steps of up to 50 ms,
    # which would quantise the measured time.
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_passes(workload, seconds: float, before=None, after=None) -> list:
    """Whole passes until `seconds` have gone by, and at least MIN_PASSES."""
    passes = []
    t0 = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - t0 < seconds:
        if before is not None:
            before()
        passes.append(workload.run_pass())
        if after is not None:
            after(passes[-1])
    return passes


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    return ordered[-(-len(ordered) * q // 100) - 1]


def call_times(passes: list) -> tuple[list[float], float]:
    """The time of each timed call of a pass, and of the whole pass, over a run.

    Every pass makes the same calls in the same order.  A pass of many short
    calls (points) takes each call at its fastest, and the pass as their sum:
    the host's fast moments last longer than a call, so every run sees them.
    A pass of one call of a second or more (the sweeps, oracle) is the median
    pass: no fast moment holds a whole call, and the fastest pass depends on
    whether a run happened to meet a quiet stretch of the host.
    """
    if len(passes[0].call_s) > 1:
        calls = [min(c) for c in zip(*(p.call_s for p in passes))]
        return calls, sum(calls)
    wall_s = statistics.median(p.wall_s for p in passes)
    return [statistics.median(p.call_s[0] for p in passes)], wall_s


def end_to_end(workload, seconds: float) -> tuple[dict, list, list[str]]:
    """Timings of each call and of a pass (see call_times), and the median
    of SETUP_REPEATS set-up processes spread evenly over the run."""
    setups: list[float] = []
    children_kib: list[int] = []
    t0 = perf_counter()

    def after(_):
        if not children_kib:    # pool workers so far, no set-up process yet
            children_kib.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        while len(setups) < SETUP_REPEATS and perf_counter() - t0 >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(time_setup(workload.first_point))

    passes = run_passes(workload, seconds, after=after)
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup(workload.first_point))
    rss_mib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kib[0]) / 1024.0
    findings = [f for p in passes for f in p.findings] + workload.check()
    calls, wall_s = call_times(passes)
    p50 = statistics.median(calls)
    # 1000 calls leave ten beyond the 99th percentile; with fewer there is no tail.
    p99 = percentile(calls, 99) if len(calls) >= 1000 else p50
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "call_p50_us": p50 * 1e6,
        "call_p99_us": p99 * 1e6,
        "peak_rss_mib": rss_mib,
    }
    return metrics, passes, findings


def traced(workload, seconds: float, rotorkick) -> tuple[dict, list, list[str]]:
    """Per-layer metrics of the median pass (by wall time) of a single-process traced run."""
    tracer = Tracer()
    tracer.install()
    per_pass, marks, findings = [], [], []

    def before():
        tracer.reset()
        marks[:] = [cpu_s(resource.RUSAGE_SELF), cpu_s(resource.RUSAGE_CHILDREN)]

    def after(p):
        self_cpu = cpu_s(resource.RUSAGE_SELF) - marks[0]
        if cpu_s(resource.RUSAGE_CHILDREN) != marks[1]:
            findings.append("a traced pass ran work in child processes, which the tracer cannot see")
        elif not self_cpu >= 0.5 * p.wall_s:
            findings.append(f"a traced pass used {self_cpu:.3f} s of CPU in {p.wall_s:.3f} s: "
                            "its work ran outside this process")
        per_pass.append(layer_metrics(tracer, p, workload, rotorkick))

    try:
        passes = run_passes(workload, seconds, before=before, after=after)
    finally:
        tracer.uninstall()
    tracer.dump(workload.workdir / "spans.tsv")
    findings = sorted(set(findings)) + [f for p in passes for f in p.findings] + workload.check()
    for key in ("sweep.j_max_mean", "sweep.failed_points") + tuple(f"{n}.calls" for n in SPAN_CALLS):
        if len({m[key] for m in per_pass}) != 1:
            findings.append(f"{key} differs between passes of one run")
    by_wall = sorted(range(len(passes)), key=lambda i: passes[i].wall_s)
    return per_pass[by_wall[(len(by_wall) - 1) // 2]], passes, findings


def layer_metrics(tracer, p, workload, rotorkick) -> dict:
    m = {}
    for name in SPAN_CALLS:
        m[f"{name}.calls"] = tracer.calls.get(name, 0)
    for name in SPAN_SELF:
        m[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    layer_calls, layer_self = tracer.layer_totals()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    m["observables.calls"] = layer_calls.get("observables", 0)
    spectral = tracer.calls.get("propagate.propagate_spectral", 0)
    m["propagate.spectral_useful_ratio"] = workload.n_points / spectral if spectral else 0.0
    ode_s = tracer.incl_s.get("propagate.propagate_ode", 0.0)
    steps = _default_steps(rotorkick)
    m["propagate.rk4_steps_per_s"] = tracer.calls.get("propagate.propagate_ode", 0) * steps / ode_s if ode_s else 0.0
    sweep_s = tracer.incl_s.get("sweep.run_sweep", 0.0)
    m["sweep.points_per_s"] = workload.n_points / sweep_s if sweep_s else 0.0
    records = getattr(tracer.sweep_result, "records", [])
    j_max = [r.j_max for r in records if not r.failed]
    m["sweep.j_max_mean"] = sum(j_max) / len(j_max) if j_max else 0.0
    m["sweep.failed_points"] = sum(1 for r in records if r.failed)
    out = workload.workdir / "out"
    files = list(out.iterdir()) if out.exists() else []
    m["serialize.bytes"] = sum(f.stat().st_size for f in files if f.suffix in (".csv", ".json"))
    m["svgplot.bytes"] = sum(f.stat().st_size for f in files if f.suffix == ".svg")
    write_s = tracer.incl_s.get("serialize.write_records", 0.0)
    m["serialize.mib_per_s"] = m["serialize.bytes"] / 2**20 / write_s if write_s else 0.0
    m["trace.total_s"] = p.wall_s
    m["trace.unattributed_s"] = p.wall_s - sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.spans"] = len(tracer.spans)
    return m


def _default_steps(rotorkick) -> int:
    ode = getattr(rotorkick, "propagate_ode", None)
    steps = inspect.signature(ode).parameters.get("steps") if ode is not None else None
    return steps.default if steps is not None else 0


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    rotorkick = import_rotorkick()
    print(json.dumps({"environment": environment()}), flush=True)
    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, workdir)
    workload.warm_up()
    if trace:
        metrics, passes, findings = traced(workload, seconds, rotorkick)
        units = PER_LAYER
    else:
        metrics, passes, findings = end_to_end(workload, seconds)
        units = END_TO_END
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for finding in findings:
        print(f"check failed: {finding}", file=sys.stderr)
    print(f"{name}: seed {seed}, {len(passes)} passes, {attempted} operations attempted, "
          f"{failed} failed, outputs {'correct' if not findings else 'WRONG'}")
    for key, unit in units.items():
        print(f"  {key:40s} {metrics[key]:.6g} {unit}")
    print(json.dumps({"correct": not findings, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict]:
    """Run one workload in a fresh process; return its report lines and its result object."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{name} (seed {seed}, trace {int(trace)}): exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    return lines[1:-1], json.loads(lines[-1])


def print_table(units: dict, rows: dict) -> None:
    print(f"\n{'metric':40s} {'unit':8s}" + "".join(f"{n:>14s}" for n in rows))
    for key, unit in units.items():
        print(f"{key:40s} {unit:8s}" + "".join(f"{r['metrics'][key]['value']:14.6g}" for r in rows.values()))
    for label in ("attempted", "failed", "correct"):
        print(f"{label:49s}" + "".join(f"{str(r[label]):>14s}" for r in rows.values()))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process of its own, then one table.  With
    trace, also every workload's traced run, and its total beside wall_s."""
    print(json.dumps({"environment": environment()}))
    plain, traced_rows = {}, {}
    for name in WORKLOADS:
        report, plain[name] = run_workload(name, seed, seconds, False)
        print("\n".join(report))
        if trace:
            report, traced_rows[name] = run_workload(name, seed, seconds, True)
            print("\n".join(report))
    print_table(END_TO_END, plain)
    if trace:
        print_table(PER_LAYER, traced_rows)
        print(f"{'trace.total_s / untraced wall_s':49s}" + "".join(
            f"{traced_rows[n]['metrics']['trace.total_s']['value'] / plain[n]['metrics']['wall_s']['value']:14.3f}"
            for n in plain))
    results = [*plain.values(), *traced_rows.values()]
    print(json.dumps({"end_to_end": plain, "per_layer": traced_rows}))
    return 0 if all(r["correct"] for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
