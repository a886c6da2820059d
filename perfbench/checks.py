"""Checks of rotorkick's outputs against the independent reference and against
properties the method must have.  Every checker returns a list of findings;
an empty list means the output passed.

Tolerances (see README.md for their derivation):
  observables vs reference   1e-8   (100 x converge_basis's leak_tol = 1e-10)
  populations sum to 1       1e-12
  top-two-level population   1e-10  (leak_tol itself)
  spectral vs RK4 coefficients 1e-8, spectral norm drift 1e-12 (criterion 07)
  drop position vs sigma_n   0.05
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import reference

LEAK_TOL = 1e-10
OBS_TOL = 100 * LEAK_TOL
POP_SUM_TOL = 1e-12
RK4_TOL = 1e-8
NORM_DRIFT_TOL = 1e-12
DROP_TOL = 0.05
MAX_FINDINGS = 20

# Fixed columns of records.csv / records.json ahead of pop_* and c_abs_*.
P, SIGMA, J0, ENERGY, ORIENTATION, ALIGNMENT = range(6)


def read_sweep(outdir: Path) -> dict:
    """Parse a sweep's output directory with Python's own csv and json modules."""
    with open(outdir / "records.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(outdir / "records.json") as fh:
        doc = json.load(fh)
    return {"csv": rows, "json": doc, "failures_file": (outdir / "failures.json").exists()}


def _compare_observables(tag: str, got, want) -> list[str]:
    out = []
    for name, g, w in zip(("energy", "<cos>", "<cos^2>"), got, want):
        if not abs(g - w) <= OBS_TOL:
            out.append(f"{tag}: {name} {g!r} vs reference {w!r} (|diff| {abs(g - w):.3g} > {OBS_TOL:g})")
    return out


def check_sweep(out: dict, sample: list[int]) -> list[str]:
    """Records agree between CSV and JSON bit for bit, no point failed, every
    point's populations sum to 1, and the sampled points match the reference."""
    findings = []
    header, rows = out["csv"][0], out["csv"][1:]
    doc = out["json"]
    if header != doc["columns"]:
        findings.append("records.csv and records.json have different columns")
    if len(rows) != len(doc["records"]):
        findings.append(f"records.csv has {len(rows)} rows, records.json {len(doc['records'])}")
    for i, (crow, jrow) in enumerate(zip(rows, doc["records"])):
        if len(crow) != len(jrow) or any(float(a).hex() != float(b).hex()
                                         for a, b in zip(crow, jrow)):
            findings.append(f"record {i}: records.csv and records.json disagree")
    if out["failures_file"]:
        findings.append("failures.json was written: some points failed")
    pop_cols = [k for k, c in enumerate(header) if c.startswith("pop_")]
    vals = np.array([[float(v) for v in row] for row in rows])
    if vals.size and np.isnan(vals[:, ENERGY]).any():
        findings.append(f"{int(np.isnan(vals[:, ENERGY]).sum())} points have no energy (failed)")
    for i in np.flatnonzero(~(np.abs(vals[:, pop_cols].sum(axis=1) - 1.0) <= POP_SUM_TOL)):
        findings.append(f"record {i}: populations sum to {vals[i, pop_cols].sum()!r}")
    for i in sample:
        row = vals[i]
        want = reference.point(row[P], row[SIGMA], int(row[J0]))
        findings += _compare_observables(f"record {i} (P={row[P]}, sigma={row[SIGMA]})",
                                         row[[ENERGY, ORIENTATION, ALIGNMENT]], want)
    return findings[:MAX_FINDINGS]


def check_drops(doc: dict, p: float, expected: int = 3) -> list[str]:
    """Exactly `expected` drops, the n-th within DROP_TOL of sigma_n."""
    drops = sorted(float(d["sigma"]) for d in doc.get("drops", []))
    if len(drops) != expected:
        return [f"{len(drops)} drops reported, expected {expected}: {drops}"]
    findings = []
    for n, s in enumerate(drops, 1):
        want = reference.two_level_zero(p, n)
        if not abs(s - want) <= DROP_TOL:
            findings.append(f"drop {n} at sigma={s} is {abs(s - want):.3g} from sigma_{n}={want:.6f}")
    return findings


def surface_minima(energy: np.ndarray) -> set[tuple[int, int]]:
    """Interior strict 8-neighbour minima at or below the 1st percentile."""
    ceiling = np.percentile(energy, 1.0)
    found = set()
    for i in range(1, energy.shape[0] - 1):
        for j in range(1, energy.shape[1] - 1):
            v = energy[i, j]
            patch = energy[i - 1:i + 2, j - 1:j + 2].ravel()
            if v <= ceiling and np.sum(patch <= v) == 1:
                found.add((i, j))
    return found


def check_minima(out: dict) -> list[str]:
    """Every reported minimum, and only those, is a strict 8-neighbour minimum
    of the written energy surface below its 1st percentile."""
    rows = out["csv"][1:]
    p_vals = sorted({float(r[P]) for r in rows})
    s_vals = sorted({float(r[SIGMA]) for r in rows})
    if len(p_vals) * len(s_vals) != len(rows):
        return [f"{len(rows)} records do not form a {len(p_vals)} x {len(s_vals)} grid"]
    p_index = {v: i for i, v in enumerate(p_vals)}
    s_index = {v: i for i, v in enumerate(s_vals)}
    energy = np.full((len(p_vals), len(s_vals)), np.nan)
    for r in rows:
        energy[p_index[float(r[P])], s_index[float(r[SIGMA])]] = float(r[ENERGY])
    if np.isnan(energy).any():
        return ["the records do not cover the grid, or some energies are missing"]
    findings = []
    reported = set()
    for m in out["json"].get("minima", []):
        key = (p_index.get(float(m["P"])), s_index.get(float(m["sigma"])))
        if None in key:
            findings.append(f"minimum at P={m['P']}, sigma={m['sigma']} is not a grid point")
            continue
        reported.add(key)
    expected = surface_minima(energy)
    for i, j in sorted(reported - expected):
        findings.append(f"reported minimum at P={p_vals[i]}, sigma={s_vals[j]} is not a "
                        "strict 8-neighbour minimum below the 1st percentile")
    for i, j in sorted(expected - reported):
        findings.append(f"minimum at P={p_vals[i]}, sigma={s_vals[j]} was not reported")
    if not expected:
        findings.append("the surface has no minimum below its 1st percentile")
    return findings[:MAX_FINDINGS]


def check_points(results: list[dict], sample: list[int]) -> list[str]:
    """Every seeded call succeeded with a converged basis; sampled calls match
    the reference."""
    findings = []
    for i, r in enumerate(results):
        if r.get("error"):
            findings.append(f"call {i} (P={r['p']}, sigma={r['sigma']}, J0={r['j0']}) raised {r['error']}")
        elif not r["leak"] < LEAK_TOL:
            findings.append(f"call {i}: top-two-level population {r['leak']:.3g} >= {LEAK_TOL:g}")
    for i in sample:
        r = results[i]
        if r.get("error"):
            continue
        want = reference.point(r["p"], r["sigma"], r["j0"])
        findings += _compare_observables(f"call {i} (P={r['p']}, sigma={r['sigma']}, J0={r['j0']})",
                                         (r["energy"], r["orientation"], r["alignment"]), want)
    return findings[:MAX_FINDINGS]


def check_oracle(results: list[dict]) -> list[str]:
    """Spectral and RK4 agree, the spectral norm holds, and RK4's observables
    match the reference."""
    findings = []
    for i, r in enumerate(results):
        spec, rk4 = np.asarray(r["spectral"]), np.asarray(r["rk4"])
        tag = f"point {i} (P={r['p']}, sigma={r['sigma']})"
        diff = float(np.max(np.abs(spec - rk4)))
        if not diff <= RK4_TOL:
            findings.append(f"{tag}: |C_spectral - C_RK4| = {diff:.3g} > {RK4_TOL:g}")
        if not r["norm_drift"] < NORM_DRIFT_TOL:
            findings.append(f"{tag}: spectral norm drift {r['norm_drift']:.3g} >= {NORM_DRIFT_TOL:g}")
        padded = np.zeros(reference.N_LEVELS, dtype=np.complex128)
        padded[:rk4.size] = rk4
        want = reference.point(r["p"], r["sigma"], 0)
        findings += _compare_observables(f"{tag} RK4", reference.observables(padded), want)
    return findings[:MAX_FINDINGS]


def sample_indices(rng: np.random.Generator, n: int, k: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, size=min(k, n), replace=False))
