"""Command-line interface: propagate | sweep | analytic | validate.

Exit codes: 0 success, 1 usage error, 2 numeric/convergence failure,
3 validation failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import numpy as np

from .analytic import existence_threshold, zero_loci
from .core import PulseSpec, RotorBasis, build_cos2_matrix, build_cos_matrix
from .observables import compute_all
from .propagate import ConvergenceError, converge_basis, propagate_ode, propagate_spectral
from .serialize import timestamp, write_csv, write_json, write_records
from .svgplot import PlotKind, emit_plot
from .sweep import SweepGrid, axis, compare_drops_to_analytic, run_sweep
from .validate import run_acceptance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str
    options: dict = field(default_factory=dict)

    def echo_lines(self) -> list[str]:
        return [f"command={self.command}"] + [
            f"{key}={val}" for key, val in sorted(self.options.items()) if val is not None]


def _build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="rotorkick",
                     description="Polar rigid rotor driven by a rectangular electric pulse")
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p):
        p.add_argument("--out", default="rotorkick_out", help="output directory")
        p.add_argument("--formats", default="csv,json",
                       help="comma-separated subset of csv,json,svg")

    p = sub.add_parser("propagate", help="propagate one (P, sigma) point")
    p.add_argument("--P", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--j0", type=int, default=0)
    p.add_argument("--method", choices=["spectral", "rk4"], default="spectral")
    p.add_argument("--steps", type=int, default=100_000, help="RK4 step count")
    p.add_argument("--j-max", type=int, default=0, help="fixed basis size; 0 = auto-converge")
    p.add_argument("--leak-tol", type=float, default=1e-10)
    common(p)

    p = sub.add_parser("sweep", help="sweep sigma (and optionally P)")
    p.add_argument("--P", type=float, help="fixed pulse strength (1-D sweep)")
    p.add_argument("--P-min", type=float)
    p.add_argument("--P-max", type=float)
    p.add_argument("--P-step", type=float)
    p.add_argument("--sigma-min", type=float)
    p.add_argument("--sigma-max", type=float)
    p.add_argument("--sigma-step", type=float)
    p.add_argument("--j0", type=int, default=0)
    p.add_argument("--basis", choices=["auto", "fixed"], default="auto")
    p.add_argument("--j-max", type=int, default=9, help="basis size for --basis fixed")
    p.add_argument("--leak-tol", type=float, default=1e-10)
    p.add_argument("--drop-threshold", type=float, default=0.10,
                   help="relative depth for drop detection")
    common(p)

    p = sub.add_parser("analytic", help="two-level zero loci and thresholds")
    p.add_argument("--P", type=float)
    p.add_argument("--j0", type=int, choices=[0, 1], default=0)
    p.add_argument("--n-max", type=int, default=5)
    common(p)

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true",
                   help="skip the surface scan")
    p.add_argument("--seed", type=int, default=12345)
    common(p)
    return parser, dict(sub.choices)


def _read_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


def parse_config(argv: list[str]) -> RunConfig:
    """Parse CLI arguments, merging in an optional key=value config file.

    Flags override config-file keys; unknown config keys are rejected.
    """
    parser, sub_map = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        raise UsageError("a subcommand is required (propagate | sweep | analytic | validate)")
    options = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    if ns.config:
        file_vals = _read_config_file(ns.config)
        actions = {a.dest: a for a in sub_map[ns.command]._actions if a.dest != "help"}
        unknown = set(file_vals) - set(actions)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        # apply file values only where the flag was left at its default
        explicit = _explicit_dests(argv)
        options.update({key: _coerce(val, actions[key])
                        for key, val in file_vals.items() if key not in explicit})
    _validate_options(ns.command, options)
    return RunConfig(command=ns.command, options=options)


def _explicit_dests(argv: list[str]) -> set[str]:
    return {tok[2:].split("=", 1)[0].replace("-", "_") for tok in argv if tok.startswith("--")}


def _coerce(text: str, action: argparse.Action):
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        return text.lower() in ("1", "true", "yes")
    if action.type is not None:
        try:
            return action.type(text)
        except ValueError as exc:
            raise UsageError(f"bad value for config key {action.dest}: {text!r}") from exc
    return text


def _validate_options(command: str, opt: dict) -> None:
    def positive(key):
        if opt.get(key) is not None and not 0 < opt[key] < math.inf:
            raise UsageError(f"--{key.replace('_', '-')} must be finite and > 0")

    def require(*keys):
        missing = [k for k in keys if opt.get(k) is None]
        if missing:
            flags = ", ".join("--" + k.replace("_", "-") for k in missing)
            raise UsageError(f"required (by flag or config file): {flags}")

    if command in ("propagate", "sweep", "analytic"):
        for key in ("P", "P_min", "P_max"):
            if opt.get(key) is not None and not 0 <= opt[key] < math.inf:
                raise UsageError(f"--{key.replace('_', '-')} must be finite and >= 0")
    if command == "propagate":
        require("P", "sigma")
        positive("sigma")
        positive("steps")
        if opt["j_max"] < 0:
            raise UsageError("--j-max must be >= 0")
    if command == "sweep":
        require("sigma_min", "sigma_max", "sigma_step")
        for key in ("sigma_min", "sigma_max", "sigma_step", "P_step"):
            positive(key)
        two_d = any(opt.get(k) is not None for k in ("P_min", "P_max", "P_step"))
        if two_d and not all(opt.get(k) is not None for k in ("P_min", "P_max", "P_step")):
            raise UsageError("2-D sweeps need all of --P-min, --P-max, --P-step")
        if two_d and opt.get("P") is not None:
            raise UsageError("--P conflicts with --P-min/--P-max/--P-step")
        if not two_d and opt.get("P") is None:
            raise UsageError("either --P or the --P-min/--P-max/--P-step triple is required")
        if not 0 < opt["drop_threshold"] < 1:
            raise UsageError("--drop-threshold must be in (0, 1)")
    if command == "analytic":
        require("P")
        if opt["n_max"] < 1:
            raise UsageError("--n-max must be >= 1")
    fmts = set(opt.get("formats", "csv,json").split(","))
    if not fmts <= {"csv", "json", "svg"}:
        raise UsageError(f"unknown output formats: {', '.join(sorted(fmts - {'csv', 'json', 'svg'}))}")


def _echo_config(cfg: RunConfig, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config_echo.txt").write_text("\n".join(cfg.echo_lines()) + "\n")


def _cmd_propagate(cfg: RunConfig) -> int:
    opt = cfg.options
    outdir = Path(opt["out"])
    _echo_config(cfg, outdir)
    pulse = PulseSpec(strength=opt["P"], sigma=opt["sigma"])
    basis = (RotorBasis(j_max=opt["j_max"]) if opt["j_max"] > 0
             else converge_basis(pulse, opt["j0"], leak_tol=opt["leak_tol"]))
    if opt["method"] == "rk4":
        report = propagate_ode(pulse, opt["j0"], basis, steps=opt["steps"])
    else:
        report = propagate_spectral(pulse, opt["j0"], basis)
    psi = report.final
    obs = compute_all(psi, build_cos_matrix(basis), build_cos2_matrix(basis))
    doc = {
        "P": pulse.strength, "sigma": pulse.sigma, "eta": pulse.eta,
        "j0": opt["j0"], "j_max": basis.j_max, "method": report.method.value,
        "norm_drift": report.norm_drift, "basis_leak": report.basis_leak,
        "kinetic_energy": obs.kinetic_energy,
        "orientation": obs.orientation, "alignment": obs.alignment,
        "coefficients_re": psi.coefficients.real.tolist(),
        "coefficients_im": psi.coefficients.imag.tolist(),
        "populations": obs.populations.tolist(),
    }
    fmts = opt["formats"].split(",")
    if "json" in fmts:
        write_json(outdir / "propagate.json", doc)
    if "csv" in fmts:
        write_csv(outdir / "propagate.csv", ["J", "re", "im", "population"], np.column_stack((
            basis.j_values(), psi.coefficients.real, psi.coefficients.imag, obs.populations)))
    if "svg" in fmts:
        emit_plot(None, PlotKind.POLAR_DENSITY, outdir / "polar_density.svg", psi=psi)
    print(f"E={obs.kinetic_energy:.6g}  <cos>={obs.orientation:.6g}  "
          f"<cos^2>={obs.alignment:.6g}  (j_max={basis.j_max})")
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig) -> int:
    opt = cfg.options
    outdir = Path(opt["out"])
    p = (opt["P"] if opt.get("P_min") is None
         else axis("P", opt["P_min"], opt["P_max"], opt["P_step"]))
    grid = SweepGrid.from_ranges(p, opt["sigma_min"], opt["sigma_max"], opt["sigma_step"],
                                 j0=opt["j0"], basis_mode=opt["basis"],
                                 j_max=opt["j_max"], leak_tol=opt["leak_tol"])
    timestamp()     # a malformed SOURCE_DATE_EPOCH fails here, before any file is written
    _echo_config(cfg, outdir)
    result = run_sweep(grid, drop_rel_threshold=opt["drop_threshold"])
    fmts = tuple(opt["formats"].split(","))
    write_records(result, outdir, formats=fmts, metadata=dict(cfg.options))
    if "svg" in fmts:
        kinds = ((PlotKind.SURFACE_HEATMAP,) if len(grid.p_values) >= 2 else
                 (PlotKind.ENERGY_VS_SIGMA, PlotKind.COEFFS_VS_SIGMA, PlotKind.ORIENTATION,
                  PlotKind.ALIGNMENT))
        for kind in kinds:
            emit_plot(result, kind, outdir / f"{kind.value}.svg")
    n_fail = len(result.errors)
    print(f"{len(result.table)} points "
          f"({n_fail} failed), {len(result.drop_loci)} drops, "
          f"{len(result.minima_2d)} surface minima -> {outdir}")
    if result.drop_loci and len(grid.p_values) == 1 and grid.j0 in (0, 1):
        for row in compare_drops_to_analytic([s for _, s, _ in result.drop_loci],
                                             grid.p_values[0], grid.j0):
            if row["matched"]:
                print(f"  drop at sigma={row['sigma_drop']:.4g} vs analytic "
                      f"{row['sigma_analytic']:.4g} (n={row['n']}, "
                      f"delta={row['delta']:+.4g})")
            else:
                print(f"  drop at sigma={row['sigma_drop']:.4g}: no analytic root nearby")
    if n_fail:
        print(f"warning: {n_fail} grid points failed basis convergence", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_analytic(cfg: RunConfig) -> int:
    opt = cfg.options
    outdir = Path(opt["out"])
    _echo_config(cfg, outdir)
    loci = zero_loci(opt["j0"], opt["P"], opt["n_max"])
    thr = existence_threshold(opt["j0"])
    print(f"J0={opt['j0']}  P={opt['P']:g}  existence threshold P < {thr:.4f}")
    print("  n   sigma_exact   sigma_taylor")
    for z in loci:
        print(f"  {z.n:<3d} {z.sigma_exact:<13.6f} {z.sigma_taylor:<13.6f}")
    if not loci:
        print("  (no real roots in range)")
    if "json" in opt["formats"].split(","):
        write_json(outdir / "zero_loci.json", {"j0": opt["j0"], "P": opt["P"],
                                               "existence_threshold": thr,
                                               "loci": [asdict(z) for z in loci]})
    if "csv" in opt["formats"].split(","):
        write_csv(outdir / "zero_loci.csv", ["n", "sigma_exact", "sigma_taylor"],
                  [astuple(z) for z in loci])
    return EXIT_OK


def _cmd_validate(cfg: RunConfig) -> int:
    opt = cfg.options
    outdir = Path(opt["out"])
    _echo_config(cfg, outdir)
    checks = run_acceptance(quick=opt["quick"], seed=opt["seed"])
    for c in checks:
        print(c.line())
    n_fail = sum(not c.passed for c in checks)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    write_json(outdir / "validate.json", [asdict(c) for c in checks])
    return EXIT_OK if n_fail == 0 else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        handler = {"propagate": _cmd_propagate, "sweep": _cmd_sweep,
                   "analytic": _cmd_analytic, "validate": _cmd_validate}[cfg.command]
        return handler(cfg)
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
