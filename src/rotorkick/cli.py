"""Command-line interface: propagate | sweep | analytic | validate.

Exit codes: 0 success, 1 usage error or out of memory, 2 numeric/convergence
failure, 3 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import numpy as np

from .analytic import existence_threshold, zero_loci
from .core import (_J_MAX_LIMIT, _N_MAX_CAP, PulseSpec, RotorBasis, build_cos2_matrix,
                   build_cos_matrix)
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


class _Subcommands(argparse._SubParsersAction):
    """Reads the --config file's lines as flags after the subcommand and before the given
    ones: one parser checks both alike, and a given flag, abbreviated or not, wins."""

    def __call__(self, parser, namespace, args, option_string=None):
        if namespace.config:
            args = [args[0], *_config_flags(namespace.config, self.choices[args[0]]), *args[1:]]
        super().__call__(parser, namespace, args, option_string)


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """The flags of parser named by the key=value lines of a config file, in file order.
    A key is a flag's dest (P_min for --P-min); a switch takes true/false, 1/0 or yes/no."""
    flags = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
    args = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        if not eq:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in flags:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        flag = flags[key].option_strings[0]
        if flags[key].nargs != 0:
            args.append(f"{flag}={val}")
        elif val.lower() in ("true", "1", "yes"):
            args.append(flag)
        elif val.lower() not in ("false", "0", "no"):
            raise UsageError(f"{path}:{lineno}: {key} takes true or false, got {val!r}")
    return args


def _formats(text: str) -> str:
    unknown = set(text.split(",")) - {"csv", "json", "svg"}
    if unknown:
        raise UsageError(f"unknown output formats: {', '.join(sorted(unknown))}")
    return text


@functools.cache
def _build_parser() -> _Parser:
    """The parser of every subcommand, built on first use and then kept."""
    parser = _Parser(prog="rotorkick",
                     description="Polar rigid rotor driven by a rectangular electric pulse")
    parser.add_argument("--config", help="flat key=value file of flags; given flags override it")
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands,
                                parser_class=_Parser)

    def arg(p, flag, *rules, conv=float, **kw):
        """Add flag of type conv, whose value is refused as "{flag} must be {rule[0]}" by
        the first rule for which not rule[1](value), by a UsageError that argparse passes
        on without its own prefix."""
        def check(text: str):
            value = conv(text)
            for rule in rules:
                if not rule[1](value):
                    raise UsageError(f"{flag} must be {rule[0]}")
            return value
        check.__name__ = conv.__name__      # argparse names it in "invalid float value: 'x'"
        p.add_argument(flag, type=check, **kw)

    non_negative = "finite and >= 0", lambda x: 0 <= x < math.inf
    positive = "finite and > 0", lambda x: 0 < x < math.inf
    unit_interval = "in (0, 1)", lambda x: 0 < x < 1

    def common(p):
        p.add_argument("--out", default="rotorkick_out", help="output directory")
        p.add_argument("--formats", type=_formats, default="csv,json",
                       help="comma-separated subset of csv,json,svg")

    def basis(p):
        p.add_argument("--j0", type=int, default=0)
        arg(p, "--j-max", (">= 0", lambda n: n >= 0),
            (f"<= {_J_MAX_LIMIT}", lambda n: n <= _J_MAX_LIMIT), conv=int, default=0,
            help="fixed basis size; 0 = auto-converge")
        arg(p, "--leak-tol", unit_interval, default=1e-10)

    p = sub.add_parser("propagate", help="propagate one (P, sigma) point")
    arg(p, "--P", non_negative, required=True)
    arg(p, "--sigma", positive, required=True)
    basis(p)
    p.add_argument("--method", choices=["spectral", "rk4"], default="spectral")
    arg(p, "--steps", positive, conv=int, default=100_000, help="RK4 step count")
    common(p)

    p = sub.add_parser("sweep", help="sweep sigma (and optionally P)")
    arg(p, "--P", non_negative, help="fixed pulse strength (1-D sweep)")
    arg(p, "--P-min", non_negative)
    arg(p, "--P-max", non_negative)
    arg(p, "--P-step", positive)
    for flag in ("--sigma-min", "--sigma-max", "--sigma-step"):
        arg(p, flag, positive, required=True)
    basis(p)
    arg(p, "--drop-threshold", unit_interval, default=0.10,
        help="relative depth for drop detection")
    common(p)

    p = sub.add_parser("analytic", help="two-level zero loci and thresholds")
    arg(p, "--P", non_negative, required=True)
    p.add_argument("--j0", type=int, choices=[0, 1], default=0)
    arg(p, "--n-max", (f"in [1, {_N_MAX_CAP}]", lambda n: 1 <= n <= _N_MAX_CAP), conv=int,
        default=5)
    common(p)

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true", help="skip the surface scan")
    p.add_argument("--seed", type=int, default=12345)
    common(p)
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """Parse CLI arguments.  The lines of an optional --config file count as
    flags given before the others, so a given flag overrides its key."""
    ns = _build_parser().parse_args(argv)
    opt = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    if ns.command == "sweep":
        two_d = any(opt[k] is not None for k in ("P_min", "P_max", "P_step"))
        if two_d and not all(opt[k] is not None for k in ("P_min", "P_max", "P_step")):
            raise UsageError("2-D sweeps need all of --P-min, --P-max, --P-step")
        if two_d and opt["P"] is not None:
            raise UsageError("--P conflicts with --P-min/--P-max/--P-step")
        if not two_d and opt["P"] is None:
            raise UsageError("either --P or the --P-min/--P-max/--P-step triple is required")
    return RunConfig(command=ns.command, options=opt)


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
                                 j0=opt["j0"], j_max=opt["j_max"] or None, leak_tol=opt["leak_tol"])
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
    except (UsageError, OSError) as exc:    # OSError: an unreadable --config file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        handler = {"propagate": _cmd_propagate, "sweep": _cmd_sweep,
                   "analytic": _cmd_analytic, "validate": _cmd_validate}[cfg.command]
        return handler(cfg)
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:      # a basis or grid too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
