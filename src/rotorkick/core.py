"""Dimensionless data model and operator matrices for a pulsed polar rigid rotor.

Everything downstream works in reduced units: pulse strength P, reduced
duration sigma, and the orienting parameter eta = P / sigma.  Physical
quantities (dipole moment, field strength, rotational constant, pulse
length) enter only through :func:`dimensionless_from_physical`.

The rotor is a polar linear rigid rotor restricted to the m = 0 manifold,
expanded in the free-rotor states |J, 0> for 0 <= J <= j_max.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Reduced Planck constant in J*s (CODATA 2018). Used only by the
# physical-units conversion; all simulation code is dimensionless.
HBAR_SI = 1.054571817e-34
# The largest basis that auto mode tries before it gives up on a point.
_J_MAX_CAP = 400
# The largest basis that a caller may fix: _bands squares a dense (j_max + 2)^2
# matrix, which at this limit takes about 0.45 s and 100 MiB.
_J_MAX_LIMIT = 2000
# The most points a sweep axis, and a whole grid, may hold (fig2's sigma axis has 2000).
_AXIS_POINTS_CAP = 1_000_000
# The most zero-locus branches one zero_loci call may scan.
_N_MAX_CAP = 100_000
# Most matrices each shared builder keeps (at most about 10 MiB at the cap).
_SHARED_MATRICES = 8


def _check_integer(name: str, value, low: int, high: int | None = None) -> None:
    """ValueError unless value is an integer in [low, high] (a Python or numpy
    integer, not a bool); high None is no upper bound."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low
            or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _check_j0(j0, j_max: int | None = None) -> None:
    """ValueError unless J0 is a Python or numpy integer, not a bool, and, given
    j_max, a level of the basis {|J, 0> : J <= j_max}."""
    if isinstance(j0, bool) or not isinstance(j0, (int, np.integer)):
        raise ValueError(f"J0 must be an integer >= 0, got {j0!r}")
    if j_max is not None and not 0 <= j0 <= j_max:
        raise ValueError(f"J0={j0} outside basis (j_max={j_max})")


def _check_strength(strength: float) -> None:
    """ValueError naming P unless the pulse strength is finite and >= 0."""
    if not (math.isfinite(strength) and strength >= 0):
        raise ValueError(f"P must be finite and >= 0, got {strength}")


@dataclass(frozen=True)
class PulseSpec:
    """Rectangular pulse in reduced units.

    strength : P >= 0 and finite, the kick strength (time-integrated coupling).
    sigma    : pulse duration in units of the rotational time scale, > 0 and finite.
    eta      : derived coupling P / sigma, never stored independently.
    """

    strength: float
    sigma: float

    def __post_init__(self):
        for name, value in (("strength P", self.strength), ("duration sigma", self.sigma)):
            if not math.isfinite(value):
                raise ValueError(f"pulse {name} must be finite, got {value}")
        if not self.sigma > 0:
            raise ValueError(f"pulse duration sigma must be > 0, got {self.sigma}")
        if self.strength < 0:
            raise ValueError(f"pulse strength P must be >= 0, got {self.strength}")

    @property
    def eta(self) -> float:
        return self.strength / self.sigma

    @classmethod
    def from_eta(cls, eta: float, sigma: float) -> "PulseSpec":
        return cls(strength=eta * sigma, sigma=sigma)


@dataclass(frozen=True)
class RotorBasis:
    """Truncated free-rotor basis {|J, 0> : 0 <= J <= j_max}."""

    j_max: int

    def __post_init__(self):
        _check_integer("j_max", self.j_max, 1)     # names the limit only for a j_max above it
        _check_integer("j_max", self.j_max, 1, _J_MAX_LIMIT)

    @property
    def dim(self) -> int:
        return self.j_max + 1

    def j_values(self) -> np.ndarray:
        return np.arange(self.dim)


@dataclass
class Wavepacket:
    """Complex expansion coefficients C_J over a truncated rotor basis."""

    basis: RotorBasis
    coefficients: np.ndarray
    j0: int

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.complex128)
        if self.coefficients.shape != (self.basis.dim,):
            raise ValueError(
                f"coefficient vector has shape {self.coefficients.shape}, "
                f"expected ({self.basis.dim},)"
            )
        _check_j0(self.j0, self.basis.j_max)

    @property
    def norm(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))

    @classmethod
    def pure(cls, basis: RotorBasis, j0: int) -> "Wavepacket":
        """|J0, 0>; __post_init__ refuses a J0 that is not a level of the basis."""
        return cls(basis=basis, coefficients=basis.j_values() == j0, j0=j0)


class MatrixKind(Enum):
    ANGULAR_MOMENTUM_SQUARED = "j2"
    COS_THETA = "cos"
    COS2_THETA = "cos2"
    HAMILTONIAN = "hamiltonian"


@dataclass(frozen=True)
class OperatorMatrix:
    """Real symmetric banded operator in the free-rotor basis, stored dense
    (basis sizes stay small).  Construction checks only the shape: the builders
    below are symmetric and banded by construction, as their tests check."""

    basis: RotorBasis
    kind: MatrixKind
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64)
        if m.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(f"matrix shape {m.shape} does not match basis dim {self.basis.dim}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


def dimensionless_from_physical(dipole: float, field_strength: float,
                                rot_const: float, duration: float,
                                hbar: float = HBAR_SI) -> PulseSpec:
    """Convert physical pulse parameters to the reduced (P, sigma) pair.

    Units must be consistent: ``dipole * field_strength`` and ``rot_const``
    in the same energy unit, ``duration`` in the matching time unit, and
    ``hbar`` in (energy * time).  The default ``hbar`` assumes SI (joules
    and seconds); pass ``hbar=1`` for units where it is absorbed.

    Returns PulseSpec with sigma = rot_const * duration / hbar and
    P = eta * sigma where eta = dipole * field_strength / rot_const.
    """
    for name, value in (("dipole", dipole), ("field strength", field_strength),
                        ("rotational constant", rot_const), ("duration", duration),
                        ("hbar", hbar)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if field_strength <= 0 or rot_const <= 0 or duration <= 0 or hbar <= 0:
        raise ValueError("field strength, rotational constant, duration and hbar must be > 0")
    if dipole < 0:
        raise ValueError("dipole magnitude must be >= 0")
    sigma = rot_const * duration / hbar
    eta = dipole * field_strength / rot_const
    return PulseSpec(strength=eta * sigma, sigma=sigma)


@functools.lru_cache(maxsize=512)
def _bands(j_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only bands on {|J, 0> : J <= j_max}: J as float, <J|cos|J+1>, and the diagonal
    and <J|cos^2|J+2> of cos^2(theta), the square of cos(theta) on a basis one level larger,
    so that truncation does not corrupt the (j_max, j_max) entry.  Exact for m = 0."""
    j = np.arange(j_max + 1, dtype=np.float64)
    pad = np.sqrt((j + 1) ** 2 / ((2 * j + 3) * (2 * j + 1)))   # cos band up to J = j_max + 1
    cos_pad = _sym(pad, 1)
    sq = (cos_pad @ cos_pad)[: j_max + 1, : j_max + 1]
    sq = 0.5 * (sq + sq.T)  # symmetrize away rounding asymmetry
    bands = (j, pad[:-1].copy(), np.diag(sq).copy(), np.diag(sq, 2).copy())
    for band in bands:
        band.flags.writeable = False
    return bands


@functools.lru_cache(maxsize=512)
def _j2(j_max: int) -> np.ndarray:
    """Read-only J(J+1) on {|J, 0> : J <= j_max}, the diagonal of J^2."""
    j = _bands(j_max)[0]
    d = j * (j + 1)
    d.flags.writeable = False
    return d


def _sym(band: np.ndarray, k: int, diag=0.0) -> np.ndarray:
    """Dense symmetric matrices, stacked like band: diag on the diagonal, band at +-k."""
    d = band.shape[-1] + k
    m = np.zeros(band.shape[:-1] + (d * d,))     # flat, so that each band is a strided slice
    m[..., ::d + 1], m[..., k:(d - k) * d:d + 1], m[..., k * d::d + 1] = diag, band, band
    return m.reshape(band.shape[:-1] + (d, d))


def _hamiltonians(p, sigma, j_max: int) -> np.ndarray:
    """sigma J(J+1) - P cos(theta): one matrix for scalars p and sigma, a stack for
    columns p[:, None] and sigma[:, None]; 0 - P c gives +0.0, not -0.0, at P = 0."""
    j, cos, _, _ = _bands(j_max)
    return _sym(0.0 - p * cos, 1, sigma * j * (j + 1))


def build_j2_matrix(basis: RotorBasis) -> OperatorMatrix:
    """Angular momentum squared: diagonal J(J+1)."""
    return OperatorMatrix(basis=basis, kind=MatrixKind.ANGULAR_MOMENTUM_SQUARED,
                          entries=np.diag(_j2(basis.j_max)))


def _shared(build):
    """Serve the bases up to _J_MAX_CAP from a cache of the _SHARED_MATRICES most
    recent matrices, which callers share (their entries are read-only); larger
    bases are built fresh."""
    cached = functools.lru_cache(maxsize=_SHARED_MATRICES)(build)

    @functools.wraps(build)
    def builder(basis: RotorBasis) -> OperatorMatrix:
        return (cached if basis.j_max <= _J_MAX_CAP else build)(basis)

    builder.cache_info, builder.cache_clear = cached.cache_info, cached.cache_clear
    return builder


@_shared
def build_cos_matrix(basis: RotorBasis) -> OperatorMatrix:
    """cos(theta): symmetric tridiagonal with zero diagonal (Delta J = +-1).  Shared, read-only."""
    return OperatorMatrix(basis=basis, kind=MatrixKind.COS_THETA,
                          entries=_sym(_bands(basis.j_max)[1], 1))


@_shared
def build_cos2_matrix(basis: RotorBasis) -> OperatorMatrix:
    """cos^2(theta): symmetric pentadiagonal (Delta J = 0, +-2).  Shared, read-only."""
    _, _, diag, band = _bands(basis.j_max)
    return OperatorMatrix(basis=basis, kind=MatrixKind.COS2_THETA, entries=_sym(band, 2, diag))


def build_hamiltonian(basis: RotorBasis, pulse: PulseSpec) -> OperatorMatrix:
    """During-pulse Hamiltonian in reduced time: sigma * J^2 - P * cos(theta).

    (eta * sigma = P, so the off-diagonal band is P times the cos band.)
    """
    h = _hamiltonians(float(pulse.strength), float(pulse.sigma), basis.j_max)
    return OperatorMatrix(basis=basis, kind=MatrixKind.HAMILTONIAN, entries=h)
