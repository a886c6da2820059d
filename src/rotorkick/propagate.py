"""Wavepacket propagation across the rectangular pulse.

The Hamiltonian is constant over rescaled time tau in [0, 1], so the
spectral method (eigendecomposition + exact matrix exponential) is the
production path.  A fixed-step RK4 integrator exists as an independent
in-repo oracle, and the analytic delta-kick propagator covers the
impulsive limit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (_J_MAX_CAP, PulseSpec, RotorBasis, Wavepacket, _bands, _hamiltonians, _sym,
                   build_hamiltonian)
from .kernels import rk4_propagate

# Most matrix entries stacked into one eigensolve.  With the eigenvectors and
# their complex copy a stack takes about 40 bytes an entry, so this bounds a
# stack at about 10 MiB whatever the number of points or the basis size.
_STACK_ENTRIES = 1 << 18


class Method(Enum):
    SPECTRAL = "spectral"
    ODE_RK4 = "rk4"


class ConvergenceError(RuntimeError):
    """Basis growth hit the hard cap without meeting the leak tolerance."""


@dataclass
class PropagationReport:
    final: Wavepacket
    method: Method
    norm_drift: float      # |1 - sum |C_J|^2|
    basis_leak: float      # population in the top two basis states
    warning: str | None = None


def _report(c: np.ndarray, basis: RotorBasis, j0: int, method: Method,
            warning: str | None = None) -> PropagationReport:
    pop = np.abs(c) ** 2
    return PropagationReport(
        final=Wavepacket(basis=basis, coefficients=c, j0=j0),
        method=method,
        norm_drift=abs(1.0 - float(pop.sum())),
        basis_leak=float(pop[-2:].sum()),
        warning=warning,
    )


def _propagate_points(p: np.ndarray, sigma: np.ndarray, j0: int, j_max: int) -> np.ndarray:
    """C(1) from |J0, 0> for each point (p[k], sigma[k]) on the basis j_max: per
    stack of at most _STACK_ENTRIES matrix entries, one eigh of the Hamiltonians,
    then C(1) = U (exp(-i Lambda) * U[J0, :]), which is U exp(-i Lambda) U^T C(0)."""
    if not 0 <= j0 <= j_max:
        raise ValueError(f"J0={j0} outside basis (j_max={j_max})")
    step = max(1, _STACK_ENTRIES // (j_max + 1) ** 2)
    if p.size > step:
        return np.concatenate([_propagate_points(p[s:s + step], sigma[s:s + step], j0, j_max)
                               for s in range(0, p.size, step)])
    evals, u = np.linalg.eigh(_hamiltonians(p, sigma, j_max))
    return np.matmul(u, (np.exp(-1j * evals) * u[:, j0, :])[:, :, None])[:, :, 0]


@functools.lru_cache(maxsize=1, typed=True)
def _point(p: float, sigma: float, j0: int, j_max: int) -> np.ndarray:
    """Read-only C(1) of the one point (p, sigma) on the basis j_max.  The last
    call is kept, so propagate_spectral on the basis that converge_basis has
    just accepted solves nothing again; typed, so that a J0 of another type
    (0.0 for 0) is not served the cached state."""
    c = _propagate_points(np.array([p]), np.array([sigma]), j0, j_max)[0]
    c.flags.writeable = False
    return c


def _ladder(j0: int, leak_tol: float, j_max_cap: int = _J_MAX_CAP) -> range:
    """The basis sizes that auto mode tries in turn: J0 + 4, J0 + 8, ... <= j_max_cap."""
    if not 0 < leak_tol < 1:
        raise ValueError(f"leak_tol must be in (0, 1), got {leak_tol}")
    return range(j0 + 4, j_max_cap + 1, 4)


def _leak(c: np.ndarray) -> np.ndarray:
    """Population of the top two basis levels of each row of c."""
    return (np.abs(c[:, -2:]) ** 2).sum(axis=1)


def _leak_error(leak_tol, p, sigma, j0, j_max_cap=_J_MAX_CAP) -> str:
    return f"basis leak still above {leak_tol} at j_max={j_max_cap} (P={p}, sigma={sigma}, J0={j0})"


def propagate_spectral(pulse: PulseSpec, j0: int, basis: RotorBasis) -> PropagationReport:
    """Exact propagation: C(1) = U exp(-i Lambda) U^T C(0).

    Exact for the rectangular pulse because the Hamiltonian is constant
    on tau in [0, 1]; unitary, so the norm is preserved to machine
    precision.
    """
    c = _point(float(pulse.strength), float(pulse.sigma), j0, basis.j_max)
    return _report(c.copy(), basis, j0, Method.SPECTRAL)


def propagate_ode(pulse: PulseSpec, j0: int, basis: RotorBasis,
                  steps: int = 100_000) -> PropagationReport:
    """Fixed-step classical RK4 integration of dC/dtau = -i H C on [0, 1].

    No renormalization is applied: the reported norm drift is the
    accuracy diagnostic.  Fixed steps keep results bit-reproducible.
    """
    if not 0 <= j0 <= basis.j_max:
        raise ValueError(f"J0={j0} outside basis (j_max={basis.j_max})")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    warning = None
    # RK4 on the imaginary axis is stable for |lambda|*dt < 2*sqrt(2);
    # the spectral radius is bounded by the largest diagonal plus band.
    h_norm = pulse.sigma * basis.j_max * (basis.j_max + 1) + pulse.strength
    if steps < 1000:
        warning = f"step count {steps} below the recommended minimum of 1000"
    elif h_norm / steps > 2.0 * math.sqrt(2.0):
        warning = (f"step count {steps} too small for spectral radius ~{h_norm:.3g}; "
                   "accuracy not guaranteed")
    if warning is not None:
        warnings.warn(warning, RuntimeWarning, stacklevel=2)
    c0 = Wavepacket.pure(basis, j0).coefficients
    c1 = rk4_propagate(build_hamiltonian(basis, pulse).entries, c0, steps)
    return _report(c1, basis, j0, Method.ODE_RK4, warning=warning)


def delta_kick(strength: float, j0: int, basis: RotorBasis) -> Wavepacket:
    """Impulsive-limit propagator exp(i P cos(theta)) applied to |J0, 0>.

    Computed as the matrix exponential of i*P*cos on a padded basis
    (pad max(8, ceil(2P)) levels, then truncate): spherical Bessel
    amplitudes decay super-exponentially for J well above P, so the
    padding bounds truncation error below 1e-10 for P <= 20.
    """
    if strength < 0:
        raise ValueError(f"P must be >= 0, got {strength}")
    if not 0 <= j0 <= basis.j_max:
        raise ValueError(f"J0={j0} outside basis (j_max={basis.j_max})")
    pad = max(8, math.ceil(2 * strength))
    evals, u = np.linalg.eigh(_sym(_bands(basis.j_max + pad)[1], 1))
    c = u @ (np.exp(1j * strength * evals) * u[j0])
    return Wavepacket(basis=basis, coefficients=c[: basis.dim], j0=j0)


def converge_basis(pulse: PulseSpec, j0: int, leak_tol: float = 1e-10,
                   j_max_cap: int = _J_MAX_CAP) -> RotorBasis:
    """Smallest basis (j_max = J0 + 4, growing by 4) whose top-two-state
    population after spectral propagation is below leak_tol."""
    p, sigma = float(pulse.strength), float(pulse.sigma)
    for j_max in _ladder(j0, leak_tol, j_max_cap):
        if _leak(_point(p, sigma, j0, j_max)[None])[0] < leak_tol:
            return RotorBasis(j_max=j_max)
    raise ConvergenceError(_leak_error(leak_tol, pulse.strength, pulse.sigma, j0, j_max_cap))
