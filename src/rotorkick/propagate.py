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

from .core import (_J_MAX_CAP, _J_MAX_LIMIT, _STEPS_LIMIT, PulseSpec, RotorBasis, Wavepacket,
                   _bands, _check_fraction, _check_integer, _check_j0, _check_strength,
                   _hamiltonians, build_hamiltonian)

_EPS = float(np.finfo(np.float64).eps)


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
        basis_leak=_state_leak(c),
        warning=warning,
    )


def _propagate_points(p: np.ndarray, sigma: np.ndarray, j0: int, j_max: int,
                      floor_at: int | None = None):
    """C(1) from |J0, 0> for each point (p[k], sigma[k]) on the basis j_max: one
    _solve on the column stack.  Each matrix is solved on its own by the same
    LAPACK call, so a point's row has the same bits in a stack of any size.
    With floor_at, also each point's _leak_floor on that smaller basis."""
    _check_j0(j0, j_max)
    return _solve(p[:, None], sigma[:, None], j0, j_max, floor_at)


def _solve(p, sigma, j0: int, j_max: int, floor_at: int | None = None):
    """C(1) of one point (scalars p and sigma) or of a stack (columns p[:, None] and
    sigma[:, None]): one eigh of the Hamiltonians, then
    C(1) = U (exp(-i Lambda) * U[J0, :]), which is U exp(-i Lambda) U^T C(0).
    With floor_at = jf, 1 <= jf < j_max and J0 <= jf, it returns C(1) and the
    _leak_floor at jf, from the same eigendecomposition."""
    evals, u = np.linalg.eigh(_hamiltonians(p, sigma, j_max))
    c = np.matmul(u, (np.exp(-1j * evals) * u[..., j0, :])[..., None])[..., 0]
    return c if floor_at is None else (c, _leak_floor(p, sigma, j0, j_max, floor_at, u, c))


def _leak_floor(p, sigma, j0: int, j_max: int, jf: int, u: np.ndarray, c: np.ndarray):
    """A lower bound on sqrt(_leak) of the C(1) that _solve computes on the smaller
    basis jf, from the eigenvectors u and C(1) = c that it computed on the basis j_max.

    In exact arithmetic, with b = <jf|cos|jf+1> and the top two levels of jf,
        sqrt(leak(jf)) >= |(c[jf-1], c[jf])| - P b sum_k |u[jf+1, k] u[J0, k]|.
    H is tridiagonal, so levels J <= jf meet the rest of the j_max basis only
    through the entry -P b.  By variation of constants the projection of the
    j_max state on J <= jf differs from the jf state at tau = 1 by at most
    P b max_tau |c_{jf+1}(tau)|, and c_{jf+1}(tau) = sum_k u[jf+1, k]
    exp(-i lambda_k tau) u[J0, k] is at most the sum in modulus.  The triangle
    inequality on the top two levels gives the bound.

    Rounding: eigh is backward stable, so each computed C(1) is within
    delta = n^2 eps (h + 1) of the exact one, n = j_max + 1 levels and
    h = sigma j_max (j_max + 1) + 2P >= ||H|| for both bases (n^2 stands for
    LAPACK's modest p(n); the phases add eps h, the products n eps).  The
    computed u bounds max |c_{jf+1}| to within delta too.  So (3 + P b) delta,
    subtracted here, covers the top two levels, the coupling term, the jf
    solve and this arithmetic: the result is a lower bound on the computed
    leak's root, not only the exact one.  For a huge P or sigma the slack
    swamps the bound, or makes it -inf or NaN, which bounds nothing."""
    b, n = float(_bands(j_max)[1][jf]), j_max + 1
    reach = np.abs(u[..., jf + 1, :] * u[..., j0, :]).sum(axis=-1, keepdims=True)
    top = np.sqrt((np.abs(c[..., jf - 1:jf + 1]) ** 2).sum(axis=-1, keepdims=True))
    with np.errstate(over="ignore", invalid="ignore"):      # inf and NaN bound nothing
        slack = n * n * _EPS * (sigma * j_max * (j_max + 1) + 2 * p + 1) * (3 + p * b)
        return (top - p * b * reach - slack)[..., 0]


@functools.lru_cache(maxsize=1, typed=True)
def _point(p: float, sigma: float, j0: int, j_max: int) -> np.ndarray:
    """Read-only C(1) of the one point (p, sigma) on the basis j_max, by _solve on
    one 2-D matrix.  The last call is kept, so propagate_spectral on the basis that
    converge_basis has just accepted solves nothing again; typed, so that a J0 of
    another type (True for 1) is not served the cached state."""
    _check_j0(j0, j_max)
    c = _solve(p, sigma, j0, j_max)
    c.flags.writeable = False
    return c


def _ladder(j0: int, leak_tol: float, j_max_cap: int = _J_MAX_CAP) -> range:
    """The basis sizes that auto mode tries in turn: J0 + 4, J0 + 8, ... <= j_max_cap,
    a cap within the j_max limit, so that no rung builds a basis RotorBasis would refuse.
    A ValueError names J0 and the cap when the first rung is already above it."""
    _check_fraction("leak_tol", leak_tol)
    _check_integer("j_max_cap", j_max_cap, 1, _J_MAX_LIMIT)
    if j0 + 4 > j_max_cap:
        raise ValueError(f"J0={j0} leaves auto mode no basis to try: its first, "
                         f"j_max={j0 + 4}, is above the cap j_max_cap={j_max_cap}")
    return range(j0 + 4, j_max_cap + 1, 4)


def _leak(c: np.ndarray) -> np.ndarray:
    """Population of the top two basis levels of each row of c."""
    return (np.abs(c[:, -2:]) ** 2).sum(axis=1)


def _state_leak(c: np.ndarray) -> float:
    """_leak of one state, in Python floats: the same squares, and a sum of two
    terms is one rounding in either order, so the same bits."""
    a, b = np.abs(c[-2:]).tolist()
    return a * a + b * b


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

    H is constant over the pulse, so every step is the same linear map
    C <- C + D C with D = X + X^2/2 + X^3/6 + X^4/24, X = -i H / steps: the
    RK4 stability polynomial less the identity.  D is formed once, by
    Horner's rule; adding the increment D C, not multiplying by I + D,
    keeps the small per-step change from rounding against the identity.

    No renormalization is applied: the reported norm drift is the
    accuracy diagnostic.  Fixed steps keep results bit-reproducible.
    """
    _check_j0(j0, basis.j_max)
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps > _STEPS_LIMIT:
        raise ValueError(f"steps must be <= {_STEPS_LIMIT}, got {steps}")
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
    x = (-1j / steps) * build_hamiltonian(basis, pulse).entries
    d = np.zeros_like(x)
    for k in (4, 3, 2, 1):
        d = x @ (np.eye(basis.dim) + d) / k
    c = Wavepacket.pure(basis, j0).coefficients
    dc = np.empty_like(c)
    for _ in range(steps):
        np.dot(d, c, out=dc)
        np.add(c, dc, out=c)
    return _report(c, basis, j0, Method.ODE_RK4, warning=warning)


def delta_kick(strength: float, j0: int, basis: RotorBasis) -> Wavepacket:
    """Impulsive-limit propagator exp(i P cos(theta)) applied to |J0, 0>.

    Computed as the matrix exponential of i*P*cos on a padded basis
    (pad max(8, ceil(2P)) levels, then truncate): spherical Bessel
    amplitudes decay super-exponentially for J well above P, so the
    padding bounds truncation error below 1e-10 for P <= 20.  That
    exponential is exp(-i H) at sigma = 0, so the spectral kernel makes it.
    A ValueError names P when the padded basis would pass the j_max limit.
    """
    _check_strength(strength)
    _check_j0(j0, basis.j_max)
    if not basis.j_max + max(8, 2 * strength) <= _J_MAX_LIMIT:    # before ceil(inf) can raise
        raise ValueError(f"P={strength} pads the basis j_max={basis.j_max} by max(8, ceil(2P)) "
                         f"levels, past the j_max limit {_J_MAX_LIMIT}")
    pad = max(8, math.ceil(2 * strength))
    c = _solve(float(strength), 0.0, j0, basis.j_max + pad)[: basis.dim]
    return Wavepacket(basis=basis, coefficients=c, j0=j0)


def converge_basis(pulse: PulseSpec, j0: int, leak_tol: float = 1e-10,
                   j_max_cap: int = _J_MAX_CAP) -> RotorBasis:
    """Smallest basis (j_max = J0 + 4, growing by 4) whose top-two-state
    population after spectral propagation is below leak_tol."""
    p, sigma = float(pulse.strength), float(pulse.sigma)
    _check_j0(j0)       # before _ladder builds its range
    for j_max in _ladder(j0, leak_tol, j_max_cap):
        if _state_leak(_point(p, sigma, j0, j_max)) < leak_tol:
            return RotorBasis(j_max=j_max)
    raise ConvergenceError(_leak_error(leak_tol, pulse.strength, pulse.sigma, j0, j_max_cap))
