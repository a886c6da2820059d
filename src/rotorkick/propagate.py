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
import os
import threading
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (_J_MAX_CAP, PulseSpec, RotorBasis, Wavepacket, _bands, _check_strength,
                   _hamiltonians, _sym, build_hamiltonian)

# Most matrix entries in flight at once: over all the stacks that one call of
# _propagate_points has being solved together, one stack inline or one a worker.
# With the eigenvectors and their complex copy a stack takes about 40 bytes an
# entry, so this bounds the stacks in flight at about 10 MiB whatever the number
# of points, the basis size or the number of cores.
_STACK_ENTRIES = 1 << 18
# Fewest matrix entries (about 2 ms of eigh) in a call that is split across the
# workers; a smaller call gains less than handing its stacks to threads costs.
# On a 2-core Xeon with OpenBLAS 0.3.31, split calls of 8192 entries took
# 0.8-1.2x the inline time, of 16384 entries 0.75-0.95x and of 32768 entries 0.6x.
_SPLIT_ENTRIES = 1 << 14
# Largest matrices that are split.  Up to 25 x 25, LAPACK's divide-and-conquer
# eigensolver (dstedc) solves the tridiagonal problem by QL/QR on one core; above
# it calls level-3 BLAS, which spreads each solve over the cores itself, and
# stacks split across threads only contend for them.  On the same host, split
# stacks took 0.5x the inline time up to 25 x 25, and 0.85-1.06x from 29 x 29 on.
_SPLIT_DIM = 25
# One worker thread for each CPU this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None                # the workers, made when the first stack is split
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    """Forget the pool in a forked child, which has none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _executor():
    """The pool of _WORKERS threads, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="rotorkick-eigh")
        return _pool


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


def _check_j0(j0: int, j_max: int) -> None:
    if not 0 <= j0 <= j_max:
        raise ValueError(f"J0={j0} outside basis (j_max={j_max})")


def _propagate_points(p: np.ndarray, sigma: np.ndarray, j0: int, j_max: int) -> np.ndarray:
    """C(1) from |J0, 0> for each point (p[k], sigma[k]) on the basis j_max.

    The points are cut into equal stacks.  A call of at least _SPLIT_ENTRIES
    entries of matrices up to _SPLIT_DIM x _SPLIT_DIM is solved by the _WORKERS
    threads together, one stack each at a time (LAPACK runs without the GIL);
    any other call, or any call on a single CPU, solves its stacks inline.
    Either way the stacks in flight hold at most _STACK_ENTRIES entries, and each
    matrix is solved on its own by the same LAPACK call, so the result is bit for
    bit the same however the points are cut.
    """
    _check_j0(j0, j_max)
    size = (j_max + 1) ** 2
    per = _STACK_ENTRIES // (_WORKERS * size)       # points a stack, _WORKERS stacks at once
    split = (_WORKERS > 1 and per > 0 and j_max < _SPLIT_DIM
             and p.size * size >= _SPLIT_ENTRIES)
    if split:       # a multiple of _WORKERS stacks, so that each worker gets as many
        n = min(p.size, _WORKERS * -(-p.size // (_WORKERS * per)))
    else:
        n = -(-p.size // max(1, _STACK_ENTRIES // size))
    if n <= 1:
        return _solve(p, sigma, j0, j_max)
    cuts = [p.size * i // n for i in range(n + 1)]
    parts = (_executor().map if split else map)(
        lambda a, b: _solve(p[a:b], sigma[a:b], j0, j_max), cuts[:-1], cuts[1:])
    return np.concatenate(list(parts))


def _solve(p: np.ndarray, sigma: np.ndarray, j0: int, j_max: int) -> np.ndarray:
    """C(1) of one stack: one eigh of the Hamiltonians, then
    C(1) = U (exp(-i Lambda) * U[J0, :]), which is U exp(-i Lambda) U^T C(0)."""
    evals, u = np.linalg.eigh(_hamiltonians(p, sigma, j_max))
    return np.matmul(u, (np.exp(-1j * evals) * u[:, j0, :])[:, :, None])[:, :, 0]


@functools.lru_cache(maxsize=1, typed=True)
def _point(p: float, sigma: float, j0: int, j_max: int) -> np.ndarray:
    """Read-only C(1) of the one point (p, sigma) on the basis j_max.

    The arithmetic of _solve, entry for entry and so bit for bit, on
    one 2-D matrix instead of a stack of one: at these sizes the stack set-up
    costs as much as the solve.  The last call is kept, so propagate_spectral on
    the basis that converge_basis has just accepted solves nothing again; typed,
    so that a J0 of another type (0.0 for 0) is not served the cached state."""
    _check_j0(j0, j_max)
    j, cos, _, _ = _bands(j_max)
    evals, u = np.linalg.eigh(_sym(0.0 - p * cos, 1, sigma * j * (j + 1)))
    c = u @ (np.exp(-1j * evals) * u[j0])
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
    padding bounds truncation error below 1e-10 for P <= 20.
    """
    _check_strength(strength)
    _check_j0(j0, basis.j_max)
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
        if _state_leak(_point(p, sigma, j0, j_max)) < leak_tol:
            return RotorBasis(j_max=j_max)
    raise ConvergenceError(_leak_error(leak_tol, pulse.strength, pulse.sigma, j0, j_max_cap))
