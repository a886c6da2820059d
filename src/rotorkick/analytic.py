"""Closed-form two-level model and the zero loci of its transfer amplitudes.

For weak-to-moderate pulse strengths, the dynamics of the lowest pair of
coupled rotor levels reduces to a 2x2 problem with an explicit solution.
The magnitude of the initially-unpopulated coefficient follows a sinc law
whose zeros predict the pulse durations at which the kinetic-energy drops
occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import _N_MAX_CAP, PulseSpec, _check_integer, _check_strength

SQRT3 = math.sqrt(3.0)
SQRT15 = math.sqrt(15.0)


def sinc(x: float) -> float:
    """sin(x)/x with sinc(0) = 1 (unnormalized).

    Series branch below 1e-4 avoids cancellation near zero.
    """
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return math.sin(x) / x


@dataclass(frozen=True)
class TwoLevelSolution:
    """Eigen-structure of the 2x2 sub-block for J0 in {0, 1}.

    eigenvalues are pure imaginary; the general solution is
    C(tau) = A1 exp(lambda1 tau) v1 + A2 exp(lambda2 tau) v2 with
    A1 = -A2.  sinc_argument_factor is the xi multiplying sigma in the
    sinc law for the transfer amplitude.
    """

    j0: int
    eigenvalues: tuple[complex, complex]
    eigenvectors: tuple[tuple[float, float], tuple[float, float]]
    integration_constants: tuple[float, float]
    sinc_argument_factor: float


def two_level_solution(j0: int, pulse: PulseSpec) -> TwoLevelSolution:
    """All closed-form quantities of the two-level sub-block.

    J0 = 0 couples |0,0> and |1,0> with strength eta/sqrt(3);
    J0 = 1 couples |1,0> and |2,0> with strength 2*eta/sqrt(15).
    At eta = 0 the eigenvector expressions degenerate (division by eta);
    the continuous limit, the uncoupled basis vectors, is returned.
    """
    eta = pulse.eta
    sigma = pulse.sigma
    if j0 == 0:
        xi = math.sqrt(1.0 + eta * eta / 3.0)
        lam = (-1j * sigma * (1.0 + xi), -1j * sigma * (1.0 - xi))
        if eta == 0.0:
            vecs = ((1.0, 0.0), (0.0, 1.0))
        else:
            vecs = (((SQRT3 / eta) * (1.0 - xi), 1.0),
                    ((SQRT3 / eta) * (1.0 + xi), 1.0))
        a1 = -eta / (2.0 * math.sqrt(3.0 + eta * eta))
    elif j0 == 1:
        root = math.sqrt(1.0 + eta * eta / 15.0)
        xi = 2.0 * root
        lam = (-2j * sigma * (2.0 + root), -2j * sigma * (2.0 - root))
        if eta == 0.0:
            vecs = ((1.0, 0.0), (0.0, 1.0))
        else:
            vecs = (((SQRT15 / eta) * (1.0 - root), 1.0),
                    ((SQRT15 / eta) * (1.0 + root), 1.0))
        a1 = -eta / (2.0 * math.sqrt(15.0 + eta * eta))
    else:
        raise ValueError(f"two-level model is defined for J0 in {{0, 1}}, got {j0}")
    return TwoLevelSolution(j0=j0, eigenvalues=lam, eigenvectors=vecs,
                            integration_constants=(a1, -a1),
                            sinc_argument_factor=xi)


def coefficient_c1_of_0(pulse: PulseSpec) -> complex:
    """Two-level amplitude on |1,0> at tau=1, starting from |0,0>:
    i P sinc(sigma xi) / sqrt(3) * exp(i sigma)."""
    xi = two_level_solution(0, pulse).sinc_argument_factor
    return (1j * pulse.strength * sinc(pulse.sigma * xi) / SQRT3
            * complex(math.cos(pulse.sigma), math.sin(pulse.sigma)))


def coefficient_c2_of_1(pulse: PulseSpec) -> complex:
    """Two-level amplitude on |2,0> at tau=1, starting from |1,0>:
    2 i P sinc(sigma xi) / sqrt(15) * exp(4 i sigma)."""
    xi = two_level_solution(1, pulse).sinc_argument_factor
    return (2j * pulse.strength * sinc(pulse.sigma * xi) / SQRT15
            * complex(math.cos(4.0 * pulse.sigma), math.sin(4.0 * pulse.sigma)))


@dataclass(frozen=True)
class ZeroLocus:
    n: int
    sigma_exact: float
    sigma_taylor: float


def zero_loci(j0: int, strength: float, n_max: int) -> list[ZeroLocus]:
    """Pulse durations where the two-level transfer amplitude vanishes.

    For each n in [1, n_max] with a real positive root:
      J0=0: sigma = sqrt((3 n^2 pi^2 - P^2) / 3)
      J0=1: sigma = sqrt((15 n^2 pi^2 - 4 P^2) / 60)
    together with the first-order Taylor approximation in P^2.
    n values with a non-positive radicand are omitted (for J0=0 this
    enforces n >= P / (sqrt(3) pi)).  n_max is an integer in [1, _N_MAX_CAP].
    """
    _check_strength(strength)
    _check_integer("n_max", n_max, 1, _N_MAX_CAP)
    p2 = strength * strength
    out = []
    for n in range(1, n_max + 1):
        npi2 = (n * math.pi) ** 2
        if j0 == 0:
            radicand = (3.0 * npi2 - p2) / 3.0
            taylor = n * math.pi * (1.0 - p2 / (6.0 * npi2))
        elif j0 == 1:
            radicand = (15.0 * npi2 - 4.0 * p2) / 60.0
            taylor = 0.5 * n * math.pi * (1.0 - 2.0 * p2 / (15.0 * npi2))
        else:
            raise ValueError(f"zero loci are defined for J0 in {{0, 1}}, got {j0}")
        if radicand > 0.0:
            out.append(ZeroLocus(n=n, sigma_exact=math.sqrt(radicand), sigma_taylor=taylor))
    return out


def existence_threshold(j0: int) -> float:
    """Largest P for which transfer-amplitude zeros exist for every n >= 1:
    sqrt(3) pi for J0=0, (sqrt(15)/2) pi for J0=1."""
    if j0 == 0:
        return SQRT3 * math.pi
    if j0 == 1:
        return 0.5 * SQRT15 * math.pi
    raise ValueError(f"threshold is defined for J0 in {{0, 1}}, got {j0}")
