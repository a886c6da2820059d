"""Closed-form two-level model and the zero loci of its transfer amplitudes.

For weak-to-moderate pulse strengths, the dynamics of the lowest pair of
coupled rotor levels reduces to a 2x2 problem with an explicit solution.
The magnitude of the initially-unpopulated coefficient follows a sinc law
whose zeros predict the pulse durations at which the kinetic-energy drops
occur.  Each closed form is written once for the pair |J0,0>, |J0+1,0>, in
g = J0 + 1 and q = (2 J0 + 1)(2 J0 + 3): <J0|cos theta|J0+1> = g / sqrt(q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import _N_MAX_CAP, PulseSpec, _check_integer, _check_strength

SQRT3 = math.sqrt(3.0)
SQRT15 = math.sqrt(15.0)
_PAIRS = {0: (1, 3, SQRT3), 1: (2, 15, SQRT15)}     # J0 -> (g, q, sqrt(q))


def _pair(j0: int, subject: str) -> tuple[int, int, float]:
    """_PAIRS[j0], or a ValueError that starts with subject for any other J0."""
    try:
        return _PAIRS[j0]
    except (KeyError, TypeError):       # TypeError: an unhashable J0
        raise ValueError(f"{subject} defined for J0 in {set(_PAIRS)}, got {j0}") from None


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
    With root = sqrt(1 + eta^2/q): xi = g root, lambda = -i g sigma (g +- root),
    v = ((sqrt(q)/eta)(1 -+ root), 1) and A1 = -eta / (2 sqrt(q + eta^2)).
    At eta = 0 the eigenvector expressions degenerate (division by eta);
    the continuous limit, the uncoupled basis vectors, is returned.
    """
    g, q, sqrt_q = _pair(j0, "two-level model is")
    eta = pulse.eta
    root = math.sqrt(1.0 + eta * eta / q)
    if eta == 0.0:
        vecs = ((1.0, 0.0), (0.0, 1.0))
    else:
        vecs = (((sqrt_q / eta) * (1.0 - root), 1.0),
                ((sqrt_q / eta) * (1.0 + root), 1.0))
    a1 = -eta / (2.0 * math.sqrt(q + eta * eta))
    rate = -1j * g * pulse.sigma
    return TwoLevelSolution(j0=j0, eigenvalues=(rate * (g + root), rate * (g - root)),
                            eigenvectors=vecs, integration_constants=(a1, -a1),
                            sinc_argument_factor=g * root)


def _amplitude(j0: int, pulse: PulseSpec) -> complex:
    """Two-level amplitude on |J0+1,0> at tau=1, starting from |J0,0>:
    i g P sinc(sigma xi) / sqrt(q) * exp(i g^2 sigma)."""
    g, _, sqrt_q = _pair(j0, "two-level model is")
    xi = two_level_solution(j0, pulse).sinc_argument_factor
    phase = g * g * pulse.sigma
    return (1j * g * pulse.strength * sinc(pulse.sigma * xi) / sqrt_q
            * complex(math.cos(phase), math.sin(phase)))


def coefficient_c1_of_0(pulse: PulseSpec) -> complex:
    """Two-level amplitude on |1,0> at tau=1, starting from |0,0>:
    i P sinc(sigma xi) / sqrt(3) * exp(i sigma)."""
    return _amplitude(0, pulse)


def coefficient_c2_of_1(pulse: PulseSpec) -> complex:
    """Two-level amplitude on |2,0> at tau=1, starting from |1,0>:
    2 i P sinc(sigma xi) / sqrt(15) * exp(4 i sigma)."""
    return _amplitude(1, pulse)


@dataclass(frozen=True)
class ZeroLocus:
    n: int
    sigma_exact: float
    sigma_taylor: float


def zero_loci(j0: int, strength: float, n_max: int) -> list[ZeroLocus]:
    """Pulse durations where the two-level transfer amplitude vanishes.

    For each n in [1, n_max] with a real positive root:
      sigma = sqrt((q n^2 pi^2 - g^2 P^2) / (q g^2))
      (J0=0: sqrt((3 n^2 pi^2 - P^2) / 3); J0=1: sqrt((15 n^2 pi^2 - 4 P^2) / 60))
    together with the first-order Taylor approximation in P^2,
    (n pi / g)(1 - g^2 P^2 / (2 q n^2 pi^2)).  n values with a non-positive
    radicand are omitted (this enforces n >= g P / (sqrt(q) pi)).
    n_max is an integer in [1, _N_MAX_CAP].
    """
    _check_strength(strength)
    _check_integer("n_max", n_max, 1, _N_MAX_CAP)
    g, q, _ = _pair(j0, "zero loci are")
    p2 = strength * strength
    out = []
    for n in range(1, n_max + 1):
        npi2 = (n * math.pi) ** 2
        radicand = (q * npi2 - g * g * p2) / (q * g * g)
        if radicand > 0.0:
            taylor = n * math.pi / g * (1.0 - g * g * p2 / (2 * q * npi2))
            out.append(ZeroLocus(n=n, sigma_exact=math.sqrt(radicand), sigma_taylor=taylor))
    return out


def existence_threshold(j0: int) -> float:
    """Largest P for which transfer-amplitude zeros exist for every n >= 1:
    sqrt(q) pi / g, which is sqrt(3) pi for J0=0 and (sqrt(15)/2) pi for J0=1."""
    g, _, sqrt_q = _pair(j0, "threshold is")
    return sqrt_q * math.pi / g
