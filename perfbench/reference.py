"""Independent reference for rotorkick's observables.

The operators are built from their closed-form |J, 0> matrix elements on a
fixed 60-level basis (rotorkick squares a padded cos matrix instead), and the
state is propagated with scipy.linalg.expm (rotorkick diagonalises with
numpy.linalg.eigh and never imports scipy).  The two-level zeros are also
computed here from their closed form, not taken from rotorkick.analytic.
"""

from __future__ import annotations

import math

import numpy as np

N_LEVELS = 60

_J = np.arange(N_LEVELS, dtype=np.float64)
J2_DIAG = _J * (_J + 1.0)


def _cos_band(n: int) -> np.ndarray:
    """<J,0|cos|J+1,0> = (J+1) / sqrt((2J+1)(2J+3))."""
    j = np.arange(n - 1, dtype=np.float64)
    return (j + 1.0) / np.sqrt((2.0 * j + 1.0) * (2.0 * j + 3.0))


def _cos2_bands(n: int) -> tuple[np.ndarray, np.ndarray]:
    """<J,0|cos^2|J,0> = (2J^2 + 2J - 1) / ((2J-1)(2J+3)) and
    <J,0|cos^2|J+2,0> = (J+1)(J+2) / ((2J+3) sqrt((2J+1)(2J+5)))."""
    j = np.arange(n, dtype=np.float64)
    diag = (2.0 * j * j + 2.0 * j - 1.0) / ((2.0 * j - 1.0) * (2.0 * j + 3.0))
    k = np.arange(n - 2, dtype=np.float64)
    off = (k + 1.0) * (k + 2.0) / ((2.0 * k + 3.0) * np.sqrt((2.0 * k + 1.0) * (2.0 * k + 5.0)))
    return diag, off


COS = np.diag(_cos_band(N_LEVELS), 1) + np.diag(_cos_band(N_LEVELS), -1)
_d2, _o2 = _cos2_bands(N_LEVELS)
COS2 = np.diag(_d2) + np.diag(_o2, 2) + np.diag(_o2, -2)


def final_state(p: float, sigma: float, j0: int) -> np.ndarray:
    """C(tau = 1) on the 60-level basis for the pulse (P, sigma) from |J0, 0>."""
    # Imported here so that scipy stays out of the memory the benchmark measures.
    from scipy.linalg import expm
    h = sigma * np.diag(J2_DIAG) - p * COS
    return expm(-1j * h)[:, j0]


def observables(c: np.ndarray) -> tuple[float, float, float]:
    """(kinetic energy, <cos theta>, <cos^2 theta>) of a 60-level state."""
    energy = float(np.sum(J2_DIAG * np.abs(c) ** 2))
    ori = float(np.real(np.vdot(c, COS @ c)))
    ali = float(np.real(np.vdot(c, COS2 @ c)))
    return energy, ori, ali


def point(p: float, sigma: float, j0: int) -> tuple[float, float, float]:
    return observables(final_state(p, sigma, j0))


def two_level_zero(p: float, n: int) -> float:
    """sigma_n = sqrt(n^2 pi^2 - P^2 / 3), where the J0 = 0 two-level transfer vanishes."""
    return math.sqrt((n * math.pi) ** 2 - p * p / 3.0)
