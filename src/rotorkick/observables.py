"""Post-pulse expectation values and populations of a rotor wavepacket."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MatrixKind, OperatorMatrix, Wavepacket, _j2

# ndarray.sum without its Python-level wrapper: the same reduction, a little sooner.
_sum = np.add.reduce


@dataclass(frozen=True)
class ObservableSet:
    kinetic_energy: float   # units of the rotational constant
    orientation: float      # <cos theta>, in [-1, 1]
    alignment: float        # <cos^2 theta>, in [0, 1]
    populations: np.ndarray


def _check_operator(psi: Wavepacket, mat: OperatorMatrix, kind: MatrixKind) -> None:
    if mat.kind is not kind:
        raise ValueError(f"expected a {kind.value} matrix, got {mat.kind.value}")
    if mat.basis != psi.basis:
        raise ValueError(
            f"operator basis (j_max={mat.basis.j_max}) does not match "
            f"wavepacket basis (j_max={psi.basis.j_max})")


def _band_term(c: np.ndarray, band: np.ndarray, k: int) -> np.ndarray:
    """Part of <O> from the k-th band (k > 0) of a real symmetric O, over the last
    axis of c (one state or a stack of them): 2 Re sum_J C_J^* C_{J+k} O_{J,J+k}."""
    return 2.0 * _sum(c[..., :-k].conj() * c[..., k:] * band, axis=-1).real


def _expectations(c: np.ndarray, pop: np.ndarray, j2: np.ndarray, cos: np.ndarray,
                  cos2_diag: np.ndarray, cos2_band: np.ndarray):
    """Kinetic energy, <cos theta> and <cos^2 theta> over the last axis of c, with
    pop = |c|^2, from J(J+1) and the bands of cos(theta) and cos^2(theta)."""
    return (_sum(pop * j2, axis=-1), _band_term(c, cos, 1),
            _sum(pop * cos2_diag, axis=-1) + _band_term(c, cos2_band, 2))


def kinetic_energy(psi: Wavepacket) -> float:
    """sum_J J(J+1) |C_J|^2, in units of the rotational constant."""
    return float((abs(psi.coefficients) ** 2 * _j2(psi.basis.j_max)).sum())


def orientation(psi: Wavepacket, cos_mat: OperatorMatrix) -> float:
    """<cos theta> = 2 Re sum_J C_J^* C_{J+1} <J|cos|J+1> (Delta J = +-1)."""
    _check_operator(psi, cos_mat, MatrixKind.COS_THETA)
    return float(_band_term(psi.coefficients, cos_mat.entries.diagonal(1), 1))


def alignment(psi: Wavepacket, cos2_mat: OperatorMatrix) -> float:
    """<cos^2 theta>: diagonal term plus the Delta J = +-2 coherences."""
    _check_operator(psi, cos2_mat, MatrixKind.COS2_THETA)
    c, m = psi.coefficients, cos2_mat.entries
    return float((abs(c) ** 2 * m.diagonal()).sum() + _band_term(c, m.diagonal(2), 2))


def populations(psi: Wavepacket) -> np.ndarray:
    """|C_J|^2 per level."""
    return np.abs(psi.coefficients) ** 2


def coherence_products(psi: Wavepacket, delta: int) -> np.ndarray:
    """|C_J^* C_{J+delta}| for each J, delta in {1, 2}.

    These are the pairwise products whose collective vanishing drives the
    kinetic-energy drops (delta=1 controls orientation, delta=2 alignment).
    """
    if delta not in (1, 2):
        raise ValueError(f"delta must be 1 or 2, got {delta}")
    c = psi.coefficients
    return np.abs(np.conj(c[:-delta]) * c[delta:])


def compute_all(psi: Wavepacket, cos_mat: OperatorMatrix,
                cos2_mat: OperatorMatrix) -> ObservableSet:
    _check_operator(psi, cos_mat, MatrixKind.COS_THETA)
    _check_operator(psi, cos2_mat, MatrixKind.COS2_THETA)
    c, m = psi.coefficients, cos2_mat.entries
    pop = abs(c) ** 2
    energy, orient, align = _expectations(c, pop, _j2(psi.basis.j_max),
                                          cos_mat.entries.diagonal(1), m.diagonal(), m.diagonal(2))
    return ObservableSet(kinetic_energy=float(energy), orientation=float(orient),
                         alignment=float(align), populations=pop)
