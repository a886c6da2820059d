"""Post-pulse expectation values and populations of a rotor wavepacket."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MatrixKind, OperatorMatrix, Wavepacket


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
    """Part of <O> from the k-th band of a real symmetric O, over the last axis
    of c (one state or a stack of them): sum_J |C_J|^2 O_JJ for k = 0, else
    2 Re sum_J C_J^* C_{J+k} O_{J,J+k}."""
    if k == 0:
        return np.sum(np.abs(c) ** 2 * band, axis=-1)
    return 2.0 * np.real(np.sum(np.conj(c[..., :-k]) * c[..., k:] * band, axis=-1))


def kinetic_energy(psi: Wavepacket) -> float:
    """sum_J J(J+1) |C_J|^2, in units of the rotational constant."""
    j = psi.basis.j_values().astype(np.float64)
    return float(_band_term(psi.coefficients, j * (j + 1), 0))


def orientation(psi: Wavepacket, cos_mat: OperatorMatrix) -> float:
    """<cos theta> = 2 Re sum_J C_J^* C_{J+1} <J|cos|J+1> (Delta J = +-1)."""
    _check_operator(psi, cos_mat, MatrixKind.COS_THETA)
    return float(_band_term(psi.coefficients, np.diag(cos_mat.entries, 1), 1))


def alignment(psi: Wavepacket, cos2_mat: OperatorMatrix) -> float:
    """<cos^2 theta>: diagonal term plus the Delta J = +-2 coherences."""
    _check_operator(psi, cos2_mat, MatrixKind.COS2_THETA)
    c, m = psi.coefficients, cos2_mat.entries
    return float(_band_term(c, np.diag(m), 0) + _band_term(c, np.diag(m, 2), 2))


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
    return ObservableSet(
        kinetic_energy=kinetic_energy(psi),
        orientation=orientation(psi, cos_mat),
        alignment=alignment(psi, cos2_mat),
        populations=populations(psi),
    )
