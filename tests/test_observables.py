import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorkick import (
    MatrixKind,
    OperatorMatrix,
    PulseSpec,
    RotorBasis,
    Wavepacket,
    alignment,
    build_cos2_matrix,
    build_cos_matrix,
    coherence_products,
    compute_all,
    converge_basis,
    kinetic_energy,
    orientation,
    populations,
    propagate_spectral,
)


def superposition(basis, amplitudes):
    c = np.zeros(basis.dim, dtype=complex)
    for j, a in amplitudes.items():
        c[j] = a
    c /= np.linalg.norm(c)
    return Wavepacket(basis, c, j0=0)


@pytest.fixture(scope="module")
def mats():
    basis = RotorBasis(10)
    return basis, build_cos_matrix(basis), build_cos2_matrix(basis)


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    c /= np.linalg.norm(c)
    return Wavepacket(basis, c, j0=0)


class TestKineticEnergy:
    def test_ground_state(self, mats):
        basis, _, _ = mats
        assert kinetic_energy(Wavepacket.pure(basis, 0)) == 0.0

    def test_pure_excited_state(self, mats):
        basis, _, _ = mats
        assert kinetic_energy(Wavepacket.pure(basis, 2)) == 6.0


class TestOrientation:
    def test_pure_state_vanishes(self, mats):
        basis, cos_m, _ = mats
        assert orientation(Wavepacket.pure(basis, 1), cos_m) == 0.0

    def test_equal_superposition(self, mats):
        basis, cos_m, _ = mats
        psi = superposition(basis, {0: 1.0, 1: 1.0})
        assert orientation(psi, cos_m) == pytest.approx(1 / math.sqrt(3), abs=1e-14)

    def test_vanishes_at_drop(self, mats):
        for j0 in (0, 1, 2):
            pulse = PulseSpec(1.5, 3.044)
            basis = converge_basis(pulse, j0)
            psi = propagate_spectral(pulse, j0, basis).final
            assert abs(orientation(psi, build_cos_matrix(basis))) < 0.02

    def test_basis_mismatch(self, mats):
        _, cos_m, _ = mats
        psi = Wavepacket.pure(RotorBasis(4), 0)
        with pytest.raises(ValueError):
            orientation(psi, cos_m)

    def test_wrong_kind(self, mats):
        basis, _, cos2_m = mats
        with pytest.raises(ValueError):
            orientation(Wavepacket.pure(basis, 0), cos2_m)


class TestAlignment:
    def test_isotropic_ground_state(self, mats):
        basis, _, cos2_m = mats
        assert alignment(Wavepacket.pure(basis, 0), cos2_m) == pytest.approx(1 / 3, abs=1e-14)

    def test_pure_j1(self, mats):
        basis, _, cos2_m = mats
        assert alignment(Wavepacket.pure(basis, 1), cos2_m) == pytest.approx(0.6, abs=1e-12)

    def test_restored_at_drop(self):
        pulse = PulseSpec(1.5, 3.044)
        basis = converge_basis(pulse, 1)
        psi = propagate_spectral(pulse, 1, basis).final
        assert alignment(psi, build_cos2_matrix(basis)) == pytest.approx(0.6, abs=0.05)


class TestPopulations:
    def test_pure_state_one_hot(self, mats):
        basis, _, _ = mats
        pops = populations(Wavepacket.pure(basis, 3))
        assert pops[3] == 1.0
        assert pops.sum() == 1.0

    def test_phase_invariance(self, mats):
        basis, _, _ = mats
        psi = random_state(basis, 3)
        rng = np.random.default_rng(4)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, basis.dim))
        rotated = Wavepacket(basis, psi.coefficients * phases, j0=0)
        assert np.allclose(populations(psi), populations(rotated), atol=1e-14)


class TestCoherenceProducts:
    def test_pure_state_all_zero(self, mats):
        basis, _, _ = mats
        assert np.all(coherence_products(Wavepacket.pure(basis, 2), 1) == 0.0)

    def test_delta2_superposition(self, mats):
        basis, _, _ = mats
        psi = superposition(basis, {0: 1.0, 2: 1.0})
        prods = coherence_products(psi, 2)
        assert prods[0] == pytest.approx(0.5, abs=1e-14)
        assert np.all(prods[1:] == 0.0)

    def test_vanishing_pair_product_at_drop(self):
        pulse = PulseSpec(1.5, 3.044)
        basis = converge_basis(pulse, 0)
        psi = propagate_spectral(pulse, 0, basis).final
        assert coherence_products(psi, 1)[0] < 1e-3

    def test_bad_delta(self, mats):
        basis, _, _ = mats
        with pytest.raises(ValueError):
            coherence_products(Wavepacket.pure(basis, 0), 3)


class TestInvariants:
    def test_cauchy_schwarz(self, mats):
        basis, cos_m, cos2_m = mats
        for seed in range(20):
            psi = random_state(basis, seed)
            ori = orientation(psi, cos_m)
            ali = alignment(psi, cos2_m)
            assert ori * ori <= ali + 1e-12
            assert ali <= 1.0 + 1e-12

    def test_quadratic_form_cross_check(self, mats):
        basis, cos_m, cos2_m = mats
        from rotorkick import build_j2_matrix
        j2 = build_j2_matrix(basis)
        for seed in range(10):
            psi = random_state(basis, seed + 100)
            c = psi.coefficients
            assert kinetic_energy(psi) == pytest.approx(
                np.real(np.conj(c) @ j2.entries @ c), abs=1e-12)
            assert orientation(psi, cos_m) == pytest.approx(
                np.real(np.conj(c) @ cos_m.entries @ c), abs=1e-12)
            assert alignment(psi, cos2_m) == pytest.approx(
                np.real(np.conj(c) @ cos2_m.entries @ c), abs=1e-12)

    def test_global_phase_invariance(self, mats):
        basis, cos_m, _ = mats
        psi = random_state(basis, 9)
        rotated = Wavepacket(basis, psi.coefficients * np.exp(0.7j), j0=0)
        assert orientation(rotated, cos_m) == pytest.approx(
            orientation(psi, cos_m), abs=1e-14)

    def test_compute_all_consistent(self, mats):
        basis, cos_m, cos2_m = mats
        psi = random_state(basis, 11)
        obs = compute_all(psi, cos_m, cos2_m)
        assert obs.kinetic_energy == kinetic_energy(psi)
        assert obs.orientation == orientation(psi, cos_m)
        assert obs.alignment == alignment(psi, cos2_m)
        assert obs.populations.sum() == pytest.approx(1.0, abs=1e-10)


# The observable formulas as they were written with the np.* wrappers and
# np.diag, kept as the reference that the lean versions must equal bit for bit.
def reference_band_term(c, band, k):
    if k == 0:
        return np.sum(np.abs(c) ** 2 * band, axis=-1)
    return 2.0 * np.real(np.sum(np.conj(c[..., :-k]) * c[..., k:] * band, axis=-1))


def reference_observables(psi, cos_mat, cos2_mat):
    c, m = psi.coefficients, cos2_mat.entries
    j = psi.basis.j_values().astype(np.float64)
    return (float(reference_band_term(c, j * (j + 1), 0)),
            float(reference_band_term(c, np.diag(cos_mat.entries, 1), 1)),
            float(reference_band_term(c, np.diag(m), 0) + reference_band_term(c, np.diag(m, 2), 2)),
            np.abs(c) ** 2)


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def banded(basis, kind, bands):
    """A hand-built symmetric OperatorMatrix with the given bands {k: values}."""
    m = np.zeros((basis.dim, basis.dim))
    for k, values in bands.items():
        m += np.diag(values, k) + (np.diag(values, -k) if k else 0)
    return OperatorMatrix(basis, kind, m)


@st.composite
def states_and_operators(draw):
    """A random (unnormalised) state on j_max in [1, 60], the built cos and cos^2
    matrices, and hand-built ones with arbitrary bands."""
    basis = RotorBasis(draw(st.integers(1, 60)))
    part = st.lists(st.floats(-1e3, 1e3), min_size=basis.dim, max_size=basis.dim)
    c = np.array(draw(part)) + 1j * np.array(draw(part))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    hand_cos = banded(basis, MatrixKind.COS_THETA, {1: rng.uniform(-2, 2, basis.j_max)})
    hand_cos2 = banded(basis, MatrixKind.COS2_THETA,
                       {0: rng.uniform(-2, 2, basis.dim), 2: rng.uniform(-2, 2, basis.j_max - 1)})
    return (Wavepacket(basis, c, j0=0), (build_cos_matrix(basis), build_cos2_matrix(basis)),
            (hand_cos, hand_cos2))


class TestEqualityGate:
    @settings(deadline=None, database=None, max_examples=200)
    @given(states_and_operators())
    def test_bitwise_equal_to_reference(self, case):
        psi, built, hand = case
        for cos_m, cos2_m in (built, hand):
            energy, ori, ali, pops = reference_observables(psi, cos_m, cos2_m)
            obs = compute_all(psi, cos_m, cos2_m)
            assert bits(obs.kinetic_energy) == bits(energy) == bits(kinetic_energy(psi))
            assert bits(obs.orientation) == bits(ori) == bits(orientation(psi, cos_m))
            assert bits(obs.alignment) == bits(ali) == bits(alignment(psi, cos2_m))
            assert bits(obs.populations) == bits(pops)

    def test_hand_built_matrix_honoured(self):
        basis = RotorBasis(6)
        psi = random_state(basis, 3)
        cos_m = banded(basis, MatrixKind.COS_THETA, {1: np.linspace(0.1, 0.9, 6)})
        cos2_m = banded(basis, MatrixKind.COS2_THETA, {0: np.full(7, 0.25), 2: np.full(5, -0.5)})
        c = psi.coefficients
        want_ori = float(np.real(np.conj(c) @ cos_m.entries @ c))
        want_ali = float(np.real(np.conj(c) @ cos2_m.entries @ c))
        obs = compute_all(psi, cos_m, cos2_m)
        for ori, ali in ((obs.orientation, obs.alignment),
                         (orientation(psi, cos_m), alignment(psi, cos2_m))):
            assert ori == pytest.approx(want_ori, abs=1e-13)
            assert ali == pytest.approx(want_ali, abs=1e-13)
            assert abs(ori - orientation(psi, build_cos_matrix(basis))) > 1e-3
            assert abs(ali - alignment(psi, build_cos2_matrix(basis))) > 1e-3
