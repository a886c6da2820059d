import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

from rotorkick import (
    ConvergenceError,
    Method,
    PulseSpec,
    RotorBasis,
    converge_basis,
    delta_kick,
    kinetic_energy,
    propagate_ode,
    propagate_spectral,
)
from rotorkick import propagate as propagate_module
from rotorkick.propagate import _point, _propagate_points


class TestSpectral:
    def test_free_rotor_phase_only(self):
        rep = propagate_spectral(PulseSpec(0.0, 2.0), 1, RotorBasis(5))
        c = rep.final.coefficients
        assert abs(c[1] - cmath.exp(-2j * 2.0)) < 1e-14
        assert np.max(np.abs(np.delete(c, 1))) < 1e-14

    def test_norm_conserved_to_machine_precision(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = PulseSpec(float(rng.uniform(0, 10)), float(rng.uniform(0.01, 10)))
            rep = propagate_spectral(p, 0, RotorBasis(int(rng.integers(4, 60))))
            assert rep.norm_drift < 1e-12

    def test_kinetic_energy_minimum_near_first_drop(self):
        pulse = PulseSpec(1.5, 3.044)
        basis = converge_basis(pulse, 0)
        rep = propagate_spectral(pulse, 0, basis)
        assert kinetic_energy(rep.final) < 1e-4
        assert abs(rep.final.coefficients[1]) < 1e-3

    def test_adiabatic_return(self):
        for j0 in (0, 1, 2):
            pulse = PulseSpec(1.5, 10.0)
            basis = converge_basis(pulse, j0)
            pops = np.abs(propagate_spectral(pulse, j0, basis).final.coefficients) ** 2
            assert pops[j0] > 0.99

    def test_j0_outside_basis(self):
        with pytest.raises(ValueError):
            propagate_spectral(PulseSpec(1.0, 1.0), 9, RotorBasis(4))

    def test_hybridization_symmetry(self):
        # |C^m_n| == |C^n_m| for a shared basis
        pulse = PulseSpec(1.5, 3.0)
        basis = RotorBasis(12)
        c = np.stack([propagate_spectral(pulse, j0, basis).final.coefficients
                      for j0 in range(4)])
        mags = np.abs(c[:, :4])
        assert np.max(np.abs(mags - mags.T)) < 1e-10


@st.composite
def spectral_cases(draw):
    """(pulse, basis, m, n): P in [0, 20], sigma in [0.005, 10], j_max in
    [1, 60] and two initial levels m, n of the basis."""
    pulse = PulseSpec(draw(st.floats(0.0, 20.0)), draw(st.floats(0.005, 10.0)))
    basis = RotorBasis(draw(st.integers(1, 60)))
    level = st.integers(0, basis.j_max)
    return pulse, basis, draw(level), draw(level)


class TestSpectralProperties:
    @settings(deadline=None, database=None)
    @given(spectral_cases())
    def test_unitary(self, case):
        pulse, basis, m, _ = case
        assert propagate_spectral(pulse, m, basis).norm_drift < 1e-12

    @settings(deadline=None, database=None)
    @given(spectral_cases())
    def test_hybridization_symmetry(self, case):
        # H is real symmetric, so exp(-iH) is symmetric: |C^m_n| = |C^n_m|
        pulse, basis, m, n = case
        c_m = propagate_spectral(pulse, m, basis).final.coefficients
        c_n = propagate_spectral(pulse, n, basis).final.coefficients
        assert abs(abs(c_m[n]) - abs(c_n[m])) < 1e-12


class TestOde:
    def test_matches_spectral(self):
        pulse = PulseSpec(1.5, 3.0)
        basis = RotorBasis(9)
        spec = propagate_spectral(pulse, 0, basis).final.coefficients
        ode = propagate_ode(pulse, 0, basis, steps=100_000).final.coefficients
        assert np.max(np.abs(spec - ode)) < 1e-8

    def test_random_sample_method_equivalence(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            pulse = PulseSpec(float(rng.uniform(0, 10)), float(rng.uniform(0.01, 10)))
            basis = converge_basis(pulse, 0)
            spec = propagate_spectral(pulse, 0, basis).final.coefficients
            ode = propagate_ode(pulse, 0, basis, steps=100_000).final.coefficients
            assert np.max(np.abs(spec - ode)) < 1e-8

    def test_free_rotor(self):
        rep = propagate_ode(PulseSpec(0.0, 1.0), 1, RotorBasis(4), steps=5000)
        assert abs(rep.final.coefficients[1] - cmath.exp(-2j)) < 1e-10

    def test_method_tag_and_norm_drift(self):
        rep = propagate_ode(PulseSpec(1.5, 3.0), 0, RotorBasis(9), steps=20_000)
        assert rep.method is Method.ODE_RK4
        assert rep.norm_drift < 1e-10

    def test_low_step_count_warns(self):
        with pytest.warns(RuntimeWarning):
            rep = propagate_ode(PulseSpec(1.0, 1.0), 0, RotorBasis(4), steps=500)
        assert rep.warning is not None

    def test_unstable_step_count_warns(self):
        with pytest.warns(RuntimeWarning):
            propagate_ode(PulseSpec(1.0, 10.0), 0, RotorBasis(40), steps=1500)


class TestDeltaKick:
    def test_identity_at_zero_strength(self):
        psi = delta_kick(0.0, 2, RotorBasis(6))
        assert abs(psi.coefficients[2] - 1.0) < 1e-14

    def test_populations_match_spherical_bessel(self):
        for p in (0.5, 1.5, 3.0):
            basis = RotorBasis(20)
            pops = np.abs(delta_kick(p, 0, basis).coefficients) ** 2
            j = np.arange(basis.dim)
            oracle = (2 * j + 1) * spherical_jn(j, p) ** 2
            assert np.max(np.abs(pops - oracle)) < 1e-12

    def test_kinetic_energy_identity(self):
        # sum J(J+1)(2J+1) j_J(P)^2 = 2 P^2 / 3
        for p in (0.5, 1.5, 3.0, 6.0):
            psi = delta_kick(p, 0, RotorBasis(max(12, int(3 * p))))
            assert kinetic_energy(psi) == pytest.approx(2 * p * p / 3, rel=1e-9)

    def test_single_level_amplitude(self):
        psi = delta_kick(1.5, 0, RotorBasis(10))
        assert abs(psi.coefficients[1]) ** 2 == pytest.approx(
            3 * spherical_jn(1, 1.5) ** 2, abs=1e-13)

    def test_impulsive_limit_of_short_pulse(self):
        # sigma = 0.005 propagation approaches the delta-kick populations
        for p in (0.5, 1.5, 3.0):
            for j0 in (0, 1, 2):
                pulse = PulseSpec(p, 0.005)
                basis = converge_basis(pulse, j0)
                pops = np.abs(propagate_spectral(pulse, j0, basis).final.coefficients) ** 2
                kick = np.abs(delta_kick(p, j0, basis).coefficients) ** 2
                assert np.max(np.abs(pops - kick)) < 1e-3


class TestConvergeBasis:
    def test_free_rotor_returns_start(self):
        basis = converge_basis(PulseSpec(0.0, 1.0), 0)
        assert basis.j_max == 4

    def test_ten_levels_suffice_at_moderate_strength(self):
        basis = converge_basis(PulseSpec(1.5, 3.0), 0)
        assert basis.j_max <= 10

    def test_strong_short_pulse_needs_more(self):
        pulse = PulseSpec(10.0, 0.1)
        basis = converge_basis(pulse, 0)
        assert basis.j_max > 10
        leak = propagate_spectral(pulse, 0, RotorBasis(10)).basis_leak
        assert leak > 1e-10

    def test_cap_raises(self):
        with pytest.raises(ConvergenceError):
            converge_basis(PulseSpec(10.0, 0.1), 0, j_max_cap=12)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            converge_basis(PulseSpec(1.0, 1.0), 0, leak_tol=2.0)


def fresh_c1(pulse, j0, j_max):
    """C(1) straight from the kernel, past every cache."""
    return _propagate_points(np.array([pulse.strength]), np.array([pulse.sigma]), j0, j_max)[0]


def assert_fresh(report, pulse, j0, basis):
    c = report.final.coefficients
    assert c.flags.writeable
    assert c.tobytes() == fresh_c1(pulse, j0, basis.j_max).tobytes()


class TestPointCache:
    """converge_basis keeps the C(1) of the basis it accepts for the next
    propagate_spectral; no later call may see a stale or altered state."""

    PULSE_A, PULSE_B = PulseSpec(1.5, 3.044), PulseSpec(7.3, 0.9)

    def setup_method(self):
        _point.cache_clear()

    def test_same_call_reuses(self):
        basis = converge_basis(self.PULSE_A, 0)
        hits = _point.cache_info().hits
        assert_fresh(propagate_spectral(self.PULSE_A, 0, basis), self.PULSE_A, 0, basis)
        assert _point.cache_info().hits == hits + 1

    def test_other_pulse(self):
        basis = converge_basis(self.PULSE_A, 0)
        assert_fresh(propagate_spectral(self.PULSE_B, 0, basis), self.PULSE_B, 0, basis)

    def test_other_j0(self):
        basis = converge_basis(self.PULSE_A, 0)
        assert_fresh(propagate_spectral(self.PULSE_A, 1, basis), self.PULSE_A, 1, basis)

    def test_hand_made_basis(self):
        converge_basis(self.PULSE_A, 0)
        basis = RotorBasis(13)
        assert_fresh(propagate_spectral(self.PULSE_A, 0, basis), self.PULSE_A, 0, basis)

    def test_after_convergence_error(self):
        pulse = PulseSpec(10.0, 0.1)
        with pytest.raises(ConvergenceError):
            converge_basis(pulse, 0, j_max_cap=12)
        for j_max in (12, 8, 40):
            basis = RotorBasis(j_max)
            assert_fresh(propagate_spectral(pulse, 0, basis), pulse, 0, basis)

    def test_mutated_result_does_not_leak(self):
        basis = converge_basis(self.PULSE_A, 0)
        first = propagate_spectral(self.PULSE_A, 0, basis)
        first.final.coefficients[:] = 7.0
        assert_fresh(propagate_spectral(self.PULSE_A, 0, basis), self.PULSE_A, 0, basis)
        assert converge_basis(self.PULSE_A, 0) == basis
        assert_fresh(propagate_spectral(self.PULSE_A, 0, basis), self.PULSE_A, 0, basis)

    def test_cached_state_read_only(self):
        c = _point(1.5, 3.044, 0, 8)
        with pytest.raises(ValueError):
            c[0] = 7.0


class TestEigensolveCount:
    def test_one_solve_per_ladder_round(self, monkeypatch):
        calls = []

        def counted(p, sigma, j0, j_max):
            calls.append(j_max)
            return _propagate_points(p, sigma, j0, j_max)

        monkeypatch.setattr(propagate_module, "_propagate_points", counted)
        _point.cache_clear()
        for pulse, j0 in [(PulseSpec(1.5, 3.044), 0), (PulseSpec(10.0, 0.1), 2)]:
            calls.clear()
            basis = converge_basis(pulse, j0)
            propagate_spectral(pulse, j0, basis)
            assert calls == list(range(j0 + 4, basis.j_max + 1, 4))
