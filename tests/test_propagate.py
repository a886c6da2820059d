import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import spherical_jn

import rotorkick.core
import rotorkick.propagate
from rotorkick import (
    ConvergenceError,
    Method,
    PulseSpec,
    RotorBasis,
    build_hamiltonian,
    converge_basis,
    delta_kick,
    kinetic_energy,
    propagate_ode,
    propagate_spectral,
)
from rotorkick.core import _J_MAX_LIMIT
from rotorkick.propagate import _leak, _point, _propagate_points, _state_leak


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
    @given(spectral_cases())
    def test_unitary(self, case):
        pulse, basis, m, _ = case
        assert propagate_spectral(pulse, m, basis).norm_drift < 1e-12

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

    def test_norm_preserved(self):
        c = propagate_ode(PulseSpec(1.5, 3.0), 0, RotorBasis(9), steps=20_000).final.coefficients
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-10)

    def test_low_step_count_warns(self):
        with pytest.warns(RuntimeWarning):
            rep = propagate_ode(PulseSpec(1.0, 1.0), 0, RotorBasis(4), steps=500)
        assert rep.warning is not None

    def test_unstable_step_count_warns(self):
        with pytest.warns(RuntimeWarning):
            propagate_ode(PulseSpec(1.0, 10.0), 0, RotorBasis(40), steps=1500)

    def test_free_rotor_closed_form(self):
        # P = 0: H is diagonal and C_J0(1) = exp(-i sigma J0 (J0 + 1)) exactly
        for j0 in range(4):
            c = propagate_ode(PulseSpec(0.0, 0.5), j0, RotorBasis(5), steps=20_000).final.coefficients
            assert abs(c[j0] - cmath.exp(-0.5j * j0 * (j0 + 1))) < 1e-12
            assert not np.delete(c, j0).any()

    def test_rejects_nonpositive_steps(self):
        for steps in (0, -1):
            with pytest.raises(ValueError, match=f"^steps must be >= 1, got {steps}$"):
                propagate_ode(PulseSpec(1.5, 3.0), 0, RotorBasis(9), steps=steps)

    @pytest.mark.parametrize("steps", [2500.0, np.float64(2500), True, "2500", None])
    def test_rejects_non_integer_steps(self, steps):
        with pytest.raises(ValueError, match="^steps must be an integer, got "):
            propagate_ode(PulseSpec(1.5, 3.0), 0, RotorBasis(9), steps=steps)

    def test_accepts_numpy_integer_steps(self):
        pulse, basis = PulseSpec(1.5, 3.0), RotorBasis(9)
        for steps in (np.int64(2500), np.int32(2500), np.uint16(2500)):
            got = propagate_ode(pulse, 0, basis, steps=steps).final.coefficients
            want = propagate_ode(pulse, 0, basis, steps=2500).final.coefficients
            assert got.tobytes() == want.tobytes()


def reference_rk4(pulse, j0, basis, steps):
    """The four-stage RK4 loop that propagate_ode used to run, step by step:
    the reference its precomputed step matrix is held to."""
    a = -1j * build_hamiltonian(basis, pulse).entries
    c = np.zeros(basis.dim, dtype=np.complex128)
    c[j0] = 1.0
    dt = 1.0 / steps
    for _ in range(steps):
        k1 = np.dot(a, c)
        k2 = np.dot(a, c + (0.5 * dt) * k1)
        k3 = np.dot(a, c + (0.5 * dt) * k2)
        k4 = np.dot(a, c + dt * k3)
        c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return c


def criterion_07_pulses():
    """The 20 seeded pulses of validate.check_method_cross_validation."""
    rng = np.random.default_rng(12345)
    return [PulseSpec(float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.01, 10.0)))
            for _ in range(20)]


class TestRk4Gate:
    """propagate_ode against reference_rk4 within 1e-13: the step matrix
    reorders the rounding of each step, nothing else."""

    @staticmethod
    def assert_matches_reference(pulse, j0, basis, steps):
        got = propagate_ode(pulse, j0, basis, steps=steps)
        assert got.warning is None
        assert np.max(np.abs(got.final.coefficients - reference_rk4(pulse, j0, basis, steps))) <= 1e-13

    def test_criterion_07_points(self):
        for pulse in criterion_07_pulses():
            self.assert_matches_reference(pulse, 0, converge_basis(pulse, 0), 2000)

    def test_criterion_07_points_at_default_steps(self):
        for pulse in criterion_07_pulses()[:2]:
            self.assert_matches_reference(pulse, 0, converge_basis(pulse, 0), 100_000)

    def test_higher_j0(self):
        for j0 in (1, 2):
            for pulse in criterion_07_pulses()[:5]:
                self.assert_matches_reference(pulse, j0, converge_basis(pulse, j0), 2000)

    def test_fixed_large_basis(self):
        for pulse in (PulseSpec(1.5, 1.0), PulseSpec(5.0, 0.5), PulseSpec(9.0, 2.5)):
            self.assert_matches_reference(pulse, 0, RotorBasis(40), 2000)


class TestDeltaKick:
    @pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_strength_rejected(self, p):
        with pytest.raises(ValueError, match=f"^P must be finite and >= 0, got {p}$"):
            delta_kick(p, 0, RotorBasis(6))

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

    def test_matches_padded_cos_exponential(self):
        # the reference: eigh of cos(theta) on the padded basis, then exp(+i P lambda)
        worst = 0.0
        for basis in (RotorBasis(4), RotorBasis(12)):
            for p in np.arange(0.0, 20.5, 0.5).tolist():
                j = np.arange(basis.j_max + max(8, math.ceil(2 * p)), dtype=float)
                band = (j + 1) / np.sqrt((2 * j + 1) * (2 * j + 3))
                evals, u = np.linalg.eigh(np.diag(band, 1) + np.diag(band, -1))
                for j0 in range(4):
                    want = (u @ (np.exp(1j * p * evals) * u[j0]))[:basis.dim]
                    got = delta_kick(p, j0, basis).coefficients
                    worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-13

    def test_keeps_the_cached_point(self):
        _point.cache_clear()
        pulse = PulseSpec(1.5, 3.044)
        basis = converge_basis(pulse, 0)
        delta_kick(1.5, 0, basis)
        hits = _point.cache_info().hits
        propagate_spectral(pulse, 0, basis)
        assert _point.cache_info().hits == hits + 1

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

    @pytest.mark.parametrize("cap", [_J_MAX_LIMIT + 1, 2.5, True])
    def test_cap_outside_the_limit_refused_before_any_band(self, cap, monkeypatch):
        def no_bands(j_max):
            raise AssertionError(f"_bands({j_max}) was called")
        monkeypatch.setattr(rotorkick.core, "_bands", no_bands)
        with pytest.raises(ValueError, match=re.escape(
                f"j_max_cap must be an integer in [1, {_J_MAX_LIMIT}], got {cap!r}")):
            # from J0 = 0 the first rung, j_max 4, would build its bands
            converge_basis(PulseSpec(500.0, 0.001), 0, leak_tol=1e-14, j_max_cap=cap)

    def test_cap_at_the_limit_accepted(self):
        assert converge_basis(PulseSpec(0.0, 1.0), 0, j_max_cap=_J_MAX_LIMIT).j_max == 4


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
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape[-1] - 1)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        _point.cache_clear()
        for pulse, j0 in [(PulseSpec(1.5, 3.044), 0), (PulseSpec(10.0, 0.1), 2)]:
            calls.clear()
            basis = converge_basis(pulse, j0)
            propagate_spectral(pulse, j0, basis)
            assert calls == list(range(j0 + 4, basis.j_max + 1, 4))


class TestJ0Rule:
    """One J0 rule on every one-point entry: an integer (Python or numpy, not a
    bool) first, then a level of the basis."""

    ENTRIES = {
        "converge_basis": lambda j0: converge_basis(PulseSpec(1.5, 3.0), j0),
        "propagate_spectral": lambda j0: propagate_spectral(PulseSpec(1.5, 3.0), j0,
                                                            RotorBasis(8)),
        "delta_kick": lambda j0: delta_kick(1.5, j0, RotorBasis(8)),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("j0", [2.5, 1.0, True, "1", None])
    def test_not_an_integer(self, entry, j0):
        _point.cache_clear()
        with pytest.raises(ValueError, match=r"^J0 must be an integer >= 0, got "):
            self.ENTRIES[entry](j0)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_true_is_not_served_the_state_of_1(self, entry):
        _point.cache_clear()
        self.ENTRIES[entry](1)
        with pytest.raises(ValueError, match=r"^J0 must be an integer >= 0, got True$"):
            self.ENTRIES[entry](True)

    @pytest.mark.parametrize("j0", [np.int64(1), np.int32(2)])
    def test_numpy_integers_pass(self, j0):
        for entry in self.ENTRIES.values():
            entry(j0)


class TestOneKernel:
    """The one-point solve and the delta-kick are the stacked kernel's _solve."""

    def test_point_and_delta_kick_call_solve(self, monkeypatch):
        solve, calls = rotorkick.propagate._solve, []

        def spy(p, sigma, j0, j_max):
            calls.append((p, sigma, j0, j_max))
            return solve(p, sigma, j0, j_max)
        monkeypatch.setattr(rotorkick.propagate, "_solve", spy)
        _point.cache_clear()
        _point(1.5, 3.0, 1, 8)
        delta_kick(2.5, 0, RotorBasis(6))
        assert calls == [(1.5, 3.0, 1, 8), (2.5, 0.0, 0, 6 + 8)]


@st.composite
def one_point_cases(draw):
    """(P, sigma, J0, j_max): P in [0, 10], with P = 0 drawn on its own as well,
    sigma in [0.005, 10], J0 in 0..3 and j_max in J0 + 1..60."""
    p = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    j0 = draw(st.integers(0, 3))
    return p, draw(st.floats(0.005, 10.0)), j0, draw(st.integers(j0 + 1, 60))


class TestOnePointSolve:
    """The 2-D solve of one point (_point) against the stacked kernel on a stack
    of one, which stays the reference: the same bits, and the same leak."""

    @given(one_point_cases())
    def test_bitwise_equal_to_stacked_kernel(self, case):
        p, sigma, j0, j_max = case
        _point.cache_clear()
        got = _point(p, sigma, j0, j_max)
        want = _propagate_points(np.array([p]), np.array([sigma]), j0, j_max)
        assert got.tobytes() == want[0].tobytes()
        assert np.float64(_state_leak(got)).tobytes() == _leak(want)[0].tobytes()

    @given(st.integers(1, 60), st.integers(1, 3))
    def test_j0_above_basis_rejected(self, j_max, excess):
        j0 = j_max + excess
        for solve in (lambda: _point(1.5, 3.0, j0, j_max),
                      lambda: _propagate_points(np.array([1.5]), np.array([3.0]), j0, j_max)):
            with pytest.raises(ValueError, match=f"^J0={j0} outside basis \\(j_max={j_max}\\)$"):
                solve()
