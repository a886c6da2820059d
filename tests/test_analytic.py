import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import rotorkick.analytic
from rotorkick import (
    PulseSpec,
    coefficient_c1_of_0,
    coefficient_c2_of_1,
    compare_drops_to_analytic,
    converge_basis,
    existence_threshold,
    propagate_spectral,
    sinc,
    two_level_solution,
    zero_loci,
)
from rotorkick.analytic import TwoLevelSolution, ZeroLocus
from rotorkick.core import _N_MAX_CAP


def evaluate_two_level(sol, tau):
    """Oracle: C(tau) from the eigen-decomposition pieces."""
    a1, a2 = sol.integration_constants
    v1, v2 = (np.array(v, dtype=complex) for v in sol.eigenvectors)
    l1, l2 = sol.eigenvalues
    return a1 * cmath.exp(l1 * tau) * v1 + a2 * cmath.exp(l2 * tau) * v2


class TestSinc:
    def test_zero(self):
        assert sinc(0.0) == 1.0

    def test_series_branch_matches_direct(self):
        for x in (1e-5, 5e-5, 9.9e-5):
            assert sinc(x) == pytest.approx(math.sin(x) / x, abs=1e-15)

    def test_zeros_at_multiples_of_pi(self):
        assert abs(sinc(math.pi)) < 1e-15
        assert abs(sinc(2 * math.pi)) < 1e-15


class TestTwoLevelSolution:
    def test_uncoupled_limit(self):
        sol = two_level_solution(0, PulseSpec(0.0, 2.0))
        assert sol.eigenvalues[0] == pytest.approx(-4j, abs=1e-14)
        assert sol.eigenvalues[1] == pytest.approx(0.0, abs=1e-14)
        assert sol.sinc_argument_factor == 1.0
        assert sol.eigenvectors == ((1.0, 0.0), (0.0, 1.0))

    def test_xi_plug_in_values(self):
        assert two_level_solution(0, PulseSpec.from_eta(math.sqrt(3), 1.0)
                                  ).sinc_argument_factor == pytest.approx(math.sqrt(2))
        assert two_level_solution(1, PulseSpec.from_eta(math.sqrt(15), 1.0)
                                  ).sinc_argument_factor == pytest.approx(2 * math.sqrt(2))

    def test_eigenvalues_pure_imaginary(self):
        for j0 in (0, 1):
            sol = two_level_solution(j0, PulseSpec(1.5, 3.0))
            for lam in sol.eigenvalues:
                assert lam.real == 0.0

    def test_integration_constants_antisymmetric(self):
        sol = two_level_solution(0, PulseSpec(1.5, 3.0))
        assert sol.integration_constants[0] == -sol.integration_constants[1]

    def test_xi_lower_bounds(self):
        for sigma in (0.5, 1.0, 5.0):
            p = PulseSpec(2.0, sigma)
            assert two_level_solution(0, p).sinc_argument_factor >= 1.0
            assert two_level_solution(1, p).sinc_argument_factor >= 2.0

    def test_initial_condition_recovered(self):
        # A1 v1 + A2 v2 must equal the unit vector on the initial state
        for j0 in (0, 1):
            sol = two_level_solution(j0, PulseSpec(1.5, 3.0))
            c0 = evaluate_two_level(sol, 0.0)
            assert abs(c0[0] - 1.0) < 1e-12
            assert abs(c0[1]) < 1e-12

    def test_unitarity(self):
        for j0 in (0, 1):
            for sigma in (0.3, 1.0, 3.0, 7.0):
                sol = two_level_solution(j0, PulseSpec(1.5, sigma))
                c = evaluate_two_level(sol, 1.0)
                assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_j0(self):
        with pytest.raises(ValueError):
            two_level_solution(2, PulseSpec(1.0, 1.0))


class TestTransferCoefficients:
    def test_c1_impulsive_limit(self):
        # sigma -> 0 at fixed P: sigma*xi -> P/sqrt(3), so C1 -> i sin(P/sqrt(3))
        c = coefficient_c1_of_0(PulseSpec(1.5, 1e-9))
        assert c == pytest.approx(1j * math.sin(1.5 / math.sqrt(3)), abs=1e-8)

    def test_c2_impulsive_limit(self):
        # sigma -> 0 at fixed P: sigma*xi -> 2P/sqrt(15), so C2 -> i sin(2P/sqrt(15))
        c = coefficient_c2_of_1(PulseSpec(1.5, 1e-9))
        assert c == pytest.approx(1j * math.sin(2 * 1.5 / math.sqrt(15)), abs=1e-8)

    def test_magnitude_matches_solution_oracle(self):
        for sigma in (0.5, 2.0, 3.0, 8.0):
            pulse = PulseSpec(1.5, sigma)
            c_model = evaluate_two_level(two_level_solution(0, pulse), 1.0)
            assert abs(coefficient_c1_of_0(pulse)) == pytest.approx(abs(c_model[1]), abs=1e-12)
            c_model = evaluate_two_level(two_level_solution(1, pulse), 1.0)
            assert abs(coefficient_c2_of_1(pulse)) == pytest.approx(abs(c_model[1]), abs=1e-12)

    def test_sinc_bound(self):
        for sigma in np.linspace(0.1, 10, 50):
            assert abs(coefficient_c1_of_0(PulseSpec(1.5, sigma))) <= 1.5 / math.sqrt(3) + 1e-12

    def test_full_model_agreement_weak_pulse(self):
        for p in (0.5, 1.5):
            for sigma in (2.0, 4.0, 7.0, 10.0):
                pulse = PulseSpec(p, sigma)
                basis = converge_basis(pulse, 0)
                c1_full = abs(propagate_spectral(pulse, 0, basis).final.coefficients[1])
                assert abs(abs(coefficient_c1_of_0(pulse)) - c1_full) < 0.02


class TestZeroLoci:
    def test_roots_vanish_c1(self):
        for z in zero_loci(0, 1.5, 3):
            assert abs(coefficient_c1_of_0(PulseSpec(1.5, z.sigma_exact))) < 1e-12

    def test_roots_vanish_c2(self):
        for z in zero_loci(1, 1.5, 4):
            assert abs(coefficient_c2_of_1(PulseSpec(1.5, z.sigma_exact))) < 1e-12

    def test_against_root_finding_oracle(self):
        # brentq on sigma -> sin(sigma * xi(sigma)) around each bracket
        def f(sigma, p):
            xi = two_level_solution(0, PulseSpec(p, sigma)).sinc_argument_factor
            return math.sin(sigma * xi)

        p = 1.5
        for z in zero_loci(0, p, 3):
            root = brentq(f, z.sigma_exact - 0.4, z.sigma_exact + 0.4, args=(p,))
            assert z.sigma_exact == pytest.approx(root, abs=1e-10)

    def test_taylor_close_to_exact(self):
        for z in zero_loci(0, 1.5, 5) + zero_loci(1, 1.5, 5):
            assert abs(z.sigma_taylor - z.sigma_exact) < 0.005

    def test_taylor_gap_shrinks_with_n(self):
        gaps = [abs(z.sigma_taylor - z.sigma_exact) for z in zero_loci(0, 1.5, 5)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_low_n_roots_disappear_at_strong_pulse(self):
        ns = [z.n for z in zero_loci(0, 10.0, 4)]
        assert 1 not in ns
        assert ns[0] == 2

    def test_weak_pulse_periods(self):
        # P -> 0: zeros at n*pi (J0=0) and n*pi/2 (J0=1)
        for z in zero_loci(0, 1e-6, 3):
            assert z.sigma_exact == pytest.approx(z.n * math.pi, abs=1e-9)
        for z in zero_loci(1, 1e-6, 3):
            assert z.sigma_exact == pytest.approx(z.n * math.pi / 2, abs=1e-9)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("j0", [0, 1])
    def test_non_finite_strength_rejected(self, j0, p):
        with pytest.raises(ValueError, match=f"^P must be finite and >= 0, got {p}$"):
            zero_loci(j0, p, 5)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zero_loci(0, -1.0, 3)
        with pytest.raises(ValueError):
            zero_loci(0, 1.0, 0)
        with pytest.raises(ValueError):
            zero_loci(2, 1.0, 3)

    @pytest.mark.parametrize("n_max", [2.5, True, 0, -1, _N_MAX_CAP + 1, 10**18])
    def test_n_max_checked_before_the_loop(self, n_max, monkeypatch):
        # no locus is built: the value is refused before the loop starts
        def no_locus(**kw):
            raise AssertionError("zero_loci started its loop")
        monkeypatch.setattr(rotorkick.analytic, "ZeroLocus", no_locus)
        with pytest.raises(ValueError, match=f"^n_max must be an integer in \\[1, {_N_MAX_CAP}\\]"):
            zero_loci(0, 1.0, n_max)

    def test_n_max_at_the_cap(self):
        loci = zero_loci(1, 1.0, _N_MAX_CAP)
        assert len(loci) == _N_MAX_CAP and loci[-1].n == _N_MAX_CAP


class TestExistenceThreshold:
    def test_values(self):
        assert existence_threshold(0) == pytest.approx(math.sqrt(3) * math.pi)
        assert existence_threshold(0) == pytest.approx(5.441, abs=1e-3)
        assert existence_threshold(1) == pytest.approx(math.sqrt(15) / 2 * math.pi)
        assert existence_threshold(1) == pytest.approx(6.0837, abs=1e-3)

    def test_boundary_behavior(self):
        for j0 in (0, 1):
            thr = existence_threshold(j0)
            assert any(z.n == 1 for z in zero_loci(j0, thr - 1e-6, 2))
            assert not any(z.n == 1 for z in zero_loci(j0, thr + 1e-6, 2))


# The reference: each closed form written out per J0, as the module had it
# before the two pairs came from one table of (g, q, sqrt(q)).
SQRT3 = math.sqrt(3.0)
SQRT15 = math.sqrt(15.0)


def ref_two_level_solution(j0, pulse):
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


def ref_coefficient_c1_of_0(pulse):
    xi = ref_two_level_solution(0, pulse).sinc_argument_factor
    return (1j * pulse.strength * sinc(pulse.sigma * xi) / SQRT3
            * complex(math.cos(pulse.sigma), math.sin(pulse.sigma)))


def ref_coefficient_c2_of_1(pulse):
    xi = ref_two_level_solution(1, pulse).sinc_argument_factor
    return (2j * pulse.strength * sinc(pulse.sigma * xi) / SQRT15
            * complex(math.cos(4.0 * pulse.sigma), math.sin(4.0 * pulse.sigma)))


def ref_zero_loci(j0, strength, n_max):
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


def ref_existence_threshold(j0):
    if j0 == 0:
        return SQRT3 * math.pi
    if j0 == 1:
        return 0.5 * SQRT15 * math.pi
    raise ValueError(f"threshold is defined for J0 in {{0, 1}}, got {j0}")


def bits(value):
    """value with every float as float.hex, so that equal means bit for bit,
    the sign of a zero included: complex as (real, imag), containers and
    dataclasses (by field) item by item."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, bits(dataclasses.astuple(value))
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [bits(v) for v in value]
    return value


def near_branch_threshold(j0, n, ulps):
    """n times the J0 existence threshold, moved by ulps units in the last place:
    the strength at which branch n appears or goes."""
    x = n * ref_existence_threshold(j0)
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else 0.0)
    return x


class TestSameBitsAsPerJ0Forms:
    """The one pair law gives every value bit for bit as the per-J0 closed forms."""

    @settings(max_examples=300)
    @given(j0=st.sampled_from([0, 1]),
           p=st.one_of(st.just(0.0), st.floats(1e-8, 1e8),
                       st.builds(near_branch_threshold, st.sampled_from([0, 1]),
                                 st.integers(1, 200), st.integers(-64, 64))),
           sigma=st.floats(1e-4, 1e4), n_max=st.integers(1, 200))
    @example(j0=0, p=0.0, sigma=2.0, n_max=200)
    @example(j0=1, p=0.0, sigma=2.0, n_max=200)
    @example(j0=0, p=near_branch_threshold(0, 1, -1), sigma=1.0, n_max=3)
    @example(j0=1, p=near_branch_threshold(1, 200, 1), sigma=1.0, n_max=200)
    def test_every_public_function(self, j0, p, sigma, n_max):
        pulse = PulseSpec(p, sigma)
        assert bits(two_level_solution(j0, pulse)) == bits(ref_two_level_solution(j0, pulse))
        assert bits(coefficient_c1_of_0(pulse)) == bits(ref_coefficient_c1_of_0(pulse))
        assert bits(coefficient_c2_of_1(pulse)) == bits(ref_coefficient_c2_of_1(pulse))
        assert bits(zero_loci(j0, p, n_max)) == bits(ref_zero_loci(j0, p, n_max))
        assert bits(existence_threshold(j0)) == bits(ref_existence_threshold(j0))

    def test_strengths_fall_on_both_sides_of_a_branch_threshold(self):
        # the near_branch_threshold strengths do cross: branch n is there below, gone above
        for j0 in (0, 1):
            for n in (1, 7, 200):
                below, above = (near_branch_threshold(j0, n, u) for u in (-64, 64))
                assert zero_loci(j0, below, n)[-1].n == n
                assert not zero_loci(j0, above, n) or zero_loci(j0, above, n)[-1].n < n

    @pytest.mark.parametrize("call, message", [
        (lambda j0: two_level_solution(j0, PulseSpec(1.0, 1.0)), "two-level model is"),
        (lambda j0: zero_loci(j0, 1.0, 3), "zero loci are"),
        (existence_threshold, "threshold is"),
        (lambda j0: compare_drops_to_analytic([3.0], 1.5, j0), "zero loci are"),
    ])
    @pytest.mark.parametrize("j0", [2, -1, 1.5, None])
    def test_one_refusal_message_per_function(self, call, message, j0):
        text = f"{message} defined for J0 in {{0, 1}}, got {j0}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            call(j0)
