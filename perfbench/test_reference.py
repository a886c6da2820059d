"""The independent reference reproduces known limits of the rotor dynamics."""

import math

import numpy as np
import pytest

import reference


@pytest.mark.parametrize("p", [0.5, 1.5, 3.0])
def test_delta_kick_energy(p):
    # sigma -> 0: the pulse is a kick exp(i P cos theta), and from |0,0> the
    # kinetic energy is P^2 <sin^2 theta> = 2 P^2 / 3.
    energy = reference.point(p, 1e-6, 0)[0]
    assert energy == pytest.approx(2.0 * p * p / 3.0, rel=1e-5)


@pytest.mark.parametrize("j0", [0, 1, 2])
def test_adiabatic_limit(j0):
    # sigma = 10 >> 1: the rotor follows the field and ends where it began.
    c = reference.final_state(1.5, 10.0, j0)
    assert abs(c[j0]) ** 2 > 0.99
    assert abs(reference.observables(c)[0] - j0 * (j0 + 1)) < 0.05


def test_closed_form_elements_are_consistent():
    # cos^2 = cos . cos away from the basis edge, and <0,0|cos^2|0,0> = 1/3.
    square = reference.COS @ reference.COS
    np.testing.assert_allclose(reference.COS2[:-1, :-1], square[:-1, :-1], rtol=0, atol=1e-15)
    assert reference.COS2[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-16)


def test_propagation_is_unitary():
    c = reference.final_state(7.3, 0.4, 2)
    assert np.vdot(c, c).real == pytest.approx(1.0, abs=1e-12)


def test_two_level_zero():
    assert reference.two_level_zero(1.5, 1) == pytest.approx(math.sqrt(math.pi ** 2 - 0.75))
