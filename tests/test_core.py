import functools
import math

import numpy as np
import pytest
from scipy import constants
from scipy.integrate import quad
from scipy.special import eval_legendre

from rotorkick import (
    MatrixKind,
    OperatorMatrix,
    PulseSpec,
    RotorBasis,
    Wavepacket,
    build_cos2_matrix,
    build_cos_matrix,
    build_hamiltonian,
    build_j2_matrix,
    dimensionless_from_physical,
)
from rotorkick.core import _bands, _sym


def legendre_matrix_element(j1, j2, power):
    """Quadrature oracle: <j1,0| cos^power |j2,0> via normalized Legendre."""
    n1 = math.sqrt((2 * j1 + 1) / 2)
    n2 = math.sqrt((2 * j2 + 1) / 2)
    val, _ = quad(lambda x: n1 * eval_legendre(j1, x) * x ** power * n2 * eval_legendre(j2, x),
                  -1, 1)
    return val


class TestPulseSpec:
    def test_eta_is_derived(self):
        p = PulseSpec(strength=1.5, sigma=3.0)
        assert p.eta == 0.5
        assert p.eta * p.sigma == p.strength

    def test_from_eta(self):
        p = PulseSpec.from_eta(eta=1.5, sigma=2.0)
        assert p.strength == 3.0

    @pytest.mark.parametrize("kwargs", [dict(strength=-1.0, sigma=1.0),
                                        dict(strength=1.0, sigma=0.0),
                                        dict(strength=1.0, sigma=-2.0)])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PulseSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(strength=math.nan, sigma=1.0), "strength P"),
        (dict(strength=math.inf, sigma=1.0), "strength P"),
        (dict(strength=1.0, sigma=math.nan), "duration sigma"),
        (dict(strength=1.0, sigma=math.inf), "duration sigma")])
    def test_non_finite_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PulseSpec(**kwargs)


class TestUnitConversion:
    def test_zero_dipole_gives_zero_strength(self):
        p = dimensionless_from_physical(0.0, 1.0, 1.0, 1.0, hbar=1.0)
        assert p.strength == 0.0
        assert p.eta == 0.0

    def test_definitional_identity(self):
        # B*s/hbar = 1 and mu*eps/B = 1.5
        p = dimensionless_from_physical(1.5, 1.0, 1.0, 1.0, hbar=1.0)
        assert p.sigma == pytest.approx(1.0)
        assert p.eta == pytest.approx(1.5)
        assert p.strength == pytest.approx(1.5)

    def test_small_rotational_constant_si(self):
        # B = 0.001 cm^-1 as an energy; choose s so that sigma = 10.
        b_joule = constants.h * constants.c * 0.001 * 100.0
        s = 10.0 * constants.hbar / b_joule
        assert 1e-9 < s < 1e-7  # tens of nanoseconds
        mu_eps = 2.0 * b_joule  # eta = 2
        p = dimensionless_from_physical(mu_eps, 1.0, b_joule, s)
        # tolerance covers the difference between the truncated CODATA hbar
        # and scipy's h/(2 pi)
        assert p.sigma == pytest.approx(10.0, rel=1e-8)
        assert p.strength == pytest.approx(10.0 * p.eta, rel=1e-8)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            dimensionless_from_physical(1.0, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("index, name", [(0, "dipole"), (1, "field strength"),
                                             (2, "rotational constant"), (3, "duration"),
                                             (4, "hbar")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_name(self, index, name, bad):
        args = [1.5, 1.0, 1.0, 1.0, 1.0]
        args[index] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            dimensionless_from_physical(*args)


class TestJ2Matrix:
    def test_diagonal_values(self):
        m = build_j2_matrix(RotorBasis(2)).entries
        assert np.array_equal(m, np.diag([0.0, 2.0, 6.0]))

    def test_top_entry(self):
        m = build_j2_matrix(RotorBasis(9)).entries
        assert m[9, 9] == 90.0
        assert m[0, 0] == 0.0


class TestCosMatrix:
    def test_first_elements(self):
        m = build_cos_matrix(RotorBasis(5)).entries
        assert m[0, 1] == pytest.approx(1 / math.sqrt(3), abs=1e-15)
        assert m[1, 2] == pytest.approx(2 / math.sqrt(15), abs=1e-15)

    def test_quadrature_oracle(self):
        m = build_cos_matrix(RotorBasis(6)).entries
        for j in range(6):
            assert m[j, j + 1] == pytest.approx(legendre_matrix_element(j, j + 1, 1), abs=1e-12)

    def test_band_decreasing_toward_half(self):
        # (J+1)/sqrt((2J+3)(2J+1)) decreases monotonically to 1/2 from above
        m = build_cos_matrix(RotorBasis(60)).entries
        band = np.diag(m, 1)
        assert np.all(np.diff(band) < 0)
        assert np.all(band > 0.5)

    def test_large_j_limit(self):
        m = build_cos_matrix(RotorBasis(2000)).entries
        assert m[1999, 2000] == pytest.approx(0.5, abs=1e-6)


class TestCos2Matrix:
    def test_isotropic_diagonal(self):
        m = build_cos2_matrix(RotorBasis(4)).entries
        assert m[0, 0] == pytest.approx(1 / 3, abs=1e-15)

    def test_diagonal_quadrature_oracle(self):
        m = build_cos2_matrix(RotorBasis(6)).entries
        assert m[1, 1] == pytest.approx(legendre_matrix_element(1, 1, 2), abs=1e-12)
        assert m[1, 1] == pytest.approx(0.6, abs=1e-12)
        # the last diagonal entry is the truncation-sensitive one
        assert m[6, 6] == pytest.approx(legendre_matrix_element(6, 6, 2), abs=1e-12)

    def test_off_diagonal_product_of_cos_elements(self):
        m = build_cos2_matrix(RotorBasis(4)).entries
        assert m[0, 2] == pytest.approx((1 / math.sqrt(3)) * (2 / math.sqrt(15)), abs=1e-14)
        assert m[0, 2] == pytest.approx(legendre_matrix_element(0, 2, 2), abs=1e-12)

    def test_equals_padded_square(self):
        basis = RotorBasis(7)
        cos_pad = build_cos_matrix(RotorBasis(8)).entries
        expected = (cos_pad @ cos_pad)[:8, :8]
        assert np.max(np.abs(build_cos2_matrix(basis).entries - expected)) < 1e-14


class TestHamiltonian:
    def test_linearity(self):
        basis = RotorBasis(8)
        for p, sigma in [(0.0, 1.0), (1.5, 1.0), (1.5, 3.044), (10.0, 0.25)]:
            h = build_hamiltonian(basis, PulseSpec(p, sigma)).entries
            expected = (sigma * build_j2_matrix(basis).entries
                        - p * build_cos_matrix(basis).entries)
            assert np.array_equal(h, expected)

    def test_field_free(self):
        h = build_hamiltonian(RotorBasis(3), PulseSpec(0.0, 2.0)).entries
        assert np.array_equal(h, np.diag([0.0, 4.0, 12.0, 24.0]))

    def test_scaling_in_sigma_at_fixed_eta(self):
        b = RotorBasis(5)
        h1 = build_hamiltonian(b, PulseSpec.from_eta(1.5, 1.0)).entries
        h2 = build_hamiltonian(b, PulseSpec.from_eta(1.5, 2.0)).entries
        assert np.allclose(h2, 2.0 * h1, rtol=0, atol=1e-15)

    def test_two_level_block(self):
        h = build_hamiltonian(RotorBasis(1), PulseSpec(1.5, 1.0)).entries
        g = 1.5 / math.sqrt(3)
        assert np.allclose(h, [[0.0, -g], [-g, 2.0]], rtol=0, atol=1e-15)


# Basis sizes and builders at which the builders' invariants are checked; the
# Hamiltonian at a few (P, sigma), P = 0 included.
J_MAX_SIZES = (1, 2, 9, 30, 401)
HAMILTONIANS = [pytest.param(functools.partial(build_hamiltonian, pulse=PulseSpec(p, s)),
                             id=f"build_hamiltonian-P={p}-sigma={s}")
                for p, s in [(0.0, 1.0), (1.5, 3.044), (10.0, 0.25), (7.3, 9.1)]]
# Where each operator may be non-zero: J^2 on the diagonal, cos(theta) on the
# first off-diagonals, cos^2(theta) on the diagonal and the second ones, and
# the Hamiltonian on the diagonal and the first off-diagonals.
BANDS = {MatrixKind.ANGULAR_MOMENTUM_SQUARED: lambda k: k == 0,
         MatrixKind.COS_THETA: lambda k: k == 1,
         MatrixKind.COS2_THETA: lambda k: (k == 0) | (k == 2),
         MatrixKind.HAMILTONIAN: lambda k: k <= 1}


class TestMatrixInvariants:
    """The symmetry and band structure that OperatorMatrix no longer checks
    on construction, held by the builders at every basis size."""

    @pytest.mark.parametrize("builder", [build_j2_matrix, build_cos_matrix, build_cos2_matrix,
                                         *HAMILTONIANS])
    def test_exact_symmetry(self, builder):
        for j_max in J_MAX_SIZES:
            m = builder(RotorBasis(j_max)).entries
            assert m.dtype == np.float64 and m.shape == (j_max + 1, j_max + 1)
            assert np.array_equal(m, m.T), j_max

    def test_band_structure(self):
        for builder in [build_j2_matrix, build_cos_matrix, build_cos2_matrix,
                        *(h.values[0] for h in HAMILTONIANS)]:
            for j_max in J_MAX_SIZES:
                op = builder(RotorBasis(j_max))
                i, j = np.indices(op.entries.shape)
                assert np.all(op.entries[~BANDS[op.kind](np.abs(i - j))] == 0), (op.kind, j_max)

    def test_entries_immutable(self):
        m = build_cos_matrix(RotorBasis(3)).entries
        with pytest.raises(ValueError):
            m[0, 1] = 7.0

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (4,), (2, 4, 4)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="does not match basis dim 4"):
            OperatorMatrix(RotorBasis(3), MatrixKind.COS_THETA, np.zeros(shape))

    def test_cached_bands_read_only(self):
        for j_max in (1, 9, 401):
            bands = _bands(j_max)
            assert [b.shape for b in bands] == [(j_max + 1,), (j_max,), (j_max + 1,), (j_max - 1,)]
            for band in bands:
                assert not band.flags.writeable
                with pytest.raises(ValueError):
                    band[0] = 7.0
        assert _bands(9) is _bands(9)
        assert np.array_equal(np.diag(build_cos_matrix(RotorBasis(9)).entries, 1), _bands(9)[1])


class TestSharedBuilders:
    """build_cos_matrix and build_cos2_matrix share read-only matrices from a
    cache of at most 8 bases, none above j_max = 400."""

    BUILDERS = [(build_cos_matrix, lambda j: _sym(_bands(j)[1], 1)),
                (build_cos2_matrix, lambda j: _sym(_bands(j)[3], 2, _bands(j)[2]))]

    @pytest.mark.parametrize("builder", [build_cos_matrix, build_cos2_matrix])
    def test_shared_and_read_only(self, builder):
        m = builder(RotorBasis(9))
        assert builder(RotorBasis(9)) is m
        assert not m.entries.flags.writeable
        with pytest.raises(ValueError):
            m.entries[0, 1] = 7.0

    @pytest.mark.parametrize("builder, fresh", BUILDERS)
    def test_equal_to_fresh_build(self, builder, fresh):
        builder.cache_clear()
        for j_max in J_MAX_SIZES:
            for m in (builder(RotorBasis(j_max)), builder(RotorBasis(j_max))):
                want = fresh(j_max)
                assert m.entries.shape == want.shape and m.entries.tobytes() == want.tobytes()

    @pytest.mark.parametrize("builder", [build_cos_matrix, build_cos2_matrix])
    def test_bounded(self, builder):
        builder.cache_clear()
        for j_max in range(1, 30):
            builder(RotorBasis(j_max))
        assert builder.cache_info().maxsize == 8
        assert builder.cache_info().currsize == 8
        assert builder(RotorBasis(400)) is builder(RotorBasis(400))
        before = builder.cache_info()
        for j_max in (401, 401, 500):
            builder(RotorBasis(j_max))
        assert builder.cache_info() == before
        assert builder(RotorBasis(401)) is not builder(RotorBasis(401))


class TestWavepacket:
    def test_pure_state(self):
        psi = Wavepacket.pure(RotorBasis(4), 2)
        assert psi.norm == 1.0
        assert psi.coefficients[2] == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Wavepacket(RotorBasis(4), np.zeros(3, dtype=complex), 0)

    def test_j0_outside_basis(self):
        with pytest.raises(ValueError):
            Wavepacket.pure(RotorBasis(2), 3)
