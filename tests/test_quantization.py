import numpy as np
import pytest

from fhalloc.quantization import (
    AqnmQuantizer,
    QuantizedMatrix,
    aqnm_quantize,
    eta_of_bits,
    quantized_csi_covariance,
)
from fhalloc.sysmodel import RngStream

TABLE = {1: 0.3634, 2: 0.1175, 3: 0.03454, 4: 0.009497, 5: 0.002499}


class TestEtaOfBits:
    def test_table_exact(self):
        for bits, eta in TABLE.items():
            assert eta_of_bits(bits) == eta

    def test_asymptotic_regime(self):
        # eta(B) = (pi sqrt(3) / 2) 4^-B from six bits up
        assert eta_of_bits(8) == pytest.approx(4.15145728508198e-05, rel=1e-12)
        assert eta_of_bits(6) == np.pi * np.sqrt(3.0) / 2.0 * 4.0**-6

    def test_strictly_decreasing_through_30(self):
        etas = [eta_of_bits(b) for b in range(1, 31)]
        assert all(a > b for a, b in zip(etas, etas[1:]))
        assert etas[-1] > 0

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            eta_of_bits(0)
        with pytest.raises(ValueError):
            eta_of_bits(-3)
        with pytest.raises(ValueError):
            eta_of_bits(2.5)

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_rejects_booleans(self, flag):
        """A boolean is not a bit width, though True == 1."""
        with pytest.raises(ValueError, match="must be an integer"):
            eta_of_bits(flag)

    def test_numpy_integers_accepted(self):
        assert eta_of_bits(np.int64(3)) == TABLE[3]


class TestAqnmQuantizer:
    def test_from_bits(self):
        q = AqnmQuantizer.from_bits(2)
        assert q.bits == 2
        assert q.eta == TABLE[2]
        assert q.gain == 1.0 - TABLE[2]

    def test_from_eta(self):
        q = AqnmQuantizer.from_eta(0.25)
        assert q.bits is None
        assert q.eta == 0.25

    def test_eta_bounds(self):
        AqnmQuantizer.from_eta(0.0)
        with pytest.raises(ValueError):
            AqnmQuantizer.from_eta(1.0)
        with pytest.raises(ValueError):
            AqnmQuantizer.from_eta(-0.1)


class TestAqnmQuantize:
    def test_affine_identity(self):
        """The output decomposes exactly as (1 - eta) X + noise."""
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        q = AqnmQuantizer.from_bits(2)
        out = aqnm_quantize(X, q, 2.0, RngStream(1, (0,)))
        assert isinstance(out, QuantizedMatrix)
        np.testing.assert_array_equal(out.value, (1.0 - q.eta) * X + out.noise)

    def test_second_moment_contraction(self):
        # E|x_Q|^2 = (1 - eta) E|x|^2
        n = 100_000
        var = 3.0
        from fhalloc.sysmodel import draw_complex_gaussian

        X = draw_complex_gaussian(RngStream(2, (0,)), n, 1, variance=var)
        for bits in (1, 3, 5):
            q = AqnmQuantizer.from_bits(bits)
            out = aqnm_quantize(X, q, var, RngStream(2, (bits,)))
            ratio = np.mean(np.abs(out.value) ** 2) / ((1.0 - q.eta) * var)
            assert 0.98 < ratio < 1.02

    def test_noise_variance(self):
        # one-bit quantizer of a unit-variance input: eta (1 - eta) = 0.23134
        n = 100_000
        from fhalloc.sysmodel import draw_complex_gaussian

        X = draw_complex_gaussian(RngStream(3, (0,)), n, 1, variance=1.0)
        out = aqnm_quantize(X, AqnmQuantizer.from_bits(1), 1.0, RngStream(3, (1,)))
        assert np.mean(np.abs(out.noise) ** 2) == pytest.approx(0.23134044, rel=0.02)

    def test_noise_uncorrelated_across_entries(self):
        n = 100_000
        out = aqnm_quantize(
            np.zeros((n, 2), dtype=complex),
            AqnmQuantizer.from_bits(1),
            1.0,
            RngStream(4, (0,)),
        )
        cross = np.mean(out.noise[:, 0] * np.conj(out.noise[:, 1]))
        var = 0.23134044
        se = var / np.sqrt(n)
        assert abs(cross) < 3 * se

    def test_eta_zero_is_identity(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = aqnm_quantize(X, AqnmQuantizer.from_eta(0.0), 1.0, RngStream(5, (0,)))
        np.testing.assert_array_equal(out.value, X)
        np.testing.assert_array_equal(out.noise, np.zeros_like(X))

    def test_per_column_entry_var(self):
        n = 50_000
        out = aqnm_quantize(
            np.zeros((n, 2), dtype=complex),
            AqnmQuantizer.from_bits(1),
            np.array([1.0, 4.0]),
            RngStream(6, (0,)),
        )
        emp = np.mean(np.abs(out.noise) ** 2, axis=0)
        np.testing.assert_allclose(emp, 0.23134044 * np.array([1.0, 4.0]), rtol=0.03)

    def test_negative_entry_var_rejected(self):
        with pytest.raises(ValueError):
            aqnm_quantize(
                np.zeros((2, 2), dtype=complex),
                AqnmQuantizer.from_bits(1),
                -1.0,
                RngStream(0),
            )


class TestQuantizedCsiCovariance:
    def test_reference_value(self):
        # two-bit CSI transfer of a gamma = 8/9 estimate
        got = quantized_csi_covariance(8.0 / 9.0, TABLE[2])
        assert got == pytest.approx(0.7844444444444445, rel=1e-12)

    def test_identity_at_zero_distortion(self):
        g = np.array([0.3, 0.9])
        np.testing.assert_array_equal(quantized_csi_covariance(g, 0.0), g)

    def test_zero_gamma(self):
        assert quantized_csi_covariance(0.0, 0.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            quantized_csi_covariance(1.0, 1.0)
        with pytest.raises(ValueError):
            quantized_csi_covariance(1.0, -0.2)
        with pytest.raises(ValueError):
            quantized_csi_covariance(-1.0, 0.5)
