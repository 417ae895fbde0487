import numpy as np
import pytest

import fhalloc.sysmodel as sysmodel
from fhalloc.channel import gamma_coefficient, mmse_estimate, quantized_estimate
from fhalloc.quantization import eta_of_bits
from fhalloc.sysmodel import SystemConfig, trial_draws


def cfg_small(**kw):
    base = dict(M=8, K=2, tau_c=50, tau_p=8, total_power=1.0, pilot_power=1.0)
    base.update(kw)
    return SystemConfig(**base)


class TestGammaCoefficient:
    def test_reference_value(self):
        # q tau_p beta = 8 with beta = 1 gives gamma = 8/9
        assert gamma_coefficient(1.0, 8, 1.0) == pytest.approx(8.0 / 9.0, rel=1e-12)

    def test_zero_pilot_power(self):
        assert gamma_coefficient(0.0, 8, 1.0) == 0.0

    def test_zero_beta(self):
        assert gamma_coefficient(1.0, 8, 0.0) == 0.0

    def test_bounded_by_beta(self):
        for q in (0.01, 1.0, 100.0):
            for beta in (0.5, 1.0, 3.0):
                g = gamma_coefficient(q, 8, beta)
                assert 0.0 <= g < beta

    def test_monotone_in_pilot_energy(self):
        qs = [0.1, 0.5, 1.0, 5.0, 50.0]
        gs = [gamma_coefficient(q, 8, 1.0) for q in qs]
        assert all(a < b for a, b in zip(gs, gs[1:]))
        assert gamma_coefficient(1.0, 16, 1.0) > gamma_coefficient(1.0, 8, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gamma_coefficient(-1.0, 8, 1.0)
        with pytest.raises(ValueError):
            gamma_coefficient(1.0, 0, 1.0)
        with pytest.raises(ValueError):
            gamma_coefficient(1.0, 8, -1.0)

    def test_vector_broadcast(self):
        g = gamma_coefficient(np.array([1.0, 0.0]), 8, np.array([1.0, 2.0]))
        assert g.shape == (2,)
        assert g[1] == 0.0


class TestDespreadPilots:
    """The pilot observation Y = sqrt(q tau_p) H + N inside quantized_estimate.

    At eta_h = 0 the estimate is the MMSE scaling of Y, so Y is recovered
    by dividing out the coefficient sqrt(q tau_p) beta / (q tau_p beta + 1).
    """

    def test_received_energy(self):
        # E||y_k||^2 = M (q tau_p beta + 1) = 9 M, within 2% over 1e4 trials
        cfg = cfg_small()
        _, Hhat = quantized_estimate(cfg, trial_draws(cfg, 5, range(10_000)), 0.0)
        Y = Hhat / (np.sqrt(8.0) / 9.0)
        assert np.mean(np.sum(np.abs(Y) ** 2, axis=-2)) == pytest.approx(9.0 * cfg.M, rel=0.02)

    def test_zero_pilot_power_is_pure_noise(self):
        """Without pilot energy Y is pure noise, and the estimate is zero."""
        cfg = cfg_small(pilot_power=0.0)
        z = trial_draws(cfg, 6, range(50))
        for eta in (0.0, eta_of_bits(2)):
            H, Hhat_q = quantized_estimate(cfg, z, eta)
            assert np.any(H != 0)
            np.testing.assert_array_equal(Hhat_q, 0.0)

    def test_shape_mismatch(self):
        """A unit-draw block for another antenna count is refused, not broadcast."""
        cfg = cfg_small()
        z = trial_draws(cfg_small(M=4), 0, [0])
        with pytest.raises(ValueError, match="config expects"):
            quantized_estimate(cfg, z, 0.0)


class TestMmseEstimate:
    def test_scaling_coefficient(self):
        # the estimate must carry the sqrt(q tau_p) despreading gain:
        # coef = sqrt(8)/9 at q=1, tau_p=8, beta=1, which is what makes
        # var(hhat) come out at gamma and the error orthogonal
        cfg = cfg_small()
        Y = np.ones((cfg.M, cfg.K), dtype=complex)
        np.testing.assert_allclose(mmse_estimate(Y, cfg), np.sqrt(8.0) / 9.0 * Y, rtol=1e-12)

    def test_zero_beta_zeroes_the_estimate(self):
        cfg = SystemConfig(
            M=8, K=2, tau_c=50, tau_p=8, total_power=1.0,
            pilot_power=1.0, beta=[1e-300, 1.0],
        )
        Y = np.ones((8, 2), dtype=complex)
        assert np.all(np.abs(mmse_estimate(Y, cfg)[:, 0]) < 1e-200)

    def test_estimate_variance(self):
        cfg = SystemConfig(
            M=500, K=200, tau_c=300, tau_p=200, total_power=1.0, pilot_power=1.0 / 25.0
        )
        _, Hhat = quantized_estimate(cfg, trial_draws(cfg, 21, [0])[0], 0.0)
        gamma = gamma_coefficient(cfg.pilot_power, cfg.tau_p, cfg.beta)[0]
        assert np.mean(np.abs(Hhat) ** 2) == pytest.approx(gamma, rel=0.02)

    def test_orthogonality_and_variance_split(self):
        cfg = SystemConfig(
            M=500, K=200, tau_c=300, tau_p=200, total_power=1.0, pilot_power=1.0 / 25.0
        )
        H, Hhat = quantized_estimate(cfg, trial_draws(cfg, 22, [0])[0], 0.0)
        err = H - Hhat
        n = H.size
        gamma = gamma_coefficient(cfg.pilot_power, cfg.tau_p, cfg.beta)[0]
        beta = cfg.beta[0]
        # cross moment E[hhat * conj(err)] should vanish; 3 standard errors
        cross = np.mean(Hhat * np.conj(err))
        se = np.sqrt(gamma * (beta - gamma) / n)
        assert abs(cross) < 3 * se
        # variance decomposition beta = gamma + (beta - gamma)
        assert np.mean(np.abs(err) ** 2) == pytest.approx(beta - gamma, rel=0.02)
        assert np.mean(np.abs(H) ** 2) == pytest.approx(beta, rel=0.02)


class TestEstimateChannel:
    """Channel and unquantized estimate from quantized_estimate at eta_h = 0."""

    def test_returns_full_set(self):
        cfg = cfg_small(beta=[0.5, 2.0])
        z = trial_draws(cfg, 1, [0])[0]
        H, Hhat = quantized_estimate(cfg, z, 0.0)
        assert H.shape == Hhat.shape == (cfg.M, cfg.K)
        np.testing.assert_array_equal(H, z[0] * np.sqrt(cfg.beta))
        np.testing.assert_array_equal(Hhat, mmse_estimate(H * np.sqrt(cfg.pilot_power * cfg.tau_p) + z[1], cfg))

    def test_deterministic_in_streams(self):
        cfg = cfg_small()
        a = quantized_estimate(cfg, trial_draws(cfg, 4, range(3)), 0.0)
        sysmodel._draw_cache.clear()
        b = quantized_estimate(cfg, trial_draws(cfg, 4, range(3)), 0.0)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        other = quantized_estimate(cfg, trial_draws(cfg, 5, range(3)), 0.0)
        assert not np.array_equal(a[1], other[1])


class TestQuantizedEstimate:
    def test_matches_the_step_by_step_pipeline(self):
        """Unit draws scaled as despreading, MMSE and AQNM would scale them."""
        cfg = cfg_small(beta=[0.5, 2.0])
        z = trial_draws(cfg, 4, [0])[0]
        eta = eta_of_bits(2)
        H, Hhat_q = quantized_estimate(cfg, z, eta)
        np.testing.assert_array_equal(H, z[0] * np.sqrt(cfg.beta))
        Hhat = mmse_estimate(H * np.sqrt(cfg.pilot_power * cfg.tau_p) + z[1], cfg)
        noise_std = np.sqrt(eta * (1.0 - eta) * gamma_coefficient(cfg.pilot_power, cfg.tau_p, cfg.beta))
        np.testing.assert_array_equal(Hhat_q, (1.0 - eta) * Hhat + z[2] * noise_std)

    def test_batch_matches_single(self):
        cfg = cfg_small()
        z = trial_draws(cfg, 6, range(5))
        H, Hhat_q = quantized_estimate(cfg, z, 0.1175)
        H_one, Hhat_one = quantized_estimate(cfg, z[3], 0.1175)
        np.testing.assert_array_equal(H[3], H_one)
        np.testing.assert_array_equal(Hhat_q[3], Hhat_one)

    def test_batched_mmse_estimate(self):
        cfg = cfg_small()
        Y = trial_draws(cfg, 7, range(3))[:, 1]
        batched = mmse_estimate(Y, cfg)
        np.testing.assert_array_equal(batched[1], mmse_estimate(Y[1], cfg))
        with pytest.raises(ValueError):
            mmse_estimate(Y.swapaxes(-2, -1), cfg)

    def test_second_moment(self):
        """The quantized estimate keeps (1 - eta) gamma per entry, as AQNM says."""
        cfg = cfg_small(M=64, K=4, tau_p=4)
        eta = eta_of_bits(1)
        _, Hhat_q = quantized_estimate(cfg, trial_draws(cfg, 8, range(200)), eta)
        gamma = gamma_coefficient(cfg.pilot_power, cfg.tau_p, cfg.beta)
        assert np.mean(np.abs(Hhat_q) ** 2) == pytest.approx((1.0 - eta) * gamma[0], rel=0.02)
