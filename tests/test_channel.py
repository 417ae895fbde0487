import numpy as np
import pytest

from fhalloc.channel import (
    ChannelSet,
    despread_pilots,
    draw_channel,
    estimate_channel,
    gamma_coefficient,
    mmse_estimate,
    quantized_estimate,
)
from fhalloc.quantization import eta_of_bits
from fhalloc.sysmodel import RngStream, SystemConfig, trial_draws


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
    def test_noiseless_hook(self):
        cfg = cfg_small()
        H = draw_channel(cfg, RngStream(3, (0,)))
        Y = despread_pilots(H, cfg, RngStream(3, (1,)), noise_var=0.0)
        np.testing.assert_array_equal(Y, H * np.sqrt(8.0))

    def test_received_energy(self):
        # E||y_k||^2 = M (q tau_p beta + 1) = 9 M, within 2% over 1e4 trials
        cfg = cfg_small()
        total = 0.0
        trials = 10_000
        for t in range(trials):
            H = draw_channel(cfg, RngStream(5, (0, t)))
            Y = despread_pilots(H, cfg, RngStream(5, (1, t)))
            total += np.mean(np.sum(np.abs(Y) ** 2, axis=0))
        assert total / trials == pytest.approx(9.0 * cfg.M, rel=0.02)

    def test_zero_pilot_power_is_pure_noise(self):
        cfg = cfg_small(pilot_power=0.0)
        total = 0.0
        trials = 4000
        for t in range(trials):
            H = draw_channel(cfg, RngStream(6, (0, t)))
            Y = despread_pilots(H, cfg, RngStream(6, (1, t)))
            total += np.mean(np.sum(np.abs(Y) ** 2, axis=0))
        assert total / trials == pytest.approx(cfg.M, rel=0.05)

    def test_shape_mismatch(self):
        cfg = cfg_small()
        with pytest.raises(ValueError):
            despread_pilots(np.zeros((4, 4), dtype=complex), cfg, RngStream(0))


class TestMmseEstimate:
    def test_scaling_coefficient(self):
        # the estimate must carry the sqrt(q tau_p) despreading gain:
        # coef = sqrt(8)/9 at q=1, tau_p=8, beta=1, which is what makes
        # var(hhat) come out at gamma and the error orthogonal
        cfg = cfg_small()
        Y = np.ones((cfg.M, cfg.K), dtype=complex)
        cs = mmse_estimate(Y, cfg)
        assert isinstance(cs, ChannelSet)
        np.testing.assert_allclose(cs.H_hat, np.sqrt(8.0) / 9.0 * Y, rtol=1e-12)
        np.testing.assert_allclose(cs.gamma, 8.0 / 9.0, rtol=1e-12)

    def test_zero_beta_zeroes_the_estimate(self):
        cfg = SystemConfig(
            M=8, K=2, tau_c=50, tau_p=8, total_power=1.0,
            pilot_power=1.0, beta=[1e-300, 1.0],
        )
        Y = np.ones((8, 2), dtype=complex)
        cs = mmse_estimate(Y, cfg)
        assert np.all(np.abs(cs.H_hat[:, 0]) < 1e-200)

    def test_keeps_true_channel_when_given(self):
        cfg = cfg_small()
        H = draw_channel(cfg, RngStream(9, (0,)))
        Y = despread_pilots(H, cfg, RngStream(9, (1,)))
        cs = mmse_estimate(Y, cfg, H)
        assert cs.H is H
        assert mmse_estimate(Y, cfg).H is None

    def test_estimate_variance(self):
        cfg = SystemConfig(
            M=500, K=200, tau_c=300, tau_p=200, total_power=1.0, pilot_power=1.0 / 25.0
        )
        cs = estimate_channel(cfg, RngStream(21, (0,)), RngStream(21, (1,)))
        gamma = cs.gamma[0]
        emp = np.mean(np.abs(cs.H_hat) ** 2)
        assert emp == pytest.approx(gamma, rel=0.02)

    def test_orthogonality_and_variance_split(self):
        cfg = SystemConfig(
            M=500, K=200, tau_c=300, tau_p=200, total_power=1.0, pilot_power=1.0 / 25.0
        )
        cs = estimate_channel(cfg, RngStream(22, (0,)), RngStream(22, (1,)))
        err = cs.H - cs.H_hat
        n = cs.H.size
        gamma = cs.gamma[0]
        beta = cfg.beta[0]
        # cross moment E[hhat * conj(err)] should vanish; 3 standard errors
        cross = np.mean(cs.H_hat * np.conj(err))
        se = np.sqrt(gamma * (beta - gamma) / n)
        assert abs(cross) < 3 * se
        # variance decomposition beta = gamma + (beta - gamma)
        assert np.mean(np.abs(err) ** 2) == pytest.approx(beta - gamma, rel=0.02)
        assert np.mean(np.abs(cs.H) ** 2) == pytest.approx(beta, rel=0.02)


class TestEstimateChannel:
    def test_returns_full_set(self):
        cfg = cfg_small()
        cs = estimate_channel(cfg, RngStream(1, (0,)), RngStream(1, (1,)))
        assert cs.H.shape == (cfg.M, cfg.K)
        assert cs.H_hat.shape == (cfg.M, cfg.K)
        assert cs.gamma.shape == (cfg.K,)
        assert np.all(cs.gamma >= 0) and np.all(cs.gamma <= cfg.beta)

    def test_deterministic_in_streams(self):
        cfg = cfg_small()
        a = estimate_channel(cfg, RngStream(4, (0,)), RngStream(4, (1,)))
        b = estimate_channel(cfg, RngStream(4, (0,)), RngStream(4, (1,)))
        np.testing.assert_array_equal(a.H, b.H)
        np.testing.assert_array_equal(a.H_hat, b.H_hat)


class TestQuantizedEstimate:
    def test_matches_the_step_by_step_pipeline(self):
        """Unit draws scaled as despreading, MMSE and AQNM would scale them."""
        cfg = cfg_small(beta=[0.5, 2.0])
        z = trial_draws(cfg, 4, [0])[0]
        eta = eta_of_bits(2)
        H, Hhat_q = quantized_estimate(cfg, z, eta)
        np.testing.assert_array_equal(H, z[0] * np.sqrt(cfg.beta))
        cs = mmse_estimate(H * np.sqrt(cfg.pilot_power * cfg.tau_p) + z[1], cfg)
        noise_std = np.sqrt(eta * (1.0 - eta) * cs.gamma)
        np.testing.assert_array_equal(Hhat_q, (1.0 - eta) * cs.H_hat + z[2] * noise_std)

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
        np.testing.assert_array_equal(batched.H_hat[1], mmse_estimate(Y[1], cfg).H_hat)
        with pytest.raises(ValueError):
            mmse_estimate(Y.swapaxes(-2, -1), cfg)

    def test_second_moment(self):
        """The quantized estimate keeps (1 - eta) gamma per entry, as AQNM says."""
        cfg = cfg_small(M=64, K=4, tau_p=4)
        eta = eta_of_bits(1)
        _, Hhat_q = quantized_estimate(cfg, trial_draws(cfg, 8, range(200)), eta)
        gamma = gamma_coefficient(cfg.pilot_power, cfg.tau_p, cfg.beta)
        assert np.mean(np.abs(Hhat_q) ** 2) == pytest.approx((1.0 - eta) * gamma[0], rel=0.02)
