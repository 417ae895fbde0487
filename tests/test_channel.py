import numpy as np
import pytest

import fhalloc.sysmodel as sysmodel
from fhalloc.channel import _estimate_products, _slot_pieces, gamma_coefficient, mmse_estimate, quantized_estimate
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


def gram_reference(cfg, z, eta_h):
    """(G, H^T Hhat_q^*, Hhat_q^T Z_3) from the M x K arrays of quantized_estimate."""
    H, Hhat_q = quantized_estimate(cfg, z, eta_h)
    return Hhat_q.swapaxes(-2, -1) @ Hhat_q.conj(), H.swapaxes(-2, -1) @ Hhat_q.conj(), Hhat_q.swapaxes(-2, -1) @ z[:, 3]


def slot_scales(cfg, eta_h, perfect=False):
    """E_0, E_1, E_2 with Hhat_q = sum_j Z_j diag(E_j), written from the model.

    The MMSE coefficient acts on y_k = sqrt(q_k tau_p beta_k) z_0k + z_1k,
    the CSI quantizer keeps 1 - eta_h of it and adds z_2k at the AQNM
    noise variance eta_h (1 - eta_h) gamma_k.  Perfect CSI is the channel
    itself, Z_0 D_beta^(1/2).
    """
    if perfect:
        return [np.sqrt(cfg.beta), np.zeros(cfg.K), np.zeros(cfg.K)]
    q_tau, beta = cfg.pilot_power * cfg.tau_p, cfg.beta
    coef = (1.0 - eta_h) * np.sqrt(q_tau) * beta / (q_tau * beta + 1.0)
    gamma = gamma_coefficient(cfg.pilot_power, cfg.tau_p, beta)
    return [coef * np.sqrt(q_tau * beta), coef, np.sqrt(eta_h * (1.0 - eta_h) * gamma)]


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))


class TestSlotPieces:
    """The split-free pieces recombine, at any eta_h, to the K x K products of the slot scales."""

    ETAS = (0.0, eta_of_bits(1), eta_of_bits(3), eta_of_bits(8))

    @pytest.mark.parametrize(
        "config, perfect",
        [
            ({"beta": [0.5, 2.0, 1.0]}, False),
            ({"beta": [0.5, 2.0, 1.0], "pilot_power": [0.0, 1.0, 3.0]}, False),
            ({"beta": [0.5, 2.0, 1.0], "pilot_power": 0.2, "tau_p": 3}, False),
            ({"beta": [0.5, 2.0, 1.0]}, True),
        ],
        ids=("unequal-beta", "zero-pilot-user", "low-pilot", "perfect"),
    )
    def test_pieces_recombine_to_the_scaled_sums(self, config, perfect):
        cfg = cfg_small(K=3, **config)
        S, _ = sysmodel._trial_stats(cfg, 4, range(5))
        Q = lambda j, l: S[:, j, :, l]  # noqa: E731
        pieces = _slot_pieces(cfg, S, perfect)
        for eta in (0.0,) if perfect else self.ETAS:
            E = slot_scales(cfg, eta, perfect)
            G, V0, T = _estimate_products(pieces, eta)
            assert_close(G, sum(E[j][:, None] * Q(j, l) * E[l] for j in range(3) for l in range(3)))
            assert_close(V0, sum(Q(0, l) * E[l] for l in range(3)))
            assert_close(T, sum(E[j][:, None] * Q(j, 3) for j in range(3)))

    def test_zero_pilot_user_has_no_estimate(self):
        cfg = cfg_small(K=3, pilot_power=[1.0, 0.0, 2.0])
        G, V0, T = _estimate_products(_slot_pieces(cfg, sysmodel._trial_stats(cfg, 4, range(5))[0]), eta_of_bits(2))
        for product in (G[:, 1, :], G[:, :, 1], V0[:, :, 1], T[:, 1, :]):
            assert not np.any(product)


class TestEstimateMemo:
    """The estimate's K x K products come from memoized, config-free slot statistics and memoized split-free pieces."""

    @pytest.fixture(autouse=True)
    def cold_cache(self, monkeypatch):
        monkeypatch.setattr(sysmodel, "_stats_cache", {})
        monkeypatch.setattr(sysmodel, "_pieces_cache", {})

    ETAS = TestSlotPieces.ETAS

    @staticmethod
    def products(cfg, eta_h, ids=range(6)):
        """(G, H^T Hhat_q^*, T) of a block, its pieces memoized."""
        ids = tuple(ids)
        S, _ = sysmodel._trial_stats(cfg, 3, ids)
        G, V0, T = _estimate_products(_slot_pieces(cfg, S, block=(3, ids, sysmodel.DOMAIN_TRIAL)), eta_h)
        return G, np.sqrt(cfg.beta)[:, None] * V0, T

    def test_slot_products_match_the_m_space_estimate(self, m_space_stats):
        cfg = cfg_small(beta=[0.5, 2.0])
        z = trial_draws(cfg, 3, range(6))
        for eta in self.ETAS:
            for got, want in zip(self.products(cfg, eta), gram_reference(cfg, z, eta)):
                assert_close(got, want)

    def test_warm_cold_and_cleared_memo_agree(self):
        cfg = cfg_small(beta=[0.5, 2.0])

        def estimates():
            return [self.products(cfg, eta) for eta in self.ETAS]

        cold = estimates()
        # one entry of statistics and one of pieces serve every eta_h
        assert len(sysmodel._stats_cache) == 1 and len(sysmodel._pieces_cache) == 1
        held = sysmodel._stats_cache[(cfg.M, cfg.K, 3, sysmodel.DOMAIN_TRIAL, tuple(range(6)))]
        (pieces,) = sysmodel._pieces_cache.values()
        warm = estimates()
        assert sysmodel._trial_stats(cfg, 3, range(6)) is held  # served from the memo
        assert _slot_pieces(cfg, held, block=(3, tuple(range(6)), sysmodel.DOMAIN_TRIAL)) is pieces
        sysmodel._stats_cache.clear()
        sysmodel._pieces_cache.clear()
        cleared = estimates()
        assert sysmodel._trial_stats(cfg, 3, range(6)) is not held
        assert next(iter(sysmodel._pieces_cache.values())) is not pieces
        for c, w, r in zip(cold, warm, cleared):
            for a, b, d in zip(c, w, r):
                np.testing.assert_array_equal(b, a)
                np.testing.assert_array_equal(d, a)

    def test_returned_arrays_cannot_corrupt_the_memo(self):
        cfg = cfg_small()
        S, nu = sysmodel._trial_stats(cfg, 3, range(4))
        for array in (S, nu):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        products = self.products(cfg, eta_of_bits(2), range(4))
        expected = [a.copy() for a in products]
        for a in products:
            a[...] = 7.0  # the products are the caller's own arrays
        (pieces,) = sysmodel._pieces_cache.values()
        assert len(pieces) == 7
        for piece in pieces:
            with pytest.raises(ValueError):
                piece[0, 0, 0] = 1.0
        for value in [*sysmodel._stats_cache.values(), pieces]:
            assert all(not a.flags.writeable and not np.shares_memory(a, b) for a in value for b in products)
        for got, want in zip(self.products(cfg, eta_of_bits(2), range(4)), expected):
            np.testing.assert_array_equal(got, want)

    def test_caller_array_leaves_the_memo_alone(self, m_space_stats):
        cfg = cfg_small()
        first = self.products(cfg, 0.1, range(4))
        held = dict(sysmodel._stats_cache)
        held_pieces = dict(sysmodel._pieces_cache)
        S, _ = sysmodel._trial_stats(cfg, 3, range(4))
        own = _estimate_products(_slot_pieces(cfg, np.array(S)), 0.1)  # the caller's own copy of the statistics
        for memo, before in ((sysmodel._stats_cache, held), (sysmodel._pieces_cache, held_pieces)):
            assert memo.keys() == before.keys()
            assert all(memo[key] is before[key] for key in before)
            assert not any(np.shares_memory(a, b) for a in own for value in before.values() for b in value if b is not None)
        # the copy holds the same statistics, so it gives the same bits
        np.testing.assert_array_equal(own[0], first[0])

    @pytest.mark.parametrize(
        "change",
        ({"pilot_power": 0.5}, {"beta": [1.0, 1.5]}, {"tau_p": 4}, {"total_power": 4.0, "pilot_power": None}),
    )
    def test_estimation_parameters_miss_the_memo(self, change):
        # the statistics are config-free; the pieces are not, so each config forms its own
        cfg = cfg_small()
        other = cfg_small(**change)
        self.products(cfg, 0.1, range(4))
        warm = self.products(other, 0.1, range(4))
        assert len(sysmodel._stats_cache) == 1
        assert len(sysmodel._pieces_cache) == 2
        sysmodel._stats_cache.clear()
        sysmodel._pieces_cache.clear()
        cold = self.products(other, 0.1, range(4))
        for w, c in zip(warm, cold):
            np.testing.assert_array_equal(w, c)
        assert not np.array_equal(warm[0], self.products(cfg, 0.1, range(4))[0])

    def test_snr_misses_only_through_the_default_pilot_power(self):
        """The pieces hold no P_t or sigma^2: an SNR change misses the memo only when it moves the pilot power."""
        at = lambda snr_db, **kw: SystemConfig.from_snr(M=8, K=2, tau_c=50, tau_p=8, snr_db=snr_db, **kw)  # noqa: E731
        for snr_db in (0.0, 10.0):
            self.products(at(snr_db), 0.1, range(4))
        assert len(sysmodel._pieces_cache) == 2
        sysmodel._pieces_cache.clear()
        for snr_db in (0.0, 10.0):
            self.products(at(snr_db, pilot_power=1.0), 0.1, range(4))
        assert len(sysmodel._pieces_cache) == 1

    def test_memos_share_one_byte_bound(self, monkeypatch):
        cfg = cfg_small()
        stats_bytes = sysmodel._nbytes(sysmodel._trial_stats(cfg, 3, range(4)))
        self.products(cfg, 0.1, range(4))
        (pieces,) = sysmodel._pieces_cache.values()
        # room for the statistics and one set of pieces, not two
        monkeypatch.setattr(sysmodel, "_STATS_CACHE_BYTES", stats_bytes + sysmodel._nbytes(pieces) * 3 // 2)
        self.products(cfg_small(pilot_power=0.5), 0.1, range(4))
        assert len(sysmodel._stats_cache) == 1 and len(sysmodel._pieces_cache) == 1  # the older pieces went first
        assert next(iter(sysmodel._pieces_cache.values())) is not pieces
