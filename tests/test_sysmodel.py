import numpy as np
import pytest

import fhalloc.sysmodel as sysmodel
from fhalloc.sysmodel import (
    DOMAIN_MOMENTS,
    TRIAL_BLOCK,
    ConfigError,
    RngStream,
    SystemConfig,
    draw_complex_gaussian,
    trial_draws,
)


def make_cfg(**kw):
    base = dict(M=16, K=4, tau_c=50, tau_p=4, total_power=10.0)
    base.update(kw)
    return SystemConfig(**base)


class TestSystemConfig:
    def test_defaults(self):
        cfg = make_cfg()
        assert cfg.noise_var == 1.0
        np.testing.assert_array_equal(cfg.beta, np.ones(4))
        # default pilot power matches the downlink SNR
        np.testing.assert_array_equal(cfg.pilot_power, np.full(4, 10.0))

    def test_k_must_be_below_m(self):
        with pytest.raises(ConfigError):
            make_cfg(M=8, K=8, tau_p=8)
        with pytest.raises(ConfigError):
            make_cfg(M=4, K=6, tau_p=6)
        make_cfg(M=9, K=8, tau_p=8)  # K = M - 1 is fine

    def test_pilot_length_bounds(self):
        with pytest.raises(ConfigError):
            make_cfg(tau_p=3)  # below K
        with pytest.raises(ConfigError):
            make_cfg(tau_p=51)  # above tau_c
        # lengths and the user count are integers: no fractions, no bools
        for over in ({"tau_p": 4.5}, {"tau_c": 50.0}, {"tau_p": True, "K": 1}, {"K": True}, {"M": True}):
            with pytest.raises(ConfigError, match="must be a positive integer"):
                make_cfg(**over)
        assert make_cfg(M=np.int64(16), tau_c=np.int32(50)).tau_c == 50

    def test_positive_powers(self):
        with pytest.raises(ConfigError):
            make_cfg(total_power=0.0)
        with pytest.raises(ConfigError):
            make_cfg(total_power=-1.0)
        with pytest.raises(ConfigError):
            make_cfg(noise_var=0.0)
        for over in ({"noise_var": "1"}, {"noise_var": True}, {"total_power": "10"}, {"total_power": np.bool_(True)}):
            with pytest.raises(ConfigError, match="must be a real number"):
                make_cfg(**over)
        assert make_cfg(total_power=np.float32(2.0), noise_var=np.int64(1)).noise_var == 1

    def test_beta_vector_validation(self):
        cfg = make_cfg(beta=[1.0, 2.0, 0.5, 1.5])
        np.testing.assert_array_equal(cfg.beta, [1.0, 2.0, 0.5, 1.5])
        with pytest.raises(ConfigError):
            make_cfg(beta=[1.0, 2.0])  # wrong length
        with pytest.raises(ConfigError):
            make_cfg(beta=[1.0, -2.0, 0.5, 1.5])
        with pytest.raises(ConfigError):
            make_cfg(beta=[1.0, 0.0, 0.5, 1.5])  # beta strictly positive

    def test_pilot_power_may_be_zero(self):
        cfg = make_cfg(pilot_power=0.0)
        np.testing.assert_array_equal(cfg.pilot_power, np.zeros(4))
        with pytest.raises(ConfigError):
            make_cfg(pilot_power=-1.0)

    def test_from_snr(self):
        cfg = SystemConfig.from_snr(M=16, K=4, tau_c=50, tau_p=4, snr_db=10.0)
        assert cfg.total_power == pytest.approx(10.0)
        assert cfg.snr_db == pytest.approx(10.0)
        cfg = SystemConfig.from_snr(M=16, K=4, tau_c=50, tau_p=4, snr_db=-15.0, noise_var=2.0)
        assert cfg.total_power == pytest.approx(2.0 * 10 ** (-1.5))
        for kw in ({"snr_db": "10"}, {"snr_db": True}, {"snr_db": 0.0, "noise_var": "1"}):
            with pytest.raises(ConfigError, match="must be a real number"):
                SystemConfig.from_snr(M=16, K=4, tau_c=50, tau_p=4, **kw)

    def test_pilot_overhead(self):
        assert make_cfg(tau_p=5).pilot_overhead == pytest.approx(0.1)


class TestRngStream:
    def test_same_id_same_draws(self):
        a = RngStream(42, (3, 1)).generator().standard_normal(8)
        b = RngStream(42, (3, 1)).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_different_ids_differ(self):
        a = RngStream(42, (3, 1)).generator().standard_normal(8)
        b = RngStream(42, (3, 2)).generator().standard_normal(8)
        c = RngStream(43, (3, 1)).generator().standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_int_id_equals_singleton_tuple(self):
        a = RngStream(5, 4).generator().standard_normal(4)
        b = RngStream(5, (4,)).generator().standard_normal(4)
        np.testing.assert_array_equal(a, b)


class TestComplexGaussian:
    def test_moments(self):
        # mean ~ 0 and per-entry variance ~ v, checked at 3 sigma
        n = 1_000_000
        v = 2.5
        z = draw_complex_gaussian(RngStream(11, (0,)), n, 1, variance=v).ravel()
        se_mean = np.sqrt(v / 2 / n)
        assert abs(z.real.mean()) < 3 * se_mean
        assert abs(z.imag.mean()) < 3 * se_mean
        var = np.mean(np.abs(z) ** 2)
        assert var == pytest.approx(v, rel=0.01)

    def test_per_column_variance(self):
        z = draw_complex_gaussian(RngStream(2, (1,)), 20_000, 3, variance=[1.0, 4.0, 9.0])
        emp = np.mean(np.abs(z) ** 2, axis=0)
        np.testing.assert_allclose(emp, [1.0, 4.0, 9.0], rtol=0.05)

    def test_zero_variance_gives_zeros(self):
        z = draw_complex_gaussian(RngStream(1, (0,)), 5, 4, variance=0.0)
        np.testing.assert_array_equal(z, np.zeros((5, 4), dtype=complex))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            draw_complex_gaussian(RngStream(1, (0,)), 2, 2, variance=-1.0)

    def test_accepts_generator(self):
        gen = np.random.default_rng(0)
        z = draw_complex_gaussian(gen, 3, 3)
        assert z.shape == (3, 3)
        assert z.dtype == complex


def stats_reference(z):
    """(S, nu) of sysmodel._trial_stats, written out from the unit draws."""
    S = np.empty((len(z), 3, z.shape[-1], 4, z.shape[-1]), dtype=complex)
    for j in range(3):
        for l in range(3):
            S[:, j, :, l] = z[:, j].swapaxes(-2, -1) @ z[:, l].conj()
        S[:, j, :, 3] = z[:, j].swapaxes(-2, -1) @ z[:, 3]
    return S, np.sum(np.abs(z[:, 3]) ** 2, axis=-2)


class TestTrialDraws:
    @pytest.fixture(autouse=True)
    def cold_cache(self, monkeypatch):
        monkeypatch.setattr(sysmodel, "_stats_cache", {})

    def test_block_rows_do_not_depend_on_the_block(self):
        cfg = make_cfg(M=6, K=2, tau_p=2)
        block = trial_draws(cfg, 5, [3, 0, 7])
        assert block.shape == (3, 4, 6, 2)
        for row, t in zip(block, (3, 0, 7)):
            np.testing.assert_array_equal(row, trial_draws(cfg, 5, [t])[0])

    def test_attempt_and_domain_select_other_streams(self):
        cfg = make_cfg(M=6, K=2, tau_p=2)
        base = trial_draws(cfg, 5, [1, 2])
        redrawn = trial_draws(cfg, 5, [1, 2], [0, 1])
        np.testing.assert_array_equal(redrawn[0], base[0])
        assert not np.array_equal(redrawn[1], base[1])
        assert not np.array_equal(trial_draws(cfg, 5, [1], domain=DOMAIN_MOMENTS)[0], base[0])

    def test_unit_variance(self):
        cfg = make_cfg(M=64, K=8, tau_p=8)
        z = trial_draws(cfg, 2, range(50))
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)
        assert abs(np.mean(z**2)) < 0.02  # circular symmetry

    def test_stats_are_the_slot_products_of_the_draws(self):
        cfg = make_cfg(M=6, K=2, tau_p=2)
        S, nu = sysmodel._trial_stats(cfg, 5, range(20))
        assert S.shape == (20, 3, 2, 4, 2) and nu.shape == (20, 2)
        want_S, want_nu = stats_reference(trial_draws(cfg, 5, range(20)))
        np.testing.assert_allclose(S, want_S, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(nu, want_nu, rtol=1e-13)

    @pytest.mark.parametrize("chunk", (1, 3, 64))
    def test_stats_rows_do_not_depend_on_block_or_chunk(self, monkeypatch, chunk):
        cfg = make_cfg(M=6, K=2, tau_p=2)
        S, nu = sysmodel._trial_stats(cfg, 5, range(40))
        monkeypatch.setattr(sysmodel, "_STATS_CHUNK", chunk)
        sysmodel._stats_cache.clear()
        for t in (0, 17, 39):
            S_t, nu_t = sysmodel._trial_stats(cfg, 5, [t])
            np.testing.assert_array_equal(S_t[0], S[t])
            np.testing.assert_array_equal(nu_t[0], nu[t])
        S_re, nu_re = sysmodel._trial_stats(cfg, 5, range(40), [0] * 39 + [1])
        np.testing.assert_array_equal(S_re[:39], S[:39])
        np.testing.assert_array_equal(nu_re[:39], nu[:39])

    def test_returned_block_is_read_only(self):
        cfg = make_cfg(M=6, K=2, tau_p=2)
        S, nu = stats = sysmodel._trial_stats(cfg, 5, [0, 1])
        with pytest.raises(ValueError):
            S[0, 0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            nu[0, 0] = 1.0
        assert sysmodel._trial_stats(cfg, 5, [0, 1]) is stats  # served from the cache

    def test_redraw_block_bypasses_the_cache(self):
        cfg = make_cfg(M=6, K=2, tau_p=2)
        cached = sysmodel._trial_stats(cfg, 5, [1, 2])
        redrawn = sysmodel._trial_stats(cfg, 5, [1, 2], [0, 1])
        assert redrawn is not cached
        np.testing.assert_array_equal(redrawn[0][0], cached[0][0])
        assert not np.array_equal(redrawn[0][1], cached[0][1])
        assert list(sysmodel._stats_cache.values()) == [cached]
        assert sysmodel._trial_stats(cfg, 5, [1, 2], [0, 1]) is not redrawn

    def test_cached_blocks_equal_cold_draws(self):
        # each call differs from the first in one part of the memo key
        cfg = make_cfg(M=6, K=2, tau_p=2)
        calls = [
            (cfg, 8, (0, 1, 2), sysmodel.DOMAIN_TRIAL),
            (cfg, 8, (2, 1, 0), sysmodel.DOMAIN_TRIAL),
            (cfg, 9, (0, 1, 2), sysmodel.DOMAIN_TRIAL),
            (cfg, 8, (0, 1, 2), DOMAIN_MOMENTS),
            (make_cfg(M=7, K=2, tau_p=2), 8, (0, 1, 2), sysmodel.DOMAIN_TRIAL),
            (make_cfg(M=6, K=3, tau_p=3), 8, (0, 1, 2), sysmodel.DOMAIN_TRIAL),
        ]
        for c, seed, ids, domain in calls:
            sysmodel._trial_stats(c, seed, ids, domain=domain)
        assert len(sysmodel._stats_cache) == len(calls)
        warm = [sysmodel._trial_stats(c, seed, ids, domain=domain) for c, seed, ids, domain in calls]
        for (c, seed, ids, domain), block in zip(calls, warm):
            sysmodel._stats_cache.clear()
            cold = sysmodel._trial_stats(c, seed, ids, domain=domain)
            assert cold is not block
            for a, b in zip(block, cold):
                np.testing.assert_array_equal(a, b)

    def test_cache_stays_within_its_byte_bound(self, monkeypatch):
        cfg = make_cfg(M=6, K=2, tau_p=2)
        block_bytes = sum(a.nbytes for a in sysmodel._trial_stats(cfg, 0, range(3)))
        bound = 3 * block_bytes + block_bytes // 2
        monkeypatch.setattr(sysmodel, "_STATS_CACHE_BYTES", bound)
        sysmodel._stats_cache.clear()
        first = sysmodel._trial_stats(cfg, 0, range(3))
        for seed in range(1, 10):
            sysmodel._trial_stats(cfg, seed, range(3))
            assert sum(sysmodel._nbytes(v) for v in sysmodel._stats_cache.values()) <= bound
            assert len(sysmodel._stats_cache) == min(seed + 1, 3)
        assert sysmodel._trial_stats(cfg, 0, range(3)) is not first  # oldest block was dropped
        held = list(sysmodel._stats_cache.values())
        big = sysmodel._trial_stats(cfg, 0, range(12))  # larger than the bound: reduced, not stored
        assert sysmodel._nbytes(big) > bound and not big[0].flags.writeable
        assert list(sysmodel._stats_cache.values()) == held

    def test_thousand_trial_run_fits(self):
        # 12 KB of statistics per trial at K = 8, whatever M is
        cfg = make_cfg(M=128, K=8, tau_p=8)
        blocks = [sysmodel._trial_stats(cfg, 1, range(s, min(s + TRIAL_BLOCK, 1000))) for s in range(0, 1000, TRIAL_BLOCK)]
        assert sum(sysmodel._nbytes(b) for b in blocks) == 1000 * (12 * 8 * 8 * 16 + 8 * 8)
        assert sum(sysmodel._nbytes(b) for b in blocks) <= sysmodel._STATS_CACHE_BYTES / 10
        assert len(sysmodel._stats_cache) == 4
        assert all(any(value is b for value in sysmodel._stats_cache.values()) for b in blocks)
