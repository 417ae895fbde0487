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


class TestTrialDraws:
    @pytest.fixture(autouse=True)
    def cold_cache(self, monkeypatch):
        monkeypatch.setattr(sysmodel, "_draw_cache", {})

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

    def test_returned_block_is_read_only(self):
        cfg = make_cfg(M=6, K=2, tau_p=2)
        z = trial_draws(cfg, 5, [0, 1])
        with pytest.raises(ValueError):
            z[0, 0, 0, 0] = 1.0
        assert trial_draws(cfg, 5, [0, 1]) is z  # served from the cache

    def test_redraw_block_bypasses_the_cache(self):
        cfg = make_cfg(M=6, K=2, tau_p=2)
        cached = trial_draws(cfg, 5, [1, 2])
        redrawn = trial_draws(cfg, 5, [1, 2], [0, 1])
        assert redrawn is not cached
        np.testing.assert_array_equal(redrawn[0], cached[0])
        assert not np.array_equal(redrawn[1], cached[1])
        assert list(sysmodel._draw_cache.values()) == [cached]
        assert trial_draws(cfg, 5, [1, 2], [0, 1]) is not redrawn

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
            trial_draws(c, seed, ids, domain=domain)
        warm = [trial_draws(c, seed, ids, domain=domain) for c, seed, ids, domain in calls]
        for (c, seed, ids, domain), block in zip(calls, warm):
            sysmodel._draw_cache.clear()
            cold = trial_draws(c, seed, ids, domain=domain)
            assert cold is not block
            np.testing.assert_array_equal(block, cold)

    def test_cache_stays_within_its_byte_bound(self, monkeypatch):
        # the default bound holds the four blocks of a 1000-trial sweep at M=128, K=8
        assert 4 * TRIAL_BLOCK * 4 * 128 * 8 * np.dtype(complex).itemsize <= sysmodel._DRAW_CACHE_BYTES
        cfg = make_cfg(M=6, K=2, tau_p=2)
        block_bytes = trial_draws(cfg, 0, range(3)).nbytes
        bound = 3 * block_bytes + block_bytes // 2
        monkeypatch.setattr(sysmodel, "_DRAW_CACHE_BYTES", bound)
        sysmodel._draw_cache.clear()
        first = trial_draws(cfg, 0, range(3))
        for seed in range(1, 10):
            trial_draws(cfg, seed, range(3))
            assert sum(b.nbytes for b in sysmodel._draw_cache.values()) <= bound
            assert len(sysmodel._draw_cache) == min(seed + 1, 3)
        assert trial_draws(cfg, 0, range(3)) is not first  # oldest block was dropped
        held = list(sysmodel._draw_cache.values())
        big = trial_draws(cfg, 0, range(12))  # larger than the bound: drawn, not stored
        assert big.nbytes > bound and not big.flags.writeable
        assert list(sysmodel._draw_cache.values()) == held

    def test_derived_arrays_count_against_the_bound(self, monkeypatch):
        cfg = make_cfg(M=6, K=2, tau_p=2)
        block_bytes = trial_draws(cfg, 0, range(3)).nbytes
        derived_bytes = sysmodel._block_derived(trial_draws(cfg, 0, range(3)), ("probe",), np.copy).nbytes
        bound = 2 * block_bytes + derived_bytes + derived_bytes // 2
        monkeypatch.setattr(sysmodel, "_DRAW_CACHE_BYTES", bound)
        sysmodel._draw_cache.clear()

        def held():
            return sum(array.nbytes for array in sysmodel._draw_cache.values())

        def holds(*arrays):
            return [id(a) for a in sysmodel._draw_cache.values()] == [id(a) for a in arrays]

        def owners_present():
            derived = [key for key in sysmodel._draw_cache if sysmodel._is_derived(key)]
            return all(key[0] in sysmodel._draw_cache for key in derived)

        first, second = trial_draws(cfg, 0, range(3)), trial_draws(cfg, 1, range(3))
        d_first = sysmodel._block_derived(first, ("copy",), np.copy)
        assert not d_first.flags.writeable and held() <= bound
        # a second derived array would overflow: it pushes out the first
        # derived array, never a block
        d_second = sysmodel._block_derived(second, ("copy",), np.copy)
        np.testing.assert_array_equal(d_second, second)
        assert held() <= bound and owners_present()
        assert holds(first, second, d_second)
        # a new block pushes out derived arrays before blocks, oldest first,
        # and no derived array outlives its block
        third = trial_draws(cfg, 2, range(3))
        assert held() <= bound and owners_present()
        assert holds(first, second, third)
        fourth = trial_draws(cfg, 3, range(3))
        assert held() <= bound and holds(second, third, fourth)
        # a derived array that does not fit beside the blocks is built, not stored
        big = sysmodel._block_derived(third, ("tile",), lambda z: np.concatenate([z, z, z]))
        assert big.shape[0] == 9 and not big.flags.writeable
        assert holds(second, third, fourth)

    def test_thousand_trial_run_fits_with_its_estimates(self):
        from fhalloc.channel import quantized_estimate

        cfg = make_cfg(M=128, K=8, tau_p=8)
        blocks = [trial_draws(cfg, 1, range(s, min(s + TRIAL_BLOCK, 1000))) for s in range(0, 1000, TRIAL_BLOCK)]
        for z in blocks:
            quantized_estimate(cfg, z, 0.0)
        assert len(sysmodel._draw_cache) == 2 * len(blocks) == 8
        assert sum(array.nbytes for array in sysmodel._draw_cache.values()) <= sysmodel._DRAW_CACHE_BYTES
        assert all(any(array is z for array in sysmodel._draw_cache.values()) for z in blocks)
