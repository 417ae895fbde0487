import numpy as np
import pytest

import fhalloc.sysmodel as sysmodel
from fhalloc.sysmodel import (
    DOMAIN_MOMENTS,
    DOMAIN_TRIAL,
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

    def test_from_snr_overflow_is_a_config_error(self):
        with pytest.raises(ConfigError, match="beyond floating-point range at snr_db = 4000"):
            SystemConfig.from_snr(M=16, K=4, tau_c=50, tau_p=4, snr_db=4000)
        # a numpy SNR overflows to inf instead, which the power check refuses
        with pytest.raises(ConfigError, match="total_power must be finite and positive"):
            with pytest.warns(RuntimeWarning, match="overflow"):
                SystemConfig.from_snr(M=16, K=4, tau_c=50, tau_p=4, snr_db=np.float64(4000.0))
        with pytest.raises(ConfigError, match="total_power must be finite and positive"):
            SystemConfig.from_snr(M=16, K=4, tau_c=50, tau_p=4, snr_db=-4000.0)

    @pytest.mark.parametrize("noise_var", [float("inf"), float("nan"), 0.0, -1.0, np.float64("inf")])
    def test_from_snr_names_a_bad_noise_var(self, noise_var):
        """A bad noise_var is refused by its own name, not as the total_power derived from it."""
        with pytest.raises(ConfigError) as info:
            SystemConfig.from_snr(M=16, K=2, tau_c=50, tau_p=4, snr_db=0.0, noise_var=noise_var)
        assert str(info.value) == "noise_var must be finite and positive"

    def test_default_pilot_power_overflow_names_its_source(self):
        """The default pilot power total_power / noise_var overflowing is not blamed on a pilot_power nobody gave."""
        with pytest.raises(ConfigError) as info:
            SystemConfig(M=16, K=2, tau_c=50, tau_p=4, total_power=1e308, noise_var=1e-10)
        assert str(info.value) == "the default pilot_power total_power / noise_var is beyond floating-point range"
        # a pilot power that is given is used as it is
        cfg = SystemConfig(M=16, K=2, tau_c=50, tau_p=4, total_power=1e308, noise_var=1e-10, pilot_power=1.0)
        assert cfg.pilot_power.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("total_power", 10**400, "total_power is an integer beyond"),
            ("noise_var", 10**400, "noise_var is an integer beyond"),
            ("beta", 10**400, "beta holds an integer beyond"),
            ("beta", [1.0, 10**400, 1.0, 1.0], "beta holds an integer beyond"),
            ("pilot_power", 10**400, "pilot_power holds an integer beyond"),
            ("pilot_power", [10**400, 1, 1, 1], "pilot_power holds an integer beyond"),
            ("M", 10**400, "M is an integer beyond"),
            ("tau_c", 10**400, "tau_c is an integer beyond"),
        ],
    )
    def test_integer_beyond_float_range_is_a_config_error(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            make_cfg(**{field: value})

    @pytest.mark.parametrize("field", ["noise_var", "snr_db", "beta", "pilot_power"])
    def test_from_snr_names_the_integer_beyond_float_range(self, field):
        kw = {"snr_db": 0.0, field: 10**400}
        with pytest.raises(ConfigError, match=f"^{field} (is|holds) an integer beyond floating-point range"):
            SystemConfig.from_snr(M=16, K=4, tau_c=50, tau_p=4, **kw)

    def test_pilot_overhead(self):
        assert make_cfg(tau_p=5).pilot_overhead == pytest.approx(0.1)

    @pytest.mark.parametrize("name", ["beta", "pilot_power"])
    def test_arrays_are_read_only_copies(self, name):
        """Writing into the caller's array after construction leaves the checked config as it was."""
        given = np.array([1.0, 2.0, 0.5, 1.5])
        cfg = SystemConfig.from_snr(M=16, K=4, tau_c=50, tau_p=4, snr_db=0.0, **{name: given})
        stored = getattr(cfg, name)
        assert stored is not given and not np.shares_memory(stored, given)
        assert given.flags.writeable
        given[0] = -7.0
        np.testing.assert_array_equal(stored, [1.0, 2.0, 0.5, 1.5])
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 3.0
        # a scalar is broadcast into a read-only array too
        assert not getattr(make_cfg(**{name: 2.0}), name).flags.writeable

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"beta": -1.0}, "beta entries must be finite and positive"),
            ({"beta": 0}, "beta entries must be finite and positive"),
            ({"beta": np.float64("nan")}, "beta entries must be finite and positive"),
            ({"beta": [1.0, np.inf, 1.0, 1.0]}, "beta entries must be finite and positive"),
            ({"beta": np.zeros(4)}, "beta entries must be finite and positive"),
            ({"beta": [1.0, 2.0]}, "beta must be a scalar or length-4 vector, got shape (2,)"),
            ({"pilot_power": -1}, "pilot_power entries must be finite and nonnegative"),
            ({"pilot_power": float("inf")}, "pilot_power entries must be finite and nonnegative"),
            ({"pilot_power": [0.0, -1.0, 1.0, 1.0]}, "pilot_power entries must be finite and nonnegative"),
            ({"pilot_power": np.ones((2, 2))}, "pilot_power must be a scalar or length-4 vector, got shape (2, 2)"),
            # each entry as given: a cast to an int or float array would hide these
            ({"beta": [1, True, 1, 1]}, "beta entries must be real, non-boolean numbers"),
            ({"beta": "1"}, "beta entries must be real, non-boolean numbers"),
            ({"pilot_power": np.ones(4, bool)}, "pilot_power entries must be real, non-boolean numbers"),
        ],
    )
    def test_user_vector_messages(self, over, message):
        with pytest.raises(ConfigError) as info:
            make_cfg(**over)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "beta entries must be real, non-boolean numbers"),
            (np.bool_(True), "beta entries must be real, non-boolean numbers"),
            ("1", "beta entries must be real, non-boolean numbers"),
            (float("nan"), "beta entries must be finite and positive"),
            (float("inf"), "beta entries must be finite and positive"),
            (0, "beta entries must be finite and positive"),
            (0.0, "beta entries must be finite and positive"),
            (-2.0, "beta entries must be finite and positive"),
            (np.float64(-1.0), "beta entries must be finite and positive"),
            (10**400, "beta holds an integer beyond floating-point range"),
        ],
    )
    def test_scalar_refusals(self, value, message):
        """A scalar skips the object array but none of the checks."""
        with pytest.raises(ConfigError) as info:
            sysmodel._as_user_vector(value, 4, "beta")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "fields, snr_fields, message",
        [
            ({"M": True}, {"M": True}, "M must be a positive integer, got True"),
            ({"tau_c": True}, {"tau_c": True}, "tau_c must be a positive integer, got True"),
            ({"K": np.int32(0)}, {"K": np.int32(0)}, f"K must be a positive integer, got {np.int32(0)!r}"),
            ({"M": np.int64(4)}, {"M": np.int64(4)}, "need K < M and K <= tau_p <= tau_c"),
            ({"tau_p": 10**400}, {"M": 10**400},
             ("tau_p is an integer beyond floating-point range", "M is an integer beyond floating-point range")),
            ({"M": 4}, {"M": 3}, "need K < M and K <= tau_p <= tau_c"),
            ({"tau_p": 3}, {"tau_p": 3}, "need K < M and K <= tau_p <= tau_c"),
            ({"tau_p": 51}, {"tau_p": 51}, "need K < M and K <= tau_p <= tau_c"),
            ({"noise_var": 0.0}, {"noise_var": 0}, "noise_var must be finite and positive"),
            ({"noise_var": -1.0}, {"noise_var": -2}, "noise_var must be finite and positive"),
            ({"noise_var": float("inf")}, {"noise_var": float("inf")}, "noise_var must be finite and positive"),
            ({"noise_var": float("nan")}, {"noise_var": float("nan")}, "noise_var must be finite and positive"),
            ({"total_power": 0.0}, {"snr_db": -float("inf")}, "total_power must be finite and positive"),
            ({"total_power": -1.0}, {"snr_db": np.float64(-4000.0)}, "total_power must be finite and positive"),
            ({"total_power": float("inf")}, {"snr_db": float("inf")}, "total_power must be finite and positive"),
            ({"total_power": float("nan")}, {"snr_db": float("nan")}, "total_power must be finite and positive"),
            ({"total_power": 0}, {"snr_db": -4000}, "total_power must be finite and positive"),
            ({"total_power": -5}, {"snr_db": -4000.0, "noise_var": 3}, "total_power must be finite and positive"),
            ({"beta": True}, {"beta": True}, "beta entries must be real, non-boolean numbers"),
            ({"beta": -1.0}, {"beta": -1.0}, "beta entries must be finite and positive"),
            ({"pilot_power": True}, {"pilot_power": -0.5},
             ("pilot_power entries must be real, non-boolean numbers", "pilot_power entries must be finite and nonnegative")),
            # an int power past the float range, and a default pilot power that overflows; from_snr's
            # default pilot power is 10^(snr_db/10), which overflows only where P_t does
            ({"total_power": 10**400}, {"noise_var": 10**400},
             ("total_power is an integer beyond floating-point range", "noise_var is an integer beyond floating-point range")),
            ({"total_power": 10**300, "noise_var": 1e-10}, {"snr_db": 3090.0, "noise_var": 1e-200},
             ("the default pilot_power total_power / noise_var is beyond floating-point range",
              "P_t = sigma^2 10^(snr_db/10) is beyond floating-point range at snr_db = 3090.0")),
        ],
    )
    def test_refusals_keep_their_messages(self, fields, snr_fields, message):
        """Input outside the one-pass check of the common input meets the field-by-field checks and their messages.

        Each case goes through the constructor and through from_snr, which
        gives total_power as sigma^2 10^(snr_db/10); a pair of messages is
        the constructor's, then from_snr's.
        """
        messages = (message, message) if isinstance(message, str) else message
        snr_fields = {**dict(M=16, K=4, tau_c=50, tau_p=4, snr_db=10.0), **snr_fields}
        for build, given, want in ((make_cfg, fields, messages[0]), (SystemConfig.from_snr, snr_fields, messages[1])):
            with pytest.raises(ConfigError) as info:
                build(**given)
            assert str(info.value) == want

    @pytest.mark.parametrize(
        "over",
        [{"total_power": 10}, {"noise_var": 2}, {"M": np.int64(16)}, {"tau_p": np.int32(4)}, {"noise_var": np.float64(2.0)},
         {"beta": 1}, {"beta": np.float32(1.0)}, {"pilot_power": np.float64(5.0)}, {"pilot_power": 5}],
    )
    def test_other_scalar_types_store_what_the_common_input_stores(self, over):
        """ints and numpy scalars take the field-by-field checks and store the same arrays and equal-user floats."""
        common = make_cfg(noise_var=2.0)
        other = make_cfg(**{"noise_var": 2.0, **over})
        assert other.beta.tolist() == common.beta.tolist() and other.pilot_power.tolist() == common.pilot_power.tolist()
        assert other._equal_users == common._equal_users == (1.0, 5.0)
        assert all(type(v) is float for v in other._equal_users)
        assert make_cfg(beta=[1.0] * 4)._equal_users is None
        assert make_cfg(pilot_power=np.full(4, 5.0))._equal_users is None
        # counts from 2^53 on leave the one pass too, and are accepted as before
        assert make_cfg(M=2**53, tau_c=2**60)._equal_users == (1.0, 10.0)

    @pytest.mark.parametrize("value", [2, 2.0, np.float64(2.0), np.float32(2.0), np.int64(2), np.array(2.0)])
    def test_scalar_is_broadcast_read_only(self, value):
        arr = sysmodel._as_user_vector(value, 4, "beta")
        assert arr.dtype == float and arr.tolist() == [2.0] * 4 and not arr.flags.writeable
        assert sysmodel._as_user_vector(0, 3, "pilot_power", allow_zero=True).tolist() == [0.0] * 3
        with pytest.raises(ConfigError, match="pilot_power entries must be finite and nonnegative"):
            sysmodel._as_user_vector(-1e-300, 3, "pilot_power", allow_zero=True)


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
        """Trial t draws from stream (domain, t, 0); the trailing 0 is part of every stream id."""
        cfg = make_cfg(M=6, K=2, tau_p=2)
        gen = RngStream(5, (DOMAIN_TRIAL, 2, 0)).generator()
        shape = (4, cfg.M, cfg.K)
        want = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)
        np.testing.assert_array_equal(trial_draws(cfg, 5, [2])[0], want)
        assert not np.array_equal(trial_draws(cfg, 5, [2], domain=DOMAIN_MOMENTS)[0], want)

    def test_unit_variance(self):
        cfg = make_cfg(M=64, K=8, tau_p=8)
        z = trial_draws(cfg, 2, range(50))
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)
        assert abs(np.mean(z**2)) < 0.02  # circular symmetry

    def test_stats_are_the_slot_products_of_the_draws(self, m_space_stats):
        """_trial_stats lays the draw step's rows out as the blocks Q_jl and R_j, and nu as |Z_3|^2."""
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

    def test_returned_block_is_read_only(self):
        cfg = make_cfg(M=6, K=2, tau_p=2)
        S, nu = stats = sysmodel._trial_stats(cfg, 5, [0, 1])
        with pytest.raises(ValueError):
            S[0, 0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            nu[0, 0] = 1.0
        assert sysmodel._trial_stats(cfg, 5, [0, 1]) is stats  # served from the cache

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


class TestBartlettStats:
    """The slot statistics drawn from each trial's Bartlett factor against the law of the M x K reduction."""

    CASES = pytest.mark.parametrize("M, K", ((128, 8), (16, 2), (32, 16)), ids=("128x8", "16x2", "32x16-trapezoidal"))
    # a sample mean may sit this many standard errors from its expectation
    Z_BOUND = 4.5

    @pytest.fixture(autouse=True)
    def cold_cache(self, monkeypatch):
        monkeypatch.setattr(sysmodel, "_stats_cache", {})

    @staticmethod
    def per_trial_moments(S, nu, M, K):
        """Per trial, shape (n,): mean Q_jj,aa, mean (Q_jj,aa - M)^2, mean |off-diagonal entry|^2 and mean nu."""
        S = S.reshape(len(S), 3 * K, 4 * K)
        diag = np.diagonal(S[..., : 3 * K], axis1=-2, axis2=-1)
        off = np.abs(S) ** 2
        off[:, np.arange(3 * K), np.arange(3 * K)] = 0.0
        return {
            "E Q_jj,aa": np.mean(diag.real, axis=-1),
            "Var Q_jj,aa": np.mean((diag.real - M) ** 2, axis=-1),
            "E |Q_jl,ab|^2": np.sum(off, axis=(-2, -1)) / (3 * K * 4 * K - 3 * K),
            "E nu": np.mean(nu, axis=-1),
        }

    @CASES
    def test_moments_are_the_wishart_moments_of_the_reduction(self, M, K, m_space_reduction):
        """E Q_jj = M I, Var Q_jj,aa = M, E|Q_jl,ab|^2 = M off the diagonal and E nu = M, for both samplers."""
        cfg = make_cfg(M=M, K=K, tau_c=50, tau_p=K)
        ids = tuple(range(800))
        drawn = self.per_trial_moments(*sysmodel._draw_stats(cfg, 11, ids, sysmodel.DOMAIN_TRIAL), M, K)
        reduced = self.per_trial_moments(*m_space_reduction(cfg, 11, ids, sysmodel.DOMAIN_TRIAL), M, K)
        for name in drawn:
            means = [np.mean(x[name]) for x in (drawn, reduced)]
            errs = [np.std(x[name]) / np.sqrt(len(ids)) for x in (drawn, reduced)]
            for mean, err in zip(means, errs):
                assert abs(mean - M) < self.Z_BOUND * err, (name, mean, err)
            assert abs(means[0] - means[1]) < self.Z_BOUND * np.hypot(*errs), (name, means, errs)

    @CASES
    def test_rank_is_that_of_m_antennas(self, M, K, m_space_reduction):
        """The first 3K rows of the slot Gram have rank min(M, 3K), as the reduction's do: M when M < 4K."""
        cfg = make_cfg(M=M, K=K, tau_c=50, tau_p=K)
        for S, _ in (sysmodel._trial_stats(cfg, 2, range(5)), m_space_reduction(cfg, 2, range(5), sysmodel.DOMAIN_TRIAL)):
            ranks = np.linalg.matrix_rank(np.reshape(S, (5, 3 * K, 4 * K)))
            np.testing.assert_array_equal(ranks, min(M, 3 * K))

    @CASES
    def test_bits_do_not_depend_on_block_chunk_or_memo(self, monkeypatch, M, K):
        cfg = make_cfg(M=M, K=K, tau_c=50, tau_p=K)
        whole = sysmodel._trial_stats(cfg, 4, range(300))
        assert sysmodel._trial_stats(cfg, 4, range(300)) is whole  # warm
        for block in (1, 7, TRIAL_BLOCK):
            for chunk in (1, 3, sysmodel._STATS_CHUNK):
                monkeypatch.setattr(sysmodel, "_STATS_CHUNK", chunk)
                sysmodel._stats_cache.clear()
                parts = [sysmodel._trial_stats(cfg, 4, range(lo, min(lo + block, 300))) for lo in range(0, 300, block)]
                for a, b in zip(whole, zip(*parts)):
                    np.testing.assert_array_equal(np.concatenate(b), a)
