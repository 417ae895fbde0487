import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fhalloc.precoding as precoding
import fhalloc.se as se
import fhalloc.sysmodel as sysmodel
from fhalloc.channel import gamma_coefficient, quantized_estimate
from fhalloc.experiments import ExperimentSpec, optimize_split
from fhalloc.precoding import precoder_entry_var, transmit_rescale
from fhalloc.quantization import aqnm_noise_var, eta_of_bits
from fhalloc.se import (
    closed_form_mrt_sinr,
    closed_form_mrt_terms,
    mc_hardening_sinr,
    mc_mrt_term_estimates,
    se_from_sinr,
)
from fhalloc.sysmodel import ConfigError, SystemConfig, trial_draws


def cfg_at(snr_db, *, M=32, K=4, tau_c=200, tau_p=8):
    return SystemConfig.from_snr(M=M, K=K, tau_c=tau_c, tau_p=tau_p, snr_db=snr_db)


class TestSeFromSinr:
    def test_reference_point(self):
        # unit SINR with a 4 percent pilot overhead
        assert se_from_sinr(1.0, 8, 200) == pytest.approx(0.96, rel=1e-12)

    def test_zero_sinr(self):
        assert se_from_sinr(0.0, 8, 200) == 0.0

    def test_all_pilot_frame(self):
        assert se_from_sinr(5.0, 50, 50) == 0.0

    def test_vector_input(self):
        out = se_from_sinr([0.0, 1.0, 3.0], 8, 200)
        np.testing.assert_allclose(out, 0.96 * np.array([0.0, 1.0, 2.0]), rtol=1e-12)

    def test_negative_sinr_rejected(self):
        with pytest.raises(ValueError):
            se_from_sinr(-0.5, 8, 200)

    def test_bad_frame_split(self):
        with pytest.raises(ValueError):
            se_from_sinr(1.0, 300, 200)


class TestClosedFormMrt:
    def test_prelog_identity(self):
        cfg = cfg_at(10.0)
        rep = closed_form_mrt_sinr(cfg, 4, 4)
        np.testing.assert_array_equal(rep.se, se_from_sinr(rep.sinr, 8, 200))
        assert rep.sum_se == float(np.sum(rep.se))
        assert rep.trials == 0
        assert rep.method == "closed_form_mrt"

    def test_strictly_better_with_more_csi_bits(self):
        cfg = cfg_at(10.0)
        vals = [closed_form_mrt_sinr(cfg, b, 5).sum_se for b in range(1, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_strictly_better_with_more_precoder_bits(self):
        cfg = cfg_at(10.0)
        vals = [closed_form_mrt_sinr(cfg, 5, b).sum_se for b in range(1, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_distortion_symmetry(self):
        """Swapping the two bit depths leaves the MRT bound unchanged.

        The bound depends on the split only through (1-eta_h)(1-eta_p);
        the derivation is in the docstring of
        fhalloc.se.closed_form_mrt_terms.
        """
        cfg = cfg_at(0.0)
        a = closed_form_mrt_sinr(cfg, 3, 7).sum_se
        b = closed_form_mrt_sinr(cfg, 7, 3).sum_se
        assert a == pytest.approx(b, rel=1e-12)

    def test_none_disables_a_quantizer(self):
        cfg = cfg_at(0.0)
        unquantized = closed_form_mrt_sinr(cfg, None, None).sum_se
        coarse = closed_form_mrt_sinr(cfg, 1, None).sum_se
        assert coarse < unquantized

    def test_interference_limited_at_high_power(self):
        lo = closed_form_mrt_sinr(cfg_at(10.0, M=64), None, None).sum_se
        hi = closed_form_mrt_sinr(cfg_at(30.0, M=64), None, None).sum_se
        assert hi > lo
        assert (hi - lo) / lo < 0.15

    def test_terms_keys_and_signs(self):
        cfg = cfg_at(10.0)
        terms = closed_form_mrt_terms(cfg, 4, 4)
        assert set(terms) == {"signal", "variation", "precoder_noise", "noise"}
        for v in terms.values():
            assert v.shape == (cfg.K,)
            assert np.all(v > 0)

    def test_terms_take_a_leading_split_axis(self):
        cfg = cfg_at(10.0, K=3)
        splits = [(1, 9), (4, None), (None, 2), (None, None)]
        terms = closed_form_mrt_terms(cfg, [b for b, _ in splits], [b for _, b in splits])
        for key, value in terms.items():
            assert value.shape == (len(splits), cfg.K)
            for row, (b_h, b_p) in zip(value, splits):
                np.testing.assert_array_equal(row, closed_form_mrt_terms(cfg, b_h, b_p)[key])


@st.composite
def closed_form_searches(draw):
    """Closed-form search specs over M, K, unequal beta and pilot power, SNR and b_bar.

    b_bar up to 40 reaches the asymptotic branch of eta (B >= 6) on both
    transfers.
    """
    K = draw(st.integers(1, 8))
    per_user = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=K, max_size=K)
    return ExperimentSpec(
        name="search",
        M=draw(st.integers(K + 1, 128)),
        K=K,
        tau_c=200,
        tau_p=draw(st.integers(K, 2 * K)),
        beta=draw(per_user(0.05, 5.0)),
        pilot_q=draw(per_user(0.01, 100.0)),
        snr_db=(draw(st.floats(-30.0, 30.0)),),
        evaluator="closed-form",
        b_bar=draw(st.integers(2, 40)),
    )


class TestClosedFormProfile:
    """optimize_split evaluates every split of a closed-form search in one pass."""

    @settings(max_examples=80, deadline=None)
    @given(spec=closed_form_searches())
    def test_profile_is_the_per_split_closed_form(self, spec):
        cfg = spec.config_for(spec.snr_db[0])
        result = optimize_split(spec)
        singles = [closed_form_mrt_sinr(cfg, b_h, spec.b_bar - b_h) for b_h in range(1, spec.b_bar)]
        # bit for bit, in the row layout of line_search
        assert result.profile == tuple(
            (r.b_h, r.b_p, r.sum_se, tuple(float(v) for v in r.se)) for r in singles
        )
        values = [r.sum_se for r in singles]
        assert result.best_sum_se == max(values)
        assert result.b_h == values.index(max(values)) + 1  # ties go to the smallest B_H
        assert not result.failed

    @pytest.mark.parametrize("M, K", [(32, 2), (32, 16), (256, 2), (256, 16)])
    @pytest.mark.parametrize("snr_db", [-20.0, 20.0])
    @pytest.mark.parametrize("users", ["equal", "unequal-beta", "zero-pilots"])
    def test_profile_equals_each_split_alone(self, M, K, snr_db, users):
        """Every row of a closed-form search is closed_form_mrt_sinr of its split, compared with ==.

        b_bar = 70 takes both bit widths past 32 bits.
        """
        extra = {
            "equal": {},
            "unequal-beta": {"beta": [0.25 + 0.5 * k for k in range(K)]},
            "zero-pilots": {"pilot_q": [0.0 if k % 2 else 0.5 + k for k in range(K)]},
        }[users]
        for b_bar in (2, 10, 33, 70):
            spec = ExperimentSpec(
                name="search", M=M, K=K, tau_c=200, tau_p=K, snr_db=(snr_db,), evaluator="closed-form",
                b_bar=b_bar, **extra,
            )
            cfg = spec.config_for(snr_db)
            result = optimize_split(spec)
            assert len(result.profile) == b_bar - 1
            for (b_h, b_p, sum_se, per_user), alone in zip(
                result.profile, (closed_form_mrt_sinr(cfg, b_h, b_bar - b_h) for b_h in range(1, b_bar))
            ):
                assert (b_h, b_p) == (alone.b_h, alone.b_p)
                assert sum_se == alone.sum_se
                assert len(per_user) == K
                assert all(v == w for v, w in zip(per_user, alone.se))

    def test_eta_is_eta_of_bits(self):
        widths = [1, np.int64(3), None, 5, 6, np.int32(7), 32, 33, np.int64(40), 70, None]
        for given in (widths, tuple(widths), np.array(widths, dtype=object)):
            col = se._eta(given)
            assert col.shape == (len(widths), 1)
            for width, got in zip(widths, col[:, 0]):
                want = 0.0 if width is None else eta_of_bits(width)
                assert got == want
                assert se._eta(width) == want
        assert np.array_equal(se._eta(range(3, 70, 11)), [[eta_of_bits(b)] for b in range(3, 70, 11)])

    @pytest.mark.parametrize(
        "b_h, b_p",
        [
            (4, 6),
            (None, 33),
            ([1, np.int64(3), None, 32, 33, 70], [70, 2, 5, None, np.int32(7), 1]),
            (5, [1, 2, 40]),
            ([1, 2, 40], None),
            ([9], [1, 2, 40]),
        ],
    )
    def test_split_factor_is_the_product_of_the_eta_columns(self, b_h, b_p):
        """c is bit for bit the product of _eta's columns, shape included, sequences of one width broadcast."""
        want = (1.0 - se._eta(b_h)) * (1.0 - se._eta(b_p))
        got = se._split_factor(b_h, b_p)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    def test_split_factor_refuses_sequences_of_unequal_lengths(self):
        for product in (se._split_factor, lambda b_h, b_p: (1.0 - se._eta(b_h)) * (1.0 - se._eta(b_p))):
            with pytest.raises(ValueError):
                product([1, 2, 3], [4, 5])

    @pytest.mark.parametrize("width", [0, -3, np.int64(0), 2.0, 3.5, "4", True, np.True_])
    def test_bad_widths_raise_the_eta_of_bits_error(self, width):
        with pytest.raises(ValueError) as want:
            eta_of_bits(width)
        for given in (width, [4, width], (width, None)):
            with pytest.raises(ValueError) as got:
                se._eta(given)
            assert str(got.value) == str(want.value)
        cfg = cfg_at(0.0)
        with pytest.raises(ValueError, match=str(want.value)):
            closed_form_mrt_sinr(cfg, width, 4)
        with pytest.raises(ValueError, match=str(want.value)):
            closed_form_mrt_terms(cfg, [3, 4], [width, 4])

    @pytest.mark.parametrize("b_bar", [2, 3, 9, 10, 40, 1077])
    def test_split_table_is_read_only_and_shared(self, b_bar):
        """One table per b_bar: the splits, c of the distinct half from _split_factor, and min(B_H, B_P) of every split."""
        table = se._split_table(b_bar)
        assert se._split_table(b_bar) is table
        assert table.splits == range(1, b_bar) and list(table.b_ps) == [b_bar - b_h for b_h in table.splits]
        half = b_bar // 2
        assert np.array_equal(table.c, se._split_factor(list(range(1, half + 1)), [b_bar - b for b in range(1, half + 1)]))
        assert table.c.shape == (half, 1) and not table.c.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.c[0, 0] = 1.0
        with pytest.raises(AttributeError):
            table.c = None
        assert isinstance(table.rank, tuple) and len(table.rank) == b_bar - 1
        assert table.rank == tuple(min(b_h, b_bar - b_h) for b_h in table.splits)

    def test_split_table_memo_is_bounded(self):
        """The memo keeps at most _SPLIT_TABLES budgets, and none past the split ceiling or below 2 bits."""
        se._split_table.cache_clear()
        for b_bar in range(2, 2 + se._SPLIT_TABLES + 20):
            se._split_table(b_bar)
        assert se._split_table.cache_info().currsize == se._SPLIT_TABLES
        with pytest.raises(ValueError, match="ceiling of 1077"):
            se._split_table(1078)
        with pytest.raises(ValueError, match="need at least 2"):
            se._split_table(1)
        assert se._split_table.cache_info().currsize == se._SPLIT_TABLES
        # the largest table: 538 entries of c and 1076 of the rank
        table = se._split_table(1077)
        assert (table.c.size, len(table.rank)) == (538, 1076)

    def test_zero_pilot_power_search_raises(self):
        spec = ExperimentSpec(name="search", M=32, K=2, tau_p=2, pilot_q=0.0, evaluator="closed-form", b_bar=10)
        with pytest.raises(ValueError, match="every user has estimate quality gamma = 0"):
            optimize_split(spec)

    @settings(max_examples=80, deadline=None)
    @given(spec=closed_form_searches())
    def test_profile_mirrors(self, spec):
        """B_H <-> b_bar - B_H leaves every SE unchanged bit for bit: c = (1-eta_h)(1-eta_p) commutes."""
        profile = optimize_split(spec).profile
        for row, mirror in zip(profile, reversed(profile)):
            assert (row[2], row[3]) == (mirror[2], mirror[3])

    @settings(max_examples=80, deadline=None)
    @given(spec=closed_form_searches(), half=st.integers(1, 12))
    def test_odd_budget_takes_the_smaller_middle_split(self, spec, half):
        """The two middle splits of an odd b_bar tie exactly, and line_search keeps the smaller B_H.

        b_bar up to 25 keeps c at the middle at least 4e-7 above its
        neighbours, which log2(1 + SINR) resolves at every drawn SNR.
        """
        result = optimize_split(dataclasses.replace(spec, b_bar=2 * half + 1))
        assert (result.b_h, result.b_p) == (half, half + 1)
        assert result.profile[half - 1][2:] == result.profile[half][2:]

    def test_odd_budget_tie_at_a_search_of_the_benchmark_stream(self):
        """Seed 1 of the split-search stream: (4, 3) once rounded 4e-15 above (3, 4)."""
        spec = ExperimentSpec(
            name="search", M=256, K=3, tau_c=200, tau_p=3, snr_db=(19.72293657062776,),
            evaluator="closed-form", b_bar=7,
        )
        result = optimize_split(spec)
        assert (result.b_h, result.b_p) == (3, 4)
        assert result.profile[2][2:] == result.profile[3][2:]

    def test_small_sinr_keeps_the_split_gap(self):
        """At an SINR near 1e-7, 1 + SINR rounds away the c gap between splits; log1p keeps it.

        The balanced split (19, 20) then beats every split but its mirror;
        log2(1 + SINR) made B_H = 16 tie it bit for bit and win the line
        search.
        """
        spec = ExperimentSpec(
            M=2, K=1, tau_p=1, beta=0.05, pilot_q=0.01, snr_db=(-30.0,), b_bar=39, evaluator="closed-form"
        )
        result = optimize_split(spec)
        assert (result.b_h, result.b_p) == (19, 20)
        # only its mirror (20, 19) ties it
        assert result.best_sum_se > max(row[2] for row in result.profile if row[0] not in (19, 20))

    def test_se_is_the_prelog_times_log2(self):
        sinr = np.array([0.0, 1e-300, 1e-12, 1e-7, 0.5, 1.0, 7.0, 1e6, 1e300])
        # in extended precision where the platform has it
        wide = np.log1p(sinr.astype(np.longdouble)) / np.log(np.longdouble(2.0))
        want = (0.96 * wide).astype(float)
        np.testing.assert_allclose(se._se(sinr, 8, 200), want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("snr_db", [-30.0, 0.0, 30.0])
    @pytest.mark.parametrize("users", ["equal", "unequal-beta", "zero-pilots"])
    def test_sinr_is_the_ratio_of_the_terms(self, snr_db, users):
        """c A, as the search evaluates it, is signal / (variation + precoder noise + noise)."""
        K = 6
        extra = {
            "equal": {},
            "unequal-beta": {"beta": [0.05, 0.3, 1.0, 2.0, 4.5, 10.0]},
            "zero-pilots": {"beta": [0.5, 1.0, 2.0, 0.5, 1.0, 2.0], "pilot_power": [0.0, 3.0, 0.0, 0.2, 40.0, 0.0]},
        }[users]
        cfg = SystemConfig.from_snr(M=64, K=K, tau_c=200, tau_p=K, snr_db=snr_db, **extra)
        b_h, b_p = [1, 2, 5, 9, 33, None, 4], [None, 1, 6, 33, 2, 3, 40]
        terms = closed_form_mrt_terms(cfg, b_h, b_p)
        ratio = terms["signal"] / (terms["variation"] + terms["precoder_noise"] + terms["noise"])
        sinr, _, _ = se._closed_form_mrt_profile(cfg, se._split_factor(b_h, b_p))
        np.testing.assert_allclose(sinr, ratio, rtol=1e-13, atol=0.0)
        if users == "zero-pilots":
            assert np.all(sinr[:, [0, 2, 5]] == 0.0) and np.all(sinr[:, [1, 3, 4]] > 0.0)


def four_term_sinr(cfg, b_h, b_p):
    """The MRT closed form evaluated term by term through zeta_bar and alpha_bar, as a reference.

    signal = alpha_bar^2 zeta_bar^2 (1-eta_p)^2 (1-eta_h)^2 M^2 gamma_k^2,
    variation = alpha_bar^2 zeta_bar^2 (1-eta_p)^2 (1-eta_h) M beta_k
    sum_i gamma_i, precoder noise = alpha_bar^2 eta_p (1-eta_p) P_t beta_k,
    with zeta_bar^2 = P_t / (M (1-eta_h) sum_i gamma_i) and alpha_bar^2 =
    1/(1-eta_p).
    """
    eta_h, eta_p = eta_of_bits(b_h), eta_of_bits(b_p)
    gamma = gamma_coefficient(cfg.pilot_power, cfg.tau_p, cfg.beta)
    with np.errstate(all="ignore"):
        gtil_sum = np.sum((1.0 - eta_h) * gamma)
        zeta_sq = cfg.total_power / (cfg.M * gtil_sum)
        alpha_sq = 1.0 / (1.0 - eta_p)
        common = alpha_sq * zeta_sq * (1.0 - eta_p) ** 2
        signal = common * (1.0 - eta_h) ** 2 * cfg.M**2 * gamma**2
        variation = common * cfg.M * cfg.beta * gtil_sum
        prec_noise = alpha_sq * eta_p * (1.0 - eta_p) * cfg.beta * cfg.total_power
        return signal / (variation + prec_noise + cfg.noise_var)


class TestClosedFormRange:
    """The c A form stays finite wherever the four-term form is."""

    @pytest.mark.parametrize("noise_var", [1e-100, 1.0, 1e250])
    @pytest.mark.parametrize("users", ["equal", "unequal-beta", "zero-pilots"])
    def test_finite_wherever_the_four_term_form_is(self, noise_var, users):
        """SNR -300 to +300 dB; P_t = sigma^2 10^(SNR/10) reaches 1e280, and beta 1e20 squares past the float range."""
        extra = {
            "equal": {},
            "unequal-beta": {"beta": [1e-3, 0.5, 2.0, 1e20]},
            "zero-pilots": {"beta": [0.5, 1.0, 2.0, 4.0], "pilot_power": [0.0, 1e-20, 1.0, 1e20]},
        }[users]
        splits = [(1, 1), (3, 7), (16, 16), (40, 2)]
        finite = 0
        for snr_db in np.arange(-300.0, 301.0, 10.0):
            try:
                cfg = SystemConfig.from_snr(M=64, K=4, tau_c=200, tau_p=4, snr_db=snr_db, noise_var=noise_var, **extra)
            except ConfigError:  # P_t or the default pilot power past the float range
                continue
            sinr, se_k, sum_se = se._closed_form_mrt_profile(cfg, se._split_factor([b for b, _ in splits], [b for _, b in splits]))
            assert np.all(sinr >= 0.0)
            for row, (b_h, b_p) in enumerate(splits):
                ref = four_term_sinr(cfg, b_h, b_p)
                kept = np.isfinite(ref)
                finite += np.count_nonzero(kept)
                assert np.all(np.isfinite(sinr[row][kept]) & np.isfinite(se_k[row][kept]))
                if kept.all():
                    assert np.isfinite(sum_se[row])
                # wherever both are normal numbers they agree to rounding
                normal = kept & (ref > 1e-300) & (sinr[row] > 1e-300)
                np.testing.assert_allclose(sinr[row][normal], ref[normal], rtol=1e-12)
        assert finite > 0


class TestMcHardeningSinr:
    def test_report_shape_and_fields(self):
        cfg = cfg_at(0.0, M=16, K=2)
        rep = mc_hardening_sinr(cfg, "mrt", 3, 3, trials=64, seed=1)
        assert rep.sinr.shape == (2,)
        assert rep.trials == 64
        assert rep.seed == 1
        assert rep.method == "monte_carlo"
        np.testing.assert_array_equal(rep.se, se_from_sinr(rep.sinr, 8, 200))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown precoder kind"):
            mc_hardening_sinr(cfg_at(0.0, M=16, K=2), "mmse", None, None, trials=10, seed=1, csi_mode="perfect")

    @pytest.mark.parametrize("kind", ("zf", "wf"))
    def test_one_rank_check_per_block(self, monkeypatch, kind):
        """The Monte Carlo mask on the K x K Grams is the only rank check."""
        checked = []
        real = precoding.rank_deficient_mask

        def counted(G):
            assert G.shape[1:] == (2, 2)
            checked.append(G.shape[0])
            return real(G)

        monkeypatch.setattr(se, "rank_deficient_mask", counted)
        monkeypatch.setattr(precoding, "rank_deficient_mask", counted)
        mc_hardening_sinr(cfg_at(0.0, M=16, K=2), kind, 3, 3, trials=300, seed=1)
        assert checked == [256, 44]

    def test_each_trial_is_rank_checked_once_in_canonical_order(self, monkeypatch, m_space_stats):
        """Each trial's Gram is rank-checked once, block by block, in trial order."""
        cfg = cfg_at(0.0, M=16, K=2)
        seen = []
        real = se.rank_deficient_mask

        def recorded(G):
            seen.append(G[:, 0, 0].real.copy())
            return real(G)

        monkeypatch.setattr(se, "rank_deficient_mask", recorded)
        rep = mc_hardening_sinr(cfg, "zf", None, None, trials=300, seed=1, csi_mode="perfect")
        assert [len(g) for g in seen] == [256, 44]
        # perfect CSI: G[:, 0, 0] is beta_0 ||Z_0[:, 0]||^2 of each trial
        first = cfg.beta[0] * np.sum(np.abs(trial_draws(cfg, 1, range(300))[:, 0, :, 0]) ** 2, axis=-1)
        np.testing.assert_allclose(np.concatenate(seen), first, rtol=1e-13)

    def test_draw_memo_keeps_trial_blocks(self):
        """The statistics memo holds one entry per TRIAL_BLOCK-aligned block of trial ids."""
        cfg = cfg_at(0.0, M=16, K=2)
        sysmodel._stats_cache.clear()
        mc_hardening_sinr(cfg, "zf", 3, 3, trials=300, seed=1)
        mc_hardening_sinr(cfg_at(-10.0, M=16, K=2), "wf", 5, 1, trials=300, seed=1)
        assert list(sysmodel._stats_cache) == [
            (16, 2, 1, sysmodel.DOMAIN_TRIAL, tuple(range(0, 256))),
            (16, 2, 1, sysmodel.DOMAIN_TRIAL, tuple(range(256, 300))),
        ]

    def test_deterministic(self):
        cfg = cfg_at(0.0, M=16, K=2)
        a = mc_hardening_sinr(cfg, "zf", 4, 4, trials=50, seed=9, moment_trials=100)
        b = mc_hardening_sinr(cfg, "zf", 4, 4, trials=50, seed=9, moment_trials=100)
        np.testing.assert_array_equal(a.sinr, b.sinr)

    @pytest.mark.parametrize(
        "kind, csi_mode, beta",
        [(kind, mode, 1.0) for kind in ("mrt", "zf", "wf") for mode in ("quantized", "perfect")]
        + [("zf", "quantized", [0.5, 1.0])],
        ids=lambda v: v if isinstance(v, str) else ("equal-beta" if v == 1.0 else "unequal-beta"),
    )
    def test_batch_size_invariance(self, monkeypatch, kind, csi_mode, beta):
        """Other trial blocks and reduction chunks must not move a single bit.

        Unequal beta makes gamma unequal, so the ZF case samples its
        precoder moments with estimate_moments_mc.
        """
        sampled = []
        real = precoding.estimate_moments_mc
        monkeypatch.setattr(precoding, "estimate_moments_mc", lambda *a, **k: sampled.append(a) or real(*a, **k))
        cfg = SystemConfig.from_snr(M=16, K=2, tau_c=200, tau_p=8, snr_db=0.0, beta=beta)
        reports = []
        for block, chunk in ((7, 3), (64, 16)):
            for module in (se, precoding):
                monkeypatch.setattr(module, "TRIAL_BLOCK", block)
            monkeypatch.setattr(sysmodel, "_STATS_CHUNK", chunk)
            sysmodel._stats_cache.clear()
            reports.append(mc_hardening_sinr(cfg, kind, 3, 3, trials=150, seed=2, csi_mode=csi_mode, moment_trials=100))
        np.testing.assert_array_equal(reports[0].sinr, reports[1].sinr)
        assert len(sampled) == (2 if beta != 1.0 else 0)

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(("mrt", "zf", "wf")),
        csi_mode=st.sampled_from(se.CSI_MODES),
        beta=st.sampled_from((1.0, (0.5, 1.0))),
        trials=st.integers(1, 60),
        batches=st.tuples(st.integers(1, 64), st.integers(1, 64)),
    )
    def test_cache_state_and_batch_leave_sinr_unchanged(self, kind, csi_mode, beta, trials, batches):
        """A cold stats memo, a warm one, a cleared one and another block size give the same bits."""
        cfg = SystemConfig.from_snr(M=16, K=2, tau_c=200, tau_p=8, snr_db=0.0, beta=beta)

        def run(block):
            with pytest.MonkeyPatch.context() as mp:
                for module in (se, precoding):
                    mp.setattr(module, "TRIAL_BLOCK", block)
                return mc_hardening_sinr(cfg, kind, 3, 2, trials, 6, csi_mode, moment_trials=100).sinr

        sysmodel._stats_cache.clear()
        cold = run(batches[0])
        np.testing.assert_array_equal(run(batches[0]), cold)
        np.testing.assert_array_equal(run(batches[1]), cold)
        sysmodel._stats_cache.clear()
        np.testing.assert_array_equal(run(batches[1]), cold)

    def test_perfect_csi_ignores_bits(self):
        cfg = cfg_at(0.0, M=16, K=2)
        a = mc_hardening_sinr(cfg, "wf", None, None, trials=50, seed=4, csi_mode="perfect", moment_trials=100)
        b = mc_hardening_sinr(cfg, "wf", 1, 1, trials=50, seed=4, csi_mode="perfect", moment_trials=100)
        np.testing.assert_array_equal(a.sinr, b.sinr)
        assert a.b_h is None and a.b_p is None

    def test_common_draws_make_bits_monotone(self):
        """Shared randomness across grid cells keeps coarse < fine."""
        cfg = cfg_at(0.0, M=32, K=4)
        coarse = mc_hardening_sinr(cfg, "mrt", 2, 5, trials=400, seed=5)
        fine = mc_hardening_sinr(cfg, "mrt", 6, 5, trials=400, seed=5)
        assert fine.sum_se > coarse.sum_se

    def test_noise_floor(self):
        cfg = cfg_at(-100.0, M=16, K=2)
        rep = mc_hardening_sinr(cfg, "mrt", 4, 4, trials=100, seed=6)
        assert rep.sum_se < 0.01

    def test_precoder_ordering_at_high_snr(self):
        cfg = cfg_at(10.0, M=64, K=8)
        reports = {
            kind: mc_hardening_sinr(
                cfg, kind, 5, 5, trials=400, seed=7, moment_trials=200
            )
            for kind in ("mrt", "zf", "wf")
        }
        assert reports["wf"].sum_se >= reports["zf"].sum_se * 0.999
        assert reports["zf"].sum_se > reports["mrt"].sum_se

    def test_agrees_with_closed_form(self):
        cfg = cfg_at(0.0, M=64, K=4)
        mc = mc_hardening_sinr(cfg, "mrt", 4, 4, trials=1000, seed=8)
        cf = closed_form_mrt_sinr(cfg, 4, 4)
        assert mc.sum_se == pytest.approx(cf.sum_se, rel=0.05)

    def test_quantized_mode_needs_bits(self):
        cfg = cfg_at(0.0, M=16, K=2)
        with pytest.raises(ValueError):
            mc_hardening_sinr(cfg, "mrt", None, 4, trials=10, seed=0)
        with pytest.raises(ValueError):
            mc_hardening_sinr(cfg, "mrt", 4, None, trials=10, seed=0)

    def test_input_validation(self):
        cfg = cfg_at(0.0, M=16, K=2)
        with pytest.raises(ValueError):
            mc_hardening_sinr(cfg, "mrt", 4, 4, trials=0, seed=0)
        with pytest.raises(ValueError):
            mc_hardening_sinr(cfg, "mrt", 4, 4, trials=10, seed=0, csi_mode="oracle")


def m_space_sinr(cfg, kind, b_h, b_p, trials, seed, csi_mode, moment_trials):
    """The hardening SINR written out on M x K arrays, one trial at a time.

    Estimate and CSI quantization (quantized_estimate), the precoder
    from an M x K solve, precoder quantization with the population
    moments, transmit rescale, and the gains H^T P.
    """
    perfect = csi_mode == "perfect"
    eta_h = 0.0 if perfect else eta_of_bits(b_h)
    gains = []
    for z in trial_draws(cfg, seed, range(trials)):
        H, Hhat_q = quantized_estimate(cfg, z, eta_h)
        H_d = (H if perfect else Hhat_q).T
        U = H_d.conj().T
        if kind != "mrt":
            load = cfg.K * cfg.noise_var / cfg.total_power if kind == "wf" else 0.0
            U = np.linalg.solve(H_d @ H_d.conj().T + load * np.eye(cfg.K), H_d).conj().T
        P = U * np.sqrt(cfg.total_power / np.sum(np.abs(U) ** 2))
        if not perfect:
            eta_p = eta_of_bits(b_p)
            entry_var = precoder_entry_var(cfg, kind, eta_h, moment_trials, seed)
            P = (1.0 - eta_p) * P + z[3] * np.sqrt(aqnm_noise_var(eta_p, entry_var))
            P = transmit_rescale(P, cfg.total_power) * P
        gains.append(H.T @ P)
    mean_gain = np.mean(gains, axis=0)
    desired = np.abs(np.diagonal(mean_gain)) ** 2
    return desired / (np.sum(np.mean(np.abs(gains) ** 2, axis=0), axis=1) - desired + cfg.noise_var)


@pytest.mark.usefixtures("m_space_stats")
class TestKxKPipeline:
    """mc_hardening_sinr's K x K algebra against the M x K pipeline it replaces, on the same unit draws."""

    @pytest.mark.parametrize("snr_db", (10.0, -15.0))
    @pytest.mark.parametrize("beta", (1.0, (0.5, 1.0, 1.5, 2.0)), ids=("equal-beta", "unequal-beta"))
    @pytest.mark.parametrize("csi_mode", se.CSI_MODES)
    @pytest.mark.parametrize("kind", ("mrt", "zf", "wf"))
    def test_matches_the_m_space_reference(self, kind, csi_mode, beta, snr_db):
        cfg = SystemConfig.from_snr(M=16, K=4, tau_c=200, tau_p=4, snr_db=snr_db, beta=beta)
        rep = mc_hardening_sinr(cfg, kind, 3, 4, trials=40, seed=12, csi_mode=csi_mode, moment_trials=100)
        want = m_space_sinr(cfg, kind, 3, 4, 40, 12, csi_mode, 100)
        np.testing.assert_allclose(rep.sinr, want, rtol=1e-12)


class TestZeroPilotPower:
    """Zero pilot power leaves no CSI; the evaluators refuse instead of returning NaN."""

    def test_closed_form_refuses_when_every_gamma_is_zero(self):
        cfg = SystemConfig.from_snr(M=16, K=2, tau_c=200, tau_p=8, snr_db=10.0, pilot_power=0.0)
        with pytest.raises(ValueError, match="gamma = 0"):
            closed_form_mrt_terms(cfg, 4, 4)
        with pytest.raises(ValueError, match="gamma = 0"):
            closed_form_mrt_sinr(cfg, [1, 2], [2, 1])

    @pytest.mark.parametrize(
        "kind, pilot_power", [("mrt", 0.0), ("zf", 0.0), ("wf", 0.0), ("zf", [0.0, 1.0]), ("wf", [1.0, 0.0])]
    )
    def test_monte_carlo_refuses_before_any_draw(self, monkeypatch, kind, pilot_power):
        def refuse(*args, **kwargs):
            raise AssertionError("statistics drawn")

        monkeypatch.setattr(se, "_trial_stats", refuse)
        cfg = SystemConfig.from_snr(M=16, K=2, tau_c=200, tau_p=8, snr_db=10.0, pilot_power=pilot_power)
        with pytest.raises(ValueError, match="gamma"):
            mc_hardening_sinr(cfg, kind, 3, 3, trials=10, seed=1)

    def test_what_still_runs(self):
        """MRT with one user left without CSI, and perfect CSI, which reads no estimate."""
        cfg = SystemConfig.from_snr(M=16, K=2, tau_c=200, tau_p=8, snr_db=10.0, pilot_power=[0.0, 1.0])
        rep = mc_hardening_sinr(cfg, "mrt", 3, 3, trials=20, seed=1)
        assert np.all(np.isfinite(rep.sinr)) and rep.sinr[0] == 0.0 and rep.sinr[1] > 0
        blind = SystemConfig.from_snr(M=16, K=2, tau_c=200, tau_p=8, snr_db=10.0, pilot_power=0.0)
        for kind in ("mrt", "zf", "wf"):
            assert np.isfinite(mc_hardening_sinr(blind, kind, None, None, 20, 1, "perfect").sum_se)


class TestTermEstimates:
    def test_every_term_matches_closed_form(self):
        cfg = cfg_at(0.0, M=16, K=2)
        ref = closed_form_mrt_terms(cfg, 4, 4)
        est = mc_mrt_term_estimates(cfg, 4, 4, trials=4000, seed=10)
        assert set(est) == set(ref)
        for name in ref:
            np.testing.assert_allclose(est[name], ref[name], rtol=0.05)


class TestGroupedTaps:
    """se._mc_taps evaluates every (kind, b_p) at one b_h in one pass, bit for bit as mc_hardening_sinr."""

    TAPS = [(kind, b_p) for b_p in (2, 5, 20) for kind in ("wf", "zf", "mrt")]

    @staticmethod
    def assert_same(grouped, alone):
        assert not isinstance(grouped, Exception), grouped
        np.testing.assert_array_equal(grouped.sinr, alone.sinr)
        np.testing.assert_array_equal(grouped.se, alone.se)
        assert (grouped.sum_se, grouped.trials, grouped.kind) == (alone.sum_se, alone.trials, alone.kind)
        assert (grouped.b_h, grouped.b_p, grouped.csi_mode) == (alone.b_h, alone.b_p, alone.csi_mode)

    @pytest.mark.parametrize("beta", (1.0, (0.5, 1.0, 1.5, 2.0)), ids=("equal-beta", "unequal-beta"))
    @pytest.mark.parametrize("csi_mode", se.CSI_MODES)
    def test_grouped_equals_one_tap(self, csi_mode, beta):
        cfg = SystemConfig.from_snr(M=16, K=4, tau_c=200, tau_p=4, snr_db=0.0, beta=beta)
        sysmodel._stats_cache.clear()
        grouped = se._mc_taps(cfg, 3, self.TAPS, 70, 5, csi_mode, 100)
        for (kind, b_p), rep in zip(self.TAPS, grouped):
            self.assert_same(rep, mc_hardening_sinr(cfg, kind, 3, b_p, 70, 5, csi_mode, moment_trials=100))

    def test_singular_gram_fails_only_zf_and_wf(self, monkeypatch):
        """One singular Gram fails every ZF/WF tap; the MRT taps report, bit for bit, and the rank check stops."""
        checked = []

        def flag_in_second_block(G):
            checked.append(len(G))
            bad = np.zeros(len(G), bool)
            bad[3] = len(checked) == 2
            return bad

        monkeypatch.setattr(se, "rank_deficient_mask", flag_in_second_block)
        monkeypatch.setattr(se, "TRIAL_BLOCK", 7)
        cfg = cfg_at(0.0, M=16, K=2)
        grouped = se._mc_taps(cfg, 3, self.TAPS, 30, 4)
        assert checked == [7, 7]
        for (kind, b_p), rep in zip(self.TAPS, grouped):
            if kind == "mrt":
                self.assert_same(rep, mc_hardening_sinr(cfg, kind, 3, b_p, 30, 4))
            else:
                assert isinstance(rep, precoding.RankDeficientError) and "numerically singular" in str(rep)
        checked.clear()
        with pytest.raises(precoding.RankDeficientError, match="numerically singular"):
            mc_hardening_sinr(cfg, "wf", 3, 5, 30, 4)

    def test_zero_pilot_power_fails_only_zf_and_wf(self):
        cfg = SystemConfig.from_snr(M=16, K=2, tau_c=200, tau_p=8, snr_db=10.0, pilot_power=[0.0, 1.0])
        taps = self.TAPS + [("mmse", 4)]
        grouped = se._mc_taps(cfg, 3, taps, 20, 1)
        for (kind, b_p), rep in zip(taps, grouped):
            if kind == "mrt":
                self.assert_same(rep, mc_hardening_sinr(cfg, kind, 3, b_p, 20, 1))
            else:
                assert isinstance(rep, ValueError)
                assert ("gamma" if kind != "mmse" else "unknown precoder kind") in str(rep)

    def test_group_level_errors_raise(self):
        cfg = cfg_at(0.0, M=16, K=2)
        for args in ((None, 10, "quantized"), (3, 0, "quantized"), (3, 10, "oracle")):
            b_h, trials, csi_mode = args
            with pytest.raises(ValueError):
                se._mc_taps(cfg, b_h, self.TAPS, trials, 1, csi_mode)
        (missing,) = se._mc_taps(cfg, 3, [("zf", None)], 10, 1)
        assert isinstance(missing, ValueError) and "needs b_h and b_p" in str(missing)

    def test_pieces_memo_moves_no_bit(self, monkeypatch):
        """Cold, warm and cleared memos of the split-free pieces give the same bits; each block is one entry."""
        monkeypatch.setattr(sysmodel, "_stats_cache", {})
        monkeypatch.setattr(sysmodel, "_pieces_cache", {})
        cfg = cfg_at(0.0, M=16, K=2)
        runs = []
        for clear in (False, False, True):
            if clear:
                sysmodel._stats_cache.clear()
                sysmodel._pieces_cache.clear()
            runs.append(se._mc_taps(cfg, 3, self.TAPS, 300, 3))
        blocks = [(3, tuple(range(lo, min(lo + sysmodel.TRIAL_BLOCK, 300))), sysmodel.DOMAIN_TRIAL) for lo in (0, 256)]
        assert [key[:5] for key in sysmodel._pieces_cache] == [sysmodel._stats_key(cfg, *block) for block in blocks]
        for again in runs[1:]:
            for rep, want in zip(again, runs[0]):
                self.assert_same(rep, want)

    def test_shared_time_is_the_first_taps(self):
        sysmodel._stats_cache.clear()
        grouped = se._mc_taps(cfg_at(0.0, M=16, K=2), 3, self.TAPS, 40, 8)
        assert grouped[0].stage_s["stats_s"] > 0
        assert all(rep.stage_s["stats_s"] == 0 for rep in grouped[1:])
        assert all(rep.stage_s["kxk_s"] > 0 and rep.stage_s["moments_s"] > 0 for rep in grouped)
