import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fhalloc.precoding as precoding
import fhalloc.se as se
import fhalloc.sysmodel as sysmodel
from fhalloc.channel import quantized_estimate
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
from fhalloc.sysmodel import SystemConfig, trial_draws


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

    @settings(max_examples=80, deadline=None)
    @given(spec=closed_form_searches())
    def test_profile_mirrors(self, spec):
        """B_H <-> b_bar - B_H leaves every SE unchanged (closed_form_mrt_terms docstring)."""
        profile = optimize_split(spec).profile
        np.testing.assert_allclose(
            [row[2] for row in profile], [row[2] for row in reversed(profile)], rtol=1e-12
        )
        np.testing.assert_allclose(
            [row[3] for row in profile], [row[3] for row in reversed(profile)], rtol=1e-12
        )


class TestMcHardeningSinr:
    def test_report_shape_and_fields(self):
        cfg = cfg_at(0.0, M=16, K=2)
        rep = mc_hardening_sinr(cfg, "mrt", 3, 3, trials=64, seed=1)
        assert rep.sinr.shape == (2,)
        assert rep.trials == 64
        assert rep.seed == 1
        assert rep.redraws == 0
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

    def test_each_trial_is_rank_checked_once_in_canonical_order(self, monkeypatch):
        """Each trial's Gram is rank-checked once, block by block, in trial order."""
        cfg = cfg_at(0.0, M=16, K=2)
        seen = []
        real = se.rank_deficient_mask

        def recorded(G):
            seen.append(G[:, 0, 0].real.copy())
            return real(G)

        monkeypatch.setattr(se, "rank_deficient_mask", recorded)
        rep = mc_hardening_sinr(cfg, "zf", None, None, trials=300, seed=1, csi_mode="perfect")
        assert rep.redraws == 0
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

    @pytest.mark.parametrize("csi_mode", se.CSI_MODES)
    @pytest.mark.parametrize("kind", ("zf", "wf"))
    def test_redraws_do_not_depend_on_batch(self, monkeypatch, kind, csi_mode):
        """Trials flagged by their content are redrawn to the same bits at any block size."""

        def flag_by_content(G):
            return G[..., 0, 0].real > 18.0

        monkeypatch.setattr(se, "rank_deficient_mask", flag_by_content)
        cfg = cfg_at(0.0, M=16, K=2)
        runs = []
        for block in (1, 7, 32, sysmodel.TRIAL_BLOCK):
            monkeypatch.setattr(se, "TRIAL_BLOCK", block)
            sysmodel._stats_cache.clear()
            runs.append(mc_hardening_sinr(cfg, kind, 3, 3, trials=300, seed=3, csi_mode=csi_mode))
        assert runs[0].redraws > 0
        for rep in runs[1:]:
            np.testing.assert_array_equal(rep.sinr, runs[0].sinr)
            assert rep.redraws == runs[0].redraws

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


class TestKxKPipeline:
    """mc_hardening_sinr's K x K algebra against the M x K pipeline it replaces."""

    @pytest.mark.parametrize("snr_db", (10.0, -15.0))
    @pytest.mark.parametrize("beta", (1.0, (0.5, 1.0, 1.5, 2.0)), ids=("equal-beta", "unequal-beta"))
    @pytest.mark.parametrize("csi_mode", se.CSI_MODES)
    @pytest.mark.parametrize("kind", ("mrt", "zf", "wf"))
    def test_matches_the_m_space_reference(self, kind, csi_mode, beta, snr_db):
        cfg = SystemConfig.from_snr(M=16, K=4, tau_c=200, tau_p=4, snr_db=snr_db, beta=beta)
        rep = mc_hardening_sinr(cfg, kind, 3, 4, trials=40, seed=12, csi_mode=csi_mode, moment_trials=100)
        assert rep.redraws == 0
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


class TestRedraw:
    """Rank-deficient realizations are redrawn from the trial's next stream."""

    def test_flagged_trial_is_redrawn_from_next_attempt(self, monkeypatch):
        cfg = cfg_at(0.0, M=16, K=2)
        seen = []
        real = se.rank_deficient_mask

        def flag_once(G):
            seen.append(G.copy())
            bad = real(G)
            if len(seen) == 1:
                bad[3] = True
            return bad

        monkeypatch.setattr(se, "rank_deficient_mask", flag_once)
        rep = mc_hardening_sinr(cfg, "zf", None, None, trials=10, seed=4, csi_mode="perfect")
        assert rep.redraws == 1
        assert [len(G) for G in seen] == [10, 1]
        # perfect CSI: the Gram of the redrawn channel H, H^T H^*
        H = trial_draws(cfg, 4, [3], [1])[0, 0] * np.sqrt(cfg.beta)
        np.testing.assert_allclose(seen[1][0], H.T @ H.conj(), rtol=1e-13)
        assert not np.allclose(seen[1][0], seen[0][3])
        monkeypatch.undo()
        base = mc_hardening_sinr(cfg, "zf", None, None, trials=10, seed=4, csi_mode="perfect")
        assert base.redraws == 0
        assert not np.array_equal(base.sinr, rep.sinr)  # trial 3 entered with its redrawn channel

    def test_trial_flagged_on_every_attempt_raises(self, monkeypatch):
        cfg = cfg_at(0.0, M=16, K=2)
        calls = []

        def flag_first(G):
            calls.append(len(G))
            bad = np.zeros(len(G), bool)
            bad[0] = True
            return bad

        monkeypatch.setattr(se, "rank_deficient_mask", flag_first)
        with pytest.raises(RuntimeError, match=f"trial 0 stayed rank deficient after {se._MAX_REDRAWS} redraws"):
            mc_hardening_sinr(cfg, "zf", 3, 3, trials=10, seed=4)
        assert calls == [10] + [1] * se._MAX_REDRAWS


class TestTermEstimates:
    def test_every_term_matches_closed_form(self):
        cfg = cfg_at(0.0, M=16, K=2)
        ref = closed_form_mrt_terms(cfg, 4, 4)
        est = mc_mrt_term_estimates(cfg, 4, 4, trials=4000, seed=10)
        assert set(est) == set(ref)
        for name in ref:
            np.testing.assert_allclose(est[name], ref[name], rtol=0.05)
