import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fhalloc.precoding as precoding
import fhalloc.se as se
import fhalloc.sysmodel as sysmodel
from fhalloc.experiments import ExperimentSpec, optimize_split
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
        """The Monte Carlo mask is the only rank check; the precoder is built unchecked."""
        checked = []
        real = precoding.rank_deficient_mask

        def counted(H_d):
            checked.append(H_d.shape[0])
            return real(H_d)

        monkeypatch.setattr(se, "rank_deficient_mask", counted)
        monkeypatch.setattr(precoding, "rank_deficient_mask", counted)
        mc_hardening_sinr(cfg_at(0.0, M=16, K=2), kind, 3, 3, trials=300, seed=1, batch=128)
        assert checked == [128, 128, 44]

    def test_default_batch_checks_each_trial_once_in_small_chunks(self, monkeypatch):
        """Each trial is rank-checked once, in canonical order, in chunks of at most _CHUNK."""
        cfg = cfg_at(0.0, M=16, K=2)
        seen = []
        real = se.rank_deficient_mask

        def recorded(H_d):
            seen.append(H_d[:, 0, 0].copy())
            return real(H_d)

        monkeypatch.setattr(se, "rank_deficient_mask", recorded)
        rep = mc_hardening_sinr(cfg, "zf", None, None, trials=300, seed=1, csi_mode="perfect")
        assert rep.redraws == 0
        assert inspect.signature(mc_hardening_sinr).parameters["batch"].default == se._CHUNK
        assert max(len(h) for h in seen) <= se._CHUNK
        assert len(seen) == -(-256 // se._CHUNK) + -(-44 // se._CHUNK)
        # perfect CSI: H_d[:, 0, 0] is the true channel entry of each trial
        first = trial_draws(cfg, 1, range(300))[:, 0, 0, 0] * np.sqrt(cfg.beta[0])
        np.testing.assert_array_equal(np.concatenate(seen), first)

    def test_draw_memo_keeps_trial_blocks(self):
        """A small batch chunks the arithmetic only; draws stay in TRIAL_BLOCK blocks."""
        cfg = cfg_at(0.0, M=16, K=2)
        sysmodel._draw_cache.clear()
        mc_hardening_sinr(cfg, "zf", 3, 3, trials=300, seed=1, batch=7)
        blocks = [
            (16, 2, 1, sysmodel.DOMAIN_TRIAL, tuple(range(0, 256))),
            (16, 2, 1, sysmodel.DOMAIN_TRIAL, tuple(range(256, 300))),
        ]
        held = list(sysmodel._draw_cache)
        assert [k for k in held if not sysmodel._is_derived(k)] == blocks
        derived = [k for k in held if sysmodel._is_derived(k)]
        assert [k[0] for k in derived] == blocks
        assert all(k[1][0] == "estimate" for k in derived)

    @pytest.mark.parametrize("csi_mode", se.CSI_MODES)
    @pytest.mark.parametrize("kind", ("zf", "wf"))
    def test_redraws_do_not_depend_on_batch(self, monkeypatch, kind, csi_mode):
        """Trials flagged by their content are redrawn to the same bits at any chunk size."""

        def flag_by_content(H_d):
            return H_d[..., 0, 0].real > 0.8

        monkeypatch.setattr(se, "rank_deficient_mask", flag_by_content)
        cfg = cfg_at(0.0, M=16, K=2)
        runs = [
            mc_hardening_sinr(cfg, kind, 3, 3, trials=300, seed=3, csi_mode=csi_mode, batch=batch)
            for batch in (1, 7, 32, sysmodel.TRIAL_BLOCK)
        ]
        assert runs[0].redraws > 0
        for rep in runs[1:]:
            np.testing.assert_array_equal(rep.sinr, runs[0].sinr)
            assert rep.redraws == runs[0].redraws

    @pytest.mark.parametrize("batch", (0, -3))
    def test_batch_must_be_positive(self, monkeypatch, batch):
        """A batch below 1 is refused before any draw, so the trial loop never starts."""
        calls = []

        def bounded(*args, **kwargs):
            calls.append(args)
            if len(calls) > 3:
                raise AssertionError("trial loop did not stop")
            return trial_draws(*args, **kwargs)

        monkeypatch.setattr(se, "trial_draws", bounded)
        with pytest.raises(ValueError, match="batch must be >= 1"):
            mc_hardening_sinr(cfg_at(0.0, M=16, K=2), "mrt", 3, 3, trials=10, seed=1, batch=batch)
        assert calls == []

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
        """Chunking the trial loop differently must not move a single bit.

        Unequal beta makes gamma unequal, so the ZF case samples its
        precoder moments with estimate_moments_mc.
        """
        sampled = []
        real = precoding.estimate_moments_mc
        monkeypatch.setattr(precoding, "estimate_moments_mc", lambda *a, **k: sampled.append(a) or real(*a, **k))
        cfg = SystemConfig.from_snr(M=16, K=2, tau_c=200, tau_p=8, snr_db=0.0, beta=beta)
        a = mc_hardening_sinr(cfg, kind, 3, 3, trials=50, seed=2, csi_mode=csi_mode, batch=7, moment_trials=100)
        b = mc_hardening_sinr(cfg, kind, 3, 3, trials=50, seed=2, csi_mode=csi_mode, batch=64, moment_trials=100)
        np.testing.assert_array_equal(a.sinr, b.sinr)
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
        """A cold draw cache, a warm one and another batch size give the same bits."""
        cfg = SystemConfig.from_snr(M=16, K=2, tau_c=200, tau_p=8, snr_db=0.0, beta=beta)

        def run(batch):
            rep = mc_hardening_sinr(cfg, kind, 3, 2, trials, 6, csi_mode, batch=batch, moment_trials=100)
            return rep.sinr

        sysmodel._draw_cache.clear()
        cold = run(batches[0])
        np.testing.assert_array_equal(run(batches[0]), cold)
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


class TestRedraw:
    """Rank-deficient realizations are redrawn from the trial's next stream."""

    def test_flagged_trial_is_redrawn_from_next_attempt(self, monkeypatch):
        cfg = cfg_at(0.0, M=16, K=2)
        seen = []
        real = se.rank_deficient_mask

        def flag_once(H_d):
            seen.append(H_d.copy())
            bad = real(H_d)
            if len(seen) == 1:
                bad[3] = True
            return bad

        monkeypatch.setattr(se, "rank_deficient_mask", flag_once)
        rep = mc_hardening_sinr(cfg, "zf", None, None, trials=10, seed=4, csi_mode="perfect")
        assert rep.redraws == 1
        assert [len(H_d) for H_d in seen] == [10, 1]
        redrawn = trial_draws(cfg, 4, [3], [1])[0, 0] * np.sqrt(cfg.beta)
        np.testing.assert_array_equal(seen[1][0], redrawn.T)
        assert not np.array_equal(seen[1][0], seen[0][3])
        monkeypatch.undo()
        base = mc_hardening_sinr(cfg, "zf", None, None, trials=10, seed=4, csi_mode="perfect")
        assert base.redraws == 0
        assert not np.array_equal(base.sinr, rep.sinr)  # trial 3 entered with its redrawn channel

    def test_trial_flagged_on_every_attempt_raises(self, monkeypatch):
        cfg = cfg_at(0.0, M=16, K=2)
        calls = []

        def flag_first(H_d):
            calls.append(len(H_d))
            bad = np.zeros(len(H_d), bool)
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
