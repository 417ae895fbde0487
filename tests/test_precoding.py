import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhalloc import sysmodel
from fhalloc.channel import _estimate_products, _slot_pieces, gamma_coefficient, quantized_estimate
import fhalloc.precoding as precoding
from fhalloc.precoding import (
    RankDeficientError,
    build_precoder,
    estimate_moments_mc,
    mrt_moments,
    precoder_entry_var,
    transmit_rescale,
)
from fhalloc.quantization import eta_of_bits
from fhalloc.se import mc_hardening_sinr
from fhalloc.sysmodel import DOMAIN_MOMENTS, RngStream, SystemConfig, draw_complex_gaussian, trial_draws

KINDS = ("mrt", "zf", "wf")


def make_cfg(**over):
    base = dict(M=16, K=4, tau_c=50, tau_p=8, total_power=1.0, pilot_power=1.0)
    base.update(over)
    return SystemConfig(**base)


def draw_hd(cfg, seed, batch=()):
    rng = RngStream(seed, (9,))
    H = draw_complex_gaussian(rng, int(np.prod(batch, dtype=int)) * cfg.K, cfg.M)
    return H.reshape(*batch, cfg.K, cfg.M)


class TestBuildPrecoder:
    @pytest.mark.parametrize("kind", KINDS)
    def test_power_normalization(self, kind):
        cfg = make_cfg(total_power=5.0)
        H_d = draw_hd(cfg, 0)
        P = build_precoder(H_d, kind, cfg)
        assert np.sum(np.abs(P) ** 2) == pytest.approx(5.0, rel=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_batched_normalization(self, kind):
        cfg = make_cfg(total_power=2.0)
        H_d = draw_hd(cfg, 1, batch=(5,))
        P = build_precoder(H_d, kind, cfg)
        assert P.shape == (5, cfg.M, cfg.K)
        np.testing.assert_allclose(
            np.sum(np.abs(P) ** 2, axis=(1, 2)), 2.0, rtol=1e-10
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_matches_single(self, kind):
        """One matrix precoded alone or inside a batch gives identical bits."""
        cfg = make_cfg()
        H_d = draw_hd(cfg, 2, batch=(4,))
        batched = build_precoder(H_d, kind, cfg)
        single = build_precoder(H_d[2], kind, cfg)
        np.testing.assert_array_equal(batched[2], single)

    def test_zf_inverts_the_channel(self):
        cfg = make_cfg()
        H_d = draw_hd(cfg, 3)
        G = H_d @ build_precoder(H_d, "zf", cfg)
        zeta = G[0, 0].real
        assert zeta > 0
        np.testing.assert_allclose(G, zeta * np.eye(cfg.K), atol=1e-8 * zeta)

    def test_single_user_wf_is_matched_filter(self):
        cfg = make_cfg(K=1, tau_p=1)
        H_d = draw_hd(cfg, 4)
        p_wf = build_precoder(H_d, "wf", cfg)[:, 0]
        p_mrt = build_precoder(H_d, "mrt", cfg)[:, 0]
        cos = abs(np.vdot(p_wf, p_mrt)) / (
            np.linalg.norm(p_wf) * np.linalg.norm(p_mrt)
        )
        assert cos == pytest.approx(1.0, abs=1e-10)

    def test_wf_approaches_zf_at_high_power(self):
        cfg = make_cfg(noise_var=1e-8)
        H_d = draw_hd(cfg, 5)
        P_wf = build_precoder(H_d, "wf", cfg)
        P_zf = build_precoder(H_d, "zf", cfg)
        for i in range(cfg.K):
            u, v = P_wf[:, i], P_zf[:, i]
            cos = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
            assert np.sqrt(max(0.0, 1.0 - cos**2)) < 1e-3

    @pytest.mark.parametrize("kind", ("zf", "wf"))
    def test_rank_deficient_raises(self, kind):
        cfg = make_cfg()
        H_d = draw_hd(cfg, 6)
        H_d[1] = H_d[0]
        with pytest.raises(RankDeficientError):
            build_precoder(H_d, kind, cfg)

    def test_mrt_tolerates_rank_deficiency(self):
        cfg = make_cfg()
        H_d = draw_hd(cfg, 6)
        H_d[1] = H_d[0]
        P = build_precoder(H_d, "mrt", cfg)
        assert np.sum(np.abs(P) ** 2) == pytest.approx(cfg.total_power, rel=1e-10)

    def test_unknown_kind(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            build_precoder(draw_hd(cfg, 7), "mmse", cfg)

    def test_shape_mismatch(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            build_precoder(draw_hd(cfg, 8).T, "mrt", cfg)


def eigvalsh_mask(G):
    """The rank rule written out on eigvalsh alone."""
    ev = np.linalg.eigvalsh(G)
    return ev[..., 0] <= ev[..., -1] * precoding._RANK_RTOL


def grams_with_spectra(seed, n, K, ratios):
    """n random K x K Grams per ratio lambda_min / lambda_max, random eigenvectors and a random overall scale."""
    rng = np.random.default_rng(seed)
    out = []
    for ratio in ratios:
        X = rng.standard_normal((n, K, K)) + 1j * rng.standard_normal((n, K, K))
        U, _ = np.linalg.qr(X)
        ev = np.sort(rng.uniform(ratio, 1.0, (n, K)), axis=-1)
        ev[:, 0], ev[:, -1] = ratio, 1.0
        ev *= 10.0 ** rng.uniform(-3, 3, (n, 1))
        out.append((U * ev[:, None, :]) @ U.conj().swapaxes(-2, -1))
    return np.concatenate(out)


class TestRankDeficientMask:
    """The Cholesky certificate settles most Grams; every decision stays eigvalsh's."""

    @pytest.mark.parametrize("K", (2, 8))
    def test_mask_is_the_eigvalsh_rule(self, K):
        # spectra on both sides of _RANK_RTOL, of _CERT_RTOL and between them, singular ones included
        G = grams_with_spectra(3, 40, K, (0.0, 1e-16, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-3, 0.5))
        G[5] = 0.0
        G[7, :, 1] = G[7, :, 0]  # two equal columns
        G[7, 1] = G[7, 0]
        want = eigvalsh_mask(G)
        assert 0 < np.sum(want) < len(G)
        np.testing.assert_array_equal(precoding.rank_deficient_mask(G), want)
        for g, w in zip(G[::37], want[::37]):  # one matrix at a time, and with leading dims
            assert precoding.rank_deficient_mask(g) == w
        np.testing.assert_array_equal(precoding.rank_deficient_mask(G.reshape(20, -1, K, K)), want.reshape(20, -1))

    def test_eigvalsh_runs_only_when_the_certificate_fails(self, monkeypatch):
        """A certified stack needs no eigvalsh; one open Gram sends the whole stack to eigvalsh."""
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: calls.append(len(G)) or real(G))
        G = grams_with_spectra(4, 64, 4, (1e-3,))
        assert not np.any(precoding.rank_deficient_mask(G)) and calls == []
        G[[9, 40]] = grams_with_spectra(5, 2, 4, (1e-14,))
        np.testing.assert_array_equal(np.flatnonzero(precoding.rank_deficient_mask(G)), [9, 40])
        assert calls == [64]

    @pytest.mark.parametrize("kind", ("zf", "wf"))
    def test_forced_fallback_gives_the_same_bits(self, monkeypatch, kind):
        """With the certificate settling nothing, eigvalsh decides every Gram and no output bit moves."""
        cfg = SystemConfig.from_snr(M=12, K=4, tau_c=200, tau_p=4, snr_db=5.0, beta=[0.5, 1.0, 1.5, 2.0])
        runs = []
        for certify in (precoding._cholesky_certified, lambda G: False):
            monkeypatch.setattr(precoding, "_cholesky_certified", certify)
            runs.append(mc_hardening_sinr(cfg, kind, 3, 3, trials=300, seed=2, moment_trials=100))
            runs.append(estimate_moments_mc(cfg, kind, eta_of_bits(3), trials=300, seed=2))
        np.testing.assert_array_equal(runs[0].sinr, runs[2].sinr)
        np.testing.assert_array_equal(runs[1], runs[3])


class TestKxKPrecoderColumns:
    """_kxk_precoder reads ZF/WF column norms off the inverse; they equal s^2 (W^H G W)_ii written out with G W."""

    @staticmethod
    def assert_columns(G, kind, cfg):
        W, s, col = precoding._kxk_precoder(G, kind, cfg)
        want = np.sum((W.conj().swapaxes(-2, -1) @ G @ W).real * np.eye(cfg.K), axis=-1) * (s * s)[:, None]
        np.testing.assert_allclose(col, want, rtol=1e-12)
        np.testing.assert_allclose(np.sum(col, axis=-1), cfg.total_power, rtol=1e-13)

    @pytest.mark.parametrize("snr_db", (-15.0, 0.0, 10.0))
    @pytest.mark.parametrize("kind", ("zf", "wf"))
    def test_estimate_grams(self, kind, snr_db):
        cfg = SystemConfig.from_snr(M=128, K=8, tau_c=200, tau_p=8, snr_db=snr_db)
        S, _ = sysmodel._trial_stats(cfg, 1, range(200))
        for b_h in (1, 5, 9):
            self.assert_columns(_estimate_products(_slot_pieces(cfg, S), eta_of_bits(b_h))[0], kind, cfg)

    @pytest.mark.parametrize("kind", ("zf", "wf"))
    def test_grams_with_condition_number_near_1e8(self, kind):
        """Users whose gains span eight decades: G = D C D with C a Wishart Gram, at the +10 dB WF load."""
        cfg = SystemConfig.from_snr(M=32, K=8, tau_c=200, tau_p=8, snr_db=10.0)
        Z = draw_hd(cfg, 11, (300,))
        d = np.sqrt(np.geomspace(1e-4, 1e4, cfg.K))
        G = d[:, None] * (Z @ Z.conj().swapaxes(-2, -1)) * d
        cond = np.linalg.cond(G)
        assert 1e7 < np.median(cond) < 1e9
        self.assert_columns(G, kind, cfg)


class TestTransmitRescale:
    def test_restores_power(self):
        rng = np.random.default_rng(0)
        P_q = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        alpha = transmit_rescale(P_q, 3.0)
        assert np.sum(np.abs(alpha * P_q) ** 2) == pytest.approx(3.0, rel=1e-12)

    def test_known_scale(self):
        P_q = np.full((2, 2), 0.5 + 0j)
        # ||P_q||^2 = 1, so alpha = sqrt(P_t)
        assert transmit_rescale(P_q, 4.0) == pytest.approx(2.0, rel=1e-12)

    def test_batched_alpha(self):
        rng = np.random.default_rng(1)
        P_q = rng.standard_normal((3, 8, 2)) + 0j
        assert transmit_rescale(P_q, 1.0).shape == (3,)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            transmit_rescale(np.zeros((4, 2), dtype=complex), 1.0)


class TestMrtMoments:
    def test_symmetric_config(self):
        cfg = make_cfg(M=64, K=4, total_power=10.0)
        mom = mrt_moments(cfg, eta_h=0.0)
        assert mom.shape == (4,)
        # gamma = 8/9 for every user, so zeta_bar^2 = P_t / (M K 8/9)
        expect = 10.0 / (64 * 4 * (8.0 / 9.0)) * (8.0 / 9.0)
        np.testing.assert_allclose(mom, expect, rtol=1e-12)

    def test_total_power_exact(self):
        cfg = make_cfg(M=32, K=3, tau_p=8, total_power=7.0, beta=[0.2, 1.0, 3.5])
        mom = mrt_moments(cfg, eta_h=0.1175)
        assert cfg.M * np.sum(mom) == pytest.approx(7.0, rel=1e-14)

    def test_layout(self):
        """One number per user: every antenna of a column has the same moment."""
        cfg = make_cfg(M=8, K=2, beta=[0.5, 2.0])
        mom = mrt_moments(cfg, 0.0)
        assert mom.shape == (2,)
        gamma = gamma_coefficient(cfg.pilot_power, cfg.tau_p, cfg.beta)
        np.testing.assert_allclose(mom, cfg.total_power * gamma / (cfg.M * np.sum(gamma)), rtol=1e-14)

    def test_unequal_betas_order(self):
        cfg = make_cfg(beta=[0.1, 0.5, 1.0, 2.0])
        assert np.all(np.diff(mrt_moments(cfg, 0.0)) > 0)


class TestEstimateMomentsMc:
    def test_matches_closed_form_for_mrt(self):
        cfg = make_cfg(M=32, K=4, total_power=2.0)
        ref = mrt_moments(cfg, 0.1175)
        mom = estimate_moments_mc(cfg, "mrt", 0.1175, trials=2000, seed=11)
        np.testing.assert_allclose(mom, ref, rtol=0.03)

    def test_total_power_preserved(self):
        cfg = make_cfg(M=16, K=2)
        mom = estimate_moments_mc(cfg, "wf", 0.1175, trials=200, seed=3)
        assert mom.shape == (2,)
        assert cfg.M * np.sum(mom) == pytest.approx(cfg.total_power, rel=1e-12)

    def test_deterministic(self):
        cfg = make_cfg(M=16, K=2)
        a = estimate_moments_mc(cfg, "zf", 0.0, trials=150, seed=5)
        b = estimate_moments_mc(cfg, "zf", 0.0, trials=150, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_error_shrinks_with_trials(self):
        cfg = make_cfg(M=32, K=4)
        ref = mrt_moments(cfg, 0.0)
        errs = {}
        for trials in (500, 2000):
            mom = estimate_moments_mc(cfg, "mrt", 0.0, trials=trials, seed=17)
            errs[trials] = np.sqrt(np.mean((mom - ref) ** 2))
        assert errs[2000] < errs[500]

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            estimate_moments_mc(make_cfg(), "mrt", 0.0, trials=99, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            estimate_moments_mc(make_cfg(), "rzf", 0.0, trials=100, seed=0)


class TestPrecoderEntryVar:
    """ZF/WF moments are exact at equal gamma; Monte Carlo only otherwise."""

    @pytest.mark.parametrize("kind", ("zf", "wf"))
    def test_exact_moments_match_monte_carlo(self, kind):
        cfg = SystemConfig.from_snr(M=16, K=4, tau_c=200, tau_p=8, snr_db=0.0)
        exact = precoder_entry_var(cfg, kind, 0.1175, trials=100, seed=11)
        np.testing.assert_array_equal(exact, np.full(4, cfg.total_power / 64))
        assert cfg.M * np.sum(exact) == pytest.approx(cfg.total_power, rel=1e-14)
        mc = estimate_moments_mc(cfg, kind, 0.1175, trials=2000, seed=11)
        np.testing.assert_allclose(mc, exact, rtol=0.03)

    def test_monte_carlo_only_for_unequal_gamma(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Monte Carlo moment pass reached")

        monkeypatch.setattr(precoding, "estimate_moments_mc", refuse)
        cfg = SystemConfig.from_snr(M=16, K=2, tau_c=200, tau_p=8, snr_db=0.0)
        uneven = SystemConfig.from_snr(M=16, K=2, tau_c=200, tau_p=8, snr_db=0.0, beta=[0.5, 1.0])
        for kind in KINDS:
            assert np.all(precoder_entry_var(cfg, kind, 0.1175, trials=100, seed=3) > 0)
        assert np.all(precoder_entry_var(uneven, "mrt", 0.1175, trials=100, seed=3) > 0)
        for kind in ("zf", "wf"):
            with pytest.raises(AssertionError, match="Monte Carlo moment pass reached"):
                precoder_entry_var(uneven, kind, 0.1175, trials=100, seed=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown precoder kind"):
            precoder_entry_var(make_cfg(), "rzf", 0.0, trials=100, seed=0)

    @pytest.mark.parametrize("kind", ("zf", "wf"))
    def test_sampled_moments_are_the_antenna_average(self, kind, m_space_stats):
        """One number per user: the mean over antennas and trials of |P[m, i]|^2."""
        cfg = SystemConfig.from_snr(M=12, K=3, tau_c=200, tau_p=3, snr_db=5.0, beta=[0.5, 1.0, 2.0])
        eta_h = eta_of_bits(3)
        _, Hhat_q = quantized_estimate(cfg, trial_draws(cfg, 4, range(150), domain=DOMAIN_MOMENTS), eta_h)
        P = build_precoder(Hhat_q.swapaxes(-2, -1), kind, cfg)
        want = np.mean(np.abs(P) ** 2, axis=(0, 1))
        np.testing.assert_allclose(precoder_entry_var(cfg, kind, eta_h, trials=150, seed=4), want, rtol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_pilot_power_is_refused(self, kind):
        blind = SystemConfig.from_snr(M=16, K=2, tau_c=200, tau_p=8, snr_db=0.0, pilot_power=0.0)
        with pytest.raises(ValueError, match="gamma"):
            precoder_entry_var(blind, kind, 0.1, trials=100, seed=0)
        one_blind = SystemConfig.from_snr(M=16, K=2, tau_c=200, tau_p=8, snr_db=0.0, pilot_power=[1.0, 0.0])
        if kind == "mrt":
            assert precoder_entry_var(one_blind, kind, 0.1, trials=100, seed=0)[1] == 0.0
        else:
            with pytest.raises(ValueError, match="gamma > 0 for every user"):
                precoder_entry_var(one_blind, kind, 0.1, trials=100, seed=0)


def test_moment_helpers_are_module_names_only():
    """mrt_moments, estimate_moments_mc and transmit_rescale left the package namespace."""
    import fhalloc

    assert len(fhalloc.__all__) == 14
    for name in ("mrt_moments", "estimate_moments_mc", "transmit_rescale"):
        assert name not in fhalloc.__all__ and callable(getattr(precoding, name))


def test_unit_level_names_live_in_their_modules():
    """Names that only unit tests read are module attributes, not package names."""
    import importlib

    import fhalloc

    homes = {
        "quantization": ("QuantizedMatrix", "quantized_csi_covariance"),
        "channel": ("mmse_estimate",),
        "precoding": ("RankDeficientError", "build_precoder"),
        "se": ("se_from_sinr", "SeReport"),
        "allocation": ("BitSplit", "AllocationResult"),
    }
    for module, names in homes.items():
        for name in names:
            assert name not in fhalloc.__all__ and not hasattr(fhalloc, name)
            assert getattr(importlib.import_module(f"fhalloc.{module}"), name) is not None
    assert sorted(fhalloc.__all__) == sorted(set(fhalloc.__all__))
    assert all(hasattr(fhalloc, name) for name in fhalloc.__all__)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    K=st.integers(1, 4),
    extra=st.integers(1, 8),
    snr_db=st.floats(-20.0, 30.0),
    beta=st.one_of(st.just(None), st.lists(st.floats(0.05, 4.0), min_size=4, max_size=4)),
    b_h=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_entry_var_sums_to_total_power(kind, K, extra, snr_db, beta, b_h, seed):
    """M sum_i E|P[m, i]|^2 = P_t whichever case supplies the moments.

    beta=None gives every user the same gamma (exact ZF/WF moments); a
    list of per-user betas makes gamma unequal (sampled ZF/WF moments).
    """
    cfg = SystemConfig.from_snr(
        M=K + extra, K=K, tau_c=50, tau_p=K, snr_db=snr_db, beta=None if beta is None else beta[:K]
    )
    entry_var = precoder_entry_var(cfg, kind, eta_of_bits(b_h), trials=100, seed=seed)
    assert entry_var.shape == (cfg.K,)
    assert cfg.M * np.sum(entry_var) == pytest.approx(cfg.total_power, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(1, 6),
    extra=st.integers(1, 12),
    snr_db=st.floats(-20.0, 30.0),
    kind=st.sampled_from(("zf", "wf")),
    b_h=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_quantized_csi_precoder_has_total_power(K, extra, snr_db, kind, b_h, seed):
    """||P||_F^2 = P_t in every realization, the invariant behind exact D.

    Equal beta and pilot power give every user the same gamma, the case in
    which ZF/WF moments are taken as P_t / (M K) per entry.
    """
    cfg = SystemConfig.from_snr(M=K + extra, K=K, tau_c=50, tau_p=K, snr_db=snr_db)
    _, Hhat_q = quantized_estimate(cfg, trial_draws(cfg, seed, [0])[0], eta_of_bits(b_h))
    P = build_precoder(Hhat_q.T, kind, cfg)
    assert np.sum(np.abs(P) ** 2) == pytest.approx(cfg.total_power, rel=1e-10)
