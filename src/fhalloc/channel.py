r"""Rayleigh block-fading channels and pilot-based MMSE estimation.

Model per coherence block: the uplink channel of user k is
h_k ~ CN(0, beta_k I_M), columns independent across users.  Users send
orthogonal pilot sequences of length tau_p at power q_k, so the despread
pilot observation of user k is

    y_k = sqrt(q_k tau_p) h_k + n_k,      n_k ~ CN(0, I_M).

quantized_estimate forms these observations for a whole block of trials
from the unit draws of sysmodel.trial_draws.  The per-entry MMSE
estimate of h_k from y_k is

    hhat_k = sqrt(q_k tau_p) beta_k / (q_k tau_p beta_k + 1) * y_k,

whose per-entry variance is

    gamma_k = q_k tau_p beta_k^2 / (q_k tau_p beta_k + 1).

The estimation error h_k - hhat_k is independent of hhat_k with per-entry
variance beta_k - gamma_k (orthogonality of the linear MMSE estimator).
Downlink channels follow from TDD reciprocity, H_down = H^T.

Both the estimate and its CSI-quantized version are the unit draws with
per-user scales, Hhat_q = Z_0 E_0 + Z_1 E_1 + Z_2 E_2 with E_j diagonal
(_slot_scales), which is what lets the Monte Carlo loop work on the
K x K slot statistics of sysmodel._trial_stats instead of the M x K
arrays.
"""

from __future__ import annotations

import numpy as np

from .quantization import aqnm_noise_var
from .sysmodel import SystemConfig, draw_complex_gaussian


def gamma_coefficient(q, tau_p: int, beta) -> np.ndarray:
    """Per-entry variance of the MMSE channel estimate.

    gamma = q * tau_p * beta^2 / (q * tau_p * beta + 1), elementwise over
    broadcast q and beta.  Satisfies 0 <= gamma < beta with gamma = 0 at
    zero pilot power and gamma -> beta as q * tau_p grows (perfect
    estimation limit).
    """
    q = np.asarray(q, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(q < 0) or np.any(beta < 0) or tau_p < 1:
        raise ValueError("q, beta must be nonnegative and tau_p >= 1")
    snr_eff = q * tau_p * beta
    return snr_eff * beta / (snr_eff + 1.0)


def mmse_estimate(Y: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Per-entry MMSE channel estimate from despread pilots.

    hhat_k = sqrt(q_k tau_p) beta_k / (q_k tau_p beta_k + 1) * y_k.  The
    scaling makes the estimate variance come out at gamma_k per entry and
    the error orthogonal to the estimate.  Y has shape (..., M, K);
    leading dimensions are batched, and the estimate has Y's shape.
    """
    if Y.shape[-2:] != (cfg.M, cfg.K):
        raise ValueError(f"Y has shape {Y.shape}, config expects (..., {cfg.M}, {cfg.K})")
    return Y * _mmse_coef(cfg)


def _mmse_coef(cfg: SystemConfig) -> np.ndarray:
    """The MMSE coefficient sqrt(q_k tau_p) beta_k / (q_k tau_p beta_k + 1), shape (K,)."""
    snr_eff = cfg.pilot_power * cfg.tau_p * cfg.beta
    return np.sqrt(cfg.pilot_power * cfg.tau_p) * cfg.beta / (snr_eff + 1.0)


def _csi_noise_std(cfg: SystemConfig, eta_h: float) -> np.ndarray:
    """Per-user standard deviation, shape (K,), of the CSI quantizer's AQNM noise N_Q."""
    return np.sqrt(aqnm_noise_var(eta_h, gamma_coefficient(cfg.pilot_power, cfg.tau_p, cfg.beta)))


def estimate_channel(cfg: SystemConfig, rng_channel, rng_noise) -> tuple[np.ndarray, np.ndarray]:
    """One channel realization H and its MMSE estimate, as (H, Hhat).

    Nothing in fhalloc calls this; every Monte Carlo number comes from
    the slot statistics of sysmodel._trial_stats.  It is kept only
    because the perfbench tracer wraps it by name, and it goes when that
    tracer is retargeted at the block pipeline (ROADMAP.md, item 1).
    """
    H = draw_complex_gaussian(rng_channel, cfg.M, cfg.K, variance=cfg.beta)
    Y = H * np.sqrt(cfg.pilot_power * cfg.tau_p) + draw_complex_gaussian(rng_noise, cfg.M, cfg.K)
    return H, mmse_estimate(Y, cfg)


def _slot_scales(cfg: SystemConfig, eta_h: float) -> np.ndarray:
    """Per-user scales E, shape (3, K), with Hhat_q = sum_j Z_j diag(E[j]).

    Z_j is slot j of the unit draws.  The MMSE coefficient c_k acts on
    y_k = sqrt(q_k tau_p beta_k) z_0k + z_1k; the CSI quantizer keeps
    (1 - eta_h) of it and adds z_2k at its AQNM noise standard deviation.
    """
    gain = (1.0 - eta_h) * _mmse_coef(cfg)
    return np.array([gain * np.sqrt(cfg.pilot_power * cfg.tau_p * cfg.beta), gain, _csi_noise_std(cfg, eta_h)])


def _slot_gram(S: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G, V_0) of the estimate Hhat_q = sum_j Z_j diag(scales[j]), from slot statistics.

    S is the (n, 3, K, 4, K) array of sysmodel._trial_stats.  With
    V_j = Z_j^T Hhat_q^* = sum_l Q_jl diag(scales[l]), the Gram is
    G = Hhat_q^T Hhat_q^* = sum_j diag(scales[j]) V_j, and V_0 gives the
    channel's matched products, H^T Hhat_q^* = diag(sqrt(beta)) V_0.
    Slots whose scales are all zero are skipped.  Both are (n, K, K).
    """
    slots = [j for j in range(3) if np.any(scales[j])]
    V = {j: sum(S[:, j, :, l] * scales[l] for l in slots) for j in {0, *slots}}
    return sum(scales[j][:, None] * V[j] for j in slots), V[0]


def quantized_estimate(cfg: SystemConfig, z: np.ndarray, eta_h: float) -> tuple[np.ndarray, np.ndarray]:
    """True channel and its quantized MMSE estimate from unit draws.

    z has shape (..., 4, M, K) as returned by sysmodel.trial_draws; slots
    0, 1 and 2 scale to the channel, the pilot noise and the AQNM noise of
    the CSI quantizer at distortion eta_h (slot 3 is left to the precoder
    quantizer).  Returns (H, Hhat_q), both (..., M, K), with
    Hhat_q = (1 - eta_h) Hhat + N_Q and N_Q of per-entry variance
    eta_h (1 - eta_h) gamma_k.  At eta_h = 0, Hhat_q is the unquantized
    MMSE estimate.
    """
    if z.shape[-3:] != (4, cfg.M, cfg.K):
        raise ValueError(f"z has shape {z.shape}, config expects (..., 4, {cfg.M}, {cfg.K})")
    H = z[..., 0, :, :] * np.sqrt(cfg.beta)
    Hhat = mmse_estimate(H * np.sqrt(cfg.pilot_power * cfg.tau_p) + z[..., 1, :, :], cfg)
    return H, (1.0 - eta_h) * Hhat + z[..., 2, :, :] * _csi_noise_std(cfg, eta_h)
