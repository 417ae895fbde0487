r"""Rayleigh block-fading channels and pilot-based MMSE estimation.

Model per coherence block: the uplink channel of user k is
h_k ~ CN(0, beta_k I_M), columns independent across users.  Users send
orthogonal pilot sequences of length tau_p at power q_k, so the despread
pilot observation of user k is

    y_k = sqrt(q_k tau_p) h_k + n_k,      n_k ~ CN(0, I_M).

quantized_estimate forms these observations for a whole block of trials
from the unit draws of sysmodel.trial_draws.  The channel and its
estimate do not depend on the quantizer, so for a block the draw memo
holds they are computed once per process and kept beside the block,
keyed on tau_p, beta and the pilot power; every cell then adds only its
own CSI quantization.  The per-entry MMSE estimate of h_k from y_k is

    hhat_k = sqrt(q_k tau_p) beta_k / (q_k tau_p beta_k + 1) * y_k,

whose per-entry variance is

    gamma_k = q_k tau_p beta_k^2 / (q_k tau_p beta_k + 1).

The estimation error h_k - hhat_k is independent of hhat_k with per-entry
variance beta_k - gamma_k (orthogonality of the linear MMSE estimator).
Downlink channels follow from TDD reciprocity, H_down = H^T.
"""

from __future__ import annotations

import numpy as np

from .quantization import aqnm_noise_var
from .sysmodel import SystemConfig, _block_derived, draw_complex_gaussian


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
    snr_eff = cfg.pilot_power * cfg.tau_p * cfg.beta
    return Y * (np.sqrt(cfg.pilot_power * cfg.tau_p) * cfg.beta / (snr_eff + 1.0))


def estimate_channel(cfg: SystemConfig, rng_channel, rng_noise) -> tuple[np.ndarray, np.ndarray]:
    """One channel realization H and its MMSE estimate, as (H, Hhat).

    Nothing in fhalloc calls this; every Monte Carlo number comes from
    trial_draws and quantized_estimate.  It is kept only because the
    perfbench tracer wraps it by name, and it goes when that tracer is
    retargeted at the block pipeline (ROADMAP.md, item 1).
    """
    H = draw_complex_gaussian(rng_channel, cfg.M, cfg.K, variance=cfg.beta)
    Y = H * np.sqrt(cfg.pilot_power * cfg.tau_p) + draw_complex_gaussian(rng_noise, cfg.M, cfg.K)
    return H, mmse_estimate(Y, cfg)


def _block_estimate(cfg: SystemConfig, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quantizer-free part of quantized_estimate: (H, Hhat, H_up), read-only.

    H and Hhat are (..., M, K); H_up is H^T as a C-contiguous (..., K, M)
    array, the layout the gain products H^T P read.  The three share one
    buffer, kept beside z in the draw memo when the memo holds z
    (sysmodel._block_derived).
    """
    if z.shape[-3:] != (4, cfg.M, cfg.K):
        raise ValueError(f"z has shape {z.shape}, config expects (..., 4, {cfg.M}, {cfg.K})")
    lead = z.shape[:-3]

    def views(buf):
        H, Hhat = buf[:2].reshape(2, *lead, cfg.M, cfg.K)
        return H, Hhat, buf[2].reshape(*lead, cfg.K, cfg.M)

    def build(z):
        buf = np.empty((3, *lead, cfg.M * cfg.K), dtype=complex)
        H, Hhat, H_up = views(buf)
        np.multiply(z[..., 0, :, :], np.sqrt(cfg.beta), out=H)
        Hhat[...] = mmse_estimate(H * np.sqrt(cfg.pilot_power * cfg.tau_p) + z[..., 1, :, :], cfg)
        H_up[...] = H.swapaxes(-2, -1)
        return buf

    tag = ("estimate", cfg.tau_p, cfg.beta.tobytes(), cfg.pilot_power.tobytes())
    return views(_block_derived(z, tag, build))


def _csi_noise_std(cfg: SystemConfig, eta_h: float) -> np.ndarray:
    """Per-user standard deviation, shape (K,), of the CSI quantizer's AQNM noise N_Q."""
    return np.sqrt(aqnm_noise_var(eta_h, gamma_coefficient(cfg.pilot_power, cfg.tau_p, cfg.beta)))


def _quantize_csi(z: np.ndarray, Hhat: np.ndarray, eta_h: float, noise_std: np.ndarray) -> np.ndarray:
    """Hhat_q = (1 - eta_h) Hhat + N_Q, N_Q = noise_std times slot 2 of the draw block z."""
    Hhat_q = (1.0 - eta_h) * Hhat
    Hhat_q += z[..., 2, :, :] * noise_std
    return Hhat_q


def quantized_estimate(cfg: SystemConfig, z: np.ndarray, eta_h: float) -> tuple[np.ndarray, np.ndarray]:
    """True channel and its quantized MMSE estimate from unit draws.

    z has shape (..., 4, M, K) as returned by sysmodel.trial_draws; slots
    0, 1 and 2 scale to the channel, the pilot noise and the AQNM noise of
    the CSI quantizer at distortion eta_h (slot 3 is left to the precoder
    quantizer).  Returns (H, Hhat_q), both (..., M, K), with
    Hhat_q = (1 - eta_h) Hhat + N_Q and N_Q of per-entry variance
    eta_h (1 - eta_h) gamma_k.  At eta_h = 0, Hhat_q is the unquantized
    MMSE estimate.  H is read-only (_block_estimate); Hhat_q is a new
    array on every call.
    """
    H, Hhat, _ = _block_estimate(cfg, z)
    return H, _quantize_csi(z, Hhat, eta_h, _csi_noise_std(cfg, eta_h))
