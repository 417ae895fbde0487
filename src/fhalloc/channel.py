r"""Rayleigh block-fading channels, pilot despreading, and MMSE estimation.

Model per coherence block: the uplink channel of user k is
h_k ~ CN(0, beta_k I_M), columns independent across users.  Users send
orthogonal pilot sequences of length tau_p at power q_k; after despreading,
the base station sees

    y_k = sqrt(q_k tau_p) h_k + n_k,      n_k ~ CN(0, I_M).

The per-entry MMSE estimate of h_k from y_k is

    hhat_k = sqrt(q_k tau_p) beta_k / (q_k tau_p beta_k + 1) * y_k,

whose per-entry variance is

    gamma_k = q_k tau_p beta_k^2 / (q_k tau_p beta_k + 1).

The estimation error h_k - hhat_k is independent of hhat_k with per-entry
variance beta_k - gamma_k (orthogonality of the linear MMSE estimator).
Downlink channels follow from TDD reciprocity, H_down = H^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantization import aqnm_noise_var
from .sysmodel import SystemConfig, draw_complex_gaussian


@dataclass(frozen=True)
class ChannelSet:
    """A channel realization paired with its estimate and quality figures.

    H is the true channel when the producer had it (estimate_channel always
    does; mmse_estimate only if the caller passed it along), else None.
    gamma holds the per-user estimate variance coefficients.
    """

    H: np.ndarray | None
    H_hat: np.ndarray
    gamma: np.ndarray


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


def draw_channel(cfg: SystemConfig, rng) -> np.ndarray:
    """One uplink channel realization H, shape (M, K), column k CN(0, beta_k I)."""
    return draw_complex_gaussian(rng, cfg.M, cfg.K, variance=cfg.beta)


def despread_pilots(H: np.ndarray, cfg: SystemConfig, rng, noise_var: float = 1.0) -> np.ndarray:
    """Despread pilot observations, one column per user.

    Returns Y with column k = sqrt(q_k tau_p) h_k + n_k.  noise_var exists
    as a test hook; the model fixes it at 1.
    """
    M, K = H.shape
    if (M, K) != (cfg.M, cfg.K):
        raise ValueError(f"H has shape {H.shape}, config expects {(cfg.M, cfg.K)}")
    amp = np.sqrt(cfg.pilot_power * cfg.tau_p)
    N = draw_complex_gaussian(rng, M, K, variance=noise_var)
    return H * amp + N


def mmse_estimate(Y: np.ndarray, cfg: SystemConfig, H: np.ndarray | None = None) -> ChannelSet:
    """Per-entry MMSE channel estimate from despread pilots.

    hhat_k = sqrt(q_k tau_p) beta_k / (q_k tau_p beta_k + 1) * y_k.  The
    scaling makes the estimate variance come out at gamma_k per entry and
    the error orthogonal to the estimate.  Y has shape (..., M, K);
    leading dimensions are batched.  Pass the true H to keep it in the
    returned ChannelSet for downstream SINR work.
    """
    if Y.shape[-2:] != (cfg.M, cfg.K):
        raise ValueError(f"Y has shape {Y.shape}, config expects (..., {cfg.M}, {cfg.K})")
    snr_eff = cfg.pilot_power * cfg.tau_p * cfg.beta
    coef = np.sqrt(cfg.pilot_power * cfg.tau_p) * cfg.beta / (snr_eff + 1.0)
    gamma = gamma_coefficient(cfg.pilot_power, cfg.tau_p, cfg.beta)
    return ChannelSet(H=H, H_hat=Y * coef, gamma=gamma)


def estimate_channel(cfg: SystemConfig, rng_channel, rng_noise) -> ChannelSet:
    """Draw H and produce its pilot-based MMSE estimate in one step.

    Separate streams for the channel and the pilot noise keep the two
    reusable under common-random-number designs.
    """
    H = draw_channel(cfg, rng_channel)
    Y = despread_pilots(H, cfg, rng_noise)
    return mmse_estimate(Y, cfg, H)


def quantized_estimate(cfg: SystemConfig, z: np.ndarray, eta_h: float) -> tuple[np.ndarray, np.ndarray]:
    """True channel and its quantized MMSE estimate from unit draws.

    z has shape (..., 4, M, K) as returned by sysmodel.trial_draws; slots
    0, 1 and 2 scale to the channel, the pilot noise and the AQNM noise of
    the CSI quantizer at distortion eta_h (slot 3 is left to the precoder
    quantizer).  Returns (H, Hhat_q), both (..., M, K), with
    Hhat_q = (1 - eta_h) Hhat + N_Q and N_Q of per-entry variance
    eta_h (1 - eta_h) gamma_k.
    """
    H = z[..., 0, :, :] * np.sqrt(cfg.beta)
    Y = H * np.sqrt(cfg.pilot_power * cfg.tau_p) + z[..., 1, :, :]
    cs = mmse_estimate(Y, cfg)
    Hhat_q = (1.0 - eta_h) * cs.H_hat + z[..., 2, :, :] * np.sqrt(aqnm_noise_var(eta_h, cs.gamma))
    return H, Hhat_q
