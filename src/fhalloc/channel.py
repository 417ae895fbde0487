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
per-user scales, Hhat_q = Z_0 E_0 + Z_1 E_1 + Z_2 E_2 with E_j diagonal,
which is what lets the Monte Carlo loop work on the K x K slot
statistics of sysmodel._trial_stats instead of the M x K arrays.  The
CSI quantizer enters E only through u = 1 - eta_h and
v = sqrt(eta_h (1 - eta_h)), so the K x K products split into pieces
free of the bit split (_slot_pieces), and each B_H costs one weighted
sum of them (_estimate_products).
"""

from __future__ import annotations

import math

import numpy as np

from . import sysmodel
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
    return _gamma(q, tau_p, beta)


def _gamma(q, tau_p: int, beta):
    """gamma_coefficient without its checks, for a SystemConfig's own checked arrays."""
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
    return np.sqrt(aqnm_noise_var(eta_h, _gamma(cfg.pilot_power, cfg.tau_p, cfg.beta)))


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


def _slot_pieces(cfg: SystemConfig, S: np.ndarray, perfect: bool = False, block=None) -> tuple:
    """The split-free pieces (G_uu, G_uv, G_vv, A_0, B_0, T_u, T_v) of the estimate's K x K products.

    S is the (n, 3, K, 4, K) array of sysmodel._trial_stats, with
    Q_jl = S[:, j, :, l] and R_j = S[:, j, :, 3].  With u = 1 - eta_h and
    v = sqrt(eta_h (1 - eta_h)), the slot scales of the quantized estimate
    are E_0 = u a, E_1 = u b and E_2 = v sqrt(gamma), where a and b are the
    MMSE coefficient's eta-free scales on the channel draw and on the
    pilot noise.  So its Gram G = sum_jl E_j Q_jl E_l, the channel's
    matched products V_0 = sum_l Q_0l E_l (H^T Hhat_q^* = D_beta^(1/2) V_0)
    and T = sum_j E_j R_j are

        G = u^2 G_uu + u v G_uv + v^2 G_vv,   V_0 = u A_0 + v B_0,   T = u T_u + v T_v

    (_estimate_products), and the pieces depend on the statistics, beta,
    the pilot power and tau_p, but not on B_H.  Perfect CSI is
    a = sqrt(beta), b = 0 and v = 0; its v pieces are None.  Each piece
    is (n, K, K).

    block, the (seed, trial ids, domain) of the statistics, memoizes the
    pieces, read-only, under that block's statistics key plus beta, the
    pilot power and tau_p (sysmodel._pieces_cache), so every B_H and every
    SNR at one pilot power reads them; without it (statistics the caller
    holds) they are formed and never stored.
    """
    key = None
    if block is not None:
        config = (None,) if perfect else (tuple(cfg.pilot_power.tolist()), cfg.tau_p)
        key = (*sysmodel._stats_key(cfg, *block), tuple(cfg.beta.tolist()), *config)
        if key in sysmodel._pieces_cache:
            return sysmodel._pieces_cache[key]
    R = S[:, :, :, 3]
    if perfect:
        a = np.sqrt(cfg.beta)
        A0 = S[:, 0, :, 0] * a
        pieces = (a[:, None] * A0, None, None, A0, None, a[:, None] * R[:, 0], None)
    else:
        b = _mmse_coef(cfg)
        a = b * np.sqrt(cfg.pilot_power * cfg.tau_p * cfg.beta)
        c = np.sqrt(_gamma(cfg.pilot_power, cfg.tau_p, cfg.beta))
        # the u and v parts of V_j = Z_j^T Hhat_q^* = sum_l Q_jl E_l
        Vu = [S[:, j, :, 0] * a + S[:, j, :, 1] * b for j in range(3)]
        Vv = [S[:, j, :, 2] * c for j in range(3)]
        a, b, c = a[:, None], b[:, None], c[:, None]
        G_uv = a * Vv[0] + b * Vv[1] + c * Vu[2]
        pieces = (a * Vu[0] + b * Vu[1], G_uv, c * Vv[2], Vu[0], Vv[0], a * R[:, 0] + b * R[:, 1], c * R[:, 2])
    if key is not None:
        for piece in [piece for piece in pieces if piece is not None]:
            piece.setflags(write=False)
        sysmodel._memoize(sysmodel._pieces_cache, key, pieces)
    return pieces


def _estimate_products(pieces: tuple, eta_h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, V_0, T) at CSI distortion eta_h from the pieces of _slot_pieces, each a new (n, K, K) array.

    The v terms pass through one scratch array: fresh temporaries of this
    size can cost more in the allocator than the arithmetic.
    """
    G_uu, G_uv, G_vv, A0, B0, T_u, T_v = pieces
    u, v = 1.0 - eta_h, math.sqrt(eta_h * (1.0 - eta_h))
    G, V0, T = G_uu * (u * u), A0 * u, T_u * u
    if v:
        tmp = np.multiply(G_uv, u * v)
        G += tmp
        G += np.multiply(G_vv, v * v, out=tmp)
        V0 += np.multiply(B0, v, out=tmp)
        T += np.multiply(T_v, v, out=tmp)
    return G, V0, T


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
