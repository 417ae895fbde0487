r"""Linear downlink precoders and their fronthaul quantization moments.

All precoders take the downlink channel estimate H_d (K x M, one row per
user) and produce an M x K matrix normalized to ||P||_F^2 = P_t:

    MRT:  P = zeta * H_d^H
    ZF:   P = zeta * H_d^H (H_d H_d^H)^(-1)
    WF:   P = zeta * H_d^H (H_d H_d^H + (K sigma^2 / P_t) I)^(-1)

In every case zeta = sqrt(P_t) / ||unnormalized||_F, which coincides with
the trace expressions tr(G), tr(G^(-1)), tr(A^(-1) G A^(-1)) for the
respective kinds (G = H_d H_d^H).

When the precoder itself crosses the fronthaul it is quantized entrywise,
and the AQNM noise variance eta_p (1 - eta_p) E|P[m, i]|^2 needs the
per-entry second moments of P over the channel law.  precoder_entry_var
returns them as an (M, K) array, the layout of P, in one of three ways:

- MRT: closed form (mrt_moments).
- ZF/WF with the same estimate variance gamma_k for every user (i.i.d.
  Rayleigh fading with equal beta and pilot power): exactly P_t / (M K).
  The quantized estimate then has i.i.d. entries, so its law is unchanged
  when antennas (columns of H_d) or users (rows of H_d) are permuted.
  Permuting antennas permutes the rows of P and permuting users permutes
  its columns; this holds for ZF, and for WF because its regularizer is a
  multiple of the identity.  So E|P[m, i]|^2 is one constant, and
  ||P||_F^2 = P_t in every realization makes that constant P_t / (M K).
- ZF/WF with unequal gamma: sampled (estimate_moments_mc).
"""

from __future__ import annotations

import numpy as np

from .channel import gamma_coefficient, quantized_estimate
from .quantization import quantized_csi_covariance
from .sysmodel import DOMAIN_MOMENTS, TRIAL_BLOCK, SystemConfig, trial_draws

PRECODER_KINDS = ("mrt", "zf", "wf")

# Relative eigenvalue floor below which the Gram matrix counts as rank
# deficient and the realization should be redrawn.
_RANK_RTOL = 1e-12


class RankDeficientError(np.linalg.LinAlgError):
    """The estimated channel Gram matrix is numerically singular."""


def _gram(H_d: np.ndarray) -> np.ndarray:
    return H_d @ H_d.conj().swapaxes(-2, -1)


def _frob_sq(X: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm over the trailing two axes.

    Reduces each matrix along one flattened axis so the summation order,
    and hence the rounding, is identical whether matrices arrive alone or
    stacked in batches of any size.
    """
    # a C-ordered out makes |X|^2 flat in that order whatever X's layout,
    # with no contiguous copy of X itself
    sq = np.abs(X, out=np.empty(X.shape))
    sq *= sq
    return np.sum(sq.reshape(*X.shape[:-2], -1), axis=-1)


def rank_deficient_mask(H_d: np.ndarray) -> np.ndarray:
    """Boolean mask (over leading batch dims) of numerically singular Grams."""
    ev = np.linalg.eigvalsh(_gram(H_d))
    return ev[..., 0] <= ev[..., -1] * _RANK_RTOL


def build_precoder(H_d: np.ndarray, kind: str, cfg: SystemConfig) -> np.ndarray:
    """Build a power-normalized precoder from the downlink channel estimate.

    H_d has shape (..., K, M); leading dimensions are batched.  Returns
    P of shape (..., M, K) with ||P||_F^2 = total_power per batch entry.
    Raises RankDeficientError if any ZF/WF Gram matrix is numerically
    singular.  The Monte Carlo loop masks and redraws such realizations
    itself and then calls the unchecked core, _precoder.
    """
    if kind not in PRECODER_KINDS:
        raise ValueError(f"unknown precoder kind {kind!r}, expected one of {PRECODER_KINDS}")
    if H_d.shape[-2:] != (cfg.K, cfg.M):
        raise ValueError(f"H_d has shape {H_d.shape}, config expects (..., {cfg.K}, {cfg.M})")
    if kind != "mrt" and np.any(rank_deficient_mask(H_d)):
        raise RankDeficientError("estimated channel Gram matrix is numerically singular")
    return _precoder(H_d, kind, cfg)


def _precoder(H_d: np.ndarray, kind: str, cfg: SystemConfig) -> np.ndarray:
    """build_precoder without its input checks.

    The caller guarantees a known kind, H_d of shape (..., K, M) and, for
    ZF/WF, Gram matrices of full rank (the Monte Carlo loop has already
    masked out the singular ones with rank_deficient_mask).
    """
    if kind == "mrt":
        U = H_d.conj().swapaxes(-2, -1)
    else:
        A = _gram(H_d)
        if kind == "wf":
            load = cfg.K * cfg.noise_var / cfg.total_power
            A += load * np.eye(cfg.K)
        # H_d^H A^(-1) = (A^(-1) H_d)^H since A is Hermitian
        X = np.linalg.solve(A, H_d)
        U = np.conjugate(X, out=X).swapaxes(-2, -1)

    norm_sq = _frob_sq(U)
    if np.any(norm_sq == 0.0):
        raise RankDeficientError("precoder has zero norm")
    # U is a fresh array in every branch, so it is scaled in place
    U *= np.sqrt(cfg.total_power / norm_sq)[..., None, None]
    return U


def transmit_rescale(P_q: np.ndarray, total_power: float):
    """Scale alpha restoring ||alpha P_q||_F^2 = P_t.

    Applied after precoder quantization, which perturbs the Frobenius norm;
    the matrix actually transmitted is alpha * P_q.  alpha carries the
    leading batch shape of P_q (a float for a single matrix).  Raises on
    zero input norm.
    """
    norm_sq = _frob_sq(P_q)
    if np.any(norm_sq == 0.0):
        raise ValueError("cannot rescale a zero precoding matrix")
    alpha = np.sqrt(total_power / norm_sq)
    return float(alpha) if alpha.ndim == 0 else alpha


def _mrt_normalization(cfg: SystemConfig, eta_h):
    """Estimate quality gamma, gtil = (1 - eta_h) gamma and zeta_bar^2.

    zeta_bar^2 = P_t / (M sum_i gtil_i) is the deterministic MRT
    normalization: E|P[m, i]|^2 = zeta_bar^2 gtil_i for the quantized-CSI
    matched filter.  eta_h may be an (S, 1) column of distortion factors;
    gtil is then (S, K) and zeta_bar^2 (S, 1), else (K,) and (1,).
    """
    gamma = gamma_coefficient(cfg.pilot_power, cfg.tau_p, cfg.beta)
    gtil = quantized_csi_covariance(gamma, eta_h)
    return gamma, gtil, cfg.total_power / (cfg.M * np.sum(gtil, axis=-1, keepdims=True))


def mrt_moments(cfg: SystemConfig, eta_h: float) -> np.ndarray:
    """Closed-form E|P[m, i]|^2, shape (M, K), of the quantized-CSI MRT precoder.

    The matched filter columns inherit the quantized estimate statistics,
    so E|P[m, i]|^2 = zeta_bar^2 (1 - eta_h) gamma_i.  The total is P_t
    exactly.
    """
    _, gtil, zeta_bar_sq = _mrt_normalization(cfg, eta_h)
    return np.tile(zeta_bar_sq * gtil, (cfg.M, 1))


def estimate_moments_mc(cfg: SystemConfig, kind: str, eta_h: float, trials: int, seed: int) -> np.ndarray:
    """Monte Carlo estimate of E|P[m, i]|^2, shape (M, K), for any precoder kind.

    Averages |P[m, i]|^2 over `trials` channel draws from the
    DOMAIN_MOMENTS streams, pilot estimation and CSI quantization
    included, in blocks of TRIAL_BLOCK trials.  At least 100 trials are
    required; fewer would make the downstream noise scales themselves
    noisy.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    acc = np.zeros((cfg.M, cfg.K))
    for start in range(0, trials, TRIAL_BLOCK):
        ids = range(start, min(start + TRIAL_BLOCK, trials))
        _, Hhat_q = quantized_estimate(cfg, trial_draws(cfg, seed, ids, domain=DOMAIN_MOMENTS), eta_h)
        acc += np.sum(np.abs(build_precoder(Hhat_q.swapaxes(-2, -1), kind, cfg)) ** 2, axis=0)
    return acc / trials


def precoder_entry_var(cfg: SystemConfig, kind: str, eta_h: float, trials: int, seed: int) -> np.ndarray:
    """E|P[m, i]|^2, shape (M, K): the prior the precoder quantizer needs.

    MRT is in closed form (mrt_moments); ZF/WF are exactly P_t / (M K)
    when gamma is the same for every user (module docstring) and sampled
    with estimate_moments_mc otherwise, the only case that reads `trials`
    and `seed`.
    """
    if kind not in PRECODER_KINDS:
        raise ValueError(f"unknown precoder kind {kind!r}, expected one of {PRECODER_KINDS}")
    if kind == "mrt":
        return mrt_moments(cfg, eta_h)
    gamma = gamma_coefficient(cfg.pilot_power, cfg.tau_p, cfg.beta)
    if np.all(gamma == gamma[0]):
        return np.full((cfg.M, cfg.K), cfg.total_power / (cfg.M * cfg.K))
    return estimate_moments_mc(cfg, kind, eta_h, trials, seed)
