r"""Linear downlink precoders and their fronthaul quantization moments.

All precoders take the downlink channel estimate H_d (K x M, one row per
user) and produce an M x K matrix normalized to ||P||_F^2 = P_t:

    MRT:  P = zeta * H_d^H
    ZF:   P = zeta * H_d^H (H_d H_d^H)^(-1)
    WF:   P = zeta * H_d^H (H_d H_d^H + (K sigma^2 / P_t) I)^(-1)

In every case zeta = sqrt(P_t) / ||unnormalized||_F, which coincides with
the trace expressions tr(G), tr(G^(-1)), tr(A^(-1) G A^(-1)) for the
respective kinds (G = H_d H_d^H).

When the precoder itself crosses the fronthaul it is quantized entrywise.
The AQNM noise variance needs the per-entry second moments of P over the
channel distribution; those population moments are what PrecoderMoments
carries.  For MRT they are available in closed form (mrt_moments).  For ZF
and WF they are exact whenever the estimate variance gamma_k is the same
for every user, which covers i.i.d. Rayleigh fading with equal beta and
pilot power:

- The quantized estimate then has i.i.d. entries, so its law is unchanged
  when antennas (columns of H_d) or users (rows of H_d) are permuted.
- Permuting antennas permutes the rows of P and permuting users permutes
  its columns.  This holds for ZF, and for WF because its regularizer is
  a multiple of the identity.
- So E|P[m, i]|^2 is one constant, and ||P||_F^2 = P_t in every
  realization makes that constant P_t / (M K).

Only when gamma differs across users are the ZF/WF moments estimated by
simulation (estimate_moments_mc).  The dispatch is in
fhalloc.se.mc_hardening_sinr.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    flat = np.ascontiguousarray(X).reshape(*X.shape[:-2], -1)
    return np.sum(np.abs(flat) ** 2, axis=-1)


def rank_deficient_mask(H_d: np.ndarray) -> np.ndarray:
    """Boolean mask (over leading batch dims) of numerically singular Grams."""
    ev = np.linalg.eigvalsh(_gram(H_d))
    return ev[..., 0] <= ev[..., -1] * _RANK_RTOL


def build_precoder(H_d: np.ndarray, kind: str, cfg: SystemConfig) -> np.ndarray:
    """Build a power-normalized precoder from the downlink channel estimate.

    H_d has shape (..., K, M); leading dimensions are batched.  Returns
    P of shape (..., M, K) with ||P||_F^2 = total_power per batch entry.
    Raises RankDeficientError if any ZF/WF Gram matrix is numerically
    singular (callers running Monte Carlo redraw such realizations).
    """
    if kind not in PRECODER_KINDS:
        raise ValueError(f"unknown precoder kind {kind!r}, expected one of {PRECODER_KINDS}")
    K, M = H_d.shape[-2:]
    if (K, M) != (cfg.K, cfg.M):
        raise ValueError(f"H_d has shape {H_d.shape}, config expects (..., {cfg.K}, {cfg.M})")

    if kind == "mrt":
        U = H_d.conj().swapaxes(-2, -1)
    else:
        if np.any(rank_deficient_mask(H_d)):
            raise RankDeficientError("estimated channel Gram matrix is numerically singular")
        A = _gram(H_d)
        if kind == "wf":
            load = cfg.K * cfg.noise_var / cfg.total_power
            A = A + load * np.eye(K)
        # H_d^H A^(-1) = (A^(-1) H_d)^H since A is Hermitian
        U = np.linalg.solve(A, H_d).conj().swapaxes(-2, -1)

    norm_sq = _frob_sq(U)
    if np.any(norm_sq == 0.0):
        raise RankDeficientError("precoder has zero norm")
    return U * np.sqrt(cfg.total_power / norm_sq)[..., None, None]


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


@dataclass(frozen=True)
class PrecoderMoments:
    """Population second moments of a precoder family over the channel law.

    D[i, m] = E|P[m, i]|^2, one row per user (shape (K, M)); the grand
    total equals P_t because every realization is power normalized.  For
    MRT, D is in closed form (mrt_moments).  For ZF and WF with the same
    estimate variance gamma_k for every user, D = P_t / (M K) in every
    entry: the i.i.d. quantized estimate makes the law of P invariant
    under row and column permutations (module docstring), and the entries
    sum to P_t.  With unequal gamma, ZF/WF moments come from Monte Carlo
    (estimate_moments_mc), which reads ExperimentSpec.moment_trials.
    alpha_bar is the deterministic proxy for the post-quantization rescale,
    1 / sqrt(1 - eta_p).  zeta_bar is the deterministic normalization proxy
    used by closed-form analysis; it is only available analytically (MRT).
    """

    kind: str
    D: np.ndarray
    alpha_bar: float
    zeta_bar: float | None = None

    @property
    def per_user_trace(self) -> np.ndarray:
        """tr(D_i) per user: total transmit-side second moment of column i."""
        return np.sum(self.D, axis=1)

    @property
    def entry_var(self) -> np.ndarray:
        """D transposed to the (M, K) layout of a precoding matrix."""
        return self.D.T


def mrt_moments(cfg: SystemConfig, eta_h: float, eta_p: float) -> PrecoderMoments:
    """Closed-form per-entry second moments of the quantized-CSI MRT precoder.

    The matched filter columns inherit the quantized estimate statistics,
    so E|P[m, i]|^2 = zeta_bar^2 (1 - eta_h) gamma_i with
    zeta_bar^2 = P_t / (M sum_i (1 - eta_h) gamma_i).  Their total is P_t
    exactly.
    """
    gamma = gamma_coefficient(cfg.pilot_power, cfg.tau_p, cfg.beta)
    gtil = quantized_csi_covariance(gamma, eta_h)
    zeta_bar_sq = cfg.total_power / (cfg.M * np.sum(gtil))
    D = np.broadcast_to(zeta_bar_sq * gtil[:, None], (cfg.K, cfg.M)).copy()
    alpha_bar = 1.0 / np.sqrt(1.0 - eta_p)
    return PrecoderMoments(
        kind="mrt",
        D=D,
        alpha_bar=alpha_bar,
        zeta_bar=float(np.sqrt(zeta_bar_sq)),
    )


def estimate_moments_mc(
    cfg: SystemConfig,
    kind: str,
    eta_h: float,
    eta_p: float,
    trials: int,
    seed: int,
) -> PrecoderMoments:
    """Monte Carlo estimate of PrecoderMoments for any precoder kind.

    Averages |P[m, i]|^2 over `trials` channel draws from the
    DOMAIN_MOMENTS streams, pilot estimation and CSI quantization
    included, in blocks of TRIAL_BLOCK trials.  alpha_bar is the
    deterministic proxy 1 / sqrt(1 - eta_p), as for every kind.  At least
    100 trials are required; fewer would make the downstream noise scales
    themselves noisy.  This is the fallback for ZF/WF when gamma differs
    across users; with equal gamma the moments are exact (module
    docstring).
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    if kind not in PRECODER_KINDS:
        raise ValueError(f"unknown precoder kind {kind!r}")
    acc = np.zeros((cfg.M, cfg.K))
    for start in range(0, trials, TRIAL_BLOCK):
        ids = range(start, min(start + TRIAL_BLOCK, trials))
        _, Hhat_q = quantized_estimate(cfg, trial_draws(cfg, seed, ids, domain=DOMAIN_MOMENTS), eta_h)
        acc += np.sum(np.abs(build_precoder(Hhat_q.swapaxes(-2, -1), kind, cfg)) ** 2, axis=0)
    return PrecoderMoments(kind=kind, D=(acc / trials).T, alpha_bar=1.0 / np.sqrt(1.0 - eta_p))
