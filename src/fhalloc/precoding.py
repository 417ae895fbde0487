r"""Linear downlink precoders and their fronthaul quantization moments.

All precoders take the downlink channel estimate H_d (K x M, one row per
user) and produce an M x K matrix normalized to ||P||_F^2 = P_t:

    MRT:  P = zeta * H_d^H
    ZF:   P = zeta * H_d^H (H_d H_d^H)^(-1)
    WF:   P = zeta * H_d^H (H_d H_d^H + (K sigma^2 / P_t) I)^(-1)

In every case zeta = sqrt(P_t) / ||unnormalized||_F, which coincides with
the trace expressions tr(G), tr(G^(-1)), tr(A^(-1) G A^(-1)) for the
respective kinds (G = H_d H_d^H).

The Monte Carlo loop never forms P.  With Hhat_q = H_d^T the quantized
estimate, every kind is P = s Hhat_q^* W for a K x K matrix W (I for
MRT, G^(-1) for ZF, (G + lambda I)^(-1) with lambda = K sigma^2 / P_t
for WF, G = H_d H_d^H), so ||P[:, i]||^2 = s^2 (W^H G W)_ii and
s^2 = P_t / tr(W^H G W) follow from the Gram alone (_kxk_precoder).
The ZF and WF column norms come from the inverse itself, with no G W
product: W^H G W = W for ZF, and G W = I - lambda W for WF, so
(W^H G W)_ii = Re W_ii - lambda sum_a |W_ai|^2.

When the precoder itself crosses the fronthaul it is quantized entrywise,
and the AQNM noise variance eta_p (1 - eta_p) E|P[m, i]|^2 needs the
per-entry second moments of P over the channel law.  Antennas are i.i.d.
for every beta and pilot power, so the law of H_d is unchanged when
antennas (columns of H_d) are permuted, which permutes the rows of P:
E|P[m, i]|^2 depends on the user i alone.  precoder_entry_var returns
it as a (K,) vector, in one of three ways:

- MRT: closed form (mrt_moments).
- ZF/WF with the same estimate variance gamma_k for every user (i.i.d.
  Rayleigh fading with equal beta and pilot power): exactly P_t / (M K).
  The law of H_d is then also unchanged when users (rows of H_d) are
  permuted, which permutes the columns of P; this holds for ZF, and for
  WF because its regularizer is a multiple of the identity.  So
  E|P[m, i]|^2 is one constant, and ||P||_F^2 = P_t in every realization
  makes that constant P_t / (M K).
- ZF/WF with unequal gamma: sampled as E||P[:, i]||^2 / M
  (estimate_moments_mc).
"""

from __future__ import annotations

import numpy as np

from .channel import _estimate_products, _gamma, _slot_pieces
from .sysmodel import DOMAIN_MOMENTS, TRIAL_BLOCK, SystemConfig, _trial_stats

PRECODER_KINDS = ("mrt", "zf", "wf")

# Relative eigenvalue floor below which the Gram matrix counts as rank
# deficient, and no ZF/WF precoder is formed from it.
_RANK_RTOL = 1e-12
# Relative floor of rank_deficient_mask's Cholesky certificate: a
# thousand times _RANK_RTOL, far above the rounding of either test.
_CERT_RTOL = 1e-9


class RankDeficientError(np.linalg.LinAlgError):
    """The estimated channel Gram matrix is numerically singular."""


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


def rank_deficient_mask(G: np.ndarray) -> np.ndarray:
    """Boolean mask (over leading batch dims) of numerically singular Gram matrices G.

    A Gram is singular when eigvalsh gives lambda_min <= _RANK_RTOL
    lambda_max.  A stack the Cholesky certificate settles
    (_cholesky_certified) has no singular Gram and needs no
    eigendecomposition; otherwise eigvalsh decides the whole stack, so the
    mask is eigvalsh's.
    """
    flat = G.reshape(-1, *G.shape[-2:])
    if _cholesky_certified(flat):
        return np.zeros(G.shape[:-2], bool)
    ev = np.linalg.eigvalsh(flat)
    return (ev[:, 0] <= ev[:, -1] * _RANK_RTOL).reshape(G.shape[:-2])


def _cholesky_certified(G: np.ndarray) -> bool:
    """True when G - _CERT_RTOL tr(G) I has a Cholesky factor for every Gram of the stack G, shape (n, K, K).

    A factor needs lambda_min > _CERT_RTOL tr G >= _CERT_RTOL lambda_max,
    which proves full rank with room for the rounding of either test.
    Like eigvalsh, the factorization reads the lower triangle and the real
    diagonal.  The stack is factored in one call.
    """
    tr = np.trace(G, axis1=-2, axis2=-1).real
    try:
        np.linalg.cholesky(G - (_CERT_RTOL * tr)[:, None, None] * np.eye(G.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def build_precoder(H_d: np.ndarray, kind: str, cfg: SystemConfig) -> np.ndarray:
    """Build a power-normalized precoder from the downlink channel estimate.

    H_d has shape (..., K, M); leading dimensions are batched.  Returns
    P of shape (..., M, K) with ||P||_F^2 = total_power per batch entry.
    Raises RankDeficientError if any ZF/WF Gram matrix is numerically
    singular or any precoder has zero norm.  P = s H_d^H W from the Gram
    G = H_d H_d^H (_kxk_precoder).
    """
    if kind not in PRECODER_KINDS:
        raise ValueError(f"unknown precoder kind {kind!r}, expected one of {PRECODER_KINDS}")
    if H_d.shape[-2:] != (cfg.K, cfg.M):
        raise ValueError(f"H_d has shape {H_d.shape}, config expects (..., {cfg.K}, {cfg.M})")
    U = H_d.conj().swapaxes(-2, -1)
    G = H_d @ U
    if kind != "mrt" and np.any(rank_deficient_mask(G)):
        raise RankDeficientError("estimated channel Gram matrix is numerically singular")
    W, s, _ = _kxk_precoder(G, kind, cfg)
    return (U if W is None else U @ W) * s[..., None, None]


def _kxk_precoder(G: np.ndarray, kind: str, cfg: SystemConfig):
    """The K x K side of P = s Hhat_q^* W from Grams G, shape (..., K, K): (W, s, col).

    W is None for MRT (the identity), G^(-1) for ZF and
    (G + lambda I)^(-1) for WF, lambda = K sigma^2 / P_t; s, shape (...),
    sets ||P||_F^2 = P_t; col, shape (..., K), holds
    ||P[:, i]||^2 = s^2 (W^H G W)_ii.  The diagonal comes from W with no
    G W product: (W^H G W)_ii is G_ii for MRT, Re W_ii for ZF
    (W^H G W = W) and Re W_ii - lambda sum_a |W_ai|^2 for WF
    (G W = I - lambda W).  The WF difference gives up about
    log10(lambda / G_ii) of its digits to cancellation, which leaves
    rounding-level error at the presets' SNRs.  The caller has refused
    singular ZF/WF Grams (rank_deficient_mask); a zero-norm precoder
    raises RankDeficientError.  Every reduction runs within one trial, so
    a trial's numbers do not depend on the others in G.
    """
    W = None
    if kind == "mrt":
        col = np.diagonal(G, axis1=-2, axis2=-1).real
    else:
        load = cfg.K * cfg.noise_var / cfg.total_power
        W = np.linalg.inv(G + load * np.eye(cfg.K) if kind == "wf" else G)
        col = np.diagonal(W, axis1=-2, axis2=-1).real
        if kind == "wf":
            sq = np.abs(W)
            sq *= sq
            col = col - load * np.sum(sq, axis=-2)
    norm_sq = np.sum(col, axis=-1)
    if np.any(norm_sq == 0.0):
        raise RankDeficientError("precoder has zero norm")
    s = np.sqrt(cfg.total_power / norm_sq)
    return W, s, col * (s * s)[..., None]


def transmit_rescale(P_q: np.ndarray, total_power: float):
    """Scale alpha restoring ||alpha P_q||_F^2 = P_t.

    Applied after precoder quantization, which perturbs the Frobenius norm;
    the matrix actually transmitted is alpha * P_q.  alpha carries the
    leading batch shape of P_q (a float for a single matrix).  Raises on
    zero input norm.  The Monte Carlo loop forms ||P_q||_F^2 from K x K
    statistics instead (se module docstring); this M x K form stays for
    callers that hold P_q, and the perfbench tracer wraps it by name.
    """
    norm_sq = _frob_sq(P_q)
    if np.any(norm_sq == 0.0):
        raise ValueError("cannot rescale a zero precoding matrix")
    alpha = np.sqrt(total_power / norm_sq)
    return float(alpha) if alpha.ndim == 0 else alpha


def _mrt_gamma(cfg: SystemConfig) -> tuple[np.ndarray, float]:
    """Estimate quality gamma, shape (K,), and sum_i gamma_i; ValueError when every gamma is 0.

    The config's arrays were checked when it was built and are read-only,
    so gamma skips the checks of gamma_coefficient and runs only its
    arithmetic.
    """
    gamma = _gamma(cfg.pilot_power, cfg.tau_p, cfg.beta)
    return gamma, _gamma_total(gamma.tolist())


def _gamma_total(gammas: list) -> float:
    """sum_i gamma_i, Python's sum of the list of floats; ValueError when it is 0 (every gamma is 0)."""
    # a Python sum of K floats costs a quarter of gamma.sum() on the closed-form search path
    total = sum(gammas)
    if not total:
        raise ValueError("every user has estimate quality gamma = 0 (zero pilot power), so there is no CSI to precode with")
    return total


def _mrt_normalization(cfg: SystemConfig, eta_h: float):
    """gtil = (1 - eta_h) gamma, shape (K,), and zeta_bar^2, shape (1,).

    zeta_bar^2 = P_t / (M sum_i gtil_i) is the deterministic MRT
    normalization: E|P[m, i]|^2 = zeta_bar^2 gtil_i for the quantized-CSI
    matched filter.  Raises ValueError when every gamma is 0.
    """
    gtil = (1.0 - eta_h) * _mrt_gamma(cfg)[0]
    return gtil, cfg.total_power / (cfg.M * gtil.sum(axis=-1, keepdims=True))


def mrt_moments(cfg: SystemConfig, eta_h: float) -> np.ndarray:
    """Closed-form E|P[m, i]|^2, shape (K,), of the quantized-CSI MRT precoder.

    The matched filter columns inherit the quantized estimate statistics,
    so E|P[m, i]|^2 = zeta_bar^2 (1 - eta_h) gamma_i on every antenna m.
    M times the sum is P_t exactly.
    """
    gtil, zeta_bar_sq = _mrt_normalization(cfg, eta_h)
    return zeta_bar_sq * gtil


def estimate_moments_mc(cfg: SystemConfig, kind: str, eta_h: float, trials: int, seed: int) -> np.ndarray:
    """Monte Carlo estimate of E|P[m, i]|^2 = E||P[:, i]||^2 / M, shape (K,), for any kind.

    Averages ||P[:, i]||^2 / M over `trials` channel draws from the
    DOMAIN_MOMENTS streams, pilot estimation and CSI quantization
    included, in canonical trial order, from the slot statistics of
    blocks of TRIAL_BLOCK trials.  At least 100 trials are required;
    fewer would make the downstream noise scales themselves noisy.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    if kind not in PRECODER_KINDS:
        raise ValueError(f"unknown precoder kind {kind!r}, expected one of {PRECODER_KINDS}")
    col = np.empty((trials, cfg.K))
    for start in range(0, trials, TRIAL_BLOCK):
        ids = tuple(range(start, min(start + TRIAL_BLOCK, trials)))
        S = _trial_stats(cfg, seed, ids, domain=DOMAIN_MOMENTS)[0]
        G = _estimate_products(_slot_pieces(cfg, S, block=(seed, ids, DOMAIN_MOMENTS)), eta_h)[0]
        if kind != "mrt" and np.any(rank_deficient_mask(G)):
            raise RankDeficientError("estimated channel Gram matrix is numerically singular")
        col[start : start + len(ids)] = _kxk_precoder(G, kind, cfg)[2]
    return np.mean(col, axis=0) / cfg.M


def precoder_entry_var(cfg: SystemConfig, kind: str, eta_h: float, trials: int, seed: int) -> np.ndarray:
    """E|P[m, i]|^2, shape (K,): the prior the precoder quantizer needs.

    MRT is in closed form (mrt_moments); ZF/WF are exactly P_t / (M K)
    when gamma is the same for every user (module docstring) and sampled
    with estimate_moments_mc otherwise, the only case that reads `trials`
    and `seed`.  ValueError when every gamma is 0, or for ZF/WF when any
    is: the Gram of the quantized estimate is then singular in every
    realization.
    """
    if kind not in PRECODER_KINDS:
        raise ValueError(f"unknown precoder kind {kind!r}, expected one of {PRECODER_KINDS}")
    if kind == "mrt":
        return mrt_moments(cfg, eta_h)
    gamma = _gamma(cfg.pilot_power, cfg.tau_p, cfg.beta)
    if not np.all(gamma):
        raise ValueError(f"{kind} needs estimate quality gamma > 0 for every user (pilot power > 0)")
    if np.all(gamma == gamma[0]):
        return np.full(cfg.K, cfg.total_power / (cfg.M * cfg.K))
    return estimate_moments_mc(cfg, kind, eta_h, trials, seed)
