r"""Downlink spectral efficiency under quantized CSI and quantized precoding.

Each user's rate comes from the channel-hardening bound: with g_ki the
effective gain from the precoding column of user i to user k (transmit
rescale included), the SINR is

    Gamma_k = |E g_kk|^2 / (sum_i E|g_ki|^2 - |E g_kk|^2 + sigma^2)

and SE_k = (1 - tau_p/tau_c) log2(1 + Gamma_k).  The expectations are
estimated by Monte Carlo over coherence blocks; every trial's randomness
is a pure function of (seed, trial index), so results do not depend on
batching or worker count, and sweeping quantizer resolutions reuses the
same channel and unit noise draws in every cell (common random numbers).

Every gain matrix is K x K arithmetic on the slot statistics of
sysmodel._trial_stats.  With Hhat_q = sum_j Z_j E_j (channel._slot_scales),
G its Gram, V_0 = Z_0^T Hhat_q^* (channel._slot_gram), the precoder
P = s Hhat_q^* W (precoding._kxk_precoder), its quantized version
P_q = (1 - eta_p) P + Z_3 Sigma_p and the transmit rescale alpha:

    H^T P_q = (1 - eta_p) s D_beta^(1/2) V_0 W + D_beta^(1/2) R_0 Sigma_p
    ||P_q||^2 = (1 - eta_p)^2 P_t + 2 (1 - eta_p) s Re tr(W^H T Sigma_p)
                + sum_i sigma_p,i^2 ||Z_3[:, i]||^2,   T = sum_j E_j R_j
    alpha^2 = P_t / ||P_q||^2.

Perfect CSI is E = (beta^(1/2), 0, 0) with no precoder quantizer, so the
gains are s G W.  Nothing M x K is formed after the statistics, and the
statistics serve every cell of a run.

For maximum ratio transmission the expectations are also available in
closed form; the Monte Carlo and closed-form paths agree within the
concentration error of the power normalization (a few percent at M = 64).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import sysmodel
from .channel import _slot_gram, _slot_scales
from .precoding import PRECODER_KINDS, _kxk_precoder, _mrt_normalization, precoder_entry_var, rank_deficient_mask
from .quantization import aqnm_noise_var, eta_of_bits
from .sysmodel import TRIAL_BLOCK, SystemConfig, _trial_stats

CSI_MODES = ("quantized", "perfect")

_MAX_REDRAWS = 8


@dataclass(frozen=True)
class SeReport:
    """Per-user SINR/SE figures for one evaluated operating point.

    method names the evaluator ("monte_carlo" or "closed_form_mrt").
    trials is 0 for the closed form (nothing is sampled); seed and
    redraws describe the Monte Carlo run and stay None and 0 otherwise.
    stage_s holds the Monte Carlo run's seconds per stage: "stats_s"
    drawing and reducing slot statistics (0 when the memo held them),
    "moments_s" the precoder moment prior and "kxk_s" the cell's own
    K x K arithmetic; it is empty for the closed form.
    """

    sinr: np.ndarray
    se: np.ndarray
    sum_se: float
    method: str
    csi_mode: str
    kind: str
    b_h: int | None
    b_p: int | None
    trials: int = 0
    seed: int | None = None
    redraws: int = 0
    stage_s: dict = field(default_factory=dict)


def se_from_sinr(sinr, tau_p: int, tau_c: int) -> np.ndarray:
    """Net spectral efficiency: pilot-overhead prefactor times log2(1+SINR)."""
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise ValueError("SINR must be nonnegative")
    if not (1 <= tau_p <= tau_c):
        raise ValueError("need 1 <= tau_p <= tau_c")
    return (1.0 - tau_p / tau_c) * np.log2(1.0 + sinr)


def mc_hardening_sinr(
    cfg: SystemConfig,
    kind: str,
    b_h: int | None,
    b_p: int | None,
    trials: int,
    seed: int,
    csi_mode: str = "quantized",
    *,
    moment_trials: int = 500,
) -> SeReport:
    """Monte Carlo estimate of the hardening-bound SINR and SE per user.

    csi_mode "quantized" runs the full pipeline: pilot estimation, CSI
    quantization at b_h bits, precoding from the quantized estimate,
    precoder quantization at b_p bits with population moments, and the
    per-realization transmit rescale.  csi_mode "perfect" hands the true
    channel to the precoder and skips both quantizers (b_h, b_p ignored).

    The precoder quantizer needs the population moments E|P[m, i]|^2
    (precoding.precoder_entry_var); moment_trials is read only for ZF/WF
    with unequal gamma, where they are sampled.  Quantized CSI with every
    gamma 0, or ZF/WF with any gamma 0 (zero pilot power), raises
    ValueError before any draw: the Gram would be singular in every trial.

    The arithmetic runs on slot statistics in TRIAL_BLOCK-aligned blocks
    (module docstring).  Realizations whose Gram matrix is numerically
    rank deficient are redrawn from a fresh per-trial substream, as a
    block of their own after their block; the count is reported.  Every
    trial's gains are computed on their own and reduced in canonical
    trial order, so neither the block size nor the memo state moves a
    bit of the result.
    """
    if csi_mode not in CSI_MODES:
        raise ValueError(f"csi_mode must be one of {CSI_MODES}")
    if kind not in PRECODER_KINDS:
        raise ValueError(f"unknown precoder kind {kind!r}, expected one of {PRECODER_KINDS}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    clock, stats_clock = time.perf_counter(), sysmodel._stats_seconds
    perfect = csi_mode == "perfect"
    sqrt_beta = np.sqrt(cfg.beta)
    if perfect:
        # the true channel, Z_0 D_beta^(1/2), and no precoder quantizer (alpha = 1)
        scales, eta_p, prec_noise_std = np.outer([1.0, 0.0, 0.0], sqrt_beta), 0.0, np.zeros(cfg.K)
    else:
        if b_h is None or b_p is None:
            raise ValueError("quantized mode needs b_h and b_p")
        eta_h, eta_p = eta_of_bits(b_h), eta_of_bits(b_p)
        scales = _slot_scales(cfg, eta_h)
        entry_var = precoder_entry_var(cfg, kind, eta_h, moment_trials, seed)
        prec_noise_std = np.sqrt(aqnm_noise_var(eta_p, entry_var))
    moments_s = time.perf_counter() - clock - (sysmodel._stats_seconds - stats_clock)

    gains = np.empty((trials, cfg.K, cfg.K), dtype=complex)
    attempt = np.zeros(trials, int)
    # first attempts come in TRIAL_BLOCK-aligned blocks, the keys of the
    # stats memo; each block's redraws follow as a block of their own
    blocks = [np.arange(lo, min(lo + TRIAL_BLOCK, trials)) for lo in range(0, trials, TRIAL_BLOCK)]
    while blocks:
        ids = blocks.pop(0)
        S, nu = _trial_stats(cfg, seed, ids, attempt[ids])
        G, V0 = _slot_gram(S, scales)
        bad = rank_deficient_mask(G) if kind != "mrt" else np.zeros(len(ids), bool)
        if np.any(bad):
            S, nu, G, V0 = S[~bad], nu[~bad], G[~bad], V0[~bad]
        W, s, _ = _kxk_precoder(G, kind, cfg)
        s *= 1.0 - eta_p
        # T Sigma_p, and Re tr(W^H T Sigma_p) = sum_ai conj(W_ai) (T Sigma_p)_ai
        T = sum(scales[j][:, None] * S[:, j, :, 3] for j in range(3)) * prec_noise_std
        cross = (np.diagonal(T, axis1=-2, axis2=-1) if W is None else np.sum(W.conj() * T, axis=-1)).real
        norm_sq = (1.0 - eta_p) ** 2 * cfg.total_power + 2.0 * s * np.sum(cross, axis=-1)
        norm_sq += np.sum(nu * prec_noise_std**2, axis=-1)
        gain = sqrt_beta[:, None] * (V0 if W is None else V0 @ W) * s[:, None, None]
        gain += sqrt_beta[:, None] * S[:, 0, :, 3] * prec_noise_std
        gains[ids[~bad]] = gain * np.sqrt(cfg.total_power / norm_sq)[:, None, None]

        redo = ids[bad]
        attempt[redo] += 1
        if np.any(attempt[redo] > _MAX_REDRAWS):
            t = redo[np.argmax(attempt[redo])]
            raise RuntimeError(f"trial {t} stayed rank deficient after {_MAX_REDRAWS} redraws")
        if redo.size:
            blocks.append(redo)
    redraws = int(np.sum(attempt))

    # hardening bound from the per-trial gain matrices, canonical trial order
    mean_gain = np.mean(gains, axis=0)
    mean_power = np.mean(np.abs(gains) ** 2, axis=0)
    desired = np.abs(np.diagonal(mean_gain)) ** 2
    denom = np.sum(mean_power, axis=1) - desired + cfg.noise_var
    sinr = desired / denom
    se = se_from_sinr(sinr, cfg.tau_p, cfg.tau_c)
    stats_s = sysmodel._stats_seconds - stats_clock
    return SeReport(
        sinr=sinr,
        se=se,
        sum_se=float(np.sum(se)),
        method="monte_carlo",
        csi_mode=csi_mode,
        kind=kind,
        b_h=None if perfect else b_h,
        b_p=None if perfect else b_p,
        trials=trials,
        seed=seed,
        redraws=redraws,
        stage_s={
            "stats_s": stats_s,
            "moments_s": moments_s,
            "kxk_s": time.perf_counter() - clock - stats_s - moments_s,
        },
    )


def _eta(bits):
    """eta_of_bits of one bit width, or an (S, 1) column of them for a sequence.

    None stands for an unquantized transfer (eta = 0).
    """
    if bits is None or isinstance(bits, (int, np.integer)):
        return 0.0 if bits is None else eta_of_bits(bits)
    return np.array([0.0 if b is None else eta_of_bits(b) for b in bits]).reshape(-1, 1)


def closed_form_mrt_terms(cfg: SystemConfig, b_h, b_p) -> dict[str, np.ndarray]:
    r"""Closed-form pieces of the MRT hardening SINR, per user.

    b_h and b_p are bit widths, None turning that quantizer off.  Either
    may also be a sequence of bit widths, one per split (both of length S
    when both are sequences); every term then has shape (S, K), row s
    holding split s.  All splits are evaluated in one numpy pass with the
    arithmetic of a single split, so each row is bit-identical to
    evaluating its split alone.

    With gamma_i the estimate quality, eta_h/eta_p the two distortion
    factors, zeta_bar the deterministic MRT normalization and
    alpha_bar = 1/sqrt(1 - eta_p):

        signal_k    = alpha_bar^2 zeta_bar^2 (1-eta_p)^2 (1-eta_h)^2 M^2 gamma_k^2
        variation_k = alpha_bar^2 zeta_bar^2 (1-eta_p)^2 (1-eta_h) M beta_k sum_i gamma_i
        prec_noise_k = alpha_bar^2 eta_p (1-eta_p) beta_k P_t
        noise_k     = sigma^2

    and Gamma_k = signal / (variation + prec_noise + noise).  The coherent
    part of the user's own beam is excluded from variation_k.  Keeping it
    instead, as the raw second-moment-minus-squared-mean bracket of the
    aligned gain written out per matrix trace, would add
    M gamma_k^2 - M^2 gamma_k^2 to variation_k.  That term is negative for
    M > 1 and drives the whole denominator negative at scale (M = 128,
    K = 8, +10 dB, B_H = B_P = 5), so that bookkeeping was rejected.

    Split symmetry.  With alpha_bar^2 = 1/(1-eta_p) and zeta_bar^2 =
    P_t / (M (1-eta_h) sum_i gamma_i), the AQNM gains and the power
    restore make

        variation_k + prec_noise_k = (1-eta_p) P_t beta_k + eta_p P_t beta_k
                                   = P_t beta_k

    for every (B_H, B_P), so

        Gamma_k = (1-eta_h)(1-eta_p) P_t M gamma_k^2
                  / (sum_i gamma_i (P_t beta_k + sigma^2)).

    The split enters only through the product (1-eta_h)(1-eta_p).  Every
    shared-budget profile B_H -> b_bar - B_H is its own mirror image, and
    the balanced split is optimal at every SNR, M, K, beta and pilot power
    (tests/test_se.py::test_distortion_symmetry pins the mirror).  The
    Monte Carlo ZF/WF profiles are mirror-symmetric as well: imperfect-CSI
    ZF with the same quantizers has SINR
    c (rho g (M-K)/K) / (rho (beta - c g) + 1) with c = (1-eta_h)(1-eta_p)
    and g = gamma to first order.  A convention that only rescales P_t,
    the pilot power, M, K or the SE (per-antenna SNR, decoupled pilot
    power, per-user SE) therefore cannot move the optimum either.

    The source abstract says the relative importance of CSI and precoder
    bits varies with SNR; this model cannot show that, and the abstract
    does not name the modelling element that breaks the symmetry.
    Closed-form checks at b_bar = 10 (M = 128, K = 8, tau_p = 8, SNR -15,
    0 and +10 dB) rule out three candidates:

    - Quantizing the despread pilots before estimation.  The LMMSE
      coefficient on the quantized pilots is again c, and
      c[(1-eta) Y + N] has the same law as today's (1-eta) c Y + c N
      (noise variance c^2 eta (1-eta)(q tau_p beta + 1) = eta (1-eta)
      gamma), so nothing changes.
    - No power restore after precoder quantization.  The SINR becomes
      proportional to (1-eta_h)(1-eta_p)^2 / ((1-eta_p) P_t beta_k +
      sigma^2), which favours precoder bits at low SNR (the opposite
      direction); the optimum stays at B_H = 5.
    - CSI quantization noise referenced to beta instead of gamma.  The
      CSI factor becomes (1-eta_h) / (1 + eta_h beta / ((1-eta_h) gamma)),
      about 1 - eta_h (1 + beta/gamma); at -15 dB (gamma = 0.2) that
      weights CSI distortion about 6 times precoder distortion, and the
      optimum moves only to B_H = 6.

    Under a first-order weighting w eta_h + eta_p, B_H = 8 is the best
    split at b_bar = 10 only for 666 < w < 7893, i.e. CSI distortion
    would need about eta(2)/eta(8) = 2830 times the weight of precoder
    distortion.
    """
    eta_h = _eta(b_h)
    eta_p = _eta(b_p)
    gamma, gtil, zeta_bar_sq = _mrt_normalization(cfg, eta_h)
    alpha_bar_sq = 1.0 / (1.0 - eta_p)

    common = alpha_bar_sq * zeta_bar_sq * (1.0 - eta_p) ** 2
    signal = common * (1.0 - eta_h) ** 2 * cfg.M**2 * gamma**2
    variation = common * cfg.M * cfg.beta * np.sum(gtil, axis=-1, keepdims=True)
    prec_noise = alpha_bar_sq * eta_p * (1.0 - eta_p) * cfg.beta * cfg.total_power
    return {
        "signal": signal,
        "variation": variation,
        "precoder_noise": prec_noise,
        "noise": np.full(signal.shape, cfg.noise_var),
    }


def _closed_form_mrt_profile(cfg: SystemConfig, b_h, b_p):
    """SINR, SE and sum SE from closed_form_mrt_terms, with its broadcasting.

    Returns (sinr, se, sum_se): (K,), (K,) and a 0-d array for one
    split; (S, K), (S, K) and (S,) when b_h or b_p is a sequence of S
    splits.
    """
    terms = closed_form_mrt_terms(cfg, b_h, b_p)
    sinr = terms["signal"] / (terms["variation"] + terms["precoder_noise"] + terms["noise"])
    se = se_from_sinr(sinr, cfg.tau_p, cfg.tau_c)
    return sinr, se, np.sum(se, axis=-1)


def closed_form_mrt_sinr(cfg: SystemConfig, b_h: int | None, b_p: int | None) -> SeReport:
    """Closed-form hardening SINR and SE for MRT with both quantizers.

    Passing b_h=None or b_p=None turns the corresponding quantizer off
    (eta = 0), so (None, None) gives the unquantized matched filter with
    imperfect CSI.
    """
    sinr, se, sum_se = _closed_form_mrt_profile(cfg, b_h, b_p)
    return SeReport(
        sinr=sinr,
        se=se,
        sum_se=float(sum_se),
        method="closed_form_mrt",
        csi_mode="quantized",
        kind="mrt",
        b_h=b_h,
        b_p=b_p,
        trials=0,
    )


def mc_mrt_term_estimates(
    cfg: SystemConfig,
    b_h: int,
    b_p: int,
    trials: int,
    seed: int,
) -> dict[str, np.ndarray]:
    """Monte Carlo estimates of the closed-form MRT terms, per user.

    Estimates the same expectations the closed form evaluates: the
    deterministic proxies zeta_bar and alpha_bar multiply sample moments
    of the channel/estimate inner products, so agreement isolates the
    trace algebra from the concentration of the per-realization power
    normalization (which the sum-SE comparison covers instead).  The
    aligned gain's fluctuation power uses the centered sample variance;
    differencing raw moments would square the Monte Carlo error.
    """
    eta_h = eta_of_bits(b_h)
    eta_p = eta_of_bits(b_p)
    _, gtil, zeta_bar_sq = _mrt_normalization(cfg, eta_h)
    alpha_bar_sq = 1.0 / (1.0 - eta_p)
    prec_noise_std = np.sqrt(aqnm_noise_var(eta_p, zeta_bar_sq * gtil))
    scales = _slot_scales(cfg, eta_h)
    sqrt_beta = np.sqrt(cfg.beta)[:, None]

    inner = np.empty((trials, cfg.K, cfg.K), dtype=complex)
    qnoise = np.empty((trials, cfg.K))
    for start in range(0, trials, TRIAL_BLOCK):
        ids = np.arange(start, min(start + TRIAL_BLOCK, trials))
        S, _ = _trial_stats(cfg, seed, ids)
        # matched-filter direction without per-realization normalization,
        # H^T Hhat_q^*, and the precoder noise gains H^T Z_3 Sigma_p
        inner[ids] = sqrt_beta * _slot_gram(S, scales)[1]
        qnoise[ids] = np.sum(np.abs(sqrt_beta * S[:, 0, :, 3] * prec_noise_std) ** 2, axis=-1)

    scale = alpha_bar_sq * zeta_bar_sq * (1.0 - eta_p) ** 2
    mean_inner = np.mean(inner, axis=0)
    signal = scale * np.abs(np.diagonal(mean_inner)) ** 2
    cross = np.mean(np.abs(inner) ** 2, axis=0)
    diag_var = np.mean(np.abs(inner - mean_inner) ** 2, axis=0)
    variation = scale * (
        np.sum(cross, axis=1) - np.diagonal(cross) + np.diagonal(diag_var)
    )
    prec_noise = alpha_bar_sq * np.mean(qnoise, axis=0)
    return {
        "signal": signal,
        "variation": variation,
        "precoder_noise": prec_noise,
        "noise": np.full(cfg.K, cfg.noise_var),
    }
