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

For maximum ratio transmission the expectations are also available in
closed form; the Monte Carlo and closed-form paths agree within the
concentration error of the power normalization (a few percent at M = 64).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _block_estimate, _csi_noise_std, _quantize_csi, quantized_estimate
from .precoding import (
    PRECODER_KINDS,
    _mrt_normalization,
    _precoder,
    precoder_entry_var,
    rank_deficient_mask,
    transmit_rescale,
)
from .quantization import aqnm_noise_var, eta_of_bits
from .sysmodel import TRIAL_BLOCK, SystemConfig, trial_draws

CSI_MODES = ("quantized", "perfect")

_MAX_REDRAWS = 8

# Trials whose arithmetic mc_hardening_sinr runs together inside one draw
# block (its default batch).  A chunk temporary is then 0.25 MB at M=128,
# K=8, so a chunk's few live temporaries stay in cache and below glibc's
# heap trim threshold, and the next chunk and cell reuse the same pages;
# whole-block temporaries (1.6 MB at 100 trials) get trimmed after every
# cell and faulted back in by the next.  32 trials measured as fast on 100-trial cells but slower
# on fig2's 50-trial cells, whose smaller blocks leave glibc a lower trim
# threshold.
_CHUNK = 16


@dataclass(frozen=True)
class SeReport:
    """Per-user SINR/SE figures for one evaluated operating point.

    method names the evaluator ("monte_carlo" or "closed_form_mrt").
    trials is 0 for the closed form (nothing is sampled); seed and
    redraws describe the Monte Carlo run and stay None and 0 otherwise.
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
    batch: int = _CHUNK,
) -> SeReport:
    """Monte Carlo estimate of the hardening-bound SINR and SE per user.

    csi_mode "quantized" runs the full pipeline: pilot estimation, CSI
    quantization at b_h bits, precoding from the quantized estimate,
    precoder quantization at b_p bits with population moments, and the
    per-realization transmit rescale.  csi_mode "perfect" hands the true
    channel to the precoder and skips both quantizers (b_h, b_p ignored).

    The precoder quantizer needs the population moments E|P[m, i]|^2
    (precoding.precoder_entry_var); moment_trials is read only for ZF/WF
    with unequal gamma, where they are sampled.

    Realizations whose Gram matrix is numerically rank deficient are
    redrawn from a fresh per-trial substream; the count is reported.

    Unit draws and their channel estimates are fetched in TRIAL_BLOCK-
    aligned blocks, the blocks the draw memo holds.  batch (>= 1) is the
    number of trials whose arithmetic runs together within a block: CSI
    quantization, the rank check, the precoder, its quantization, the
    transmit rescale and the gains.  Every trial's gains are computed on
    their own and reduced in canonical trial order, so batch changes only
    speed and memory, never a bit of the result.
    """
    if csi_mode not in CSI_MODES:
        raise ValueError(f"csi_mode must be one of {CSI_MODES}")
    if kind not in PRECODER_KINDS:
        raise ValueError(f"unknown precoder kind {kind!r}, expected one of {PRECODER_KINDS}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    perfect = csi_mode == "perfect"
    if not perfect:
        if b_h is None or b_p is None:
            raise ValueError("quantized mode needs b_h and b_p")
        eta_h = eta_of_bits(b_h)
        eta_p = eta_of_bits(b_p)
        csi_noise_std = _csi_noise_std(cfg, eta_h)
        entry_var = precoder_entry_var(cfg, kind, eta_h, moment_trials, seed)
        prec_noise_std = np.sqrt(aqnm_noise_var(eta_p, entry_var))

    gains = np.empty((trials, cfg.K, cfg.K), dtype=complex)
    attempt = np.zeros(trials, int)
    # first attempts come in TRIAL_BLOCK-aligned draw blocks, the keys of the
    # draw memo; each block's redraws follow as a block of their own
    blocks = [np.arange(lo, min(lo + TRIAL_BLOCK, trials)) for lo in range(0, trials, TRIAL_BLOCK)]
    while blocks:
        ids = blocks.pop(0)
        z = trial_draws(cfg, seed, ids, attempt[ids])
        # H, Hhat and H^T come from the draw memo; a cell adds only its quantization
        _, Hhat, H_up = _block_estimate(cfg, z)
        bad = np.zeros(len(ids), bool)
        for lo in range(0, len(ids), batch):
            c = slice(lo, lo + batch)
            rows, z_p, H_c = ids[c], z[c, 3], H_up[c]
            H_d = H_c if perfect else _quantize_csi(z[c], Hhat[c], eta_h, csi_noise_std).swapaxes(-2, -1)
            if kind != "mrt":
                bad[c] = rank_deficient_mask(H_d)
                if np.any(bad[c]):
                    ok = ~bad[c]
                    rows, z_p, H_d, H_c = rows[ok], z_p[ok], H_d[ok], H_c[ok]
            if not rows.size:
                continue
            # the mask above is the rank check; build_precoder would repeat it
            P = _precoder(H_d, kind, cfg)
            if not perfect:
                P *= 1.0 - eta_p
                P += z_p * prec_noise_std
            gain = H_c @ P
            if not perfect:
                gain *= transmit_rescale(P, cfg.total_power)[:, None, None]
            gains[rows] = gain

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

    inner = np.empty((trials, cfg.K, cfg.K), dtype=complex)
    qnoise = np.empty((trials, cfg.K))
    for start in range(0, trials, TRIAL_BLOCK):
        ids = np.arange(start, min(start + TRIAL_BLOCK, trials))
        z = trial_draws(cfg, seed, ids)
        H, Hhat_q = quantized_estimate(cfg, z, eta_h)
        H_up = H.swapaxes(-2, -1)
        # matched-filter direction without per-realization normalization
        inner[ids] = H_up @ Hhat_q.conj()
        qnoise[ids] = np.sum(np.abs(H_up @ (z[:, 3] * prec_noise_std)) ** 2, axis=-1)

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
