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
sysmodel._trial_stats.  With Hhat_q = sum_j Z_j E_j, G its Gram,
V_0 = Z_0^T Hhat_q^*, the precoder P = s Hhat_q^* W
(precoding._kxk_precoder), its quantized version
P_q = (1 - eta_p) P + Z_3 Sigma_p and the transmit rescale alpha:

    H^T P_q = (1 - eta_p) s D_beta^(1/2) V_0 W + D_beta^(1/2) R_0 Sigma_p
    ||P_q||^2 = (1 - eta_p)^2 P_t + 2 (1 - eta_p) s Re tr(W^H T Sigma_p)
                + sum_i sigma_p,i^2 ||Z_3[:, i]||^2,   T = sum_j E_j R_j
    alpha^2 = P_t / ||P_q||^2.

The CSI quantizer enters E only through u = 1 - eta_h and
v = sqrt(eta_h (1 - eta_h)): E_0 = u a, E_1 = u b and E_2 = v gamma^(1/2),
with a and b the MMSE scales.  So

    G = u^2 G_uu + u v G_uv + v^2 G_vv,   V_0 = u A_0 + v B_0,   T = u T_u + v T_v

from seven pieces that depend on the statistics, beta, the pilot power
and tau_p but not on B_H (channel._slot_pieces).  A block's pieces are
memoized beside its statistics, so each further B_H of a config costs
three weighted sums (channel._estimate_products).  Perfect CSI is
a = beta^(1/2), b = 0 and v = 0 with no precoder quantizer, so the gains
are s G W.  Nothing M x K is formed after the statistics, and the
statistics serve every cell of a run.

Of these, G, V_0, T and the rank mask depend on the statistics and B_H
alone, and W and s on B_H and the precoder kind, but none on B_P.  So
_mc_taps evaluates every (kind, B_P) tap at one B_H in one block loop,
forming them once, and Re sum_a conj(W_ai) T_ai once per kind, and runs
only the precoder-quantizer tail (eta_p, Sigma_p, ||P_q||^2, alpha and
the gains) per tap; mc_hardening_sinr is its one-tap case.  The
hardening bound reads only E g_kk and sum_i E|g_ki|^2, so a tap keeps
per trial its diagonal gains and its row powers sum_i |g_ki|^2, alpha
applied, as two (trials, K) arrays and no stack of K x K gains.  Both
are averaged over the trials in canonical order, so a tap is
bit-identical in any group and at any block size.

For maximum ratio transmission the expectations are also available in
closed form, with the deterministic normalization zeta_bar in place of
each realization's ||P||_F^2 = P_t.  The Monte Carlo SINR sits above it
by a gap that does not shrink with M: the per-realization normalization
partly cancels each user's own beam-gain fluctuation, which takes about
c gamma P_t / K^2 off the variation term (c below), so the gap is
O(1/K^2).  With equal beta, B_H = B_P = 5 and 1000 trials, Monte Carlo
over closed-form SINR is about 1.001 at -15 dB and 1.017 at +10 dB for
K = 8, at M = 64 and M = 512 alike; at M = 512 and +10 dB it is about
1.19 for K = 2 and 1.004 for K = 16.

The closed form is Gamma_k = c A_k (closed_form_mrt_terms): the split
enters only through c = (1-eta_h)(1-eta_p), and A_k depends on the config
alone.  Everything about a closed-form split search but A depends on the
budget b_bar alone, so _split_table keeps it per b_bar (bounded and
read-only): the splits, the c column of the first ceil((b_bar-1)/2)
splits, and the ranking key min(B_H, B_P).  c is _split_factor's, from
eta_of_bits of each width (_eta), so every eta is eta_of_bits' own and a
search computes it only when its budget's table is built.  c commutes in IEEE
arithmetic, so every split has the same c, and so the same row, as its
mirror B_H -> b_bar - B_H, and a search computes only the distinct half
of the rows (_closed_form_mrt_profile of the table's c): A once per
config (_mrt_gains, from the config's checked, read-only arrays without
checking them again), one product c A per distinct split, and the SE
without the SINR check, since c A is nonnegative.  Each row is
elementwise on the same A, so it is bit-identical to closed_form_mrt_sinr
of that split.  A config given one beta and one pilot power for every
user (SystemConfig._equal_users), as the presets and the CLI defaults
are, has one gamma and one A: _mrt_gains forms them as Python floats in
numpy's order of operations, with sum_i gamma_i the sum of the list of K
equal floats, and c A and its np.log1p are formed on the (h, 1) column
alone and repeated for the K users, so the sum over K is still numpy's
reduction over each (h, K) row.  Every value is then the bits of the
per-user arrays, which stay the path, and the reference, for unequal
users.  The SE rises with c, and c, with eta's digits kept as
L(B_H) = log1p(-eta_h) + log1p(-eta_p), rises strictly with
min(B_H, B_P) up to the split ceiling (allocation._B_BAR_CEILING).  So
ranking on min(B_H, B_P) gives the SE's answer, and keeps it where
1 - eta rounds to 1 (from 28 bits on) and the SE ties the splits.  The
table holds the winner of that rank too, the index of its first
maximum (B_H = b_bar // 2), so allocation._select reads it instead of
scanning the ranks.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import sysmodel
from .allocation import split_range
from .channel import _estimate_products, _gamma, _slot_pieces
from .precoding import PRECODER_KINDS, RankDeficientError, _gamma_total, _kxk_precoder, _mrt_gamma, _mrt_normalization, precoder_entry_var, rank_deficient_mask
from .quantization import aqnm_noise_var, eta_of_bits
from .sysmodel import DOMAIN_TRIAL, TRIAL_BLOCK, SystemConfig, _trial_stats

CSI_MODES = ("quantized", "perfect")


@dataclass(frozen=True)
class SeReport:
    """Per-user SINR/SE figures for one evaluated operating point.

    method names the evaluator ("monte_carlo" or "closed_form_mrt").
    trials is 0 for the closed form (nothing is sampled); seed describes
    the Monte Carlo run and stays None otherwise.
    stage_s holds the Monte Carlo run's seconds per stage: "import_s"
    loading numpy.random (sysmodel._import_random; 0 once a process has
    it), "stats_s" drawing the slot statistics from each trial's Bartlett
    factor (0 when the memo held them), "moments_s" the precoder moment
    prior and "kxk_s" the cell's own K x K arithmetic; it is empty for
    the closed form.
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
    stage_s: dict = field(default_factory=dict)


def se_from_sinr(sinr, tau_p: int, tau_c: int) -> np.ndarray:
    """Net spectral efficiency: pilot-overhead prefactor times log2(1+SINR)."""
    sinr = np.asarray(sinr, dtype=float)
    if (sinr < 0).any():
        raise ValueError("SINR must be nonnegative")
    if not (1 <= tau_p <= tau_c):
        raise ValueError("need 1 <= tau_p <= tau_c")
    return _se(sinr, tau_p, tau_c)


def _se(sinr: np.ndarray, tau_p: int, tau_c: int) -> np.ndarray:
    """se_from_sinr without its checks: for a nonnegative SINR array and a SystemConfig's tau_p, tau_c.

    log1p keeps the SINR's low digits that 1 + SINR would round away, so
    splits whose SINRs differ below double rounding of 1 + SINR still
    get different SEs.
    """
    return np.log1p(sinr) * ((1.0 - tau_p / tau_c) / math.log(2.0))


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
    ZF/WF raise RankDeficientError when the Gram of any one trial is
    numerically singular, as build_precoder does: that precoder does not
    exist, and neither does the expectation over trials.

    The arithmetic runs on slot statistics in TRIAL_BLOCK-aligned blocks
    (module docstring).  Every trial's gains are computed on their own
    and reduced in canonical trial order, so neither the block size nor
    the memo state moves a bit of the result.  This is the one-tap case
    of _mc_taps, which evaluates every (kind, b_p) at one b_h
    bit-identically in one pass.
    """
    (report,) = _mc_taps(cfg, b_h, [(kind, b_p)], trials, seed, csi_mode, moment_trials)
    if isinstance(report, Exception):
        raise report
    return report


def _mc_taps(cfg: SystemConfig, b_h, taps, trials: int, seed: int, csi_mode="quantized", moment_trials=500) -> list:
    """mc_hardening_sinr for every (kind, b_p) in taps at one b_h, in one pass over the trials.

    Returns, per tap, its SeReport or the exception that stopped that tap
    alone: an unknown kind, a missing b_p, a moment prior that refuses
    (zero pilot power), a zero-norm precoder, or, for ZF and WF alike, a
    singular Gram in any trial.  A bad csi_mode, trial count or b_h
    raises.

    Each block's statistics, G, V_0, T = sum_j E_j R_j (from the
    memoized split-free pieces) and rank check are formed once; W, s, the
    moment prior and the kind's share of the cross term once per kind;
    only the precoder-quantizer tail (eta_p, Sigma_p, the norm, alpha,
    and the diagonal gains and row powers) runs per tap, with the
    operations a lone tap runs, so every report is bit-identical to the
    tap's own mc_hardening_sinr.  ZF/WF taps share the rank check, which
    runs while any of them is left; MRT taps never need it.  Each tap's
    stage_s holds its own moment prior and tail; the numpy.random import,
    the statistics and the shared arithmetic are charged to the first
    tap.
    """
    if csi_mode not in CSI_MODES:
        raise ValueError(f"csi_mode must be one of {CSI_MODES}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    perfect = csi_mode == "perfect"
    if not perfect and b_h is None:
        raise ValueError("quantized mode needs b_h and b_p")
    # numpy.random loads before the clocks start, so no stage is charged for it
    import_s = sysmodel._import_random()
    clock, stats_clock = time.perf_counter(), sysmodel._stats_seconds
    sqrt_beta = np.sqrt(cfg.beta)
    # the true channel, Z_0 D_beta^(1/2), is the estimate at eta_h = 0 with a = sqrt(beta), b = 0
    eta_h = 0.0 if perfect else eta_of_bits(b_h)
    out: list = [None] * len(taps)
    moments_s, kxk_s = [0.0] * len(taps), [0.0] * len(taps)
    # (eta_p, Sigma_p) of every tap still running, and the moment prior per kind
    quantizer, priors = {}, {}
    for n, (kind, b_p) in enumerate(taps):
        t0, s0 = time.perf_counter(), sysmodel._stats_seconds
        try:
            if kind not in PRECODER_KINDS:
                raise ValueError(f"unknown precoder kind {kind!r}, expected one of {PRECODER_KINDS}")
            if not perfect and b_p is None:
                raise ValueError("quantized mode needs b_h and b_p")
            if not (perfect or kind in priors):
                priors[kind] = precoder_entry_var(cfg, kind, eta_of_bits(b_h), moment_trials, seed)
            # perfect CSI has no precoder quantizer (alpha = 1)
            eta_p = 0.0 if perfect else eta_of_bits(b_p)
            quantizer[n] = (eta_p, np.zeros(cfg.K) if perfect else np.sqrt(aqnm_noise_var(eta_p, priors[kind])))
        except (ValueError, np.linalg.LinAlgError) as exc:
            out[n] = exc
        moments_s[n] = time.perf_counter() - t0 - (sysmodel._stats_seconds - s0)

    def fail(kinds, exc):
        for n in [n for n in quantizer if taps[n][0] in kinds]:
            out[n] = exc
            del quantizer[n]

    # per tap and trial: the diagonal gains g_kk and the row powers sum_i |g_ki|^2
    diag = {n: np.empty((trials, cfg.K), dtype=complex) for n in quantizer}
    power = {n: np.empty((trials, cfg.K)) for n in quantizer}
    # TRIAL_BLOCK-aligned blocks, the keys of the statistics and pieces memos
    for lo in range(0, trials, TRIAL_BLOCK):
        if not quantizer:
            break
        ids = tuple(range(lo, min(lo + TRIAL_BLOCK, trials)))
        S, nu = _trial_stats(cfg, seed, ids)
        G, V0, T = _estimate_products(_slot_pieces(cfg, S, perfect, (seed, ids, DOMAIN_TRIAL)), eta_h)
        R0 = sqrt_beta[:, None] * S[:, 0, :, 3]
        if any(taps[n][0] != "mrt" for n in quantizer) and np.any(rank_deficient_mask(G)):
            fail({"zf", "wf"}, RankDeficientError("estimated channel Gram matrix is numerically singular"))
        for kind in dict.fromkeys(taps[n][0] for n in quantizer):
            try:
                W, s_k, _ = _kxk_precoder(G, kind, cfg)
            except np.linalg.LinAlgError as exc:  # RankDeficientError: a zero-norm precoder
                fail({kind}, exc)
                continue
            # per kind: D_beta^(1/2) V_0 W, and Re sum_a conj(W_ai) T_ai, so that each
            # tap's Re tr(W^H T Sigma_p) is one sum over i
            VW = sqrt_beta[:, None] * (V0 if W is None else V0 @ W)
            WT = (np.diagonal(T, axis1=-2, axis2=-1) if W is None else np.sum(W.conj() * T, axis=-2)).real
            # the kind's taps reuse two gain-sized arrays
            gain, noise = np.empty_like(VW), np.empty_like(VW)
            for n in [n for n in quantizer if taps[n][0] == kind]:
                t0 = time.perf_counter()
                eta_p, std = quantizer[n]
                s = s_k * (1.0 - eta_p)
                norm_sq = (1.0 - eta_p) ** 2 * cfg.total_power + 2.0 * s * np.sum(WT * std, axis=-1)
                norm_sq += np.sum(nu * std**2, axis=-1)
                alpha_sq = cfg.total_power / norm_sq
                np.multiply(VW, s[:, None, None], out=gain)
                gain += np.multiply(R0, std, out=noise)
                diag[n][lo : lo + len(ids)] = np.diagonal(gain, axis1=-2, axis2=-1) * np.sqrt(alpha_sq)[:, None]
                # sum_i |g_ki|^2 as one sum of squares over the real view of row k
                sq = gain.view(float)
                sq *= sq
                power[n][lo : lo + len(ids)] = np.sum(sq, axis=-1) * alpha_sq[:, None]
                kxk_s[n] += time.perf_counter() - t0

    stats_s = sysmodel._stats_seconds - stats_clock
    for n in quantizer:
        t0 = time.perf_counter()
        kind, b_p = taps[n]
        # hardening bound from the per-trial diagonal gains and row powers, canonical trial order
        desired = np.abs(np.mean(diag[n], axis=0)) ** 2
        sinr = desired / (np.mean(power[n], axis=0) - desired + cfg.noise_var)
        se = se_from_sinr(sinr, cfg.tau_p, cfg.tau_c)
        kxk_s[n] += time.perf_counter() - t0
        out[n] = SeReport(
            sinr=sinr, se=se, sum_se=float(np.sum(se)), method="monte_carlo", csi_mode=csi_mode, kind=kind,
            b_h=None if perfect else b_h, b_p=None if perfect else b_p, trials=trials, seed=seed,
            stage_s={"import_s": 0.0, "stats_s": 0.0, "moments_s": moments_s[n], "kxk_s": kxk_s[n]},
        )
    if 0 in quantizer:
        # the import, the statistics and the shared arithmetic are the first tap's
        shared = time.perf_counter() - clock - stats_s - sum(moments_s) - sum(kxk_s)
        out[0].stage_s.update(import_s=import_s, stats_s=stats_s, kxk_s=kxk_s[0] + shared)
    return out


def _eta(bits):
    """eta_of_bits of one bit width, or an (S, 1) column of them for a sequence.

    None stands for an unquantized transfer (eta = 0); every other width
    goes to eta_of_bits, so the values and the errors (a float, a bool or
    a width below 1) are eta_of_bits' own.  Anything without dimensions,
    a string among them, is one width.
    """
    one = np.ndim(bits) == 0
    etas = [0.0 if b is None else eta_of_bits(b) for b in ((bits,) if one else bits)]
    return etas[0] if one else np.array(etas).reshape(-1, 1)


def _split_factor(b_h, b_p):
    """c = (1-eta_h)(1-eta_p), with _eta's shapes: a float for one split, an (S, 1) column for S.

    A single width pairs with every split of a sequence, and so does a
    sequence of one width, as numpy broadcasting pairs them; sequences of
    other unequal lengths raise ValueError.
    """
    return (1.0 - _eta(b_h)) * (1.0 - _eta(b_p))


class _SplitTable(NamedTuple):
    """What a closed-form split search over one budget needs besides the config (_split_table).

    splits  split_range(b_bar), the B_H of every split in scan order
    b_ps    the matching B_P, b_bar - B_H
    c       read-only (h, 1) column of c = (1-eta_h)(1-eta_p) for the first
            h = ceil((b_bar-1)/2) splits; split b_bar - B_H has the c of B_H
    rank    min(B_H, B_P) of every split in scan order, the key
            allocation._select ranks closed-form rows on
    winner  the index of rank's first maximum, the split B_H = b_bar // 2,
            which _select takes for a complete profile without scanning rank
    """

    splits: range
    b_ps: range
    c: np.ndarray
    rank: tuple
    winner: int


# _split_table keeps the tables of this many budgets, the most recently used;
# a table holds at most 1076 rank and 538 c entries (allocation._B_BAR_CEILING)
_SPLIT_TABLES = 128


@functools.lru_cache(maxsize=_SPLIT_TABLES)
def _split_table(b_bar: int) -> _SplitTable:
    """The _SplitTable of a budget, memoized: built once per b_bar and shared, read-only, by every search.

    split_range refuses a b_bar below 2 or above the split ceiling, so no
    table is built for either.  c comes from _split_factor, so each entry
    is bit-identical to that split's own c.  The rank min(B_H, B_P) is
    the order of c without rounding 1 - eta: from 28 bits on, 1 - eta(b)
    rounds to 1.0 and c ties on every split whose widths are both that
    wide, while L(B_H) = log1p(-eta_h) + log1p(-eta_p) keeps eta's digits
    and rises strictly with min(B_H, B_P) for every budget up to the
    ceiling.
    """
    splits = split_range(b_bar)
    b_ps = range(b_bar - 1, 0, -1)
    half = b_bar // 2
    c = _split_factor(splits[:half], b_ps[:half])
    c.setflags(write=False)
    return _SplitTable(splits, b_ps, c, tuple(map(min, splits, b_ps)), half - 1)


def closed_form_mrt_terms(cfg: SystemConfig, b_h, b_p) -> dict[str, np.ndarray]:
    r"""Closed-form pieces of the MRT hardening SINR, per user.

    b_h and b_p are bit widths, None turning that quantizer off.  Either
    may also be a sequence of bit widths, one per split (both of length S
    when both are sequences); every term then has shape (S, K), row s
    holding split s.  Every term is an elementwise product of per-split
    factors and per-config user vectors, so each row is bit-identical to
    evaluating its split alone.

    With gamma_i the estimate quality, eta_h/eta_p the two distortion
    factors and c = (1-eta_h)(1-eta_p):

        signal_k     = c P_t M gamma_k^2 / sum_i gamma_i
        variation_k  = (1-eta_p) P_t beta_k
        prec_noise_k = eta_p P_t beta_k
        noise_k      = sigma^2

    and Gamma_k = signal / (variation + prec_noise + noise).  These follow
    from the AQNM gains, the deterministic MRT normalization zeta_bar^2 =
    P_t / (M (1-eta_h) sum_i gamma_i) and the power restore alpha_bar^2 =
    1/(1-eta_p): the beam of user k has coherent gain
    alpha_bar zeta_bar (1-eta_p)(1-eta_h) M gamma_k, the matched-filter
    fluctuation and the interference of the other beams add up to
    alpha_bar^2 zeta_bar^2 (1-eta_p)^2 (1-eta_h) M beta_k sum_i gamma_i, and
    the precoder quantizer's noise to alpha_bar^2 eta_p (1-eta_p) P_t beta_k.
    The coherent part of the user's own beam is excluded from
    variation_k.  Keeping it instead, as the raw
    second-moment-minus-squared-mean bracket of the aligned gain written
    out per matrix trace, would add M gamma_k^2 - M^2 gamma_k^2 to
    variation_k.  That term is negative for M > 1 and drives the whole
    denominator negative at scale (M = 128, K = 8, +10 dB, B_H = B_P = 5),
    so that bookkeeping was rejected.

    Split symmetry.  variation_k + prec_noise_k = P_t beta_k for every
    (B_H, B_P), so

        Gamma_k = c A_k,   A_k = P_t M gamma_k^2 / (sum_i gamma_i (P_t beta_k + sigma^2)),

    which is how _closed_form_mrt_profile evaluates it: A once per config
    (_mrt_gains), times a column of c.  With one beta and pilot power for
    every user, A is one float, and c A and its SE are formed once per
    split and repeated for the K users, with the bits of the per-user
    arrays.  The split enters only through c, and
    c commutes, so every shared-budget profile B_H -> b_bar - B_H is
    exactly its own mirror image and the balanced split is optimal at
    every SNR, M, K, beta and pilot power; an odd b_bar ties its two
    middle splits, and the search keeps the smaller B_H.  The Monte
    Carlo ZF/WF profiles are mirror-symmetric as well: imperfect-CSI ZF
    with the same quantizers has SINR c (rho g (M-K)/K) / (rho (beta -
    c g) + 1) with g = gamma to first order.  A convention that only
    rescales P_t, the pilot power, M, K or the SE (per-antenna SNR,
    decoupled pilot power, per-user SE) therefore cannot move the optimum
    either.

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
    eta_h, eta_p = np.broadcast_arrays(_eta(b_h), _eta(b_p))
    array_gain, _ = _mrt_gains(cfg)
    p_beta = cfg.total_power * cfg.beta
    variation = (1.0 - eta_p) * p_beta
    return {
        # np.full spreads an equal-user config's signal, one float per split, over its K users
        "signal": np.full(variation.shape, (1.0 - eta_h) * (1.0 - eta_p) * cfg.total_power * array_gain),
        "variation": variation,
        "precoder_noise": eta_p * p_beta,
        "noise": np.full(variation.shape, cfg.noise_var),
    }


def _mrt_gains(cfg: SystemConfig):
    """(M gamma_k^2 / sum_i gamma_i, A_k): the split-free user vectors of the MRT closed form.

    A_k = Gamma_k / c (closed_form_mrt_terms) is formed as
    M gamma_k (gamma_k / sum_i gamma_i) / (beta_k + sigma^2 / P_t): the
    share is at most 1, the denominator at least beta_k, and P_t enters
    only through sigma^2 / P_t, so A_k is finite wherever gamma is.
    Both are (K,) arrays, or, for a config given one beta and one pilot
    power for every user (SystemConfig._equal_users), two floats: gamma
    and A of one user, in numpy's order of operations, with sum_i gamma_i
    the sum of the list of K equal floats that the arrays give.  So each
    float is bit-identical to every entry of the arrays.  Raises
    ValueError when every gamma is 0.
    """
    if cfg._equal_users is None:
        gamma, total = _mrt_gamma(cfg)
        beta = cfg.beta
    else:
        beta, q = cfg._equal_users
        gamma = _gamma(q, cfg.tau_p, beta)
        total = _gamma_total([gamma] * cfg.K)
    array_gain = cfg.M * gamma * (gamma / total)
    return array_gain, array_gain / (beta + cfg.noise_var / cfg.total_power)


def _closed_form_mrt_profile(cfg: SystemConfig, c):
    """SINR c A, SE and sum SE of the MRT closed form, for the split factor c of one split or a column of S.

    c comes from _split_factor (or a _split_table's c column), with its
    shapes: a float for one split, an (S, 1) column for S.  A comes once
    from the config (_mrt_gains), so a split costs one product.  Every
    operation is elementwise, so each row is bit-identical to its split
    alone, and c commutes, so a split and its mirror get the same row.
    Returns (sinr, se, sum_se): (K,), (K,) and a 0-d array for one split;
    (S, K), (S, K) and (S,) for S splits.  c A is nonnegative, so the
    SINR needs no check before its SE.

    When A is one float (equal users), it enters as a one-user vector, so
    c A and the SE are formed once per split and then repeated for the K
    users.  log1p is numpy's either way, and the sum over K is numpy's
    reduction over each (S, K) row, so every value is bit-identical to the
    per-user arrays.
    """
    gain = _mrt_gains(cfg)[1]
    equal = isinstance(gain, float)
    sinr = c * (np.array([gain]) if equal else gain)
    se = _se(sinr, cfg.tau_p, cfg.tau_c)
    if equal:
        sinr, se = sinr.repeat(cfg.K, axis=-1), se.repeat(cfg.K, axis=-1)
    return sinr, se, se.sum(axis=-1)


def closed_form_mrt_sinr(cfg: SystemConfig, b_h: int | None, b_p: int | None) -> SeReport:
    """Closed-form hardening SINR and SE for MRT with both quantizers.

    Passing b_h=None or b_p=None turns the corresponding quantizer off
    (eta = 0), so (None, None) gives the unquantized matched filter with
    imperfect CSI.
    """
    sinr, se, sum_se = _closed_form_mrt_profile(cfg, _split_factor(b_h, b_p))
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
    gtil, zeta_bar_sq = _mrt_normalization(cfg, eta_h)
    alpha_bar_sq = 1.0 / (1.0 - eta_p)
    prec_noise_std = np.sqrt(aqnm_noise_var(eta_p, zeta_bar_sq * gtil))
    sqrt_beta = np.sqrt(cfg.beta)[:, None]

    inner = np.empty((trials, cfg.K, cfg.K), dtype=complex)
    qnoise = np.empty((trials, cfg.K))
    for start in range(0, trials, TRIAL_BLOCK):
        ids = tuple(range(start, min(start + TRIAL_BLOCK, trials)))
        S, _ = _trial_stats(cfg, seed, ids)
        # matched-filter direction without per-realization normalization,
        # H^T Hhat_q^*, and the precoder noise gains H^T Z_3 Sigma_p
        pieces = _slot_pieces(cfg, S, block=(seed, ids, DOMAIN_TRIAL))
        inner[start : start + len(ids)] = sqrt_beta * _estimate_products(pieces, eta_h)[1]
        qnoise[start : start + len(ids)] = np.sum(np.abs(sqrt_beta * S[:, 0, :, 3] * prec_noise_std) ** 2, axis=-1)

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
