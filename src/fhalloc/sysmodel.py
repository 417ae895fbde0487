"""System-level configuration and reproducible random number streams.

Every Monte Carlo draw (channel, pilot noise, CSI and precoder
quantization noise) comes from :func:`trial_draws`, which reads trial t's
unit draws from the :class:`RngStream` ``(master_seed, (domain, t,
attempt))`` alone.  A trial's draws are therefore a pure function of the
seed and its index.  That is what makes Monte Carlo runs bit-identical no
matter how trials are distributed over worker processes, and it is what
lets a bit-split sweep reuse the same channel realizations in every grid
cell (common random numbers).

No cell needs the M x K draws themselves.  Every array a cell forms is
bilinear in the unit draws Z_0..Z_3, with beta, the pilot power and the
quantizer distortions entering only as per-user scales, so a cell needs
only the K x K slot statistics of :func:`_trial_stats`: Q_jl = Z_j^T Z_l^*
and R_j = Z_j^T Z_3 for j, l in {0, 1, 2}, and the column norms of Z_3.
They do not depend on the config, so one set serves every SNR, pilot
power and bit width of a run.  Each block of trials is reduced to them
in small chunks as it is drawn, so no whole draw block is ever held, and
first-attempt blocks are memoized per process (read-only, oldest dropped
first, at most ``_STATS_CACHE_BYTES``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    """Raised when a SystemConfig fails validation."""


# Leading spawn-key values partitioning the stream space under one master
# seed: per-trial pipeline draws vs precoder moment estimation passes.
DOMAIN_TRIAL = 0
DOMAIN_MOMENTS = 1

# Trials drawn together by the Monte Carlo loops: a first-attempt block of
# trial ids [k TRIAL_BLOCK, (k + 1) TRIAL_BLOCK) is one memo entry.
TRIAL_BLOCK = 256
# Trials drawn and reduced together inside a block, so a chunk's draws
# (1 MB at M=128, K=8) stay small whatever the block size.
_STATS_CHUNK = 16

# Byte bound on the memo of slot statistics: 12 KB per trial at K=8, so
# a 1000-trial run takes 12.6 MB.
_STATS_CACHE_BYTES = 128 * 2**20
# (M, K, seed, domain, trial ids) -> (S, nu), as _trial_stats returns them
_stats_cache: dict[tuple, tuple] = {}
# Seconds spent drawing and reducing statistics in this process, so far
_stats_seconds = 0.0


def _nbytes(value: tuple) -> int:
    return sum(a.nbytes for a in value)


def _memoize(key: tuple, value: tuple) -> None:
    """Store a read-only value under key, dropping the oldest entries for room.

    A value larger than the whole bound drops nothing and is not stored.
    """
    if _nbytes(value) > _STATS_CACHE_BYTES:
        return
    held = sum(_nbytes(v) for v in _stats_cache.values())
    while held + _nbytes(value) > _STATS_CACHE_BYTES:
        held -= _nbytes(_stats_cache.pop(next(iter(_stats_cache))))
    _stats_cache[key] = value


def _real(name: str, value):
    """value itself if it is a real, non-boolean number, else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return value


def _as_user_vector(value, K: int, name: str, allow_zero: bool = False) -> np.ndarray:
    """Broadcast a scalar to length K, or validate a length-K vector."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(K, float(arr))
    if arr.shape != (K,):
        raise ConfigError(f"{name} must be a scalar or length-{K} vector, got shape {arr.shape}")
    floor_ok = np.all(arr >= 0) if allow_zero else np.all(arr > 0)
    if not np.all(np.isfinite(arr)) or not floor_ok:
        kind = "nonnegative" if allow_zero else "positive"
        raise ConfigError(f"{name} entries must be finite and {kind}")
    return arr


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Static parameters of one downlink scenario.

    M               base-station antennas
    K               single-antenna users, K < M (massive MIMO regime)
    tau_c           coherence block length in symbols
    tau_p           pilot symbols per block, K <= tau_p <= tau_c
    total_power     downlink transmit power P_t (linear)
    noise_var       receiver noise variance sigma^2 (linear)
    beta            large-scale fading coefficient per user, shape (K,)
    pilot_power     uplink pilot power per user q_k >= 0, shape (K,)

    The arrays are treated as immutable; do not write into them.
    """

    M: int
    K: int
    tau_c: int
    tau_p: int
    total_power: float
    noise_var: float = 1.0
    beta: np.ndarray = field(default=None)  # type: ignore[assignment]
    pilot_power: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        for name in ("M", "K", "tau_p", "tau_c"):
            value = getattr(self, name)
            # a bool is an int to Python, but never a count
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if not (self.K < self.M and self.K <= self.tau_p <= self.tau_c):
            raise ConfigError("need K < M and K <= tau_p <= tau_c")
        for name in ("total_power", "noise_var"):
            value = _real(name, getattr(self, name))
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive")
        beta = _as_user_vector(1.0 if self.beta is None else self.beta, self.K, "beta")
        # default pilot power: match the downlink SNR, q_k = P_t / sigma^2
        q = self.total_power / self.noise_var if self.pilot_power is None else self.pilot_power
        q = _as_user_vector(q, self.K, "pilot_power", allow_zero=True)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "pilot_power", q)

    @classmethod
    def from_snr(
        cls,
        M: int,
        K: int,
        tau_c: int,
        tau_p: int,
        snr_db: float,
        *,
        noise_var: float = 1.0,
        beta=None,
        pilot_power=None,
    ) -> "SystemConfig":
        """Build a config with P_t set from a downlink SNR in dB.

        SNR is defined as P_t / sigma^2, so P_t = sigma^2 * 10^(snr_db/10).
        """
        p_t = _real("noise_var", noise_var) * 10.0 ** (_real("snr_db", snr_db) / 10.0)
        return cls(
            M=M,
            K=K,
            tau_c=tau_c,
            tau_p=tau_p,
            total_power=p_t,
            noise_var=noise_var,
            beta=beta,
            pilot_power=pilot_power,
        )

    @property
    def snr_db(self) -> float:
        return 10.0 * np.log10(self.total_power / self.noise_var)

    @property
    def pilot_overhead(self) -> float:
        """Fraction of the coherence block spent on pilots, tau_p / tau_c."""
        return self.tau_p / self.tau_c


@dataclass(frozen=True)
class RngStream:
    """A named, replayable random stream.

    The generator produced for a given (master_seed, stream_id) pair is
    always the same object state, independent of how many other streams
    exist or which process asks for it.  stream_id may be an int or a
    tuple of ints; trial_draws uses the tuple (domain, trial, attempt), so
    every trial and every redraw attempt gets a stream of its own.
    """

    master_seed: int
    stream_id: tuple = ()

    def generator(self) -> np.random.Generator:
        key = self.stream_id if isinstance(self.stream_id, tuple) else (self.stream_id,)
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=tuple(int(s) for s in key))
        return np.random.Generator(np.random.PCG64(ss))


def trial_draws(cfg: SystemConfig, seed: int, trial_ids, attempt=None, domain: int = DOMAIN_TRIAL) -> np.ndarray:
    """Unit draws for a block of trials, shape (n, 4, M, K).

    Slot j of trial i holds a CN(0, 1) matrix: 0 channel, 1 pilot noise,
    2 CSI quantization noise, 3 precoder quantization noise.  Trial t
    draws from stream (domain, t, attempt) alone, so a trial's draws do
    not depend on the block it arrives in; attempt is aligned with
    trial_ids (0 for every trial when None) and selects the redraw.
    Scales are applied by the caller, so the same draws serve every
    (B_H, B_P) grid cell.
    """
    ids = [int(t) for t in trial_ids]
    attempts = [0] * len(ids) if attempt is None else [int(a) for a in attempt]
    shape = (4, cfg.M, cfg.K)
    out = np.empty((len(ids), *shape), dtype=complex)
    for i, (t, a) in enumerate(zip(ids, attempts)):
        gen = RngStream(seed, (domain, t, a)).generator()
        out[i] = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)
    return out


def _trial_stats(cfg: SystemConfig, seed: int, trial_ids, attempt=None, domain: int = DOMAIN_TRIAL):
    """Slot statistics (S, nu) of a block of trials, read-only.

    S has shape (n, 3, K, 4, K): S[:, j, :, l] = Z_j^T Z_l^* for l < 3
    and S[:, j, :, 3] = Z_j^T Z_3, with Z_j slot j of trial_draws.  nu,
    shape (n, K), holds the squared column norms of Z_3.  The block is
    drawn and reduced _STATS_CHUNK trials at a time, and every trial is
    reduced on its own, so a trial's statistics do not depend on the
    block or chunk it arrives in.

    Blocks in which every attempt is 0 are memoized on (M, K, seed,
    domain, trial ids), so later cells of a sweep, at any SNR or pilot
    power, read the first cell's statistics; a block with a redraw in it
    is reduced afresh and never stored.
    """
    global _stats_seconds
    ids = tuple(int(t) for t in trial_ids)
    attempts = (0,) * len(ids) if attempt is None else tuple(int(a) for a in attempt)
    key = (cfg.M, cfg.K, seed, domain, ids)
    memoize = not any(attempts)
    if memoize and key in _stats_cache:
        return _stats_cache[key]
    t0 = time.perf_counter()
    M, K = cfg.M, cfg.K
    S = np.empty((len(ids), 3 * K, 4 * K), dtype=complex)
    nu = np.empty((len(ids), K))
    for lo in range(0, len(ids), _STATS_CHUNK):
        c = slice(lo, lo + _STATS_CHUNK)
        z = trial_draws(cfg, seed, ids[c], attempts[c], domain)
        # [Z_0 Z_1 Z_2 Z_3] side by side, one M x 4K matrix per trial
        Z = z.transpose(0, 2, 1, 3).reshape(-1, M, 4 * K)
        right = np.concatenate([Z[..., : 3 * K].conj(), Z[..., 3 * K :]], axis=-1)
        np.matmul(Z[..., : 3 * K].swapaxes(-2, -1), right, out=S[c])
        # |Z_3|^2 with M as the contiguous last axis, summed one row at a time
        nu[c] = np.sum(np.abs(z[:, 3].swapaxes(-2, -1), out=np.empty((len(z), K, M))) ** 2, axis=-1)
    stats = (S.reshape(len(ids), 3, K, 4, K), nu)
    for a in stats:
        a.setflags(write=False)
    _stats_seconds += time.perf_counter() - t0
    if memoize:
        _memoize(key, stats)
    return stats


def draw_complex_gaussian(rng, rows: int, cols: int, variance=1.0) -> np.ndarray:
    """Draw a rows x cols matrix of circularly symmetric complex Gaussians.

    Each entry is CN(0, variance): real and imaginary parts are independent
    N(0, variance/2).  `variance` may be a scalar, a length-cols vector
    (per-column variance), or a full rows x cols array.  `rng` is either an
    RngStream or a numpy Generator.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    z = gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))
    v = np.asarray(variance, dtype=float)
    if np.any(v < 0):
        raise ValueError("variance must be nonnegative")
    return z * np.sqrt(v / 2.0)
