"""System-level configuration and reproducible random number streams.

Every Monte Carlo trial t draws from the :class:`RngStream` ``(master_seed,
(domain, t, 0))`` alone, so a trial's numbers are a pure function of
the seed and its index.  That is what makes Monte Carlo runs bit-identical
no matter how trials are distributed over worker processes, and it is what
lets a bit-split sweep reuse the same channel realizations in every grid
cell (common random numbers).

The model of a trial is four M x K unit draws Z_0..Z_3 (:func:`trial_draws`):
channel, pilot noise, CSI and precoder quantization noise.  No cell needs
them.  Every array a cell forms is bilinear in them, with beta, the pilot
power and the quantizer distortions entering only as per-user scales, so a
cell needs only the K x K slot statistics of :func:`_trial_stats`:
Q_jl = Z_j^T Z_l^* and R_j = Z_j^T Z_3 for j, l in {0, 1, 2}, and the
column norms of Z_3.  Those are blocks of the 4K x 4K Gram X^T X^* of
X = [Z_0 Z_1 Z_2 conj(Z_3)], a complex Wishart matrix with M degrees of
freedom, so each trial draws that Gram from its Bartlett factor
(:func:`_draw_stats`): about 8 K^2 complex entries instead of the 4 M K
of the Z_j, so the draw cost does not grow with the antenna count.
The statistics do not depend on the config, so one set serves every SNR,
pilot power and bit width of a run.  Blocks are memoized per process
(read-only, oldest dropped first, at most ``_STATS_CACHE_BYTES``), and so
are the split-free estimate pieces that channel._slot_pieces derives from
them, under the same bound.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    """Raised when a SystemConfig fails validation."""


# Leading spawn-key values partitioning the stream space under one master
# seed: per-trial pipeline draws vs precoder moment estimation passes.
DOMAIN_TRIAL = 0
DOMAIN_MOMENTS = 1

# Trials drawn together by the Monte Carlo loops: a block of trial ids
# [k TRIAL_BLOCK, (k + 1) TRIAL_BLOCK) is one memo entry.
TRIAL_BLOCK = 256
# Trials whose Bartlett factors are held and reduced together inside a
# block, so the factors held at once (256 KB at K=8) stay small whatever
# the block size.
_STATS_CHUNK = 16

# Byte bound on the memos of slot statistics and of the estimate pieces
# derived from them: 12 KB of statistics per trial at K=8, so a 1000-trial
# run takes 12.6 MB, plus 7 KB of pieces per trial and estimation config.
_STATS_CACHE_BYTES = 128 * 2**20
# (M, K, seed, domain, trial ids) -> (S, nu), as _trial_stats returns them
_stats_cache: dict[tuple, tuple] = {}
# a _stats_cache key plus the estimation parameters -> the pieces of channel._slot_pieces
_pieces_cache: dict[tuple, tuple] = {}
# Seconds spent drawing statistics in this process, so far
_stats_seconds = 0.0


def _import_random() -> float:
    """Load numpy.random, which every draw needs; the seconds that took, 0.0 once it is loaded.

    numpy loads numpy.random on first use, which takes 12 to 17 ms on a
    2 vCPU machine.  A Monte Carlo run loads it here, before its stage
    timers start, so the first cell's stats_s holds draws alone.  Nothing
    imports it at module load: a closed-form search never draws.
    """
    if "numpy.random" in sys.modules:
        return 0.0
    t0 = time.perf_counter()
    import numpy.random  # noqa: F401
    return time.perf_counter() - t0


def _nbytes(value: tuple) -> int:
    return sum(a.nbytes for a in value if a is not None)


def _stats_key(cfg: SystemConfig, seed: int, ids: tuple, domain: int) -> tuple:
    """The _stats_cache key of a block of trial ids."""
    return (cfg.M, cfg.K, seed, domain, ids)


def _memoize(cache: dict, key: tuple, value: tuple) -> None:
    """Store a read-only value under key in cache, one of the two memos, dropping old entries for room.

    _stats_cache and _pieces_cache share the one bound.  The pieces, which
    are derived from the statistics, are dropped first, oldest first.  A
    value larger than the whole bound drops nothing and is not stored.
    """
    if _nbytes(value) > _STATS_CACHE_BYTES:
        return
    held = sum(_nbytes(v) for c in (_pieces_cache, _stats_cache) for v in c.values())
    for c in (_pieces_cache, _stats_cache):
        while c and held + _nbytes(value) > _STATS_CACHE_BYTES:
            held -= _nbytes(c.pop(next(iter(c))))
    cache[key] = value


def _real(name: str, value):
    """value itself if it is a real, non-boolean number within float range, else ConfigError.

    A Python int past the float range is refused by name; its digits are
    not printed, since str() of a long enough int raises.
    """
    if not _is_real(value):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ConfigError(f"{name} is an integer beyond floating-point range") from None
    return value


def _is_real(value) -> bool:
    # a bool is an int to Python, but never a real field
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def _as_user_vector(value, K: int, name: str, allow_zero: bool = False) -> np.ndarray:
    """A read-only length-K copy of a scalar broadcast to K, or of a checked length-K vector.

    Every entry must be a real, non-boolean number (_is_real), checked as
    the Python object it is: a cast would hide a boolean or a string
    (np.asarray([1, True]) is an int array).  The copy is never the
    caller's array, so writing into that array later cannot change a
    checked config.  A lone real number, the common case, is checked as it
    stands, without the object array.
    """
    scalar = _is_real(value)
    if not scalar:
        entries = np.array(value.tolist() if isinstance(value, np.ndarray) else value, dtype=object)
        if entries.shape not in ((), (K,)):
            raise ConfigError(f"{name} must be a scalar or length-{K} vector, got shape {entries.shape}")
        if not all(map(_is_real, entries.flat)):
            raise ConfigError(f"{name} entries must be real, non-boolean numbers")
        scalar = not entries.ndim
    try:
        if not scalar:
            arr = entries.astype(float)
            ok = np.all(np.isfinite(arr)) and np.all(arr >= 0 if allow_zero else arr > 0)
        else:
            v = float(value)
            ok = math.isfinite(v) and (v >= 0.0 if allow_zero else v > 0.0)
            arr = _filled(K, v)
    except OverflowError:
        raise ConfigError(f"{name} holds an integer beyond floating-point range") from None
    if not ok:
        raise ConfigError(f"{name} entries must be finite and {'nonnegative' if allow_zero else 'positive'}")
    arr.setflags(write=False)
    return arr


def _filled(K: int, value: float) -> np.ndarray:
    """A read-only length-K array of one float."""
    arr = np.empty(K)
    arr.fill(value)  # np.full's Python wrapper costs twice these two calls
    arr.setflags(write=False)
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

    beta and pilot_power are stored as read-only copies: writing into
    them raises, and writing into the array a caller passed in leaves the
    config as it was checked.  Code that reads a config can therefore
    skip checking it again.  _equal_users holds (beta, pilot_power) as
    Python floats when one value was given for every user (a scalar or
    the default), else None; the MRT closed form then evaluates one user
    (se._mrt_gains).
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
        M, K, tau_p, tau_c = self.M, self.K, self.tau_p, self.tau_c
        sigma2, p_t, q = self.noise_var, self.total_power, self.pilot_power
        beta = 1.0 if self.beta is None else self.beta
        # The common input in one pass: Python-int counts, finite positive float powers and
        # one float beta and pilot power for every user (the pilot power may be the default).
        # Any other input, a bad one included, takes _checked_users, which applies the same
        # rules one field at a time and raises their messages.
        if (
            type(M) is int and type(K) is int and type(tau_p) is int and type(tau_c) is int
            and 0 < K < M < 2**53 and K <= tau_p <= tau_c < 2**53
            and type(sigma2) is float and 0.0 < sigma2 < math.inf
            and type(p_t) is float and 0.0 < p_t < math.inf
            and type(beta) is float and 0.0 < beta < math.inf
            and ((q is None and p_t / sigma2 < math.inf) or (type(q) is float and 0.0 <= q < math.inf))
        ):
            users = (beta, p_t / sigma2 if q is None else q)
            beta, q = _filled(K, users[0]), _filled(K, users[1])
        else:
            beta, q, users = self._checked_users()
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "pilot_power", q)
        object.__setattr__(self, "_equal_users", users)

    def _checked_users(self):
        """Check every field on its own; return (beta, pilot_power, equal users) as __post_init__ stores them.

        This is the reference for any input: numpy or bool counts, int or
        numpy powers, user vectors, and every input that fails a check.
        """
        for name in ("M", "K", "tau_p", "tau_c"):
            value = getattr(self, name)
            # a bool is an int to Python, but never a count
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
            _real(name, value)  # counts enter float arithmetic too
        if not (self.K < self.M and self.K <= self.tau_p <= self.tau_c):
            raise ConfigError("need K < M and K <= tau_p <= tau_c")
        # noise_var first: from_snr derives total_power from it
        for name in ("noise_var", "total_power"):
            value = _real(name, getattr(self, name))
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive")
        given = 1.0 if self.beta is None else self.beta
        beta = _as_user_vector(given, self.K, "beta")
        # default pilot power: match the downlink SNR, q_k = P_t / sigma^2
        q = self.total_power / self.noise_var if self.pilot_power is None else self.pilot_power
        if self.pilot_power is None and q == math.inf:
            raise ConfigError("the default pilot_power total_power / noise_var is beyond floating-point range")
        pilot_power = _as_user_vector(q, self.K, "pilot_power", allow_zero=True)
        equal = _is_real(given) and _is_real(q)
        return beta, pilot_power, (float(beta[0]), float(pilot_power[0])) if equal else None

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
        An snr_db whose P_t overflows a float raises ConfigError, and so
        does a noise_var or snr_db that is itself beyond float range, or a
        noise_var that is not finite and positive, by its own name.
        """
        # a float needs no check before this arithmetic; the constructor checks noise_var
        sigma2 = noise_var if type(noise_var) is float else _real("noise_var", noise_var)
        snr = snr_db if type(snr_db) is float else _real("snr_db", snr_db)
        try:
            p_t = sigma2 * 10.0 ** (snr / 10.0)
        except OverflowError:
            raise ConfigError(f"P_t = sigma^2 10^(snr_db/10) is beyond floating-point range at snr_db = {snr_db!r}") from None
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
    tuple of ints; every trial draws from its own (_trial_generator).
    """

    master_seed: int
    stream_id: tuple = ()

    def generator(self) -> np.random.Generator:
        key = self.stream_id if isinstance(self.stream_id, tuple) else (self.stream_id,)
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=tuple(int(s) for s in key))
        return np.random.Generator(np.random.PCG64(ss))


def _trial_generator(seed: int, domain: int, t: int) -> np.random.Generator:
    """The generator of trial t's stream in a domain, the only randomness that trial reads."""
    # the trailing 0 (a redraw attempt once) keeps every Monte Carlo bit; dropping it would move every number
    return RngStream(seed, (domain, t, 0)).generator()


def trial_draws(cfg: SystemConfig, seed: int, trial_ids, domain: int = DOMAIN_TRIAL) -> np.ndarray:
    """Unit draws for a block of trials, shape (n, 4, M, K).

    trial_ids is a sequence of ints.  Slot j of trial i holds a CN(0, 1)
    matrix: 0 channel, 1 pilot noise, 2 CSI quantization noise, 3
    precoder quantization noise.  Trial t draws from its own stream alone
    (_trial_generator), so a trial's draws do not depend on the block it
    arrives in.  This is the M x K model of a trial, which
    channel.quantized_estimate reads; the Monte Carlo loops draw its
    K x K slot statistics in law instead (_trial_stats).
    """
    shape = (4, cfg.M, cfg.K)
    out = np.empty((len(trial_ids), *shape), dtype=complex)
    for i, t in enumerate(trial_ids):
        gen = _trial_generator(seed, domain, t)
        out[i] = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)
    return out


def _trial_stats(cfg: SystemConfig, seed: int, trial_ids, domain: int = DOMAIN_TRIAL):
    """Slot statistics (S, nu) of a block of trials, read-only.

    S has shape (n, 3, K, 4, K): S[:, j, :, l] = Z_j^T Z_l^* for l < 3
    and S[:, j, :, 3] = Z_j^T Z_3, with Z_j slot j of the trial model of
    trial_draws.  nu, shape (n, K), holds the squared column norms of
    Z_3.  They are drawn in law from each trial's own stream by
    _draw_stats (not reduced from trial_draws), so a trial's statistics
    do not depend on the block or chunk it arrives in.

    Blocks are memoized on (M, K, seed, domain, trial ids), so later
    cells of a sweep, at any SNR or pilot power, read the first cell's
    statistics.
    """
    global _stats_seconds
    ids = tuple(int(t) for t in trial_ids)
    key = _stats_key(cfg, seed, ids, domain)
    if key in _stats_cache:
        return _stats_cache[key]
    t0 = time.perf_counter()
    S, nu = _draw_stats(cfg, seed, ids, domain)
    stats = (S.reshape(len(ids), 3, cfg.K, 4, cfg.K), nu)
    for a in stats:
        a.setflags(write=False)
    _stats_seconds += time.perf_counter() - t0
    _memoize(_stats_cache, key, stats)
    return stats


def _draw_stats(cfg: SystemConfig, seed: int, ids: tuple, domain: int):
    """The first 3K rows S, shape (n, 3K, 4K), and the last K diagonal entries nu of each trial's slot Gram.

    The slot Gram X^T X^* of X = [Z_0 Z_1 Z_2 conj(Z_3)], M x 4K with
    i.i.d. CN(0, 1) entries, is complex Wishart with M degrees of
    freedom.  By its Bartlett decomposition (Goodman 1963) it has the
    law of R^T R^*, where R is min(M, 4K) x 4K upper trapezoidal with
    independent entries: CN(0, 1) above the diagonal and
    sqrt(Gamma(M - i, 1)) at (i, i).  Trial t draws its R from its own
    stream alone (_trial_generator), the CN(0, 1) entries first, and every
    trial is reduced on its own, _STATS_CHUNK factors at a time.
    """
    M, K = cfg.M, cfg.K
    cols, rows = 4 * K, min(M, 4 * K)
    # positions of the entries above and on the diagonal in a flattened R
    upper = np.flatnonzero(np.triu(np.ones((rows, cols), bool), 1))
    diag = np.arange(rows) * (cols + 1)
    dof = M - np.arange(rows)
    S = np.empty((len(ids), 3 * K, cols), dtype=complex)
    nu = np.empty((len(ids), K))
    R = np.zeros((min(_STATS_CHUNK, len(ids)), rows, cols), dtype=complex)
    flat = R.reshape(len(R), rows * cols)
    for lo in range(0, len(ids), _STATS_CHUNK):
        c = slice(lo, lo + _STATS_CHUNK)
        for i, t in enumerate(ids[c]):
            gen = _trial_generator(seed, domain, t)
            flat[i, upper] = gen.standard_normal(2 * upper.size).view(complex) * np.sqrt(0.5)
            flat[i, diag] = np.sqrt(gen.standard_gamma(dof))
        r = R[: len(ids[c])]
        # the first 3K columns of R are zero below row 3K
        top = r[:, : 3 * K]
        np.matmul(top[..., : 3 * K].swapaxes(-2, -1), top.conj(), out=S[c])
        # squared norms of R's last K columns, with the rows on the contiguous last axis
        sq = np.abs(r[..., 3 * K :].swapaxes(-2, -1), out=np.empty((len(r), K, rows)))
        sq *= sq
        nu[c] = np.sum(sq, axis=-1)
    return S, nu


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
