"""System-level configuration and reproducible random number streams.

Every Monte Carlo draw (channel, pilot noise, CSI and precoder
quantization noise) comes from :func:`trial_draws`, which reads trial t's
unit draws from the :class:`RngStream` ``(master_seed, (domain, t,
attempt))`` alone.  A trial's draws are therefore a pure function of the
seed and its index.  That is what makes Monte Carlo runs bit-identical no
matter how trials are distributed over worker processes, and it is what
lets a bit-split sweep reuse the same channel realizations in every grid
cell (common random numbers).

Since every cell of a sweep reads the same first-attempt unit draws,
:func:`trial_draws` memoizes those blocks per process, and
:func:`_block_derived` keeps arrays computed from a memoized block beside
it (the channel and its MMSE estimate, which do not depend on the bit
widths).  Everything the memo holds is read-only.  Blocks and derived
arrays together stay within ``_DRAW_CACHE_BYTES``: room is made by
dropping derived arrays first and then blocks, oldest first in each
group, and a derived array never pushes out a block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    """Raised when a SystemConfig fails validation."""


# Leading spawn-key values partitioning the stream space under one master
# seed: per-trial pipeline draws vs precoder moment estimation passes.
DOMAIN_TRIAL = 0
DOMAIN_MOMENTS = 1

# Trials drawn together by the Monte Carlo loops: a first-attempt block of
# trial ids [k TRIAL_BLOCK, (k + 1) TRIAL_BLOCK) is one memo entry.  The
# precoder-moment estimator also sums over whole blocks; the hardening loop
# runs its arithmetic over smaller chunks of a block (se._CHUNK).
TRIAL_BLOCK = 256

# Byte bound on the memo of first-attempt draw blocks and the arrays
# derived from them.  It holds the four 256-trial blocks of a 1000-trial
# sweep at M=128, K=8 (16.8 MB each) with their channel estimates
# (12.6 MB each).
_DRAW_CACHE_BYTES = 128 * 2**20
# A block is keyed (M, K, seed, domain, trial ids); an array derived from
# it is keyed (block key, tag).
_draw_cache: dict[tuple, np.ndarray] = {}


def _is_derived(key: tuple) -> bool:
    return isinstance(key[0], tuple)


def _memoize(key: tuple, value: np.ndarray) -> None:
    """Store a read-only value under key if room can be made for it.

    Room comes from dropping entries, derived arrays before blocks and
    oldest first within each group; a derived array may push out only
    other derived arrays.  So no derived array outlives its block, and a
    value that cannot fit drops nothing and is not stored.
    """
    victims = [k for k in _draw_cache if _is_derived(k)]
    if not _is_derived(key):
        victims += [k for k in _draw_cache if not _is_derived(k)]
    held = sum(v.nbytes for v in _draw_cache.values())
    if held - sum(_draw_cache[k].nbytes for k in victims) + value.nbytes > _DRAW_CACHE_BYTES:
        return
    for k in victims:
        if held + value.nbytes <= _DRAW_CACHE_BYTES:
            break
        held -= _draw_cache.pop(k).nbytes
    _draw_cache[key] = value


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
    """Unit draws for a block of trials, shape (n, 4, M, K), read-only.

    Slot j of trial i holds a CN(0, 1) matrix: 0 channel, 1 pilot noise,
    2 CSI quantization noise, 3 precoder quantization noise.  Trial t
    draws from stream (domain, t, attempt) alone, so a trial's draws do
    not depend on the block it arrives in; attempt is aligned with
    trial_ids (0 for every trial when None) and selects the redraw.
    Scales are applied by the caller, so the same draws serve every
    (B_H, B_P) grid cell.

    Blocks in which every attempt is 0 are memoized on (M, K, seed,
    domain, trial_ids), so later cells of a sweep read the first cell's
    block instead of drawing it again.  The memo holds at most
    _DRAW_CACHE_BYTES (module docstring); a block with a redraw in it is
    drawn afresh and never stored.
    """
    ids = tuple(int(t) for t in trial_ids)
    attempts = (0,) * len(ids) if attempt is None else tuple(int(a) for a in attempt)
    key = (cfg.M, cfg.K, seed, domain, ids)
    memoize = not any(attempts)
    if memoize and key in _draw_cache:
        return _draw_cache[key]
    shape = (4, cfg.M, cfg.K)
    out = np.empty((len(ids), *shape), dtype=complex)
    for i, (t, a) in enumerate(zip(ids, attempts)):
        gen = RngStream(seed, (domain, t, a)).generator()
        out[i] = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)
    out.setflags(write=False)
    if memoize:
        _memoize(key, out)
    return out


def _block_derived(z: np.ndarray, tag: tuple, build):
    """build(z), memoized beside the draw block z under tag; read-only.

    tag must name every input of build other than z.  Only a block the
    memo holds, the very array trial_draws returned, gets an entry; for
    any other array (a redraw block, a slice, an array the caller made)
    build runs on every call and nothing is stored.
    """
    owner = next((k for k, v in _draw_cache.items() if v is z and not _is_derived(k)), None)
    key = (owner, tag)
    if owner is not None and key in _draw_cache:
        return _draw_cache[key]
    value = build(z)
    value.setflags(write=False)
    if owner is not None:
        _memoize(key, value)
    return value


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
