r"""Additive quantization noise model (AQNM) for fronthaul transfers.

A B-bit scalar quantizer applied per real dimension is modeled through its
distortion factor eta(B): the quantizer output for a zero-mean input x is

    x_Q = (1 - eta) x + n_Q,

with n_Q zero mean, uncorrelated with x, of variance eta (1 - eta) E|x|^2.
The second moment therefore contracts to E|x_Q|^2 = (1 - eta) E|x|^2.

For B <= 5 we use the tabulated distortion of the optimal non-uniform
scalar quantizer for a Gaussian input; beyond that the asymptotic law
eta(B) = (pi sqrt(3) / 2) 4^(-B) applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sysmodel import draw_complex_gaussian

# Distortion of the MMSE-optimal scalar quantizer for a unit Gaussian,
# resolutions one through five bits.
_ETA_TABLE = {
    1: 0.3634,
    2: 0.1175,
    3: 0.03454,
    4: 0.009497,
    5: 0.002499,
}

_ETA_ASYMPTOTIC_COEF = float(np.pi * np.sqrt(3.0) / 2.0)


def eta_of_bits(bits: int) -> float:
    """Distortion factor eta for a B-bit scalar quantizer, B >= 1.

    Tabulated for B in 1..5, eta = (pi sqrt(3)/2) * 2^(-2B) for B >= 6.
    Strictly decreasing in B.  A bool is not a width (True would read as
    one bit), nor is a float, even a whole one.
    """
    if type(bits) is bool or not isinstance(bits, (int, np.integer)):
        raise ValueError(f"bits must be an integer, got {bits!r}")
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if bits <= 5:
        return _ETA_TABLE[int(bits)]
    return _ETA_ASYMPTOTIC_COEF * 4.0 ** (-int(bits))


@dataclass(frozen=True)
class AqnmQuantizer:
    """A fixed-resolution quantizer characterized by its distortion factor.

    bits is None when the quantizer was specified directly through eta
    (useful for limiting cases and tests); eta = 0 degenerates to an
    identity map with zero added noise.
    """

    bits: int | None
    eta: float

    def __post_init__(self):
        if not (0.0 <= self.eta < 1.0):
            raise ValueError(f"eta must lie in [0, 1), got {self.eta}")

    @classmethod
    def from_bits(cls, bits: int) -> "AqnmQuantizer":
        return cls(bits=int(bits), eta=eta_of_bits(bits))

    @classmethod
    def from_eta(cls, eta: float) -> "AqnmQuantizer":
        return cls(bits=None, eta=float(eta))

    @property
    def gain(self) -> float:
        """Linear gain applied to the signal component, 1 - eta."""
        return 1.0 - self.eta


@dataclass(frozen=True)
class QuantizedMatrix:
    """Output of the additive noise model: value = (1 - eta) X + noise."""

    value: np.ndarray
    noise: np.ndarray


def aqnm_noise_var(eta: float, entry_var):
    """AQNM noise variance eta (1 - eta) entry_var for an input of second moment entry_var."""
    return eta * (1.0 - eta) * entry_var


def aqnm_quantize(X: np.ndarray, quantizer: AqnmQuantizer, entry_var, rng) -> QuantizedMatrix:
    """Apply the additive quantization noise model to a complex matrix.

    The returned value is (1 - eta) X + N_Q with N_Q drawn
    CN(0, eta (1 - eta) entry_var) per entry; the noise term is returned
    alongside so callers can inspect it.  entry_var is the prior per-entry
    second moment of X: a scalar, a per-column vector of length X.shape[1],
    or a full matrix the same shape as X.  The noise is drawn from `rng` so
    that callers control coupling across quantizer settings (same unit
    draws, different scales).
    """
    entry_var = np.asarray(entry_var, dtype=float)
    if np.any(entry_var < 0):
        raise ValueError("entry_var must be nonnegative")
    rows, cols = X.shape
    N = draw_complex_gaussian(rng, rows, cols, variance=aqnm_noise_var(quantizer.eta, entry_var))
    return QuantizedMatrix(value=quantizer.gain * X + N, noise=N)


def quantized_csi_covariance(gamma_k, eta_h) -> np.ndarray:
    """Per-entry variance of the quantized channel estimate.

    Quantizing an estimate of per-entry variance gamma with distortion
    eta_h leaves (1 - eta_h) gamma.  This is the effective CSI quality
    seen by the precoder; the residual mismatch between the true channel
    and the quantized estimate has per-entry variance
    beta - (1 - eta_h) gamma and stays uncorrelated with the estimate.
    gamma_k and eta_h broadcast against each other.
    """
    gamma_k = np.asarray(gamma_k, dtype=float)
    eta = np.asarray(eta_h)
    if np.any((eta < 0.0) | (eta >= 1.0)):
        raise ValueError(f"eta_h must lie in [0, 1), got {eta_h}")
    if np.any(gamma_k < 0):
        raise ValueError("gamma_k must be nonnegative")
    return (1.0 - eta_h) * gamma_k
