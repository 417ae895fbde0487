"""Quantized-fronthaul massive MIMO downlink simulation toolkit.

The library models a base station whose baseband unit talks to the antenna
array over a capacity-limited fronthaul link.  Uplink channel estimates and
downlink precoding matrices are both carried over that link at finite
resolution, and the per-entry bit widths trade off against each other under
a shared budget.  The modules here cover the pieces needed to study that
trade: channel estimation, additive quantization noise modeling, precoder
construction, spectral-efficiency evaluation (Monte Carlo and a closed form
for maximum ratio transmission), and the integer bit-split search itself.
"""

from .sysmodel import SystemConfig, RngStream, draw_complex_gaussian
from .channel import (
    ChannelSet,
    gamma_coefficient,
    despread_pilots,
    mmse_estimate,
    estimate_channel,
)
from .quantization import (
    eta_of_bits,
    AqnmQuantizer,
    QuantizedMatrix,
    aqnm_quantize,
    quantized_csi_covariance,
)
from .precoding import (
    build_precoder,
    transmit_rescale,
    PrecoderMoments,
    mrt_moments,
    estimate_moments_mc,
    RankDeficientError,
)
from .se import (
    SeReport,
    HardeningMoments,
    mc_hardening_sinr,
    closed_form_mrt_sinr,
    se_from_sinr,
)
from .allocation import (
    FronthaulBudget,
    BitSplit,
    InfeasibleBudgetError,
    compute_budget,
    line_search,
    AllocationResult,
)

__version__ = "0.1.0"

__all__ = [
    "SystemConfig",
    "RngStream",
    "draw_complex_gaussian",
    "ChannelSet",
    "gamma_coefficient",
    "despread_pilots",
    "mmse_estimate",
    "estimate_channel",
    "eta_of_bits",
    "AqnmQuantizer",
    "QuantizedMatrix",
    "aqnm_quantize",
    "quantized_csi_covariance",
    "build_precoder",
    "transmit_rescale",
    "PrecoderMoments",
    "mrt_moments",
    "estimate_moments_mc",
    "RankDeficientError",
    "SeReport",
    "HardeningMoments",
    "mc_hardening_sinr",
    "closed_form_mrt_sinr",
    "se_from_sinr",
    "FronthaulBudget",
    "BitSplit",
    "InfeasibleBudgetError",
    "compute_budget",
    "line_search",
    "AllocationResult",
    "__version__",
]
