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
from .channel import gamma_coefficient
from .quantization import eta_of_bits, AqnmQuantizer, aqnm_quantize
from .se import mc_hardening_sinr, closed_form_mrt_sinr
from .allocation import FronthaulBudget, InfeasibleBudgetError, compute_budget, line_search

__version__ = "0.1.0"

__all__ = [
    "SystemConfig",
    "RngStream",
    "draw_complex_gaussian",
    "gamma_coefficient",
    "eta_of_bits",
    "AqnmQuantizer",
    "aqnm_quantize",
    "mc_hardening_sinr",
    "closed_form_mrt_sinr",
    "FronthaulBudget",
    "InfeasibleBudgetError",
    "compute_budget",
    "line_search",
    "__version__",
]
