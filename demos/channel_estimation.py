"""Pilot-based channel estimation quality against pilot power.

Per-entry estimate variance should follow gamma = q tau_p beta^2 /
(q tau_p beta + 1), approaching beta as pilots get strong, and the
estimation error should be orthogonal to the estimate.  The estimates
come from the Monte Carlo pipeline itself: trial_draws, then
quantized_estimate with the CSI quantizer off (eta_h = 0).
"""

import numpy as np

from fhalloc import SystemConfig, gamma_coefficient
from fhalloc.channel import quantized_estimate
from fhalloc.sysmodel import trial_draws

M, K, TAU_P = 64, 8, 8
TRIALS = 400

print("pilot q   gamma (model)  var(h_hat)   E[h_hat err*]")
for q in (0.05, 0.2, 1.0, 5.0, 25.0):
    cfg = SystemConfig(M=M, K=K, tau_c=200, tau_p=TAU_P, total_power=1.0, pilot_power=q)
    gamma = gamma_coefficient(q, TAU_P, 1.0)
    H, H_hat = quantized_estimate(cfg, trial_draws(cfg, 7, range(TRIALS)), 0.0)
    err = H - H_hat
    print(
        f"{q:7.2f}   {gamma:.6f}       {np.mean(np.abs(H_hat) ** 2):.6f}     "
        f"{abs(np.mean(H_hat * np.conj(err))):.2e}"
    )

print("\nvariance tracks gamma and the cross moment stays at the noise floor,")
print("so downstream code can treat h_hat entries as CN(0, gamma).")
