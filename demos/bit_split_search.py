"""Splitting a fronthaul bit budget between CSI and precoder transfer.

Starts from a link capacity, derives the per-entry budget, scans every
feasible split with the closed-form evaluator, and prints the profile.
The product of the two quantizer gains is what the split controls, so
the optimum sits at (or next to) the balanced point.
"""

from fhalloc import (
    FronthaulBudget,
    SystemConfig,
    closed_form_mrt_sinr,
    compute_budget,
    line_search,
)

M, K = 128, 8
budget = FronthaulBudget(c_fh=16640.0, bs_ul=10.0, bs_dl=10.0, t_u=40, t_d=40)
budget = compute_budget(budget, M, K)
print(f"capacity {budget.c_fh:.0f} bits/block, control {budget.payload_bits(K):.0f}")
print(f"per-entry budget b_bar = {budget.b_bar}\n")

for snr in (-15.0, 10.0):
    cfg = SystemConfig.from_snr(M=M, K=K, tau_c=200, tau_p=8, snr_db=snr)
    result = line_search(budget.b_bar, lambda b_h, b_p: closed_form_mrt_sinr(cfg, b_h, b_p))
    print(f"SNR {snr:+.0f} dB")
    print("  b_h  b_p   sum_se")
    for b_h, b_p, value, _ in result.profile:
        mark = "  <- best" if b_h == result.b_h else ""
        print(f"  {b_h:3d}  {b_p:3d}   {value:.4f}{mark}")
    print()
