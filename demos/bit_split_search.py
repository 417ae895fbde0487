"""Splitting a fronthaul bit budget between CSI and precoder transfer.

Starts from a link capacity, derives the per-entry budget, scans every
feasible split with the closed-form evaluator, and prints the profile.
The product of the two quantizer gains is what the split controls, so
the optimum sits at (or next to) the balanced point.

line_search evaluates one split at a time through any evaluator.
experiments.optimize_split runs the same scan as a sweep of cells and
returns the same result, bit for bit; for the closed form with no output
directory it scores every split in one numpy pass.  With an output
directory it writes the sweep's record, whose metadata times every cell.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

from fhalloc import (
    FronthaulBudget,
    SystemConfig,
    closed_form_mrt_sinr,
    compute_budget,
    line_search,
    mc_hardening_sinr,
)
from fhalloc.experiments import ExperimentSpec, optimize_split

M, K = 128, 8
link = FronthaulBudget(c_fh=16640.0, bs_ul=10.0, bs_dl=10.0, t_u=40, t_d=40)
budget = compute_budget(link, M, K)
print(f"capacity {budget.c_fh:.0f} bits/block, control {budget.payload_bits(K):.0f}")
print(f"per-entry budget b_bar = {budget.b_bar}\n")

for snr in (-15.0, 10.0):
    cfg = SystemConfig.from_snr(M=M, K=K, tau_c=200, tau_p=8, snr_db=snr)
    result = line_search(budget.b_bar, lambda b_h, b_p: closed_form_mrt_sinr(cfg, b_h, b_p))
    spec = ExperimentSpec(M=M, K=K, tau_c=200, tau_p=8, snr_db=(snr,), evaluator="closed-form", b_bar=budget.b_bar)
    assert optimize_split(spec) == result, "the one-pass search must equal the split-by-split scan"
    print(f"SNR {snr:+.0f} dB")
    print("  b_h  b_p   sum_se")
    for b_h, b_p, value, _ in result.profile:
        mark = "  <- best" if b_h == result.b_h else ""
        print(f"  {b_h:3d}  {b_p:3d}   {value:.4f}{mark}")
    print()

# The one-pass path: a spec that carries the link budget, resolved inside optimize_split.
spec = ExperimentSpec(M=M, K=K, tau_c=200, tau_p=8, snr_db=(10.0,), evaluator="closed-form", budget=link)
best = optimize_split(spec)
print(f"optimize_split at +10 dB: B_H = {best.b_h}, B_P = {best.b_p}, sum SE {best.best_sum_se:.4f}")

# A small Monte Carlo search through the cells, with its record in a temp dir.
spec = ExperimentSpec(M=32, K=4, tau_c=200, tau_p=4, snr_db=(10.0,), precoders=("zf",), b_bar=8, trials=200, seed=1)
with tempfile.TemporaryDirectory() as out:
    result = optimize_split(dataclasses.replace(spec, out_dir=out))
    meta = json.loads((Path(out) / "optimize_meta.json").read_text())
cfg = spec.config_for(10.0)
scan = line_search(8, lambda b_h, b_p: mc_hardening_sinr(cfg, "zf", b_h, b_p, 200, 1))
assert result == scan, "the cell search must equal line_search over mc_hardening_sinr"
(winner,) = [c for c in meta["cells"] if c["b_h"] == result.b_h]
timers = ", ".join(f"{k} {winner[k] * 1e3:.2f} ms" for k in ("elapsed_s", "stats_s", "moments_s", "kxk_s"))
print(f"\nMonte Carlo ZF, M=32 K=4, b_bar 8: B_H = {result.b_h}, B_P = {result.b_p}, sum SE {result.best_sum_se:.4f}")
print(f"  winner's cell: {timers}")
