"""Command line front end for the experiment harness.

Subcommands:

    eta        print the quantizer distortion factor for a bit width
    budget     resolve a fronthaul budget into total per-entry bits
    sweep      evaluate sum SE over a (precoder, SNR, B_H) grid
    optimize   pick the best (B_H, B_P) split under a budget
    reproduce  run one of the canned studies (fig2, fig3, fig4)

Exit codes: 0 success, 2 bad usage or config, 3 infeasible budget,
1 other runtime failure (I/O and similar, an optimize search that
aborted after writing its partial profile, or a sweep/reproduce run in
which some cell failed, after the other cells' outputs are written).
"""

from __future__ import annotations

import argparse
import json
import sys

from .allocation import FronthaulBudget, InfeasibleBudgetError, compute_budget
from .experiments import ExperimentSpec, optimize_split, reproduce, run_sweep
from .quantization import eta_of_bits


def _add_system_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with ExperimentSpec fields; flags override it")
    p.add_argument("--m", type=int, help="base-station antennas")
    p.add_argument("--k", type=int, help="users")
    p.add_argument("--tau-c", type=int, help="coherence block length in symbols")
    p.add_argument("--tau-p", type=int, help="pilot symbols per block")
    p.add_argument("--snr-db", type=float, action="append", help="downlink SNR in dB, repeatable")
    p.add_argument("--pilot-q", type=float, help="uplink pilot power; default P_t/sigma^2")
    p.add_argument(
        "--precoder",
        action="append",
        choices=["mrt", "zf", "wf"],
        help="precoder kind, repeatable",
    )
    p.add_argument("--csi", choices=["quantized", "perfect"], help="CSI mode")
    p.add_argument("--evaluator", choices=["mc", "closed-form"], help="SE evaluator")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per cell")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--workers", type=int, help="worker processes for grid cells")
    p.add_argument("--out", default="out", help="output directory")


def _add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument("--budget-bbar", type=int, help="total per-entry bits B_H + B_P directly")
    p.add_argument("--cfh", type=float, help="fronthaul bits per coherence block")
    p.add_argument("--bs-ul", type=float, default=0.0, help="control bits per uplink symbol")
    p.add_argument("--bs-dl", type=float, default=0.0, help="control bits per downlink symbol")
    p.add_argument("--tu", type=int, default=0, help="uplink payload symbols per block")
    p.add_argument("--td", type=int, default=0, help="downlink payload symbols per block")


def _spec_from_args(args, defaults: dict | None = None) -> ExperimentSpec:
    fields: dict = dict(defaults or {})
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"--config must hold a JSON object, got {type(config).__name__}")
        fields.update(config)
    direct = {
        "M": args.m,
        "K": args.k,
        "tau_c": args.tau_c,
        "tau_p": args.tau_p,
        "pilot_q": args.pilot_q,
        "csi_mode": args.csi,
        "evaluator": args.evaluator,
        "trials": args.trials,
        "seed": args.seed,
        "workers": args.workers,
        "out_dir": getattr(args, "out", None),
    }
    if args.snr_db:
        direct["snr_db"] = tuple(args.snr_db)
    if args.precoder:
        direct["precoders"] = tuple(args.precoder)
    if getattr(args, "budget_bbar", None) is not None:
        direct["b_bar"] = args.budget_bbar
    elif getattr(args, "cfh", None) is not None:
        direct["budget"] = FronthaulBudget(
            c_fh=args.cfh, bs_ul=args.bs_ul, bs_dl=args.bs_dl, t_u=args.tu, t_d=args.td
        )
    if getattr(args, "b_p_fixed", None) is not None:
        direct["b_p_fixed"] = args.b_p_fixed
    fields.update({k: v for k, v in direct.items() if v is not None})
    return ExperimentSpec.from_dict(fields)


def _cmd_eta(args) -> int:
    print(f"{eta_of_bits(args.bits)!r}")
    return 0


def _cmd_budget(args) -> int:
    if args.budget_bbar is not None:
        b_bar = args.budget_bbar
        if b_bar < 2:
            raise InfeasibleBudgetError(f"b_bar = {b_bar}, need at least 2")
    else:
        if args.cfh is None:
            print("budget: provide --budget-bbar or --cfh", file=sys.stderr)
            return 2
        budget = FronthaulBudget(
            c_fh=args.cfh, bs_ul=args.bs_ul, bs_dl=args.bs_dl, t_u=args.tu, t_d=args.td
        )
        b_bar = compute_budget(budget, args.m, args.k).b_bar
    print(f"b_bar {b_bar}")
    print(f"splits {b_bar - 1}")
    return 0


def _report_run(meta: dict, csv_path: str) -> int:
    print(f"wrote {meta['rows']} rows to {csv_path}")
    failed = meta["failed_cells"]
    if failed:
        print(f"{len(failed)} cells failed, first: {failed[0]['error']}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(args, defaults={"name": "sweep"})
    return _report_run(run_sweep(spec, args.out), f"{args.out}/sweep.csv")


def _cmd_optimize(args) -> int:
    spec = _spec_from_args(args, defaults={"name": "optimize", "evaluator": "closed-form"})
    result = optimize_split(spec)
    print(f"b_bar {result.b_bar}")
    print(f"best_b_h {result.b_h}")
    print(f"best_b_p {result.b_p}")
    print(f"best_sum_se {result.best_sum_se!r}")
    if result.failed:
        print(f"search aborted early: {result.error}", file=sys.stderr)
    if args.profile_out:
        k = len(result.profile[0][3]) if result.profile else 0
        with open(args.profile_out, "w") as fh:
            fh.write("b_h,b_p,sum_se" + "".join(f",se_{i}" for i in range(1, k + 1)) + "\n")
            for b_h, b_p, value, per_user in result.profile:
                cells = [str(b_h), str(b_p), repr(value)] + [repr(v) for v in per_user]
                fh.write(",".join(cells) + "\n")
        print(f"profile {args.profile_out}")
    return 1 if result.failed else 0


def _cmd_reproduce(args) -> int:
    flags = {"trials": args.trials, "seed": args.seed, "workers": args.workers, "M": args.m, "K": args.k}
    overrides = {key: value for key, value in flags.items() if value is not None}
    return _report_run(reproduce(args.figure, args.out, **overrides), f"{args.out}/{args.figure}.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhalloc",
        description="Fronthaul bit allocation between CSI and precoder quantization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eta = sub.add_parser("eta", help="quantizer distortion factor")
    p_eta.add_argument("--bits", type=int, required=True)
    p_eta.set_defaults(func=_cmd_eta)

    p_budget = sub.add_parser("budget", help="per-entry bit budget from fronthaul capacity")
    p_budget.add_argument("--m", type=int, default=128)
    p_budget.add_argument("--k", type=int, default=8)
    _add_budget_flags(p_budget)
    p_budget.set_defaults(func=_cmd_budget)

    p_sweep = sub.add_parser("sweep", help="sum SE over a (precoder, SNR, B_H) grid")
    _add_system_flags(p_sweep)
    _add_budget_flags(p_sweep)
    p_sweep.add_argument("--b-p-fixed", type=int, help="pin B_P instead of B_P = B_bar - B_H")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_opt = sub.add_parser("optimize", help="best (B_H, B_P) under a budget")
    _add_system_flags(p_opt)
    _add_budget_flags(p_opt)
    p_opt.add_argument("--profile-out", help="CSV path for the scanned profile")
    p_opt.set_defaults(func=_cmd_optimize)

    p_rep = sub.add_parser("reproduce", help="run a canned study")
    p_rep.add_argument("figure", choices=["fig2", "fig3", "fig4"])
    p_rep.add_argument("--trials", type=int)
    p_rep.add_argument("--seed", type=int)
    p_rep.add_argument("--workers", type=int)
    p_rep.add_argument("--m", type=int)
    p_rep.add_argument("--k", type=int)
    p_rep.add_argument("--out", default="out")
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleBudgetError as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
