"""Command line front end for the experiment harness.

Subcommands:

    eta        print the quantizer distortion factor for a bit width
    budget     resolve a fronthaul budget into total per-entry bits
    sweep      evaluate sum SE over a (precoder, SNR, B_H) grid
    optimize   pick the best (B_H, B_P) split under a budget
    reproduce  run one of the canned studies (fig2, fig3, fig4)

optimize is a sweep over the budget's splits plus a choice: it takes
one --precoder and one --snr-db (more of either exits 2), writes the
sweep's record under --out (optimize.csv, the .dat file and
optimize_meta.json) and prints the best split.  reproduce writes
<figure>.csv and one <figure>_<series>.dat per curve, with the series
named as a sweep names them (fig4_mrt_snrp10_closed_bbar10.dat).

Exit codes: 0 success, 2 bad usage or config (a b_bar above the split
ceiling of allocation.split_range, or a config that sets both b_bar and
a budget, among them), 3 infeasible budget,
1 other runtime failure (I/O and similar, or a run in which some cell
failed, after the other cells' outputs are written).  An optimize
profile ends at its first failed split, and a failure on the first
split exits 2.  A reader that closes stdout early (``fhalloc ... | head``)
is not a failure: the rest of the output is dropped and the command
ends with its own exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .allocation import FronthaulBudget, InfeasibleBudgetError, _feasible, compute_budget
from .experiments import ExperimentSpec, optimize_split, reproduce, run_sweep
from .quantization import eta_of_bits

# Every flag that sets an ExperimentSpec field stores to that field's name
# (its argparse dest), and the capacity flags to FronthaulBudget's names.
_SPEC_FIELDS = {f.name for f in fields(ExperimentSpec)}


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--m", dest="M", type=int, help="base-station antennas")
    p.add_argument("--k", dest="K", type=int, help="users")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per cell")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--workers", type=int, help="worker processes for grid cells")
    p.add_argument("--out", dest="out_dir", default="out", help="output directory")


def _add_system_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with ExperimentSpec fields; flags override it")
    _add_run_flags(p)
    p.add_argument("--tau-c", type=int, help="coherence block length in symbols")
    p.add_argument("--tau-p", type=int, help="pilot symbols per block")
    p.add_argument("--snr-db", type=float, action="append", help="downlink SNR in dB, repeatable (optimize takes one)")
    p.add_argument("--pilot-q", type=float, help="uplink pilot power; default P_t/sigma^2")
    p.add_argument(
        "--precoder",
        dest="precoders",
        action="append",
        choices=["mrt", "zf", "wf"],
        help="precoder kind, repeatable (optimize takes one)",
    )
    p.add_argument("--csi", dest="csi_mode", choices=["quantized", "perfect"], help="CSI mode")
    p.add_argument("--evaluator", choices=["mc", "closed-form"], help="SE evaluator")


def _add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument("--budget-bbar", dest="b_bar", type=int, help="total per-entry bits B_H + B_P directly")
    p.add_argument("--cfh", dest="c_fh", type=float, help="fronthaul bits per coherence block")
    p.add_argument("--bs-ul", type=float, default=0.0, help="control bits per uplink symbol")
    p.add_argument("--bs-dl", type=float, default=0.0, help="control bits per downlink symbol")
    p.add_argument("--tu", dest="t_u", type=int, default=0, help="uplink payload symbols per block")
    p.add_argument("--td", dest="t_d", type=int, default=0, help="downlink payload symbols per block")


def _budget(args) -> FronthaulBudget:
    return FronthaulBudget(c_fh=args.c_fh, bs_ul=args.bs_ul, bs_dl=args.bs_dl, t_u=args.t_u, t_d=args.t_d)


def _spec_flags(args) -> dict:
    """The spec fields set on the command line."""
    return {key: value for key, value in vars(args).items() if key in _SPEC_FIELDS and value is not None}


def _spec_from_args(args, defaults: dict) -> ExperimentSpec:
    """The defaults, then --config, then the flags.

    --budget-bbar drops any budget, the config's and --cfh alike, and
    --cfh drops the config's b_bar, so a flag overrides the config's way
    of giving the budget too.  A config that sets both b_bar and a budget
    is refused (ExperimentSpec), since one of them would go unread.
    """
    spec = dict(defaults)
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"--config must hold a JSON object, got {type(config).__name__}")
        spec.update(config)
    spec.update(_spec_flags(args))
    if args.b_bar is not None:
        spec.pop("budget", None)
    elif args.c_fh is not None:
        spec.pop("b_bar", None)
        spec["budget"] = _budget(args)
    return ExperimentSpec.from_dict(spec)


def _out(*lines: str) -> None:
    """Print lines to stdout and flush them; a closed stdout drops them quietly.

    A reader that exits early (``fhalloc optimize ... | head -3``) closes
    the pipe, and the next write raises BrokenPipeError.  The command's
    work is done by then, so the rest of its output is dropped and it goes
    on to its own exit code.  stdout's descriptor, where it has one, is
    pointed at os.devnull, so the interpreter's last flush at exit does
    not raise again.
    """
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # a stdout with no descriptor (io.UnsupportedOperation)
            return
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)


def _cmd_eta(args) -> int:
    _out(f"{eta_of_bits(args.bits)!r}")
    return 0


def _cmd_budget(args) -> int:
    if args.b_bar is not None:
        b_bar = args.b_bar
    elif args.c_fh is not None:
        b_bar = compute_budget(_budget(args), args.M, args.K).b_bar
    else:
        print("budget: provide --budget-bbar or --cfh", file=sys.stderr)
        return 2
    # b_bar - 1 splits, counted even past the split ceiling, which only bounds a scan over them
    _out(f"b_bar {_feasible(b_bar)}", f"splits {b_bar - 1}")
    return 0


def _report_run(meta: dict, csv_path: str) -> int:
    _out(f"wrote {meta['rows']} rows to {csv_path}")
    failed = meta["failed_cells"]
    if failed:
        print(f"{len(failed)} cells failed, first: {failed[0]['error']}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(args, defaults={"name": "sweep"})
    return _report_run(run_sweep(spec, args.out_dir), f"{args.out_dir}/sweep.csv")


def _cmd_optimize(args) -> int:
    spec = _spec_from_args(args, defaults={"name": "optimize", "evaluator": "closed-form"})
    result = optimize_split(spec)
    if result.failed:
        print(f"search aborted early: {result.error}", file=sys.stderr)
    _out(
        f"b_bar {result.b_bar}",
        f"best_b_h {result.b_h}",
        f"best_b_p {result.b_p}",
        f"best_sum_se {result.best_sum_se!r}",
        f"scanned {len(result.profile)} of {result.b_bar - 1}",
        *([f"aborted {result.error}"] if result.failed else []),
        f"record {args.out_dir}/optimize.csv",
    )
    return 1 if result.failed else 0


def _cmd_reproduce(args) -> int:
    return _report_run(reproduce(args.figure, **_spec_flags(args)), f"{args.out_dir}/{args.figure}.csv")


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
    p_budget.add_argument("--m", dest="M", type=int, default=128)
    p_budget.add_argument("--k", dest="K", type=int, default=8)
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
    p_opt.set_defaults(func=_cmd_optimize)

    p_rep = sub.add_parser("reproduce", help="run a canned study")
    p_rep.add_argument("figure", choices=["fig2", "fig3", "fig4"])
    _add_run_flags(p_rep)
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
