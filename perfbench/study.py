"""One study of a benchmark workload, run in a fresh interpreter by run.py.

A study imports fhalloc from the checkout's ``src/``, builds the workload's
inputs from the seed, and records that moment (the end of set-up).  In
``probe`` mode it stops there.  In ``study`` mode it then runs the workload
once, with the outside-in tracer on or off, checks the outputs, and writes
a JSON result file for run.py.

Workloads:

fig4-serial   ``fhalloc reproduce fig4 --workers 1`` through ``fhalloc.cli.main``
fig2-pool     ``fhalloc reproduce fig2 --workers 2`` through ``fhalloc.cli.main``
split-search  a seeded stream of closed-form ``experiments.optimize_split`` calls
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "fig4-serial": {"figure": "fig4", "workers": 1},
    "fig2-pool": {"figure": "fig2", "workers": 2},
    "split-search": {"figure": None, "workers": 1},
}

# "full" is what the benchmark measures.  "tiny" keeps every code path but
# shrinks the arrays, the trial counts and the fixed 500-trial precoder
# moment pass, so the self-test finishes in seconds.
SIZES = {
    "full": {"trials": {"fig4": 100, "fig2": 50}, "mk": None, "moment_trials": None, "searches": 2015},
    "tiny": {"trials": {"fig4": 20, "fig2": 20}, "mk": (32, 4), "moment_trials": 100, "searches": 62},
}

# Cells in each preset: fig4 is 3 MC precoders plus the closed form over 9
# splits; fig2 is 3 perfect-CSI cells, 3 MC precoders at 2 values of B_P over
# 29 values of B_H, and the closed form at the same 58 points.
EXPECTED_CELLS = {"fig4": 36, "fig2": 235}
PRESET = {"M": 128, "K": 8, "tau_c": 200, "tau_p": 8}

# Criterion 3's tolerance between a Monte Carlo MRT row and the closed form.
MC_MRT_TOLERANCE = 0.05

SEARCH_TAU_C = 200
SEARCH_M = (32, 64, 128, 256)
SEARCH_K = (2, 16)
SEARCH_SNR_DB = (-20.0, 20.0)
SEARCH_B_BAR = range(2, 33)


def search_inputs(seed: int, count: int) -> list[tuple]:
    """(M, K, snr_db, b_bar) per search.

    M, K and SNR are drawn independently per search.  b_bar runs through a
    fresh shuffle of 2..32 in each block of 31 searches, so every seed asks
    for the same number of split evaluations and the latency quantiles
    measure the program rather than the draw.
    """
    rng = random.Random(seed)
    b_bars: list[int] = []
    while len(b_bars) < count:
        block = list(SEARCH_B_BAR)
        rng.shuffle(block)
        b_bars += block
    return [
        (rng.choice(SEARCH_M), rng.randint(*SEARCH_K), rng.uniform(*SEARCH_SNR_DB), b_bar)
        for b_bar in b_bars[:count]
    ]


def fig_argv(figure: str, size: dict, seed: int, workers: int, out_dir: Path) -> list[str]:
    # numpy seeds must be nonnegative
    argv = ["reproduce", figure, "--trials", str(size["trials"][figure]), "--seed", str(seed % 2**32)]
    argv += ["--workers", str(workers), "--out", str(out_dir)]
    if size["mk"] is not None:
        argv += ["--m", str(size["mk"][0]), "--k", str(size["mk"][1])]
    return argv


def peak_rss_kb() -> int:
    """Peak RSS in KiB of this process or its largest reaped child (pool worker)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return max(me.ru_maxrss, kids.ru_maxrss)


def children_cpu_s() -> float:
    """User plus system CPU seconds of every reaped child (pool worker) so far."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def machine_facts() -> dict:
    import multiprocessing
    import platform

    import numpy as np

    blas: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "mp_start_method": multiprocessing.get_start_method(),
    }


# -- output checks -------------------------------------------------------------


def check_fig(figure: str, size: dict, out_dir: Path, exit_code) -> tuple[int, list[str], str | None]:
    """Failed cells, problem lines and the CSV's sha256 for one fig study."""
    from fhalloc.se import closed_form_mrt_sinr
    from fhalloc.sysmodel import SystemConfig

    expected = EXPECTED_CELLS[figure]
    csv_path = out_dir / f"{figure}.csv"
    if exit_code != 0 or not csv_path.is_file():
        return expected, [f"cli exit code {exit_code}, csv written: {csv_path.is_file()}"], None
    data = csv_path.read_bytes()
    rows = list(csv.reader(data.decode().splitlines()))[1:]
    problems = []
    bad: set[int] = set()
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    dims = dict(PRESET)
    if size["mk"] is not None:
        dims["M"], dims["K"] = size["mk"]
    closed = {}
    for i, row in enumerate(rows):
        if row[5] != "closed_form_mrt":
            continue
        snr, b_h, b_p = float(row[2]), int(row[3]), int(row[4])
        cfg = SystemConfig.from_snr(snr_db=snr, **dims)
        rep = closed_form_mrt_sinr(cfg, b_h, b_p)
        want = [repr(float(rep.sum_se))] + [repr(float(v)) for v in rep.se]
        if row[8:] != want or row[6] != "0":
            bad.add(i)
            problems.append(f"closed-form row {b_h},{b_p} differs from closed_form_mrt_sinr")
        closed[(row[2], b_h, b_p)] = float(row[8])
    for i, row in enumerate(rows):
        if row[0] != "mrt" or row[1] != "quantized" or row[5] != "monte_carlo":
            continue
        ref = closed.get((row[2], int(row[3]), int(row[4])))
        if ref is None or abs(float(row[8]) / ref - 1.0) > MC_MRT_TOLERANCE:
            bad.add(i)
            problems.append(f"MC MRT row {row[3]},{row[4]} is {row[8]}, closed form {ref}")
    failed = max(expected - len(rows), 0) + len(bad)
    return failed, problems, hashlib.sha256(data).hexdigest()


def check_searches(inputs, results, brute_force: bool) -> tuple[int, list[str], str]:
    """Failed searches, problem lines and a sha256 over the answers.

    With brute_force, each answer must also equal the max over every split.
    The search stream is the same in every study of a run, so later studies
    skip that and are checked through their digest instead.
    """
    from fhalloc.se import closed_form_mrt_sinr
    from fhalloc.sysmodel import SystemConfig

    failed = 0
    problems = []
    digest = hashlib.sha256()
    for (M, K, snr, b_bar), res in zip(inputs, results):
        if isinstance(res, str) or res.failed:
            failed += 1
            problems.append(f"search {(M, K, snr, b_bar)} failed: {res if isinstance(res, str) else res.error}")
            continue
        digest.update(f"{res.b_h},{res.b_p},{res.best_sum_se!r},{len(res.profile)}\n".encode())
        if not brute_force:
            continue
        cfg = SystemConfig.from_snr(M=M, K=K, tau_c=SEARCH_TAU_C, tau_p=K, snr_db=snr)
        values = [closed_form_mrt_sinr(cfg, b_h, b_bar - b_h).sum_se for b_h in range(1, b_bar)]
        best = max(values)
        ok = (
            res.b_h + res.b_p == b_bar
            and len(res.profile) == b_bar - 1
            and res.best_sum_se == best
            and values[res.b_h - 1] == best
        )
        if not ok:
            failed += 1
            problems.append(f"search {(M, K, snr, b_bar)} chose {res.b_h} at {res.best_sum_se!r}, brute force max {best!r}")
    return failed, problems, digest.hexdigest()


# -- layer metrics from a traced study -----------------------------------------

# <function label>.<calls|busy_s|self_s>, read from the span summary.
SPAN_METRICS = (
    "sysmodel.generator.calls",
    "sysmodel.generator.self_s",
    "sysmodel.draw_complex_gaussian.calls",
    "sysmodel.draw_complex_gaussian.self_s",
    "channel.estimate_channel.calls",
    "channel.estimate_channel.self_s",
    "quantization.aqnm_quantize.calls",
    "quantization.aqnm_quantize.self_s",
    "precoding.estimate_moments_mc.calls",
    "precoding.estimate_moments_mc.busy_s",
    "precoding.estimate_moments_mc.self_s",
    "precoding.mrt_moments.calls",
    "precoding.build_precoder.calls",
    "precoding.build_precoder.self_s",
    "precoding.rank_deficient_mask.self_s",
    "precoding.transmit_rescale.self_s",
    "se.mc_hardening_sinr.calls",
    "se.mc_hardening_sinr.busy_s",
    "se.mc_hardening_sinr.self_s",
    "se.closed_form_mrt_sinr.calls",
    "se.closed_form_mrt_sinr.self_s",
    "sysmodel.from_snr.calls",
    "sysmodel.from_snr.self_s",
    "channel.gamma_coefficient.calls",
    "channel.gamma_coefficient.self_s",
    "quantization.eta_of_bits.calls",
    "allocation.line_search.calls",
    "allocation.line_search.self_s",
    "experiments.run_cells.busy_s",
    "experiments.write_outputs.busy_s",
)

# Counters the tracer's observers add up, with their units.
COUNTER_METRICS = {
    "precoding.build_precoder.matrices": "count",
    "precoding.rank_deficient_mask.matrices": "count",
    "allocation.line_search.candidates": "count",
    "experiments.write_outputs.bytes": "bytes",
}


def layer_metrics(tracer) -> dict:
    summary = tracer.summary()
    out = {}
    for name in SPAN_METRICS:
        label, key = name.rsplit(".", 1)
        out[name] = {"value": summary[label][key], "unit": "count" if key == "calls" else "s"}
    for name, unit in COUNTER_METRICS.items():
        out[name] = {"value": tracer.counts.get(name, 0), "unit": unit}
    # ratios over zero attempts read 0: the workload made no such call
    generators = summary["sysmodel.generator"]["calls"]
    out["sysmodel.generator.distinct_ratio"] = {
        "value": len(tracer.stream_ids) / generators if generators else 0.0,
        "unit": "ratio",
    }
    trials = tracer.counts.get("se.trials", 0)
    attempts = trials + tracer.counts.get("se.redraws", 0)
    out["se.trials_kept_ratio"] = {"value": trials / attempts if attempts else 0.0, "unit": "ratio"}
    return out


# -- the study -----------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--mode", choices=("probe", "study"), default="study")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workers", type=int, help="override the workload's worker count")
    p.add_argument("--brute-force", type=int, choices=(0, 1), default=1, help="check split-search answers by brute force")
    p.add_argument("--out", type=Path, required=True, help="output directory of the program")
    p.add_argument("--result", type=Path, required=True, help="where to write this study's JSON result")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import fhalloc
    from fhalloc import cli, experiments  # noqa: F401  (the tracer rebinds in imported modules only)

    if not Path(fhalloc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"fhalloc imported from {fhalloc.__file__}, not from {SRC}")

    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]
    workers = args.workers or workload["workers"]
    figure = workload["figure"]
    if size["moment_trials"] is not None:
        preset_spec = experiments.preset_spec
        experiments.preset_spec = lambda fig, **kw: preset_spec(fig, moment_trials=size["moment_trials"], **kw)
    if figure is not None:
        argv_cli = fig_argv(figure, size, args.seed, workers, args.out)
    else:
        inputs = search_inputs(args.seed, size["searches"])
        specs = [
            experiments.ExperimentSpec(
                name="search", M=M, K=K, tau_c=SEARCH_TAU_C, tau_p=K, snr_db=(snr,),
                precoders=("mrt",), evaluator="closed-form", b_bar=b_bar,
            )
            for M, K, snr, b_bar in inputs
        ]
    ready = time.monotonic()

    result: dict = {"ready": ready}
    if args.mode == "study":
        from tracer import TRACED, Tracer, span_cost

        tracer = Tracer().install(TRACED if args.trace else (("experiments", "run_cells"),))
        clock = time.perf_counter
        if figure is not None:
            main_fn = sys.modules["fhalloc.cli"].main
            error = None
            cpu0 = children_cpu_s()
            t0 = clock()
            try:
                code = main_fn(argv_cli)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash fails every cell of the study
                code, error = None, f"{type(exc).__name__}: {exc}"
            wall = clock() - t0
            # the pool's workers are joined, and so reaped, when run_cells returns
            result["worker_cpu_s"] = children_cpu_s() - cpu0
        else:
            optimize = sys.modules["fhalloc.experiments"].optimize_split
            answers, latencies = [], []
            t0 = clock()
            for spec in specs:
                s = clock()
                try:
                    answers.append(optimize(spec))
                except Exception as exc:  # counted as a failed search
                    answers.append(f"{type(exc).__name__}: {exc}")
                latencies.append((clock() - s) * 1e6)
            wall = clock() - t0
        tracer.uninstall()

        result.update(wall_s=wall, peak_rss_kb=peak_rss_kb())
        if figure is not None:
            failed, problems, digest = check_fig(figure, size, args.out, code)
            if error:
                problems.insert(0, error)
            result.update(attempted=EXPECTED_CELLS[figure], run_cells_s=tracer.summary()["experiments.run_cells"]["busy_s"])
        else:
            failed, problems, digest = check_searches(inputs, answers, bool(args.brute_force))
            result.update(attempted=len(specs), latencies_us=latencies)
        result.update(failed=failed, problems=problems[:20], digest=digest)
        if args.trace:
            result["layers"] = layer_metrics(tracer)
            result["overhead_s"] = len(tracer.start) * span_cost()
            tracer.save(args.out / "trace.npz")
    result["facts"] = machine_facts()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
