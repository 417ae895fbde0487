"""Experiment harness: grids of operating points, persistence, presets.

A run is described by an ExperimentSpec, expanded into a list of cells
(one evaluated operating point each), executed either inline or across a
process pool, and written out as a CSV table plus per-series gnuplot data
files and a JSON metadata sidecar.  Cell results are a pure function of
the spec and the master seed, and rows are emitted in the spec's canonical
cell order, so output files are byte-identical no matter how many workers
executed the run.

CSV schema, one row per cell:

    precoder, csi_mode, snr_db, b_h, b_p, method, trials, seed,
    sum_se, se_1, ..., se_K

Perfect-CSI rows carry b_h = b_p = 0 since no quantizer is in the loop.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .allocation import AllocationResult, FronthaulBudget, InfeasibleBudgetError, compute_budget, line_search
from .precoding import PRECODER_KINDS
from .se import CSI_MODES, SeReport, _closed_form_mrt_profile, closed_form_mrt_sinr, mc_hardening_sinr
from .sysmodel import SystemConfig, _real

EVALUATORS = ("mc", "closed-form")
# Stage timers of a Monte Carlo cell (SeReport.stage_s), written per cell to the metadata
STAGES = ("stats_s", "moments_s", "kxk_s")

# Integer ExperimentSpec fields and the least value each accepts.  The
# bit widths may be None, and their floors are checked with the splits.
_INTEGER_FLOORS = (
    ("trials", 1), ("seed", 0), ("moment_trials", 100), ("workers", 1), ("b_bar", None), ("b_p_fixed", None)
)


def _integer(key: str, value, floor: int | None = None) -> int:
    """value as a Python int (numpy integers do not serialize to JSON).

    A bool, a float or any other non-integer raises ValueError, even when
    it holds a whole number.
    """
    if type(value) is int:
        return value
    if isinstance(value, np.integer):
        return int(value)
    least = "" if floor is None else f" >= {floor}"
    raise ValueError(f"{key} must be an integer{least}, got {value!r}")


def _known_keys(cls, d: dict) -> dict:
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(map(str, unknown))}")
    return d


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run."""

    name: str = "sweep"
    M: int = 128
    K: int = 8
    tau_c: int = 200
    tau_p: int = 8
    noise_var: float = 1.0
    beta: float | list = 1.0
    pilot_q: float | list | None = None
    snr_db: tuple = (10.0,)
    precoders: tuple = ("mrt",)
    csi_mode: str = "quantized"
    evaluator: str = "mc"
    b_bar: int | None = None
    budget: FronthaulBudget | None = None
    b_h_values: tuple | None = None
    b_p_fixed: int | None = None
    trials: int = 1000
    moment_trials: int = 500  # read only for ZF/WF when gamma differs across users
    seed: int = 1
    workers: int = 1
    out_dir: str | None = None

    def __post_init__(self):
        """Reject bad counts, bit widths and SNRs, unknown enumerated values and non-list grids.

        Counts and bit widths are stored as Python ints and grids as
        tuples; an SNR must be a real, non-boolean number.  A bit width
        only has to be an integer here; one below 1, or a b_bar below 2,
        is refused where the splits are formed.
        """
        for key, floor in _INTEGER_FLOORS:
            value = getattr(self, key)
            if type(value) is not int:
                if value is None and floor is None:
                    continue
                value = _integer(key, value, floor)
                object.__setattr__(self, key, value)
            if floor is not None and value < floor:
                raise ValueError(f"{key} must be an integer >= {floor}, got {value!r}")
        for key in ("snr_db", "precoders", "b_h_values"):
            value = getattr(self, key)
            if value is None and key == "b_h_values":
                continue
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{key} must be a list, got {type(value).__name__}")
            if key == "b_h_values":
                value = [_integer("b_h_values entry", v) for v in value]
            elif key == "snr_db":
                value = [_real("snr_db entry", v) for v in value]
            object.__setattr__(self, key, tuple(value))
        for key, value, allowed in (
            ("csi_mode", self.csi_mode, CSI_MODES),
            ("evaluator", self.evaluator, EVALUATORS),
            *(("precoder", kind, PRECODER_KINDS) for kind in self.precoders),
        ):
            if value not in allowed:
                raise ValueError(f"unknown {key} {value!r}, expected one of {allowed}")

    def config_for(self, snr_db: float) -> SystemConfig:
        return SystemConfig.from_snr(
            M=self.M,
            K=self.K,
            tau_c=self.tau_c,
            tau_p=self.tau_p,
            snr_db=snr_db,
            noise_var=self.noise_var,
            beta=self.beta,
            pilot_power=self.pilot_q,
        )

    def resolve_b_bar(self) -> int | None:
        if self.b_bar is not None:
            return self.b_bar
        if self.budget is not None:
            return compute_budget(self.budget, self.M, self.K).b_bar
        return None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        """Build a spec from plain data; unknown keys and bad values raise ValueError."""
        d = dict(_known_keys(cls, d))
        budget = d.get("budget")
        if budget is not None and not isinstance(budget, FronthaulBudget):
            if not isinstance(budget, dict) or "c_fh" not in budget:
                raise ValueError("budget must be an object with c_fh, the link bits per coherence block")
            d["budget"] = FronthaulBudget(**_known_keys(FronthaulBudget, budget))
        return cls(**d)


@dataclass(frozen=True)
class Cell:
    """One operating point to evaluate, plus its output labels."""

    series: str
    precoder: str
    snr_db: float
    csi_mode: str
    method: str  # monte_carlo | closed_form_mrt
    b_h: int
    b_p: int


def _expand_sweep(spec: ExperimentSpec) -> list[Cell]:
    """Cells for a plain sweep: (precoder, snr, b_h) in listed order."""
    b_bar = spec.resolve_b_bar()
    if spec.csi_mode == "perfect":
        return [
            Cell(
                series=f"{kind}_{_snr_tag(snr)}_perfect",
                precoder=kind,
                snr_db=snr,
                csi_mode="perfect",
                method="monte_carlo",
                b_h=0,
                b_p=0,
            )
            for kind in spec.precoders
            for snr in spec.snr_db
        ]
    if spec.b_h_values is not None:
        b_h_values = spec.b_h_values
    elif b_bar is not None:
        if b_bar < 2:
            raise InfeasibleBudgetError(f"b_bar = {b_bar} leaves no feasible split")
        b_h_values = range(1, b_bar)
    else:
        raise ValueError("sweep needs b_h_values, b_bar, or a budget")
    method = "closed_form_mrt" if spec.evaluator == "closed-form" else "monte_carlo"
    cells = []
    for kind in spec.precoders:
        if method == "closed_form_mrt" and kind != "mrt":
            raise ValueError("the closed-form evaluator only covers mrt")
        for snr in spec.snr_db:
            for b_h in b_h_values:
                if spec.b_p_fixed is not None:
                    b_p = spec.b_p_fixed
                    tag = f"bp{b_p}"
                elif b_bar is not None:
                    b_p = b_bar - b_h
                    tag = f"bbar{b_bar}"
                else:
                    raise ValueError("need b_p_fixed or a budget to pair with b_h_values")
                if b_h < 1 or b_p < 1:
                    raise ValueError(f"split ({b_h}, {b_p}) needs at least one bit per transfer")
                label = "closed" if method == "closed_form_mrt" else "mc"
                cells.append(
                    Cell(
                        series=f"{kind}_{_snr_tag(snr)}_{label}_{tag}",
                        precoder=kind,
                        snr_db=snr,
                        csi_mode="quantized",
                        method=method,
                        b_h=b_h,
                        b_p=b_p,
                    )
                )
    return cells


def _snr_tag(snr_db: float) -> str:
    return "snr" + f"{snr_db:+g}".replace("+", "p").replace("-", "m").replace(".", "_")


@dataclass(frozen=True)
class CellOutcome:
    """Result of evaluating one cell: a report, or the error that stopped it.

    elapsed_s is the cell's wall time in the process that ran it; it is
    None for a cell that a dead pool worker never returned.
    """

    report: SeReport | None
    error: str | None = None
    elapsed_s: float | None = None


def _eval_cell(spec_dict: dict, cell: Cell) -> SeReport:
    spec = ExperimentSpec.from_dict(spec_dict)
    cfg = spec.config_for(cell.snr_db)
    if cell.method == "closed_form_mrt":
        return closed_form_mrt_sinr(cfg, cell.b_h, cell.b_p)
    # perfect CSI ignores the bit widths and moment_trials
    return mc_hardening_sinr(
        cfg, cell.precoder, cell.b_h, cell.b_p, spec.trials, spec.seed, cell.csi_mode,
        moment_trials=spec.moment_trials,
    )


def _failed(exc: BaseException) -> CellOutcome:
    return CellOutcome(report=None, error=f"{type(exc).__name__}: {exc}")


def _eval_cell_guarded(spec_dict: dict, cell: Cell) -> CellOutcome:
    t0 = time.perf_counter()
    try:
        outcome = CellOutcome(report=_eval_cell(spec_dict, cell))
    except Exception as exc:
        outcome = _failed(exc)
    return replace(outcome, elapsed_s=time.perf_counter() - t0)


def run_cells(spec: ExperimentSpec, cells: list[Cell]) -> list[CellOutcome]:
    """Evaluate cells, inline or on a process pool, in canonical order.

    A failing cell does not stop the run; it comes back as a CellOutcome
    with the error recorded and no report.  So does every cell left
    unfinished or not yet queued when a pool worker dies
    (BrokenProcessPool).
    """
    spec_dict = spec.to_dict()
    if spec.workers <= 1 or len(cells) <= 1:
        return [_eval_cell_guarded(spec_dict, cell) for cell in cells]
    futures, broken = [], None
    with ProcessPoolExecutor(max_workers=spec.workers) as pool:
        for cell in cells:
            try:
                futures.append(pool.submit(_eval_cell_guarded, spec_dict, cell))
            except BrokenExecutor as exc:
                # a worker died before this cell was queued; it and the rest fail
                broken = _failed(exc)
                break
    outcomes = [_failed(f.exception()) if f.exception() else f.result() for f in futures]
    return outcomes + [broken] * (len(cells) - len(futures))


def write_outputs(
    spec: ExperimentSpec,
    cells: list[Cell],
    outcomes: list[CellOutcome],
    out_dir,
    *,
    stem: str,
    extra_meta: dict | None = None,
) -> dict:
    """Write <stem>.csv, per-series <stem>_<series>.dat, and <stem>_meta.json.

    Failed cells contribute no CSV row or series point; they are listed
    under "failed_cells" in the metadata instead.  The metadata's "cells"
    lists every cell in canonical order with its wall time, its redraw
    count and its stage timers stats_s, moments_s and kxk_s (SeReport;
    0 for a closed-form cell), each null where the cell returned no
    report or no timing.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.csv"
    header = ["precoder", "csi_mode", "snr_db", "b_h", "b_p", "method", "trials", "seed", "sum_se"]
    header += [f"se_{k}" for k in range(1, spec.K + 1)]
    done = [(cell, oc.report) for cell, oc in zip(cells, outcomes) if oc.report is not None]
    failed = [
        {"series": cell.series, "b_h": cell.b_h, "b_p": cell.b_p, "error": oc.error}
        for cell, oc in zip(cells, outcomes)
        if oc.report is None
    ]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for cell, rep in done:
            seed = spec.seed if rep.seed is None else rep.seed
            row = [
                cell.precoder,
                cell.csi_mode,
                repr(float(cell.snr_db)),
                cell.b_h,
                cell.b_p,
                cell.method,
                rep.trials,
                seed,
                repr(float(rep.sum_se)),
            ]
            row += [repr(float(v)) for v in rep.se]
            writer.writerow(row)

    series_files = []
    by_series: dict[str, list[tuple[int, float]]] = {}
    for cell, rep in done:
        by_series.setdefault(cell.series, []).append((cell.b_h, rep.sum_se))
    for series, points in by_series.items():
        dat_path = out / f"{stem}_{series}.dat"
        with open(dat_path, "w") as fh:
            fh.write("# b_h sum_se\n")
            for b_h, value in points:
                fh.write(f"{b_h} {float(value)!r}\n")
        series_files.append(dat_path.name)

    meta = {
        "spec": spec.to_dict(),
        "library_version": __version__,
        "rows": len(done),
        "failed_cells": failed,
        "total_redraws": int(sum(rep.redraws for _, rep in done)),
        "cells": [
            {
                "series": cell.series,
                "b_h": cell.b_h,
                "b_p": cell.b_p,
                "elapsed_s": None if oc.elapsed_s is None else round(oc.elapsed_s, 4),
                "redraws": None if oc.report is None else oc.report.redraws,
                **{s: None if oc.report is None else round(oc.report.stage_s.get(s, 0.0), 6) for s in STAGES},
            }
            for cell, oc in zip(cells, outcomes)
        ],
        "outputs": [csv_path.name] + series_files,
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(out / f"{stem}_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta


def _run(spec: ExperimentSpec, expand, out_dir, stem: str) -> dict:
    """Expand the spec into cells with `expand`, run them, write the outputs.

    Every SNR's SystemConfig is built first, so a bad config raises a
    ConfigError before any cell runs instead of failing each cell.
    """
    for snr in spec.snr_db:
        spec.config_for(snr)
    cells = expand(spec)
    t0 = time.monotonic()
    outcomes = run_cells(spec, cells)
    elapsed = time.monotonic() - t0
    return write_outputs(spec, cells, outcomes, out_dir, stem=stem, extra_meta={"elapsed_s": round(elapsed, 3)})


def run_sweep(spec: ExperimentSpec, out_dir=None, stem: str = "sweep") -> dict:
    if out_dir is None:
        out_dir = spec.out_dir or "."
    return _run(spec, _expand_sweep, out_dir, stem)


def optimize_split(spec: ExperimentSpec, precoder: str | None = None) -> AllocationResult:
    """Line-search the bit split under the spec's budget.

    The evaluator follows spec.evaluator: the closed form (mrt), which
    evaluates every split in one pass, or the Monte Carlo pipeline with
    the spec's first (or given) precoder, one split at a time.  One SNR
    point is used; pass a spec with a single snr_db entry.
    """
    if len(spec.snr_db) != 1:
        raise ValueError("optimize expects exactly one snr_db value")
    b_bar = spec.resolve_b_bar()
    if b_bar is None:
        raise ValueError("optimize needs b_bar or a budget")
    kind = precoder or spec.precoders[0]
    cfg = spec.config_for(spec.snr_db[0])
    if spec.evaluator == "closed-form":
        if kind != "mrt":
            raise ValueError("the closed-form evaluator only covers mrt")
        splits = range(1, b_bar)
        _, se, sum_se = _closed_form_mrt_profile(cfg, splits, [b_bar - b_h for b_h in splits])
        evaluate = [SimpleNamespace(sum_se=v, se=row) for v, row in zip(sum_se.tolist(), se)]
    else:
        evaluate = lambda b_h, b_p: mc_hardening_sinr(
            cfg, kind, b_h, b_p, spec.trials, spec.seed, moment_trials=spec.moment_trials
        )
    return line_search(b_bar, evaluate)


# --- figure-style presets ---------------------------------------------------

_BASE = dict(M=128, K=8, tau_c=200, tau_p=8)


def preset_cells(figure: str, spec: ExperimentSpec) -> list[Cell]:
    """Cell lists for the three canned studies.

    fig2: fixed-resolution precoder transfer.  Sum SE against B_H with
    B_P pinned to 20 (effectively unquantized) and 2 (coarse), for all
    three precoders at SNR 10 dB, against their perfect-CSI baselines,
    plus the closed-form MRT curves.
    fig3: shared budget B_bar = 10 at SNR -15 dB, B_P = B_bar - B_H.
    fig4: shared budget B_bar = 10 at SNR +10 dB, B_P = B_bar - B_H.
    """
    if figure == "fig2":
        snr = spec.snr_db[0]
        cells = [
            Cell(f"{kind}_perfect", kind, snr, "perfect", "monte_carlo", 0, 0)
            for kind in ("wf", "zf", "mrt")
        ]
        for b_p in (20, 2):
            for kind in ("wf", "zf", "mrt"):
                cells += [
                    Cell(f"{kind}_mc_bp{b_p}", kind, snr, "quantized", "monte_carlo", b_h, b_p)
                    for b_h in range(1, 30)
                ]
        for b_p in (20, 2):
            cells += [
                Cell(f"mrt_closed_bp{b_p}", "mrt", snr, "quantized", "closed_form_mrt", b_h, b_p)
                for b_h in range(1, 30)
            ]
        return cells
    if figure in ("fig3", "fig4"):
        snr = spec.snr_db[0]
        b_bar = spec.resolve_b_bar()
        cells = []
        for kind in ("wf", "zf", "mrt"):
            cells += [
                Cell(f"{kind}_mc_bbar{b_bar}", kind, snr, "quantized", "monte_carlo", b_h, b_bar - b_h)
                for b_h in range(1, b_bar)
            ]
        cells += [
            Cell(f"mrt_closed_bbar{b_bar}", "mrt", snr, "quantized", "closed_form_mrt", b_h, b_bar - b_h)
            for b_h in range(1, b_bar)
        ]
        return cells
    raise ValueError(f"unknown figure preset {figure!r}")


def preset_spec(figure: str, **overrides) -> ExperimentSpec:
    base = dict(_BASE)
    if figure == "fig2":
        base.update(name="fig2", snr_db=(10.0,), b_bar=30)
    elif figure == "fig3":
        base.update(name="fig3", snr_db=(-15.0,), b_bar=10)
    elif figure == "fig4":
        base.update(name="fig4", snr_db=(10.0,), b_bar=10)
    else:
        raise ValueError(f"unknown figure preset {figure!r}")
    base.update(precoders=("wf", "zf", "mrt"))
    base.update(overrides)
    return ExperimentSpec(**base)


def reproduce(figure: str, out_dir=None, **overrides) -> dict:
    if out_dir is not None:
        overrides.setdefault("out_dir", str(out_dir))
    spec = preset_spec(figure, **overrides)
    return _run(spec, lambda s: preset_cells(figure, s), spec.out_dir or ".", figure)
