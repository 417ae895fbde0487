"""Experiment harness: grids of operating points, persistence, presets.

A run is described by an ExperimentSpec, expanded into a list of cells
(one evaluated operating point each), evaluated in groups, and written
out as a CSV table plus per-series gnuplot data files and a JSON metadata
sidecar.  _expand_sweep is the one place cells are built.  A sweep is
one expansion; optimize is one expansion over a budget's splits plus a
choice (optimize_split); a preset (fig2, fig3, fig4) is a spec plus a
list of sweep overrides, and its cells are those expansions in listed
order (preset_cells), so its series are named as a sweep's.

A group is every Monte Carlo cell at one (SNR, CSI mode, B_H), which
shares the slot statistics, the Gram and the rank mask (and per
precoder, W and the moment prior) through se._mc_taps, or one
closed-form series.  Groups run inline, or on Linux in forked workers
that each run every W-th group and send its outcomes back on a pipe
(_fork_pool); no executor, queue or thread is involved, and nothing is
pickled on the way in.  Cell results are a pure function of the spec
and the master seed, and rows are emitted in the spec's canonical cell
order, so output files are byte-identical no matter how many workers
executed the run.  A run that takes longer than _PROGRESS_S seconds
reports cells done and an ETA on stderr.

CSV schema, one row per cell:

    precoder, csi_mode, snr_db, b_h, b_p, method, trials, seed,
    sum_se, se_1, ..., se_K

Perfect-CSI rows carry b_h = b_p = 0 since no quantizer is in the loop.
"""

from __future__ import annotations

import csv
import json
import os
import pickle
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, sysmodel
from .allocation import AllocationResult, FronthaulBudget, _select, compute_budget, split_range
from .precoding import PRECODER_KINDS
from .se import CSI_MODES, SeReport, _closed_form_mrt_profile, _mc_taps, _split_table, closed_form_mrt_sinr
from .sysmodel import SystemConfig, _real

EVALUATORS = ("mc", "closed-form")
# Stage timers of a Monte Carlo cell (SeReport.stage_s), written per cell to the metadata
STAGES = ("import_s", "stats_s", "moments_s", "kxk_s")

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
        """Reject bad counts, bit widths and SNRs, unknown enumerated values and empty or non-list grids.

        Counts and bit widths are stored as Python ints and grids as
        tuples; an SNR must be a real, non-boolean number.  A bit width
        only has to be an integer here; one below 1, or a b_bar below 2,
        is refused where the splits are formed.  b_bar and budget name
        the same thing, so a spec may set one of them, not both.
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
        if self.b_bar is not None and self.budget is not None:
            raise ValueError("set b_bar or a budget, not both: b_bar is what the budget resolves to")
        for key in ("snr_db", "precoders", "b_h_values"):
            value = getattr(self, key)
            if value is None and key == "b_h_values":
                continue
            if not isinstance(value, (list, tuple)) or not value:
                raise ValueError(f"{key} must be a non-empty list, got {value!r}")
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
        """b_bar as given, or the budget's (compute_budget); None when the spec has neither."""
        if self.budget is not None:
            return compute_budget(self.budget, self.M, self.K).b_bar
        return self.b_bar

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        """Build a spec from plain data; unknown keys and bad values raise ValueError.

        A budget object may not carry a b_bar: compute_budget derives it
        from the capacity, so a given one would go unread.
        """
        d = dict(_known_keys(cls, d))
        budget = d.get("budget")
        if budget is not None and not isinstance(budget, FronthaulBudget):
            if not isinstance(budget, dict) or "c_fh" not in budget:
                raise ValueError("budget must be an object with c_fh, the link bits per coherence block")
            if budget.get("b_bar") is not None:
                raise ValueError("budget.b_bar is derived from c_fh and the control payload; set b_bar outside the budget")
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
    """Cells for a plain sweep: (precoder, snr, b_h) in listed order.

    A series is named {precoder}_{SNR tag}_perfect, or
    {precoder}_{SNR tag}_{mc|closed}_{bbar<b_bar>|bp<b_p_fixed>}.  SNRs
    whose series tags collide are refused, since their cells would share
    a series and so a closed-form group and a .dat file.
    """
    tags = {}
    for snr in spec.snr_db:
        tag = _snr_tag(snr)
        if tag in tags:
            raise ValueError(f"snr_db entries {tags[tag]!r} and {snr!r} share the series tag {tag}")
        tags[tag] = snr
    b_bar = spec.resolve_b_bar()
    if spec.csi_mode == "perfect":
        if spec.evaluator == "closed-form":
            raise ValueError("the closed-form evaluator only covers quantized CSI")
        return [
            Cell(
                series=f"{kind}_{tag}_perfect",
                precoder=kind,
                snr_db=snr,
                csi_mode="perfect",
                method="monte_carlo",
                b_h=0,
                b_p=0,
            )
            for kind in spec.precoders
            for tag, snr in tags.items()
        ]
    if spec.b_h_values is not None:
        b_h_values = spec.b_h_values
    elif b_bar is not None:
        b_h_values = split_range(b_bar)
    else:
        raise ValueError("sweep needs b_h_values, b_bar, or a budget")
    if spec.b_p_fixed is None and b_bar is None:
        raise ValueError("need b_p_fixed or a budget to pair with b_h_values")
    closed = spec.evaluator == "closed-form"
    if closed and set(spec.precoders) != {"mrt"}:
        raise ValueError("the closed-form evaluator only covers mrt")
    method, label = ("closed_form_mrt", "closed") if closed else ("monte_carlo", "mc")
    pairing = f"bbar{b_bar}" if spec.b_p_fixed is None else f"bp{spec.b_p_fixed}"
    cells = []
    for kind in spec.precoders:
        for tag, snr in tags.items():
            for b_h in b_h_values:
                b_p = b_bar - b_h if spec.b_p_fixed is None else spec.b_p_fixed
                if b_h < 1 or b_p < 1:
                    raise ValueError(f"split ({b_h}, {b_p}) needs at least one bit per transfer")
                cells.append(
                    Cell(
                        series=f"{kind}_{tag}_{label}_{pairing}",
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

    elapsed_s is the cell's wall time in the process that ran it, with the
    time its group shares charged to the group's first cell; it is None
    for a cell that a dead pool worker never returned.
    """

    report: SeReport | None
    error: str | None = None
    elapsed_s: float | None = None


def _groups(cells: list[Cell]) -> list[list[int]]:
    """Indices of the cells evaluated together, each group in canonical order.

    A Monte Carlo group is every cell at one (SNR, CSI mode, B_H): its
    cells differ only in precoder and B_P, so they share the statistics,
    the Gram and (per precoder) the precoder itself.  Closed-form cells
    are grouped by series.  Groups come in the order of their first cell.
    """
    groups: dict[tuple, list[int]] = {}
    for i, cell in enumerate(cells):
        key = (cell.series,) if cell.method == "closed_form_mrt" else (cell.snr_db, cell.csi_mode, cell.b_h)
        groups.setdefault((cell.method, *key), []).append(i)
    return list(groups.values())


def _eval_group(spec: ExperimentSpec, cells: list[Cell]) -> list:
    """One SeReport, or the exception that stopped it, per cell of one group."""
    cfg = spec.config_for(cells[0].snr_db)
    if cells[0].method == "closed_form_mrt":
        return [closed_form_mrt_sinr(cfg, cell.b_h, cell.b_p) for cell in cells]
    # perfect CSI ignores the bit widths and moment_trials
    taps = [(cell.precoder, cell.b_p) for cell in cells]
    return _mc_taps(cfg, cells[0].b_h, taps, spec.trials, spec.seed, cells[0].csi_mode, spec.moment_trials)


def _failed(exc: BaseException) -> CellOutcome:
    return CellOutcome(report=None, error=f"{type(exc).__name__}: {exc}")


def _eval_group_guarded(spec: ExperimentSpec, cells: list[Cell]) -> list[CellOutcome]:
    """_eval_group as CellOutcomes; an error outside every cell fails the whole group.

    A cell's elapsed_s is its own stage time (SeReport.stage_s); the rest
    of the group's wall time, the shared work, is charged to its first cell.
    """
    t0 = time.perf_counter()
    try:
        results = _eval_group(spec, cells)
    except Exception as exc:
        results = [exc] * len(cells)
    own = [0.0 if isinstance(r, Exception) else sum(r.stage_s.values()) for r in results]
    own[0] = time.perf_counter() - t0 - sum(own[1:])
    return [
        replace(_failed(r) if isinstance(r, Exception) else CellOutcome(report=r), elapsed_s=s)
        for r, s in zip(results, own)
    ]


# A run reports progress on stderr once it has taken this long, and then
# at most once per such interval (and when it ends).
_PROGRESS_S = 2.0


class _Progress:
    """Cells done out of total, with an ETA, on stderr as groups finish."""

    def __init__(self, total: int, clock=time.monotonic):
        self.total, self.done, self.clock = total, 0, clock
        self.start = self.last = clock()

    def __call__(self, cells: int) -> None:
        self.done += cells
        now = self.clock()
        if now - self.start >= _PROGRESS_S and (now - self.last >= _PROGRESS_S or self.done == self.total):
            self.last = now
            eta = (now - self.start) * (self.total - self.done) / self.done
            print(f"{self.done}/{self.total} cells done, about {eta:.0f} s left", file=sys.stderr)


def _work(spec: ExperimentSpec, cells: list[Cell], groups: list[list[int]], fd: int, inherited: list[int]):
    """A forked worker: run its groups in order, send each one's outcomes down fd, and exit.

    Each group goes as one length-prefixed pickle.  An outcome that cannot
    be pickled fails its own group, and the worker goes on.  The worker
    first closes the pipe ends it inherited from the parent, and ends with
    os._exit, so the stdio buffers it inherited are never flushed twice;
    an exception ends it with status 1, and the parent fails the groups
    it never sent.
    """
    code = 1
    try:
        for inherited_fd in inherited:
            os.close(inherited_fd)
        for group in groups:
            outcomes = _eval_group_guarded(spec, [cells[i] for i in group])
            try:
                data = pickle.dumps(outcomes, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                data = pickle.dumps([_failed(exc)] * len(group), pickle.HIGHEST_PROTOCOL)
            view = memoryview(len(data).to_bytes(8, "little") + data)
            while view:
                view = view[os.write(fd, view) :]
        code = 0
    finally:
        os._exit(code)


def _fork_pool(spec: ExperimentSpec, cells: list[Cell], groups: list[list[int]], place) -> None:
    """Run the groups in min(spec.workers, len(groups)) forked workers, placing each as it arrives.

    Worker w runs groups w, w + W, ... (_work) and sends each group's
    outcomes down its own pipe; the spec and the cells are inherited, so
    nothing is sent to a worker.  The parent waits on the pipes with
    select and reaps every worker, also when it raises itself (it kills
    those still running).  A worker that ends before sending all its
    groups fails the rest, with its exit status or signal as the error.
    """
    import select
    import signal

    workers = min(spec.workers, len(groups))
    pending: dict[int, tuple[int, list, bytearray]] = {}  # pipe -> (pid, groups owed, unread bytes)
    try:
        for w in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker, which never returns
                _work(spec, cells, groups[w::workers], write, [read, *pending])
            os.close(write)
            pending[read] = (pid, groups[w::workers], bytearray())
        while pending:
            for fd in select.select(list(pending), [], [])[0]:
                pid, owed, buf = pending[fd]
                chunk = os.read(fd, 1 << 16)
                buf += chunk
                while len(buf) >= 8 and len(buf) >= 8 + (size := int.from_bytes(buf[:8], "little")):
                    place(owed.pop(0), pickle.loads(buf[8 : 8 + size]))
                    del buf[: 8 + size]
                if chunk:
                    continue
                del pending[fd]
                os.close(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
                died = CellOutcome(report=None, error=f"pool worker {how} before it returned this cell")
                for group in owed:
                    place(group, [died] * len(group))
    finally:
        for fd, (pid, _, _) in pending.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_cells(spec: ExperimentSpec, cells: list[Cell]) -> list[CellOutcome]:
    """Evaluate cells in groups (_groups), inline or in forked workers (_fork_pool).

    Outcomes come back in canonical cell order.  A failing cell does not
    stop the run; it comes back as a CellOutcome with the error recorded
    and no report.  So does every cell of a group that a pool worker
    never returned because it died.  The pool forks on Linux only:
    Windows has no fork, and macOS does not make forking a process with
    system frameworks loaded safe.  Elsewhere, and with one worker or one
    group, the groups run inline.  Before it forks, the parent loads
    numpy.random once (sysmodel._import_random) when any cell draws, and
    charges those seconds to the first Monte Carlo cell's import_s and
    elapsed_s, as a serial run's first draw is charged.
    """
    groups = _groups(cells)
    outcomes: list = [None] * len(cells)
    progress = _Progress(len(cells))

    def place(group, results):
        for i, outcome in zip(group, results):
            outcomes[i] = outcome
        progress(len(group))

    if spec.workers <= 1 or len(groups) <= 1 or sys.platform != "linux":
        for group in groups:
            place(group, _eval_group_guarded(spec, [cells[i] for i in group]))
        return outcomes
    first = next((i for i, cell in enumerate(cells) if cell.method == "monte_carlo"), None)
    import_s = 0.0 if first is None else sysmodel._import_random()
    _fork_pool(spec, cells, groups, place)
    if import_s and outcomes[first].report is not None:
        outcomes[first].report.stage_s["import_s"] += import_s
        outcomes[first] = replace(outcomes[first], elapsed_s=outcomes[first].elapsed_s + import_s)
    return outcomes


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
    lists every cell in canonical order with its wall time and its stage
    timers import_s, stats_s, moments_s and kxk_s (SeReport; 0 for a
    closed-form cell), each null where the cell returned no report or no
    timing.  What a group shares is charged to its first cell
    (CellOutcome).
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
        "cells": [
            {
                "series": cell.series,
                "b_h": cell.b_h,
                "b_p": cell.b_p,
                "elapsed_s": None if oc.elapsed_s is None else round(oc.elapsed_s, 4),
                **{s: None if oc.report is None else round(oc.report.stage_s.get(s, 0.0), 6) for s in STAGES},
            }
            for cell, oc in zip(cells, outcomes)
        ],
        "outputs": [csv_path.name] + series_files,
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(out / f"{stem}_meta.json", "w") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return meta


def _run(spec: ExperimentSpec, expand, out_dir, stem: str):
    """Expand the spec into cells with `expand`, run them, and write the outputs unless out_dir is None.

    Every SNR's SystemConfig is built first, so a bad config raises a
    ConfigError before any cell runs instead of failing each cell.
    Returns the cells, their outcomes and the metadata (None when nothing
    was written).
    """
    for snr in spec.snr_db:
        spec.config_for(snr)
    cells = expand(spec)
    t0 = time.monotonic()
    outcomes = run_cells(spec, cells)
    extra = {"elapsed_s": round(time.monotonic() - t0, 3)}
    meta = None if out_dir is None else write_outputs(spec, cells, outcomes, out_dir, stem=stem, extra_meta=extra)
    return cells, outcomes, meta


def run_sweep(spec: ExperimentSpec, out_dir=None, stem: str = "sweep") -> dict:
    if out_dir is None:
        out_dir = spec.out_dir or "."
    return _run(spec, _expand_sweep, out_dir, stem)[2]


def optimize_split(spec: ExperimentSpec) -> AllocationResult:
    """Search every bit split under the spec's budget and keep the best.

    The spec names one precoder and one SNR; more of either raises
    ValueError, and so does a perfect-CSI spec, since no bits cross the
    fronthaul and there is no split.  The search is a sweep over
    split_range(b_bar), followed by _select over the rows in split order.
    The cells run through run_cells, as a sweep's do, so spec.workers
    sets the pool and any evaluator works (the closed form covers mrt
    only).  With spec.out_dir set, the sweep's record is written there
    under the stem "optimize": optimize.csv, the .dat file and
    optimize_meta.json, which lists any failed cell.  A failed split
    ends the profile (_select): on the first split it raises ValueError
    with the cell's error, on a later one the result is marked failed.
    Monte Carlo rows rank on their sum SE; closed-form rows rank on
    min(B_H, B_P) (se._split_table), which orders them as the sum SE
    does but still separates the splits where 1 - eta rounds to 1, so
    every budget up to the split ceiling (allocation.split_range) finds
    the balanced split.

    A closed-form search with no out_dir skips the cells.  It reads the
    budget's memoized split table, computes the SE rows of the distinct
    half of the splits in one pass from the table's c
    (se._closed_form_mrt_profile; one user per split when every user has
    the same beta and pilot power), and gives each mirrored split the
    values of its partner, bit-identical to closed_form_mrt_sinr of that
    split since c commutes.  With equal users a row's per-user tuple
    holds its split's one SE K times, a single float object, and its sum
    is still numpy's reduction over the K repeated values.  The rows go
    to _select as one tuple, which it checks in one finiteness pass, and
    the winner is the table's own, the first maximum of min(B_H, B_P).
    """
    if spec.csi_mode != "quantized":
        raise ValueError("under perfect CSI no bits cross the fronthaul, so there is no split to optimize")
    if len(spec.snr_db) != 1:
        raise ValueError(f"optimize expects exactly one snr_db value, got {list(spec.snr_db)}")
    if len(spec.precoders) != 1:
        raise ValueError(f"optimize expects exactly one precoder, got {list(spec.precoders)}")
    b_bar = spec.resolve_b_bar()
    if b_bar is None:
        raise ValueError("optimize needs b_bar or a budget")
    if spec.evaluator == "closed-form" and spec.out_dir is None:
        cfg = spec.config_for(spec.snr_db[0])
        if spec.precoders != ("mrt",):
            raise ValueError("the closed-form evaluator only covers mrt")
        table = _split_table(b_bar)
        _, se, sum_se = _closed_form_mrt_profile(cfg, table.c)
        if cfg._equal_users is None:
            users = list(map(tuple, se.tolist()))
        else:  # every user of a split has its one SE: one float, K times
            users = [(v,) * cfg.K for v in se[:, 0].tolist()]
        sums = sum_se.tolist()
        # splits past the distinct half reuse their mirror's values, in reverse order
        upper = len(table.splits) - len(sums)
        rows = tuple(zip(table.splits, table.b_ps, sums + sums[:upper][::-1], users + users[:upper][::-1]))
        # Every row is c A with one A and c > 0, so the rows are all finite or
        # none are: _select can only fail on the first split, and raises there.
        return _select(rows, key=table)
    spec = replace(spec, b_bar=b_bar, budget=None, b_h_values=None, b_p_fixed=None)
    cells, outcomes, _ = _run(spec, _expand_sweep, spec.out_dir, "optimize")
    rows = (
        (cell.b_h, cell.b_p, oc.error, ()) if oc.report is None
        else (cell.b_h, cell.b_p, oc.report.sum_se, tuple(oc.report.se.tolist()))
        for cell, oc in zip(cells, outcomes)
    )
    return _select(rows, key=_split_table(b_bar) if spec.evaluator == "closed-form" else None)


# --- figure-style presets ---------------------------------------------------

_BASE = dict(M=128, K=8, tau_c=200, tau_p=8, precoders=("wf", "zf", "mrt"))
# the overrides of a closed-form curve, which is MRT whatever the spec's precoders
_CLOSED = {"evaluator": "closed-form", "precoders": ("mrt",)}
# (SNR in dB, b_bar, sweeps) of each preset; each sweep is the overrides of one run of curves
_PRESETS = {
    "fig2": (10.0, 30, ({"csi_mode": "perfect"}, {"b_p_fixed": 20}, {"b_p_fixed": 2},
                        {**_CLOSED, "b_p_fixed": 20}, {**_CLOSED, "b_p_fixed": 2})),
    "fig3": (-15.0, 10, ({}, _CLOSED)),
    "fig4": (10.0, 10, ({}, _CLOSED)),
}


def preset_cells(figure: str, spec: ExperimentSpec) -> list[Cell]:
    """The cells of a canned study: _expand_sweep of the spec under each of the preset's sweeps, in order.

    fig2: fixed-resolution precoder transfer at SNR 10 dB.  The perfect-CSI
    baselines, then the Monte Carlo curves against B_H with B_P pinned to
    20 (effectively unquantized) and then 2 (coarse), then the
    closed-form MRT curves at B_P 20 and 2.  B_H runs over split_range(30).
    fig3: shared budget b_bar = 10 at SNR -15 dB, B_P = b_bar - B_H: the
    Monte Carlo curves, then the closed-form MRT curve.
    fig4: the same at SNR +10 dB.

    This order is the CSV row order.  The spec's precoders, snr_db, b_bar
    and b_h_values reach every curve, except that a closed-form curve is
    MRT alone.  A field that a sweep of the preset sets (evaluator, and in
    fig2 csi_mode and b_p_fixed) must keep its ExperimentSpec default, or
    ValueError is raised; so is a perfect-CSI spec, which a closed-form
    curve refuses (_expand_sweep).
    """
    if figure not in _PRESETS:
        raise ValueError(f"unknown figure preset {figure!r}")
    sweeps = _PRESETS[figure][2]
    for key in {key for sweep in sweeps for key in sweep} - {"precoders"}:
        if getattr(spec, key) != getattr(ExperimentSpec, key):
            raise ValueError(f"preset {figure} sets {key} per curve, so it cannot be overridden")
    return [cell for sweep in sweeps for cell in _expand_sweep(replace(spec, **sweep))]


def preset_spec(figure: str, **overrides) -> ExperimentSpec:
    """The spec of a canned study, with any ExperimentSpec fields overridden.

    M = 128, K = 8, tau_c = 200, tau_p = 8, the WF, ZF and MRT precoders,
    and the preset's SNR and b_bar.  preset_cells says which overrides
    reach the curves and which it refuses.  A budget override is refused
    next to the preset's b_bar (ExperimentSpec); pass b_bar=None with it.
    """
    if figure not in _PRESETS:
        raise ValueError(f"unknown figure preset {figure!r}")
    snr, b_bar, _ = _PRESETS[figure]
    return ExperimentSpec(**{**_BASE, "name": figure, "snr_db": (snr,), "b_bar": b_bar, **overrides})


def reproduce(figure: str, out_dir=None, **overrides) -> dict:
    if out_dir is not None:
        overrides.setdefault("out_dir", str(out_dir))
    spec = preset_spec(figure, **overrides)
    return _run(spec, lambda s: preset_cells(figure, s), spec.out_dir or ".", figure)[2]
