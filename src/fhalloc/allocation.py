r"""Fronthaul bit budget and the CSI/precoder bit-split search.

Per coherence block the fronthaul carries, besides fixed control payload,
one K x M CSI matrix uplink and one M x K precoding matrix downlink, both
at per-entry resolutions chosen from a shared budget.  With C_FH the link
capacity available to the block and the control payload subtracted, the
total per-entry bits are

    B_bar = floor((C_FH - (Bs_ul T_u + Bs_dl T_d) K) / (K M)),

to be split as B_H + B_P = B_bar with both parts at least 1 bit.  A budget
below 2 is infeasible (_feasible, the one place that rule lives), and
a non-finite capacity or control rate is an error.  The split is chosen
by evaluating the sum spectral efficiency at every candidate (B_H, B_P)
and keeping the best; the candidate count is B_bar - 1, so exhaustive
scan is the right tool.  split_range, the one source of the candidates,
refuses a B_bar above _B_BAR_CEILING (derived there), so no scan of
splits and no sweep that expands one cell per split can run away.

line_search takes the integer budget and a per-split evaluator.
experiments.optimize_split runs the same scan as a sweep of cells, one
per split, and reads its rows off the cell outcomes; a closed-form search
with no output directory takes its rows from se._closed_form_mrt_rows,
which computes the distinct half of the profile in one numpy pass.  All
of them hand their rows to _select, the one home of the selection rule
and of the failure rule: the first failed split ends the profile,
raising when it is the first split and marking the result failed
otherwise.  The closed-form paths select with balanced=True: the
closed-form SE depends on the split only through c = (1-eta_h)(1-eta_p),
whose order, with the digits the SE rounds away, is that of
min(B_H, B_P) (see _B_BAR_CEILING), so the winner is the kept split
nearest the middle.
The closed-form rows are all finite or none are, so that profile is
always complete; a partial profile can only come from an evaluator that
raised or returned a non-finite objective, or from a Monte Carlo cell
that failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Callable

import numpy as np

from .sysmodel import _real


class InfeasibleBudgetError(ValueError):
    """The fronthaul budget cannot fund at least one bit on each transfer."""


# The largest b_bar whose splits the closed form still ranks in their true
# order.  The closed form orders the splits by c = (1-eta_h)(1-eta_p), kept
# in doubles with eta's digits as L(B_H) = log1p(-eta(B_H)) +
# log1p(-eta(b_bar - B_H)), and past 5 bits eta(b) = (pi sqrt(3)/2) 4^-b:
# 4.0**-537 is the least subnormal, so eta(b) is nonzero through b = 537 bits
# and 0 from 538 on.  L rises strictly over B_H = 1 .. b_bar // 2 while every
# width below the middle has a nonzero eta, i.e. for b_bar // 2 <= 538, and
# there min(B_H, B_P), the key of _select's balanced rule, is L's order.  At
# b_bar = 1078 the splits (538, 540) and (539, 539) both read L = 0 and tie.
# Above this ceiling no evaluator could tell the middle splits apart, and a
# scan over b_bar - 1 splits (one cell each in a sweep) would only grow.
_B_BAR_CEILING = 1077


def _feasible(b_bar: int) -> int:
    """b_bar itself; InfeasibleBudgetError when it cannot fund a bit on each transfer (below 2)."""
    if b_bar < 2:
        raise InfeasibleBudgetError(f"b_bar = {b_bar}, need at least 2 (one bit per transfer)")
    return b_bar


def split_range(b_bar: int) -> range:
    """The B_H of every split B_H + B_P = b_bar with a bit on each transfer.

    Raises InfeasibleBudgetError when b_bar is below 2, and ValueError
    when it is above _B_BAR_CEILING, where the closed form can no longer
    rank the splits.
    """
    if _feasible(b_bar) > _B_BAR_CEILING:
        shown = b_bar if b_bar < 2**53 else f"about 2^{int(b_bar).bit_length() - 1}"
        raise ValueError(
            f"b_bar = {shown} is above the ceiling of {_B_BAR_CEILING} bits per entry, past which eta underflows "
            "and the splits can no longer be ranked"
        )
    return range(1, b_bar)


@dataclass(frozen=True)
class FronthaulBudget:
    """Fronthaul capacity and fixed per-block control payload.

    c_fh       link bits available per coherence block
    bs_ul      control bits per uplink symbol
    bs_dl      control bits per downlink symbol
    t_u        uplink payload symbols per block
    t_d        downlink payload symbols per block
    b_bar      derived per-entry bit budget, filled in by compute_budget
    """

    c_fh: float
    bs_ul: float = 0.0
    bs_dl: float = 0.0
    t_u: int = 0
    t_d: int = 0
    b_bar: int | None = None

    def payload_bits(self, K: int) -> float:
        return (self.bs_ul * self.t_u + self.bs_dl * self.t_d) * K


def compute_budget(budget: FronthaulBudget, M: int, K: int) -> FronthaulBudget:
    """Fill in the per-entry bit budget B_bar; raises if it lands below 2.

    Every field must be a finite, real, non-boolean number
    (sysmodel._real), and so must the control payload and the capacity
    left after it; anything else is a ValueError.
    """
    if M < 1 or K < 1:
        raise ValueError("M and K must be positive")
    for key in ("c_fh", "bs_ul", "bs_dl", "t_u", "t_d"):
        if not math.isfinite(_real(key, getattr(budget, key))):
            raise ValueError(f"{key} must be finite, got {getattr(budget, key)!r}")
    if budget.c_fh < 0:
        raise ValueError("c_fh must be nonnegative")
    remaining = budget.c_fh - budget.payload_bits(K)
    if not math.isfinite(remaining):
        raise ValueError(f"control payload must be finite, and so must c_fh minus it; got c_fh - (bs_ul t_u + bs_dl t_d) K = {remaining!r}")
    b_bar = int(np.floor(remaining / (K * M)))
    return replace(budget, b_bar=_feasible(b_bar))


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of a bit-split search over one budget: the best split (b_h, b_p) and its sum SE.

    profile holds one (b_h, b_p, sum_se, per_user_se) tuple per scanned
    candidate in scan order; per_user_se is empty when the evaluator
    returned a bare objective value.  error is None when every candidate
    ran; when one after the first failed (_select), error carries its
    message, profile covers only the candidates before it, and failed is
    set.
    """

    b_h: int
    b_p: int
    best_sum_se: float
    profile: tuple
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def b_bar(self) -> int:
        return self.b_h + self.b_p


def _select(rows, balanced: bool = False) -> AllocationResult:
    """The selection and failure rule of every split search, over (b_h, b_p, sum_se, per_user_se) rows in scan order.

    Rows rank on their sum_se, and the first maximum wins, so ties
    resolve to the smallest B_H.  With balanced set, the rows are the
    splits of one budget from B_H = 1 on, and the winner is the first
    maximum of min(B_H, B_P) over the rows kept: the row
    min(len(profile), b_bar // 2) - 1, b_bar read off the first row.
    The result keeps the winner's own sum_se either way.  A row fails
    when its objective is the exception that stopped it, the error text
    of a failed cell ("Type: message", CellOutcome.error) or not a finite
    number.  The first failed row ends the scan: on the first row it
    raises (the exception itself, else ValueError), on a later one the
    rows before it are kept and the result carries the error.  A tuple of
    rows is checked in one pass over its sum_se column and kept whole
    when every one is finite; any other rows are read lazily, so
    line_search evaluates no candidate past a failed one.
    """
    profile, error = None, None
    if isinstance(rows, tuple):
        try:
            if all(map(math.isfinite, map(itemgetter(2), rows))):
                profile = rows
        except TypeError:  # a row carries its failure; the scan below finds it
            pass
    if profile is None:
        profile = []
        for row in rows:
            try:
                if math.isfinite(row[2]):
                    profile.append(row)
                    continue
                failure = ValueError(f"objective is {row[2]!r}, not a finite number")
            except TypeError:  # not a number: the exception or the error text
                failure = row[2]
            if not profile:
                raise failure if isinstance(failure, Exception) else ValueError(failure)
            if isinstance(failure, Exception):
                failure = f"{type(failure).__name__}: {failure}"
            error = f"({row[0]}, {row[1]}): {failure}"
            break
        profile = tuple(profile)
    if balanced:
        best = profile[min(len(profile), (profile[0][0] + profile[0][1]) // 2) - 1]
    else:
        best = max(profile, key=itemgetter(2))  # the first of equal maxima
    return AllocationResult(best[0], best[1], best[2], profile, error)


def line_search(b_bar: int, evaluate: Callable[[int, int], object]) -> AllocationResult:
    """Exhaustive scan of B_H = 1..B_bar-1 with B_P = B_bar - B_H.

    evaluate(b_h, b_p) gives the objective of each candidate: anything
    with a sum_se attribute (and optionally per-user se), or a plain
    number.  The full profile is retained for inspection, and the best
    split is picked by _select: ties resolve to the smallest B_H, and an
    evaluator that raises or a non-finite objective fails its candidate.
    A per-user se that is a list is taken as it stands, so it should hold
    floats; any other per-user se, such as a SeReport's array, is
    converted to floats with numpy.

    If a candidate fails after at least one finished, the partial profile
    is returned with failed=True; a failure on the very first candidate
    propagates (a non-finite objective as ValueError).
    """

    def rows():
        for b_h in split_range(b_bar):
            try:
                report = evaluate(b_h, b_bar - b_h)
                value = float(getattr(report, "sum_se", report))
            except Exception as exc:
                report, value = None, exc
            se = getattr(report, "se", ())
            yield b_h, b_bar - b_h, value, tuple(se if isinstance(se, list) else np.asarray(se, dtype=float).tolist())

    return _select(rows())
