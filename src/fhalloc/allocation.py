r"""Fronthaul bit budget and the CSI/precoder bit-split search.

Per coherence block the fronthaul carries, besides fixed control payload,
one K x M CSI matrix uplink and one M x K precoding matrix downlink, both
at per-entry resolutions chosen from a shared budget.  With C_FH the link
capacity available to the block and the control payload subtracted, the
total per-entry bits are

    B_bar = floor((C_FH - (Bs_ul T_u + Bs_dl T_d) K) / (K M)),

to be split as B_H + B_P = B_bar with both parts at least 1 bit.  A budget
below 2 is infeasible (split_range, the one place that rule lives), and
a non-finite capacity or control rate is an error.  The split is chosen
by evaluating the sum spectral efficiency at every candidate (B_H, B_P)
and keeping the best; the candidate count is B_bar - 1, so exhaustive
scan is the right tool.

line_search takes the integer budget and a per-split evaluator.  The
closed-form MRT search computes the whole profile in one numpy pass and
hands line_search a lookup into it, so its profile is always complete; a
partial profile, cut short by an evaluator that raised or returned a
non-finite objective, can only come from the Monte Carlo evaluator.  The
lookup's per-user rows are lists of Python floats, made by one tolist of
the whole profile, which line_search keeps as they stand: no candidate
costs an array round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .sysmodel import _real


class InfeasibleBudgetError(ValueError):
    """The fronthaul budget cannot fund at least one bit on each transfer."""


def split_range(b_bar: int) -> range:
    """The B_H of every split B_H + B_P = b_bar with a bit on each transfer.

    Raises InfeasibleBudgetError when b_bar is below 2.
    """
    if b_bar < 2:
        raise InfeasibleBudgetError(f"b_bar = {b_bar}, need at least 2 (one bit per transfer)")
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
    split_range(b_bar)  # refuses a b_bar below 2
    return replace(budget, b_bar=b_bar)


@dataclass(frozen=True)
class BitSplit:
    """One candidate allocation: b_h bits for CSI, b_p for the precoder."""

    b_h: int
    b_p: int


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of a bit-split search over one budget.

    profile holds one (b_h, b_p, sum_se, per_user_se) tuple per scanned
    candidate in scan order; per_user_se is empty when the evaluator
    returned a bare objective value.  failed is set when an evaluator
    raised mid-scan, in which case profile covers only the candidates
    finished before the failure and error carries the message.
    """

    best: BitSplit
    best_sum_se: float
    profile: tuple
    failed: bool = False
    error: str | None = None

    @property
    def b_h(self) -> int:
        return self.best.b_h

    @property
    def b_p(self) -> int:
        return self.best.b_p

    @property
    def b_bar(self) -> int:
        return self.best.b_h + self.best.b_p


def line_search(b_bar: int, evaluate: Callable[[int, int], object]) -> AllocationResult:
    """Exhaustive scan of B_H = 1..B_bar-1 with B_P = B_bar - B_H.

    evaluate(b_h, b_p) gives the objective of each candidate: anything
    with a sum_se attribute (and optionally per-user se), or a plain
    number.  Strict improvement is required to move the incumbent, so
    ties resolve to the smallest B_H.  The full profile is retained for
    inspection.  A per-user se that is a list is taken as it stands, so
    it should hold floats (optimize_split hands over lists of Python
    floats); any other per-user se, such as a SeReport's array, is
    converted to floats with numpy.

    A non-finite objective counts as a failed candidate.  If a candidate
    fails after at least one finished, the partial profile is returned
    with failed=True; a failure on the very first candidate propagates
    (a non-finite objective as ValueError).
    """
    best = None
    profile = []
    failure = None
    for b_h in split_range(b_bar):
        b_p = b_bar - b_h
        try:
            report = evaluate(b_h, b_p)
            value = float(getattr(report, "sum_se", report))
            if not math.isfinite(value):
                raise ValueError(f"objective is {value!r}, not a finite number")
        except Exception as exc:
            if not profile:
                raise
            failure = f"({b_h}, {b_p}): {type(exc).__name__}: {exc}"
            break
        se = getattr(report, "se", ())
        per_user = tuple(se if isinstance(se, list) else np.asarray(se, dtype=float).tolist())
        profile.append((b_h, b_p, value, per_user))
        if best is None or value > best[2]:
            best = profile[-1]
    return AllocationResult(
        best=BitSplit(b_h=best[0], b_p=best[1]),
        best_sum_se=best[2],
        profile=tuple(profile),
        failed=failure is not None,
        error=failure,
    )
