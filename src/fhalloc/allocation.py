r"""Fronthaul bit budget and the CSI/precoder bit-split search.

Per coherence block the fronthaul carries, besides fixed control payload,
one K x M CSI matrix uplink and one M x K precoding matrix downlink, both
at per-entry resolutions chosen from a shared budget.  With C_FH the link
capacity available to the block and the control payload subtracted, the
total per-entry bits are

    B_bar = floor((C_FH - (Bs_ul T_u + Bs_dl T_d) K) / (K M)),

to be split as B_H + B_P = B_bar with both parts at least 1 bit.  A budget
below 2 is infeasible, and a non-finite capacity or control rate is an
error.  The split is chosen by evaluating the sum spectral efficiency at
every candidate (B_H, B_P) and keeping the best; the candidate count is
B_bar - 1, so exhaustive scan is the right tool.

line_search takes the objective either as a per-split evaluator or as the
whole profile already computed.  The closed-form MRT search uses the
latter (the closed form evaluates every split in one numpy pass), so its
profile is always complete; a partial profile, cut short by an evaluator
that raised or returned a non-finite objective, can only come from the
Monte Carlo evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np


class InfeasibleBudgetError(ValueError):
    """The fronthaul budget cannot fund at least one bit on each transfer."""


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
    """Fill in the per-entry bit budget B_bar; raises if it lands below 2."""
    if M < 1 or K < 1:
        raise ValueError("M and K must be positive")
    for key in ("c_fh", "bs_ul", "bs_dl"):
        if not np.isfinite(getattr(budget, key)):
            raise ValueError(f"{key} must be finite, got {getattr(budget, key)!r}")
    if budget.c_fh < 0:
        raise ValueError("c_fh must be nonnegative")
    remaining = budget.c_fh - budget.payload_bits(K)
    b_bar = int(np.floor(remaining / (K * M)))
    if b_bar < 2:
        raise InfeasibleBudgetError(
            f"budget funds {b_bar} bits per entry, need at least 2 (one per transfer)"
        )
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


def line_search(
    budget: FronthaulBudget | int, evaluate: Callable[[int, int], object] | Sequence
) -> AllocationResult:
    """Exhaustive scan of B_H = 1..B_bar-1 with B_P = B_bar - B_H.

    `budget` is either a FronthaulBudget with b_bar filled in or the bare
    integer budget.  `evaluate` gives the objective of each candidate:
    either a callable evaluate(b_h, b_p), or a sequence of the B_bar - 1
    objectives in scan order, from an evaluator that computes the whole
    profile in one pass.  An objective is anything with a sum_se
    attribute (and optionally per-user se), or a plain number.  Strict
    improvement is required to move the incumbent, so ties resolve to the
    smallest B_H.  The full profile is retained for inspection.

    A non-finite objective counts as a failed candidate.  If a candidate
    fails after at least one finished, the partial profile is returned
    with failed=True; a failure on the very first candidate propagates
    (a non-finite objective as ValueError).
    """
    if isinstance(budget, FronthaulBudget):
        if budget.b_bar is None:
            raise ValueError("budget has no b_bar; pass it through compute_budget first")
        b_bar = int(budget.b_bar)
    else:
        b_bar = int(budget)
    if b_bar < 2:
        raise InfeasibleBudgetError(f"b_bar = {b_bar} leaves no feasible split")
    if not callable(evaluate):
        rows = evaluate
        if len(rows) != b_bar - 1:
            raise ValueError(f"{len(rows)} objectives given for the {b_bar - 1} splits of b_bar = {b_bar}")
        evaluate = lambda b_h, b_p: rows[b_h - 1]

    best = None
    profile = []
    failure = None
    for b_h in range(1, b_bar):
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
        per_user = tuple(np.asarray(getattr(report, "se", ()), dtype=float).tolist())
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
