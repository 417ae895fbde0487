import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhalloc.allocation import (
    AllocationResult,
    BitSplit,
    FronthaulBudget,
    InfeasibleBudgetError,
    compute_budget,
    line_search,
)


class TestComputeBudget:
    def test_raw_capacity(self):
        budget = compute_budget(FronthaulBudget(c_fh=30720.0), M=128, K=8)
        assert budget.b_bar == 30

    def test_capacity_minus_control_payload(self):
        budget = FronthaulBudget(c_fh=16640.0, bs_ul=10.0, bs_dl=10.0, t_u=40, t_d=40)
        assert budget.payload_bits(8) == 6400.0
        assert compute_budget(budget, M=128, K=8).b_bar == 10

    def test_floor_division(self):
        assert compute_budget(FronthaulBudget(c_fh=1023.0), M=16, K=4).b_bar == 15
        assert compute_budget(FronthaulBudget(c_fh=1024.0), M=16, K=4).b_bar == 16

    def test_original_untouched(self):
        raw = FronthaulBudget(c_fh=30720.0)
        compute_budget(raw, M=128, K=8)
        assert raw.b_bar is None

    def test_payload_eats_the_capacity(self):
        budget = FronthaulBudget(c_fh=1000.0, bs_ul=25.0, t_u=40)
        with pytest.raises(InfeasibleBudgetError):
            compute_budget(budget, M=16, K=1)

    def test_one_bit_total_is_infeasible(self):
        with pytest.raises(InfeasibleBudgetError):
            compute_budget(FronthaulBudget(c_fh=100.0), M=16, K=4)

    def test_two_bits_is_feasible(self):
        assert compute_budget(FronthaulBudget(c_fh=128.0), M=16, K=4).b_bar == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_budget(FronthaulBudget(c_fh=-1.0), M=16, K=4)
        with pytest.raises(ValueError):
            compute_budget(FronthaulBudget(c_fh=100.0), M=0, K=4)
        with pytest.raises(ValueError):
            compute_budget(FronthaulBudget(c_fh=100.0), M=16, K=0)

    def test_infeasible_is_a_value_error(self):
        assert issubclass(InfeasibleBudgetError, ValueError)

    @pytest.mark.parametrize("key", ["c_fh", "bs_ul", "bs_dl"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_field_is_named(self, key, value):
        budget = FronthaulBudget(**{"c_fh": 16640.0, "t_u": 40, "t_d": 40, key: value})
        with pytest.raises(ValueError, match=f"{key} must be finite") as info:
            compute_budget(budget, M=128, K=8)
        assert not isinstance(info.value, InfeasibleBudgetError)

    @settings(max_examples=200, deadline=None)
    @given(
        M=st.integers(8, 256),
        K=st.integers(1, 16),
        c_fh=st.integers(0, 50_000),
        bs_ul=st.integers(0, 50),
        bs_dl=st.integers(0, 50),
        t_u=st.integers(0, 40),
        t_d=st.integers(0, 40),
    )
    def test_matches_brute_force_count(self, M, K, c_fh, bs_ul, bs_dl, t_u, t_d):
        """b_bar is the most bits per entry whose K x M entries fit after the payload."""
        budget = FronthaulBudget(c_fh=float(c_fh), bs_ul=float(bs_ul), bs_dl=float(bs_dl), t_u=t_u, t_d=t_d)
        left = c_fh - (bs_ul * t_u + bs_dl * t_d) * K  # exact in integers
        # the payload costs at most 500 bits per entry and c_fh funds at most 6250
        expected = max(b for b in range(-600, 6300) if b * K * M <= left)
        if expected < 2:
            with pytest.raises(InfeasibleBudgetError):
                compute_budget(budget, M=M, K=K)
        else:
            assert compute_budget(budget, M=M, K=K).b_bar == expected


class TestLineSearch:
    def test_scans_every_split(self):
        seen = []

        def evaluate(b_h, b_p):
            seen.append((b_h, b_p))
            return 1.0

        line_search(10, evaluate)
        assert seen == [(b, 10 - b) for b in range(1, 10)]

    def test_finds_the_peak(self):
        result = line_search(12, lambda b_h, b_p: -((b_h - 9) ** 2))
        assert result.best == BitSplit(b_h=9, b_p=3)
        assert result.best_sum_se == 0.0
        assert result.b_h == 9 and result.b_p == 3 and result.b_bar == 12

    def test_tie_breaks_to_smaller_b_h(self):
        # min(b_h, b_p) peaks at both (3, 4) and (4, 3)
        result = line_search(7, lambda b_h, b_p: float(min(b_h, b_p)))
        assert result.best == BitSplit(b_h=3, b_p=4)

    def test_best_matches_profile_rescan(self):
        rng = np.random.default_rng(0)
        values = {b: float(rng.standard_normal()) for b in range(1, 20)}
        result = line_search(20, lambda b_h, b_p: values[b_h])
        assert result.best_sum_se == max(row[2] for row in result.profile)
        top = min(b for b, v in values.items() if v == result.best_sum_se)
        assert result.b_h == top

    def test_minimal_budget_single_candidate(self):
        result = line_search(2, lambda b_h, b_p: 5.0)
        assert result.best == BitSplit(b_h=1, b_p=1)
        assert len(result.profile) == 1

    def test_accepts_report_objects(self):
        class Report:
            def __init__(self, sum_se, se):
                self.sum_se = sum_se
                self.se = se

        result = line_search(4, lambda b_h, b_p: Report(float(b_h), [0.5 * b_h, 0.5 * b_h]))
        assert result.best_sum_se == 3.0
        assert result.profile[0] == (1, 3, 1.0, (0.5, 0.5))

    def test_bare_float_evaluator_leaves_per_user_empty(self):
        result = line_search(4, lambda b_h, b_p: float(b_h))
        assert all(row[3] == () for row in result.profile)

    def test_partial_failure_keeps_prefix(self):
        def evaluate(b_h, b_p):
            if b_h == 4:
                raise RuntimeError("boom")
            return float(b_h)

        result = line_search(8, evaluate)
        assert result.failed
        assert result.error == "(4, 4): RuntimeError: boom"
        assert [row[0] for row in result.profile] == [1, 2, 3]
        assert result.best == BitSplit(b_h=3, b_p=5)

    def test_first_candidate_failure_propagates(self):
        def evaluate(b_h, b_p):
            raise RuntimeError("dead on arrival")

        with pytest.raises(RuntimeError, match="dead on arrival"):
            line_search(6, evaluate)

    @pytest.mark.parametrize("bad", (float("nan"), float("inf"), float("-inf")))
    def test_non_finite_objective_is_a_failed_candidate(self, bad):
        result = line_search(8, lambda b_h, b_p: bad if b_h == 3 else float(b_h))
        assert result.failed
        assert result.error == f"(3, 5): ValueError: objective is {bad!r}, not a finite number"
        assert [row[0] for row in result.profile] == [1, 2]
        assert result.best == BitSplit(b_h=2, b_p=6)
        with pytest.raises(ValueError, match="not a finite number"):
            line_search(8, lambda b_h, b_p: bad)

    def test_budget_object_input(self):
        budget = compute_budget(FronthaulBudget(c_fh=30720.0), M=128, K=8)
        result = line_search(budget, lambda b_h, b_p: float(-abs(b_h - 15)))
        assert result.b_h == 15
        assert len(result.profile) == 29

    def test_budget_without_b_bar_rejected(self):
        with pytest.raises(ValueError, match="compute_budget"):
            line_search(FronthaulBudget(c_fh=30720.0), lambda b_h, b_p: 1.0)

    def test_infeasible_integer_budget(self):
        with pytest.raises(InfeasibleBudgetError):
            line_search(1, lambda b_h, b_p: 1.0)

    def test_precomputed_objectives(self):
        class Report:
            def __init__(self, sum_se, se):
                self.sum_se = sum_se
                self.se = se

        values = [1.0, 3.0, 2.0, 3.0]
        rows = [Report(v, np.array([v / 2, v / 2])) for v in values]
        result = line_search(5, rows)
        assert result.best == BitSplit(b_h=2, b_p=3)  # the tie at B_H = 4 goes to the smaller B_H
        assert result.profile == line_search(5, lambda b_h, b_p: rows[b_h - 1]).profile
        assert result.profile[1] == (2, 3, 3.0, (1.5, 1.5))
        assert line_search(3, [4.0, 5.0]).best == BitSplit(b_h=2, b_p=1)

    def test_precomputed_objectives_must_cover_every_split(self):
        with pytest.raises(ValueError, match="3 objectives given for the 4 splits"):
            line_search(5, [1.0, 2.0, 3.0])

    def test_result_is_immutable(self):
        result = line_search(3, lambda b_h, b_p: 1.0)
        assert isinstance(result, AllocationResult)
        with pytest.raises(AttributeError):
            result.best_sum_se = 2.0
