import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhalloc.allocation import (
    AllocationResult,
    FronthaulBudget,
    InfeasibleBudgetError,
    _B_BAR_CEILING,
    _select,
    compute_budget,
    line_search,
    split_range,
)
from fhalloc.experiments import ExperimentSpec, optimize_split
from fhalloc.quantization import eta_of_bits
from fhalloc.se import closed_form_mrt_sinr


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
        with pytest.raises(InfeasibleBudgetError, match=r"^b_bar = 1, need at least 2"):
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


class TestSplitRange:
    @pytest.mark.parametrize("b_bar", [2, 3, 30])
    def test_every_split_with_a_bit_each(self, b_bar):
        assert split_range(b_bar) == range(1, b_bar)
        assert all(b_h >= 1 and b_bar - b_h >= 1 for b_h in split_range(b_bar))

    @pytest.mark.parametrize("b_bar", [1, 0, -3])
    def test_below_two_is_infeasible(self, b_bar):
        with pytest.raises(InfeasibleBudgetError, match=rf"^b_bar = {b_bar}, need at least 2"):
            split_range(b_bar)

    @pytest.mark.parametrize("b_bar, shown", [(1078, "1078"), (20_000_000, "20000000"), (2**990 + 7, "about 2\\^990")])
    def test_above_the_ceiling_is_a_config_error(self, b_bar, shown):
        """A budget past the ceiling is refused by value, naming the ceiling, not counted as infeasible."""
        with pytest.raises(ValueError, match=rf"^b_bar = {shown} is above the ceiling of 1077 bits per entry") as info:
            split_range(b_bar)
        assert not isinstance(info.value, InfeasibleBudgetError)
        assert split_range(_B_BAR_CEILING) == range(1, _B_BAR_CEILING)

    def test_ceiling_is_the_last_budget_whose_splits_rank_strictly(self):
        """L(B_H) rises strictly up to the middle split at every budget to the ceiling, and ties two splits one bit past it.

        So up to the ceiling the search's rank min(B_H, B_P) is L's order.
        eta_of_bits is nonzero through 537 bits and 0 from 538 on, so at
        b_bar = 1078 the splits (538, 540) and (539, 539) both read L = 0.
        """
        # log1p(-eta(b)) of every width b = 1 .. ceiling, at index b - 1
        logs = [math.log1p(-eta_of_bits(b)) for b in range(1, _B_BAR_CEILING + 1)]

        def lower_half(b_bar):
            return [logs[b_h - 1] + logs[b_bar - b_h - 1] for b_h in range(1, b_bar // 2 + 1)]

        assert eta_of_bits(537) > 0.0 == eta_of_bits(538)
        for b_bar in range(2, _B_BAR_CEILING + 1):
            rank = lower_half(b_bar)
            assert all(a < b for a, b in zip(rank, rank[1:])), b_bar
        rank = lower_half(_B_BAR_CEILING + 1)
        assert rank[-2] == rank[-1] == 0.0

    def test_compute_budget_is_not_bounded_by_the_ceiling(self):
        """The budget arithmetic reports any b_bar; only a scan over its splits is bounded."""
        assert compute_budget(FronthaulBudget(c_fh=1e6), M=1, K=1).b_bar == 1_000_000


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
        assert (result.b_h, result.b_p) == (9, 3)
        assert result.best_sum_se == 0.0
        assert result.b_h == 9 and result.b_p == 3 and result.b_bar == 12

    def test_tie_breaks_to_smaller_b_h(self):
        # min(b_h, b_p) peaks at both (3, 4) and (4, 3)
        result = line_search(7, lambda b_h, b_p: float(min(b_h, b_p)))
        assert (result.b_h, result.b_p) == (3, 4)

    def test_best_matches_profile_rescan(self):
        rng = np.random.default_rng(0)
        values = {b: float(rng.standard_normal()) for b in range(1, 20)}
        result = line_search(20, lambda b_h, b_p: values[b_h])
        assert result.best_sum_se == max(row[2] for row in result.profile)
        top = min(b for b, v in values.items() if v == result.best_sum_se)
        assert result.b_h == top

    def test_minimal_budget_single_candidate(self):
        result = line_search(2, lambda b_h, b_p: 5.0)
        assert (result.b_h, result.b_p) == (1, 1)
        assert len(result.profile) == 1

    def test_accepts_report_objects(self):
        class Report:
            def __init__(self, sum_se, se):
                self.sum_se = sum_se
                self.se = se

        result = line_search(4, lambda b_h, b_p: Report(float(b_h), [0.5 * b_h, 0.5 * b_h]))
        assert result.best_sum_se == 3.0
        assert result.profile[0] == (1, 3, 1.0, (0.5, 0.5))

    def test_per_user_arrays_become_floats_and_lists_stand(self):
        as_array = line_search(3, lambda b_h, b_p: SimpleNamespace(sum_se=1.0, se=np.array([b_h, 2], np.int32)))
        assert [row[3] for row in as_array.profile] == [(1.0, 2.0), (2.0, 2.0)]
        assert all(type(v) is float for row in as_array.profile for v in row[3])
        rows = [[0.25, 0.5], [0.75, 1.0]]
        as_list = line_search(3, lambda b_h, b_p: SimpleNamespace(sum_se=1.0, se=rows[b_h - 1]))
        assert [row[3] for row in as_list.profile] == [(0.25, 0.5), (0.75, 1.0)]

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
        assert (result.b_h, result.b_p) == (3, 5)

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
        assert (result.b_h, result.b_p) == (2, 6)
        with pytest.raises(ValueError, match="not a finite number"):
            line_search(8, lambda b_h, b_p: bad)

    def test_infeasible_integer_budget(self):
        with pytest.raises(InfeasibleBudgetError, match=r"^b_bar = 1, need at least 2"):
            line_search(1, lambda b_h, b_p: 1.0)

    def test_result_is_immutable(self):
        result = line_search(3, lambda b_h, b_p: 1.0)
        assert isinstance(result, AllocationResult)
        with pytest.raises(AttributeError):
            result.best_sum_se = 2.0


def closed_form_spec(M, K, snr_db, b_bar, users="equal"):
    extra = {
        "equal": {},
        "unequal-beta": {"beta": [0.1 + 0.4 * k for k in range(K)]},
        "one-zero-pilot": {"pilot_q": [0.0] + [1.0 + k for k in range(1, K)]},
    }[users]
    return ExperimentSpec(
        name="search", M=M, K=K, tau_c=200, tau_p=K, snr_db=(snr_db,), evaluator="closed-form", b_bar=b_bar, **extra
    )


def reference_search(spec):
    """line_search over closed_form_mrt_sinr, one split at a time."""
    cfg = spec.config_for(spec.snr_db[0])
    return line_search(spec.b_bar, lambda b_h, b_p: closed_form_mrt_sinr(cfg, b_h, b_p))


class TestClosedFormSearch:
    """optimize_split builds its closed-form result from the profile arrays, equal to line_search's."""

    @pytest.mark.parametrize("users", ["equal", "unequal-beta", "one-zero-pilot"])
    @pytest.mark.parametrize("K", [2, 8, 16])
    @pytest.mark.parametrize("M", [32, 128])
    def test_equals_line_search_over_the_closed_form(self, M, K, users):
        """b_bar up to 40 takes both widths past the 32-bit eta table."""
        for snr_db in (-20.0, 0.0, 20.0):
            for b_bar in range(2, 41):
                spec = closed_form_spec(M, K, snr_db, b_bar, users)
                result = optimize_split(spec)
                assert result == reference_search(spec)
                assert not result.failed and len(result.profile) == b_bar - 1

    @pytest.mark.parametrize("snr_db", [-20.0, 0.0, 20.0])
    def test_odd_budget_picks_the_lower_middle_split(self, snr_db):
        for b_bar in range(3, 41, 2):
            result = optimize_split(closed_form_spec(128, 8, snr_db, b_bar))
            assert (result.b_h, result.b_p) == ((b_bar - 1) // 2, (b_bar + 1) // 2)

    @pytest.mark.parametrize("users", ["equal", "unequal-beta", "one-zero-pilot"])
    @pytest.mark.parametrize("K", [2, 8, 16])
    @pytest.mark.parametrize("M", [32, 128])
    def test_table_rows_are_the_closed_form_of_each_split(self, M, K, users):
        """Every row of the split-table path, mirrored half included, is closed_form_mrt_sinr of its split, by ==.

        b_bar up to 60 runs past 28 bits, where 1 - eta rounds to 1 and the
        rows no longer tell the middle splits apart; L still picks the
        middle one.
        """
        for snr_db in (-20.0, 0.0, 20.0):
            cfg = closed_form_spec(M, K, snr_db, 2, users).config_for(snr_db)
            for b_bar in range(2, 61):
                result = optimize_split(closed_form_spec(M, K, snr_db, b_bar, users))
                assert [row[:2] for row in result.profile] == [(b_h, b_bar - b_h) for b_h in range(1, b_bar)]
                for b_h, b_p, sum_se, per_user in result.profile:
                    alone = closed_form_mrt_sinr(cfg, b_h, b_p)
                    assert sum_se == alone.sum_se
                    assert per_user == tuple(alone.se.tolist())
                assert (result.b_h, result.b_p) == (b_bar // 2, b_bar - b_bar // 2)
                assert result.best_sum_se == result.profile[b_bar // 2 - 1][2]

    def test_rank_agrees_with_the_sum_se_where_the_se_separates_the_splits(self):
        """At the default config, b_bar 2 to 54 give line_search's answer, ranked on the sum SE."""
        for b_bar in range(2, 55):
            spec = ExperimentSpec(name="search", evaluator="closed-form", b_bar=b_bar)
            assert optimize_split(spec) == reference_search(spec)

    def test_every_budget_up_to_the_ceiling_picks_the_middle_split(self):
        """Even budgets pick the middle split and odd ones keep their middle tie at the smaller B_H."""
        for b_bar in range(2, _B_BAR_CEILING + 1):
            result = optimize_split(closed_form_spec(32, 2, 0.0, b_bar))
            assert (result.b_h, result.b_p) == (b_bar // 2, b_bar - b_bar // 2)
        with pytest.raises(ValueError, match="ceiling of 1077"):
            optimize_split(closed_form_spec(32, 2, 0.0, _B_BAR_CEILING + 1))

    @pytest.mark.parametrize("K", [2, 8, 12, 16])
    @pytest.mark.parametrize("snr_db", [-20.0, 0.0, 20.0])
    def test_equal_users_give_the_bits_of_their_user_vectors(self, K, snr_db):
        """A config given one beta and pilot power evaluates one user per split; one given the same K-vectors, every user.

        The two paths must agree bit for bit: the search's best split,
        best_sum_se and every profile row, and closed_form_mrt_sinr's rows.
        A Python sum over the users differs from numpy's from K = 8, and K v
        from the sum of K equal values at K = 12 (not at 2, 8 or 16, where
        both are exact).  An unequal-beta config at the same budgets is checked
        against line_search over closed_form_mrt_sinr.
        """
        users = {"beta": 0.7, "pilot_q": 3.0}
        scalar = dataclasses.replace(closed_form_spec(128, K, snr_db, 2, "equal"), **users)
        vector = dataclasses.replace(scalar, **{key: [value] * K for key, value in users.items()})
        unequal = closed_form_spec(128, K, snr_db, 2, "unequal-beta")
        cfg_s, cfg_v = scalar.config_for(snr_db), vector.config_for(snr_db)
        assert cfg_s._equal_users == (0.7, 3.0) and cfg_v._equal_users is None
        for b_bar in (2, 3, 32, 1077):
            got = optimize_split(dataclasses.replace(scalar, b_bar=b_bar))
            want = optimize_split(dataclasses.replace(vector, b_bar=b_bar))
            assert (got.b_h, got.b_p, got.best_sum_se, got.failed) == (want.b_h, want.b_p, want.best_sum_se, False)
            assert got.profile == want.profile and len(got.profile) == b_bar - 1
            # past 28 bits the sum SE ties the middle splits, which the rank min(B_H, B_P) still orders
            result, reference = (f(dataclasses.replace(unequal, b_bar=b_bar)) for f in (optimize_split, reference_search))
            assert result == reference if b_bar <= 32 else (result.profile, result.b_h) == (reference.profile, b_bar // 2)
            for b_h in (*range(1, min(b_bar, 40)), None):
                b_p = None if b_h is None else b_bar - b_h
                alone_s, alone_v = closed_form_mrt_sinr(cfg_s, b_h, b_p), closed_form_mrt_sinr(cfg_v, b_h, b_p)
                assert alone_s.sinr.tobytes() == alone_v.sinr.tobytes() and alone_s.se.tobytes() == alone_v.se.tobytes()
                assert alone_s.sum_se == alone_v.sum_se and alone_s.se.shape == (K,)
        # the default beta and pilot power, and those values as vectors
        default = closed_form_spec(128, K, snr_db, 33, "equal")
        q = default.config_for(snr_db).pilot_power[0]
        assert optimize_split(default) == optimize_split(dataclasses.replace(default, beta=[1.0] * K, pilot_q=[float(q)] * K))

    @pytest.mark.parametrize("K", [2, 12, 16])
    def test_equal_users_share_one_se_object_per_row(self, K):
        """An equal-user row's per-user tuple is one float K times, with the bits of closed_form_mrt_sinr's se.

        An unequal-beta config keeps K separate floats per row.
        """
        for snr_db in (-20.0, 20.0):
            equal, unequal = (closed_form_spec(64, K, snr_db, 17, users) for users in ("equal", "unequal-beta"))
            cfg = equal.config_for(snr_db)
            for b_h, b_p, _, per_user in optimize_split(equal).profile:
                alone = closed_form_mrt_sinr(cfg, b_h, b_p).se.tolist()
                assert len(per_user) == K and len({id(v) for v in per_user}) == 1
                assert [v.hex() for v in per_user] == [v.hex() for v in alone]
            for row in optimize_split(unequal).profile:
                assert len({id(v) for v in row[3]}) == K

    @pytest.mark.parametrize("b_bar", range(2, 65))
    def test_balanced_select_is_the_first_maximum_of_the_smaller_width(self, b_bar):
        """On every prefix of the splits, whole or cut short by a failed row, the winner is the first maximum of min(B_H, B_P).

        The sum SE plays no part: the rows carry a falling one, so ranking
        on it would pick B_H = 1.  The winner keeps its own sum_se.
        """
        rows = [(b_h, b_bar - b_h, -float(b_h), ()) for b_h in range(1, b_bar)]
        for kept in range(1, b_bar):
            ranks = [min(b_h, b_p) for b_h, b_p, _, _ in rows[:kept]]
            want = rows[ranks.index(max(ranks))]
            whole = _select(tuple(rows[:kept]), balanced=True)
            assert (whole.b_h, whole.b_p, whole.best_sum_se, whole.failed) == (*want[:3], False)
            assert whole.profile == tuple(rows[:kept])
            if kept < b_bar - 1:
                cut = _select(rows[:kept] + [(kept + 1, b_bar - kept - 1, float("nan"), ())] + rows[kept + 1 :], balanced=True)
                assert (cut.b_h, cut.b_p, cut.profile) == (want[0], want[1], tuple(rows[:kept]))
                assert cut.failed and cut.error.startswith(f"({kept + 1}, {b_bar - kept - 1}): ValueError")
        assert _select(tuple(rows)).b_h == 1

    def test_failed_is_whether_an_error_is_set(self):
        """failed is no stored field: a result is failed exactly when it carries an error."""
        assert not AllocationResult(1, 5, 1.0, ((1, 5, 1.0, ()),)).failed
        assert AllocationResult(1, 5, 1.0, ((1, 5, 1.0, ()),), error="(2, 4): boom").failed
        assert [f.name for f in dataclasses.fields(AllocationResult)] == ["b_h", "b_p", "best_sum_se", "profile", "error"]

    def test_search_with_and_without_a_record_agree(self, tmp_path):
        """A closed-form optimize_split gives the same result from its rows as from the cells it writes to out_dir."""
        for b_bar in range(2, 61):
            spec = closed_form_spec(32, 4, 0.0, b_bar)
            recorded = optimize_split(dataclasses.replace(spec, out_dir=str(tmp_path / f"b{b_bar}")))
            assert recorded == optimize_split(spec)
            assert (tmp_path / f"b{b_bar}" / "optimize.csv").exists()

    def test_all_zero_gamma_raises(self):
        spec = dataclasses.replace(closed_form_spec(32, 4, 0.0, 10), pilot_q=0.0)
        with pytest.raises(ValueError, match="gamma = 0") as got:
            optimize_split(spec)
        with pytest.raises(ValueError) as want:
            reference_search(spec)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad", (float("nan"), float("inf")))
    def test_select_fails_a_non_finite_row_as_line_search_does(self, bad):
        rows = [(b_h, 8 - b_h, float(b_h), (0.5 * b_h, 0.5 * b_h)) for b_h in range(1, 8)]
        rows[2] = (3, 5, bad, (bad, 0.0))
        given = _select(rows)
        scanned = line_search(8, lambda b_h, b_p: SimpleNamespace(sum_se=rows[b_h - 1][2], se=list(rows[b_h - 1][3])))
        assert given.failed and given.error == f"(3, 5): ValueError: objective is {bad!r}, not a finite number"
        assert given.profile == tuple(rows[:2]) and (given.b_h, given.b_p) == (2, 6)
        assert given == scanned
        with pytest.raises(ValueError, match="not a finite number"):
            _select(rows[2:])

    def test_select_fails_a_row_that_carries_its_failure(self):
        """An exception, or a failed cell's error text, fails its row by the rule a non-finite objective follows."""
        rows = [(b_h, 8 - b_h, float(b_h), ()) for b_h in range(1, 8)]
        text = "RankDeficientError: estimated channel Gram matrix is numerically singular"
        for failure, error in ((RuntimeError("boom"), "RuntimeError: boom"), (text, text)):
            given = _select(rows[:2] + [(3, 5, failure, ())] + rows[3:])
            assert given.profile == tuple(rows[:2]) and (given.b_h, given.b_p) == (2, 6)
            assert given.failed and given.error == f"(3, 5): {error}"
        with pytest.raises(RuntimeError, match="boom"):
            _select([(1, 7, RuntimeError("boom"), ())] + rows[1:])
        with pytest.raises(ValueError, match=f"^{text}$"):
            _select([(1, 7, text, ())] + rows[1:])
