import csv
import functools
import json
import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import fhalloc.cli as cli
import fhalloc.experiments as experiments
import fhalloc.sysmodel as sysmodel
from fhalloc.allocation import AllocationResult, BitSplit, FronthaulBudget
from fhalloc.cli import main
from fhalloc.experiments import (
    ExperimentSpec,
    _expand_sweep,
    optimize_split,
    preset_cells,
    preset_spec,
    reproduce,
    run_sweep,
)


def small_spec(**over):
    base = dict(
        M=16,
        K=2,
        tau_c=50,
        tau_p=8,
        snr_db=(0.0,),
        precoders=("mrt",),
        b_bar=4,
        trials=40,
        moment_trials=120,
        seed=3,
    )
    base.update(over)
    return ExperimentSpec(**base)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestExperimentSpec:
    def test_json_round_trip(self):
        spec = small_spec(budget=FronthaulBudget(c_fh=16640.0, bs_ul=10.0, t_u=40), b_bar=None)
        wire = json.dumps(spec.to_dict())
        back = ExperimentSpec.from_dict(json.loads(wire))
        assert back == spec
        assert isinstance(back.budget, FronthaulBudget)

    def test_numpy_counts_are_stored_as_ints(self):
        spec = small_spec(trials=np.int32(5), seed=np.int64(3), workers=np.uint8(1))
        assert [type(getattr(spec, key)) for key in ("trials", "seed", "workers")] == [int, int, int]
        assert json.loads(json.dumps(spec.to_dict()))["seed"] == 3

    def test_numpy_bit_widths_are_stored_as_ints(self):
        spec = small_spec(b_bar=np.int64(6), b_h_values=[np.int32(1), 2], b_p_fixed=np.uint8(2))
        assert type(spec.b_bar) is int and type(spec.b_p_fixed) is int
        assert [type(b) for b in spec.b_h_values] == [int, int]
        assert [(c.b_h, c.b_p) for c in _expand_sweep(spec)] == [(1, 2), (2, 2)]

    def test_snr_entries_are_real_numbers(self):
        """Refused when the spec is built, before any SystemConfig exists."""
        for bad in (["10"], [True], [0.0, None]):
            with pytest.raises(ValueError, match="snr_db entry must be a real number"):
                small_spec(snr_db=bad)
        assert small_spec(snr_db=[np.float32(5.0), 10]).snr_db == (5.0, 10)

    def test_resolve_b_bar_prefers_explicit(self):
        spec = small_spec(b_bar=6, budget=FronthaulBudget(c_fh=30720.0))
        assert spec.resolve_b_bar() == 6

    def test_resolve_b_bar_from_budget(self):
        spec = small_spec(M=128, K=8, b_bar=None, budget=FronthaulBudget(c_fh=30720.0))
        assert spec.resolve_b_bar() == 30

    def test_config_for(self):
        cfg = small_spec().config_for(10.0)
        assert cfg.total_power == pytest.approx(10.0)
        assert (cfg.M, cfg.K) == (16, 2)


class TestExpandSweep:
    def test_budget_pairing(self):
        cells = _expand_sweep(small_spec(b_bar=5))
        assert [(c.b_h, c.b_p) for c in cells] == [(1, 4), (2, 3), (3, 2), (4, 1)]
        assert all(c.series == "mrt_snrp0_mc_bbar5" for c in cells)

    def test_fixed_precoder_bits(self):
        cells = _expand_sweep(small_spec(b_bar=None, b_h_values=(1, 3, 5), b_p_fixed=2))
        assert [(c.b_h, c.b_p) for c in cells] == [(1, 2), (3, 2), (5, 2)]
        assert cells[0].series.endswith("_bp2")

    def test_perfect_mode_has_no_bits(self):
        cells = _expand_sweep(small_spec(csi_mode="perfect", precoders=("wf", "zf")))
        assert len(cells) == 2
        assert all(c.b_h == 0 and c.b_p == 0 for c in cells)
        assert all(c.csi_mode == "perfect" for c in cells)

    def test_closed_form_only_covers_mrt(self):
        with pytest.raises(ValueError, match="closed-form"):
            _expand_sweep(small_spec(evaluator="closed-form", precoders=("zf",)))

    def test_needs_some_budget(self):
        with pytest.raises(ValueError):
            _expand_sweep(small_spec(b_bar=None))

    def test_rejects_empty_split(self):
        with pytest.raises(ValueError, match="at least one bit"):
            _expand_sweep(small_spec(b_bar=4, b_h_values=(4,)))

    def test_snr_tags_are_filename_safe(self):
        cells = _expand_sweep(small_spec(snr_db=(-15.0,)))
        assert cells[0].series == "mrt_snrm15_mc_bbar4"
        cells = _expand_sweep(small_spec(snr_db=(2.5,)))
        assert cells[0].series == "mrt_snrp2_5_mc_bbar4"


class TestRunSweep:
    def test_outputs(self, tmp_path):
        spec = small_spec()
        meta = run_sweep(spec, tmp_path)
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0] == [
            "precoder",
            "csi_mode",
            "snr_db",
            "b_h",
            "b_p",
            "method",
            "trials",
            "seed",
            "sum_se",
            "se_1",
            "se_2",
        ]
        assert len(rows) == 1 + 3
        assert meta["rows"] == 3
        assert meta["failed_cells"] == []
        for row in rows[1:]:
            assert row[0] == "mrt" and row[5] == "monte_carlo"
            assert row[6] == "40" and row[7] == "3"
            total = float(row[8])
            parts = sum(float(v) for v in row[9:])
            assert total == pytest.approx(parts, abs=1e-9)

        dat = tmp_path / "sweep_mrt_snrp0_mc_bbar4.dat"
        assert dat.exists()
        lines = dat.read_text().splitlines()
        assert lines[0] == "# b_h sum_se"
        points = np.loadtxt(dat)
        assert points.shape == (3, 2)
        np.testing.assert_array_equal(points[:, 0], [1, 2, 3])

        with open(tmp_path / "sweep_meta.json") as fh:
            meta_disk = json.load(fh)
        assert meta_disk["spec"]["M"] == 16
        assert meta_disk["rows"] == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, tmp_path / "a")
        run_sweep(spec, tmp_path / "b")
        assert (tmp_path / "a/sweep.csv").read_bytes() == (tmp_path / "b/sweep.csv").read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        run_sweep(small_spec(workers=1), tmp_path / "w1")
        run_sweep(small_spec(workers=2), tmp_path / "w2")
        assert (tmp_path / "w1/sweep.csv").read_bytes() == (tmp_path / "w2/sweep.csv").read_bytes()

    def test_closed_form_rows(self, tmp_path):
        spec = small_spec(evaluator="closed-form")
        run_sweep(spec, tmp_path)
        rows = read_csv(tmp_path / "sweep.csv")
        for row in rows[1:]:
            assert row[5] == "closed_form_mrt"
            assert row[6] == "0"  # nothing sampled
            assert row[7] == str(spec.seed)

    def test_failed_cell_is_reported_not_fatal(self, tmp_path, monkeypatch):
        real = experiments._eval_cell

        def flaky(spec_dict, cell):
            if cell.b_h == 2:
                raise RuntimeError("synthetic failure")
            return real(spec_dict, cell)

        monkeypatch.setattr(experiments, "_eval_cell", flaky)
        meta = run_sweep(small_spec(), tmp_path)
        assert meta["rows"] == 2
        assert len(meta["failed_cells"]) == 1
        failed = meta["failed_cells"][0]
        assert failed["b_h"] == 2
        assert "RuntimeError: synthetic failure" in failed["error"]
        assert len(read_csv(tmp_path / "sweep.csv")) == 1 + 2
        timed = meta["cells"][1]
        assert timed["b_h"] == 2 and timed["redraws"] is None and timed["elapsed_s"] >= 0

    @pytest.mark.parametrize("workers", (1, 2))
    def test_meta_times_every_cell_in_order(self, tmp_path, workers):
        spec = small_spec(precoders=("zf", "mrt"), workers=workers)
        run_sweep(spec, tmp_path)
        cells = json.loads((tmp_path / "sweep_meta.json").read_text())["cells"]
        assert [(c["series"], c["b_h"], c["b_p"]) for c in cells] == [
            (c.series, c.b_h, c.b_p) for c in _expand_sweep(spec)
        ]
        assert all(c["elapsed_s"] >= 0 and c["redraws"] == 0 for c in cells)

    def test_meta_stage_timers(self, tmp_path, monkeypatch):
        """stats_s is spent on a memo miss only; the stage timers leave the data files alone."""
        monkeypatch.setattr(sysmodel, "_stats_cache", {})
        spec = small_spec(precoders=("zf", "mrt"), beta=[0.5, 1.0])
        cold = run_sweep(spec, tmp_path / "cold")["cells"]
        warm = run_sweep(spec, tmp_path / "warm")["cells"]
        for cells in (cold, warm):
            assert all(c["moments_s"] > 0 and c["kxk_s"] > 0 for c in cells)
        # the first cell draws both the trial and the moment statistics
        assert cold[0]["stats_s"] > 0 and all(c["stats_s"] == 0 for c in cold[1:] + warm)
        names = sorted(p.name for p in (tmp_path / "cold").iterdir() if p.suffix in (".csv", ".dat"))
        assert len(names) == 3
        for name in names:
            assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()
        closed = run_sweep(small_spec(evaluator="closed-form"), tmp_path / "closed")["cells"]
        assert all(c[stage] == 0 for c in closed for stage in experiments.STAGES)

    def test_spec_out_dir_fallback(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_sweep(small_spec(out_dir="from_spec"))
        assert (tmp_path / "from_spec/sweep.csv").exists()


class TestOptimizeSplit:
    def test_closed_form_balances_the_budget(self):
        spec = small_spec(M=64, K=4, snr_db=(10.0,), b_bar=10, evaluator="closed-form")
        result = optimize_split(spec)
        assert (result.b_h, result.b_p) == (5, 5)
        assert len(result.profile) == 9
        assert result.best_sum_se == max(row[2] for row in result.profile)

    def test_mc_path(self):
        result = optimize_split(small_spec(trials=50))
        assert result.b_h + result.b_p == 4
        assert len(result.profile) == 3

    def test_needs_single_snr(self):
        with pytest.raises(ValueError):
            optimize_split(small_spec(snr_db=(0.0, 10.0)))

    def test_needs_budget(self):
        with pytest.raises(ValueError):
            optimize_split(small_spec(b_bar=None))

    def test_closed_form_rejects_other_precoders(self):
        with pytest.raises(ValueError):
            optimize_split(small_spec(evaluator="closed-form"), precoder="wf")


class TestPresets:
    def test_fig4_grid(self):
        spec = preset_spec("fig4")
        assert spec.snr_db == (10.0,)
        assert spec.b_bar == 10
        cells = preset_cells("fig4", spec)
        assert len(cells) == 4 * 9
        mc = [c for c in cells if c.method == "monte_carlo"]
        closed = [c for c in cells if c.method == "closed_form_mrt"]
        assert len(mc) == 27 and len(closed) == 9
        assert all(c.b_h + c.b_p == 10 for c in cells)
        assert all(c.precoder == "mrt" for c in closed)

    def test_fig3_is_the_low_snr_variant(self):
        spec = preset_spec("fig3")
        assert spec.snr_db == (-15.0,)
        assert spec.b_bar == 10

    def test_fig2_layout(self):
        spec = preset_spec("fig2")
        cells = preset_cells("fig2", spec)
        perfect = [c for c in cells if c.csi_mode == "perfect"]
        assert len(perfect) == 3
        assert all(c.b_h == 0 and c.b_p == 0 for c in perfect)
        mc = [c for c in cells if c.method == "monte_carlo" and c.csi_mode == "quantized"]
        assert len(mc) == 2 * 3 * 29
        assert {c.b_p for c in mc} == {2, 20}
        closed = [c for c in cells if c.method == "closed_form_mrt"]
        assert len(closed) == 2 * 29

    def test_overrides(self):
        spec = preset_spec("fig4", M=16, K=2, trials=5)
        assert (spec.M, spec.K, spec.trials) == (16, 2, 5)

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            preset_spec("fig9")

    def test_reproduce_small(self, tmp_path):
        meta = reproduce(
            "fig4", tmp_path, M=16, K=2, trials=10, moment_trials=120, seed=5
        )
        assert meta["rows"] == 36
        assert meta["failed_cells"] == []
        rows = read_csv(tmp_path / "fig4.csv")
        assert len(rows) == 37
        assert meta["spec"]["name"] == "fig4"

    def test_outputs_do_not_depend_on_memo_state_or_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sysmodel, "_stats_cache", {})
        reproduce("fig4", tmp_path / "cold", M=16, K=2, trials=20)
        assert list(sysmodel._stats_cache) == [(16, 2, 1, sysmodel.DOMAIN_TRIAL, tuple(range(20)))]
        reproduce("fig4", tmp_path / "warm", M=16, K=2, trials=20)
        reproduce("fig4", tmp_path / "pool", M=16, K=2, trials=20, workers=2)
        names = sorted(p.name for p in (tmp_path / "cold").iterdir() if p.suffix in (".csv", ".dat"))
        assert len(names) == 5 and "fig4.csv" in names
        for name in names:
            cold = (tmp_path / "cold" / name).read_bytes()
            assert (tmp_path / "warm" / name).read_bytes() == cold, name
            assert (tmp_path / "pool" / name).read_bytes() == cold, name

        # every CSV float reads back as the value the run computed
        spec = preset_spec("fig4", M=16, K=2, trials=20)
        cells = preset_cells("fig4", spec)
        reports = [outcome.report for outcome in experiments.run_cells(spec, cells)]
        rows = read_csv(tmp_path / "cold" / "fig4.csv")[1:]
        assert len(rows) == len(cells)
        for row, cell, rep in zip(rows, cells, reports):
            assert (row[0], int(row[3]), int(row[4]), row[5]) == (cell.precoder, cell.b_h, cell.b_p, cell.method)
            assert float(row[8]) == rep.sum_se
            assert [float(v) for v in row[9:]] == rep.se.tolist()


class TestCli:
    def test_eta(self, capsys):
        assert main(["eta", "--bits", "8"]) == 0
        assert capsys.readouterr().out.strip() == "4.15145728508198e-05"

    def test_eta_rejects_zero_bits(self, capsys):
        assert main(["eta", "--bits", "0"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_budget_from_capacity(self, capsys):
        code = main(
            ["budget", "--cfh", "16640", "--bs-ul", "10", "--bs-dl", "10", "--tu", "40", "--td", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["b_bar 10", "splits 9"]

    def test_budget_infeasible_exit_code(self, capsys):
        assert main(["budget", "--cfh", "100"]) == 3
        assert "infeasible budget" in capsys.readouterr().err

    def test_budget_needs_input(self, capsys):
        assert main(["budget"]) == 2

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["budget", "--cfh", "inf"], "c_fh"),
            (["budget", "--cfh", "nan"], "c_fh"),
            (["budget", "--cfh=-inf"], "c_fh"),
            (["budget", "--cfh", "16640", "--bs-ul", "inf", "--tu", "40"], "bs_ul"),
            (["budget", "--cfh", "16640", "--bs-dl", "nan", "--td", "40"], "bs_dl"),
            (["optimize", "--cfh", "inf"], "c_fh"),
            (["optimize", "--cfh", "nan"], "c_fh"),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(a.lstrip("-") for a in v),
    )
    def test_non_finite_budget_exits_two(self, tmp_path, capsys, argv, field):
        if argv[0] == "optimize":
            argv = argv + ["--out", str(tmp_path)]
        assert main(argv) == 2
        assert f"config error: {field} must be finite" in capsys.readouterr().err

    def test_optimize_with_profile(self, tmp_path, capsys):
        profile = tmp_path / "profile.csv"
        code = main(
            [
                "optimize",
                "--m", "64",
                "--k", "4",
                "--snr-db", "10",
                "--budget-bbar", "10",
                "--profile-out", str(profile),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best_b_h 5" in out
        assert "best_b_p 5" in out
        rows = read_csv(profile)
        assert rows[0] == ["b_h", "b_p", "sum_se", "se_1", "se_2", "se_3", "se_4"]
        assert len(rows) == 10

    def test_sweep_writes_outputs(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--m", "16",
                "--k", "2",
                "--tau-c", "50",
                "--snr-db", "0",
                "--precoder", "mrt",
                "--budget-bbar", "4",
                "--trials", "20",
                "--evaluator", "closed-form",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert "wrote 3 rows" in capsys.readouterr().out
        assert (tmp_path / "sweep.csv").exists()

    def test_sweep_closed_form_needs_mrt(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--m", "16",
                "--k", "2",
                "--snr-db", "0",
                "--precoder", "zf",
                "--budget-bbar", "4",
                "--evaluator", "closed-form",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2

    def test_reproduce_runs_small(self, tmp_path, capsys):
        code = main(
            [
                "reproduce", "fig4",
                "--m", "16",
                "--k", "2",
                "--trials", "5",
                "--seed", "7",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "fig4.csv").exists()
        assert "wrote 36 rows" in capsys.readouterr().out

    def test_config_with_unknown_key_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"bogus": 1}))
        code = main(["sweep", "--config", str(config), "--budget-bbar", "4", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "bogus" in err

    def test_unknown_budget_key_is_named(self):
        with pytest.raises(ValueError, match="extra"):
            ExperimentSpec.from_dict({"budget": {"c_fh": 1e5, "extra": 2}})

    def test_optimize_aborted_search_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        partial = AllocationResult(
            best=BitSplit(1, 9),
            best_sum_se=1.5,
            profile=((1, 9, 1.5, (0.75, 0.75)),),
            failed=True,
            error="RuntimeError: synthetic failure",
        )
        monkeypatch.setattr(cli, "optimize_split", lambda spec: partial)
        profile = tmp_path / "profile.csv"
        code = main(["optimize", "--budget-bbar", "10", "--profile-out", str(profile), "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "search aborted early" in captured.err
        assert "scanned 1 of 9" in captured.out.splitlines()
        assert "aborted RuntimeError: synthetic failure" in captured.out.splitlines()
        assert read_csv(profile) == [["b_h", "b_p", "sum_se", "se_1", "se_2"], ["1", "9", "1.5", "0.75", "0.75"]]

    @pytest.mark.parametrize("command", ("sweep", "reproduce"))
    def test_bad_config_value_exits_before_any_cell(self, tmp_path, capsys, monkeypatch, command):
        def refuse(spec_dict, cell):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_eval_cell", refuse)
        if command == "sweep":
            config = tmp_path / "spec.json"
            config.write_text(json.dumps({"M": "abc"}))
            argv = ["sweep", "--config", str(config), "--budget-bbar", "4"]
        else:
            argv = ["reproduce", "fig4", "--m", "0"]
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert "M must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("sweep", {"snr_db": 5}),
            ("sweep", {"csi_mode": "bogus"}),
            ("sweep", {"evaluator": "bogus"}),
            ("optimize", {"evaluator": "bogus"}),
            ("sweep", {"precoders": ["xx"]}),
            ("sweep", {"precoders": "mrt"}),
            ("sweep", {"b_h_values": 2}),
            ("sweep", {"trials": 0}),
            ("sweep", {"seed": -1}),
            ("sweep", {"seed": 1.5}),
            ("sweep", {"moment_trials": 99}),
            ("sweep", {"workers": 0}),
            ("optimize", {"trials": True}),
            ("sweep", {"snr_db": ["10"]}),
            ("sweep", {"snr_db": [True]}),
            ("optimize", {"snr_db": [True]}),
            ("sweep", {"noise_var": "1"}),
            ("optimize", {"noise_var": "1"}),
            ("sweep", {"noise_var": True}),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={v[k]}" for k in v),
    )
    def test_bad_enumerated_or_list_field_exits_two(self, tmp_path, capsys, monkeypatch, command, config):
        def refuse(spec_dict, cell):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_eval_cell", refuse)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--budget-bbar", "3", "--m", "16", "--k", "2"]
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep", "optimize"])
    @pytest.mark.parametrize(
        "config",
        [
            {"b_bar": 10.7},
            {"b_bar": 10.0},
            {"b_bar": True},
            {"b_bar": "10"},
            {"b_bar": 6, "b_h_values": [1, 2.5]},
            {"b_bar": 6, "b_h_values": [True, 2]},
            {"b_h_values": [1, 2], "b_p_fixed": 2.5},
            {"b_h_values": [1, 2], "b_p_fixed": False},
        ],
        ids=lambda c: "-".join(f"{k}={c[k]}" for k in c),
    )
    def test_non_integer_bit_width_exits_two(self, tmp_path, capsys, monkeypatch, command, config):
        def refuse(spec_dict, cell):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_eval_cell", refuse)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--m", "16", "--k", "2", "--evaluator", "closed-form"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "must be an integer, got" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep", "optimize"])
    @pytest.mark.parametrize(
        "config",
        [{"tau_p": 8.5}, {"tau_c": 200.5}, {"tau_p": True, "K": 1}, {"K": True}],
        ids=lambda c: "-".join(f"{k}={c[k]}" for k in c),
    )
    def test_non_integer_length_exits_two(self, tmp_path, capsys, monkeypatch, command, config):
        """Pilot and block lengths and the user count are integers, never bools."""
        def refuse(spec_dict, cell):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_eval_cell", refuse)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--m", "16", "--budget-bbar", "4", "--evaluator", "closed-form"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep", "optimize"])
    @pytest.mark.parametrize("b_bar", [1, 0])
    def test_integer_b_bar_below_two_exits_three(self, tmp_path, capsys, command, b_bar):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"b_bar": b_bar}))
        argv = [command, "--config", str(path), "--m", "16", "--k", "2", "--evaluator", "closed-form"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 3
        assert f"infeasible budget: b_bar = {b_bar}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--budget-bbar", "3", "--m", "16", "--k", "2", "--trials", "0"],
            ["sweep", "--budget-bbar", "3", "--m", "16", "--k", "2", "--seed", "-1"],
            ["sweep", "--budget-bbar", "3", "--m", "16", "--k", "2", "--workers", "-3"],
            ["reproduce", "fig4", "--m", "16", "--k", "2", "--workers", "0"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
    )
    def test_bad_count_flag_exits_two(self, tmp_path, capsys, monkeypatch, argv):
        def refuse(spec_dict, cell):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_eval_cell", refuse)
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{argv[-2].lstrip('-')} must be an integer >=" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched cell reaches the workers only when they are forked",
    )
    def test_dead_pool_worker_becomes_failed_cells(self, tmp_path, capsys, monkeypatch):
        real = experiments._eval_cell

        def die(spec_dict, cell):
            if cell.b_h == 2:
                os._exit(1)
            return real(spec_dict, cell)

        monkeypatch.setattr(experiments, "_eval_cell", die)
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=fork))
        argv = ["sweep", "--m", "16", "--k", "2", "--budget-bbar", "4", "--evaluator", "closed-form", "--workers", "2"]
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 1
        assert "BrokenProcessPool" in capsys.readouterr().err
        meta = json.loads((tmp_path / "sweep_meta.json").read_text())
        failed = meta["failed_cells"]
        assert 2 in [f["b_h"] for f in failed]
        assert all(f["error"].startswith("BrokenProcessPool") for f in failed)
        assert meta["rows"] + len(failed) == 3
        assert len(read_csv(tmp_path / "sweep.csv")) == 1 + meta["rows"]

    def test_pool_broken_while_queueing_fails_the_unqueued_cells(self, monkeypatch):
        """A worker that dies before every cell is queued fails those cells, not the run."""

        class BreaksAfterFirstSubmit:
            def __init__(self, max_workers):
                self.queued = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                if self.queued:
                    raise BrokenProcessPool("A child process terminated abruptly")
                self.queued += 1
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", BreaksAfterFirstSubmit)
        spec = small_spec(evaluator="closed-form", workers=2)
        outcomes = experiments.run_cells(spec, _expand_sweep(spec))
        assert len(outcomes) == 3
        assert outcomes[0].report is not None
        assert [o.report for o in outcomes[1:]] == [None, None]
        assert all(o.error.startswith("BrokenProcessPool") for o in outcomes[1:])

    @pytest.mark.parametrize("command", ("sweep", "reproduce"))
    def test_failed_cell_exits_one_after_writing(self, tmp_path, capsys, monkeypatch, command):
        real = experiments._eval_cell

        def flaky(spec_dict, cell):
            if cell.b_h == 2:
                raise RuntimeError("synthetic failure")
            return real(spec_dict, cell)

        monkeypatch.setattr(experiments, "_eval_cell", flaky)
        small = ["--m", "16", "--k", "2", "--trials", "5"]
        if command == "sweep":
            argv = ["sweep", *small, "--budget-bbar", "4", "--evaluator", "closed-form"]
            stem, rows, failed = "sweep", 2, 1
        else:
            argv = ["reproduce", "fig4", *small]
            stem, rows, failed = "fig4", 32, 4
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert f"wrote {rows} rows" in captured.out
        assert "RuntimeError: synthetic failure" in captured.err
        assert len(read_csv(tmp_path / f"{stem}.csv")) == 1 + rows
        meta = json.loads((tmp_path / f"{stem}_meta.json").read_text())
        assert len(meta["failed_cells"]) == failed

    @pytest.mark.parametrize(
        "argv, code",
        (
            (["optimize", "--budget-bbar", "10"], 2),
            (["optimize", "--budget-bbar", "10", "--evaluator", "mc", "--precoder", "zf"], 2),
            (["sweep", "--budget-bbar", "4", "--evaluator", "closed-form"], 1),
        ),
        ids=("optimize-closed-form", "optimize-mc-zf", "sweep-closed-form"),
    )
    def test_zero_pilot_power_is_reported(self, tmp_path, capsys, argv, code):
        """No CSI at all: optimize is a config error, a sweep reports its failed cells."""
        small = ["--m", "16", "--k", "2", "--trials", "5", "--pilot-q", "0", "--out", str(tmp_path)]
        assert main(argv + small) == code
        captured = capsys.readouterr()
        assert "gamma" in captured.err
        assert "nan" not in captured.out
        if argv[0] == "sweep":
            meta = json.loads((tmp_path / "sweep_meta.json").read_text())
            assert meta["rows"] == 0 and len(meta["failed_cells"]) == 3
            assert read_csv(tmp_path / "sweep.csv") == [read_csv(tmp_path / "sweep.csv")[0]]

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps([1, 2]))
        code = main(["sweep", "--config", str(config), "--budget-bbar", "4", "--out", str(tmp_path)])
        assert code == 2
        assert "JSON object, got list" in capsys.readouterr().err

    def test_budget_without_capacity(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="c_fh"):
            ExperimentSpec.from_dict({"budget": {"bs_ul": 1}})
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"budget": {"bs_ul": 1}}))
        code = main(["sweep", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        assert "c_fh" in capsys.readouterr().err
