import csv
import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fhalloc
import fhalloc.cli as cli
import fhalloc.experiments as experiments
import fhalloc.se as se
import fhalloc.sysmodel as sysmodel
from fhalloc.allocation import AllocationResult, FronthaulBudget, line_search
from fhalloc.cli import main
from fhalloc.experiments import (
    EVALUATORS,
    ExperimentSpec,
    _expand_sweep,
    optimize_split,
    preset_cells,
    preset_spec,
    reproduce,
    run_sweep,
)
from fhalloc.se import mc_hardening_sinr


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

    def test_b_bar_and_budget_together_are_refused(self, tmp_path, capsys):
        """A spec sets b_bar or a budget: with both, the budget would go unread, so it is an error."""
        with pytest.raises(ValueError, match="not both"):
            small_spec(b_bar=6, budget=FronthaulBudget(c_fh=30720.0))
        with pytest.raises(ValueError, match="not both"):
            ExperimentSpec.from_dict({"b_bar": 4, "budget": {"c_fh": 6144.0}})
        # a preset sets its b_bar, so a budget override needs b_bar=None beside it
        with pytest.raises(ValueError, match="not both"):
            preset_spec("fig4", budget=FronthaulBudget(c_fh=6144.0))
        assert preset_spec("fig4", b_bar=None, budget=FronthaulBudget(c_fh=6144.0)).resolve_b_bar() == 6
        path = tmp_path / "both.json"
        path.write_text(json.dumps({"b_bar": 4, "budget": {"c_fh": 6144.0}}))
        for command in ("optimize", "sweep"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert "not both" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["both.json"]

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
        real = experiments._eval_group

        def flaky(spec, cells):
            failure = RuntimeError("synthetic failure")
            return [failure if cell.b_h == 2 else r for cell, r in zip(cells, real(spec, cells))]

        monkeypatch.setattr(experiments, "_eval_group", flaky)
        meta = run_sweep(small_spec(), tmp_path)
        assert meta["rows"] == 2
        assert len(meta["failed_cells"]) == 1
        failed = meta["failed_cells"][0]
        assert failed["b_h"] == 2
        assert "RuntimeError: synthetic failure" in failed["error"]
        assert len(read_csv(tmp_path / "sweep.csv")) == 1 + 2
        timed = meta["cells"][1]
        assert timed["b_h"] == 2 and timed["kxk_s"] is None and timed["elapsed_s"] >= 0

    @pytest.mark.parametrize("workers", (1, 2))
    def test_meta_times_every_cell_in_order(self, tmp_path, workers):
        spec = small_spec(precoders=("zf", "mrt"), workers=workers)
        run_sweep(spec, tmp_path)
        cells = json.loads((tmp_path / "sweep_meta.json").read_text())["cells"]
        assert [(c["series"], c["b_h"], c["b_p"]) for c in cells] == [
            (c.series, c.b_h, c.b_p) for c in _expand_sweep(spec)
        ]
        assert all(c["elapsed_s"] >= 0 for c in cells)

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

    @pytest.mark.parametrize("evaluator", EVALUATORS)
    @pytest.mark.parametrize("field, value", [("b_p_fixed", 3), ("b_h_values", (1, 2))])
    def test_refuses_split_pinning_fields(self, tmp_path, evaluator, field, value):
        """optimize pairs every split of the budget itself, so a pinned B_P or a B_H list is refused, not dropped."""
        spec = small_spec(M=16, K=2, tau_p=2, b_bar=10, evaluator=evaluator, **{field: value})
        for out_dir in (None, str(tmp_path / "out")):
            with pytest.raises(ValueError, match=f"takes no {field}"):
                optimize_split(dataclasses.replace(spec, out_dir=out_dir))
        assert not (tmp_path / "out").exists()

    def test_closed_form_rejects_other_precoders(self):
        with pytest.raises(ValueError, match="only covers mrt"):
            optimize_split(small_spec(evaluator="closed-form", precoders=("wf",)))

    @pytest.mark.parametrize("evaluator", EVALUATORS)
    def test_needs_single_precoder(self, evaluator):
        """A second precoder is refused, not left unsearched."""
        with pytest.raises(ValueError, match="exactly one precoder"):
            optimize_split(small_spec(evaluator=evaluator, precoders=("mrt", "zf")))

    @pytest.mark.parametrize("kind", ("mrt", "zf", "wf"))
    def test_mc_equals_line_search_over_mc_hardening_sinr(self, kind):
        """The cells of a Monte Carlo search give line_search's result over one-split mc_hardening_sinr, bit for bit."""
        for b_bar in (6, 12):
            for seed in (1, 2, 3):
                spec = small_spec(M=32, K=4, snr_db=(10.0,), b_bar=b_bar, trials=200, seed=seed, precoders=(kind,))
                cfg = spec.config_for(10.0)
                want = line_search(b_bar, lambda b_h, b_p: mc_hardening_sinr(cfg, kind, b_h, b_p, 200, seed, moment_trials=120))
                assert optimize_split(spec) == want and not want.failed

    def test_out_dir_writes_the_sweep_record(self, tmp_path):
        spec = small_spec(precoders=("zf",), budget=FronthaulBudget(c_fh=128.0), b_bar=None)
        result = optimize_split(dataclasses.replace(spec, out_dir=str(tmp_path)))
        assert result == optimize_split(spec)
        meta = json.loads((tmp_path / "optimize_meta.json").read_text())
        assert meta["outputs"] == ["optimize.csv", "optimize_zf_snrp0_mc_bbar4.dat"]
        # the record describes the search that ran: its precoder and the resolved b_bar
        assert (meta["spec"]["precoders"], meta["spec"]["b_bar"], meta["spec"]["budget"]) == (["zf"], 4, None)
        assert [row[2:] for row in result.profile] == [
            (float(row[8]), tuple(map(float, row[9:]))) for row in read_csv(tmp_path / "optimize.csv")[1:]
        ]


def layout(cells):
    """(precoder, csi_mode, method, b_h, b_p) of every cell, in cell order (the CSV row order)."""
    return [(c.precoder, c.csi_mode, c.method, c.b_h, c.b_p) for c in cells]


def shared_budget_layout(kinds, b_bar):
    """Monte Carlo curves of kinds, then the closed-form MRT curve, over every split of b_bar."""
    curves = [(kind, "monte_carlo") for kind in kinds] + [("mrt", "closed_form_mrt")]
    return [(kind, "quantized", method, b_h, b_bar - b_h) for kind, method in curves for b_h in range(1, b_bar)]


class TestPresets:
    def test_fig4_grid(self):
        spec = preset_spec("fig4")
        assert spec.snr_db == (10.0,)
        assert spec.b_bar == 10
        cells = preset_cells("fig4", spec)
        assert layout(cells) == shared_budget_layout(("wf", "zf", "mrt"), 10)
        assert all(c.snr_db == 10.0 for c in cells)

    def test_fig3_is_the_low_snr_variant(self):
        spec = preset_spec("fig3")
        assert spec.snr_db == (-15.0,)
        assert spec.b_bar == 10
        cells = preset_cells("fig3", spec)
        assert layout(cells) == shared_budget_layout(("wf", "zf", "mrt"), 10)
        assert all(c.snr_db == -15.0 for c in cells)

    def test_fig2_layout(self):
        """Perfect-CSI baselines, Monte Carlo at B_P 20 then 2, then the closed form at B_P 20 then 2."""
        spec = preset_spec("fig2")
        cells = preset_cells("fig2", spec)
        kinds = ("wf", "zf", "mrt")
        want = [(kind, "perfect", "monte_carlo", 0, 0) for kind in kinds]
        want += [(kind, "quantized", "monte_carlo", b_h, b_p) for b_p in (20, 2) for kind in kinds for b_h in range(1, 30)]
        want += [("mrt", "quantized", "closed_form_mrt", b_h, b_p) for b_p in (20, 2) for b_h in range(1, 30)]
        assert layout(cells) == want
        assert all(c.snr_db == 10.0 for c in cells)

    def test_overrides(self):
        spec = preset_spec("fig4", M=16, K=2, trials=5)
        assert (spec.M, spec.K, spec.trials) == (16, 2, 5)

    def test_swept_overrides_are_honoured(self):
        """precoders, b_bar, b_h_values and snr_db reach every curve; the closed-form curve stays MRT."""
        cells = preset_cells("fig4", preset_spec("fig4", precoders=("mrt",)))
        assert layout(cells) == shared_budget_layout(("mrt",), 10)
        assert [c.series for c in cells] == ["mrt_snrp10_mc_bbar10"] * 9 + ["mrt_snrp10_closed_bbar10"] * 9
        assert layout(preset_cells("fig3", preset_spec("fig3", b_bar=6))) == shared_budget_layout(("wf", "zf", "mrt"), 6)
        cells = preset_cells("fig4", preset_spec("fig4", precoders=("zf",), b_h_values=(2, 5)))
        assert layout(cells) == [("zf", "quantized", "monte_carlo", 2, 8), ("zf", "quantized", "monte_carlo", 5, 5),
                                 ("mrt", "quantized", "closed_form_mrt", 2, 8), ("mrt", "quantized", "closed_form_mrt", 5, 5)]
        cells = preset_cells("fig2", preset_spec("fig2", precoders=("zf",), snr_db=(0.0, 10.0), b_h_values=(3,)))
        assert [(c.series, c.b_h, c.b_p) for c in cells] == [
            ("zf_snrp0_perfect", 0, 0), ("zf_snrp10_perfect", 0, 0),
            ("zf_snrp0_mc_bp20", 3, 20), ("zf_snrp10_mc_bp20", 3, 20),
            ("zf_snrp0_mc_bp2", 3, 2), ("zf_snrp10_mc_bp2", 3, 2),
            ("mrt_snrp0_closed_bp20", 3, 20), ("mrt_snrp10_closed_bp20", 3, 20),
            ("mrt_snrp0_closed_bp2", 3, 2), ("mrt_snrp10_closed_bp2", 3, 2),
        ]

    @pytest.mark.parametrize("figure", ("fig2", "fig3", "fig4"))
    @pytest.mark.parametrize(
        "override", ({"csi_mode": "perfect"}, {"evaluator": "closed-form"}, {"evaluator": "closed-form", "precoders": ("mrt",)})
    )
    def test_per_curve_overrides_are_refused(self, tmp_path, figure, override):
        """A preset sets the CSI mode and evaluator of each curve; another value is an error, not dropped."""
        with pytest.raises(ValueError):
            preset_cells(figure, preset_spec(figure, **override))
        with pytest.raises(ValueError):
            reproduce(figure, tmp_path, M=16, K=2, trials=5, **override)
        assert list(tmp_path.iterdir()) == []

    def test_fig2_refuses_a_fixed_precoder_width(self):
        with pytest.raises(ValueError, match="b_p_fixed"):
            preset_cells("fig2", preset_spec("fig2", b_p_fixed=8))

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
        # a b_bar past the C index range, which len() of its split range cannot count
        assert main(["budget", "--cfh", "1e308", "--m", "1", "--k", "1"]) == 0
        b_bar, splits = capsys.readouterr().out.split()[1::2]
        assert int(splits) == int(b_bar) - 1 == int(1e308) - 1

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
            (["budget", "--cfh", "1e6", "--bs-ul", "1e308", "--tu", "2"], "control payload"),
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
        code = main(
            [
                "optimize",
                "--m", "64",
                "--k", "4",
                "--snr-db", "10",
                "--budget-bbar", "10",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best_b_h 5" in out
        assert "best_b_p 5" in out
        rows = [row[3:5] + row[8:] for row in read_csv(tmp_path / "optimize.csv")]
        assert rows[0] == ["b_h", "b_p", "sum_se", "se_1", "se_2", "se_3", "se_4"]
        assert len(rows) == 10
        assert (tmp_path / "optimize_mrt_snrp10_closed_bbar10.dat").exists()
        assert json.loads((tmp_path / "optimize_meta.json").read_text())["rows"] == 9

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
        """A failed split after the first ends the profile and exits 1; the record keeps every other split."""
        real = experiments._eval_group

        def flaky(spec, cells):
            failure = RuntimeError("synthetic failure")
            return [failure if cell.b_h == 4 else r for cell, r in zip(cells, real(spec, cells))]

        monkeypatch.setattr(experiments, "_eval_group", flaky)
        code = main(["optimize", "--budget-bbar", "10", "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "search aborted early" in captured.err
        assert "scanned 3 of 9" in captured.out.splitlines()
        assert "aborted (4, 6): RuntimeError: synthetic failure" in captured.out.splitlines()
        assert [int(row[3]) for row in read_csv(tmp_path / "optimize.csv")[1:]] == [1, 2, 3, 5, 6, 7, 8, 9]
        meta = json.loads((tmp_path / "optimize_meta.json").read_text())
        assert [(f["b_h"], f["error"]) for f in meta["failed_cells"]] == [(4, "RuntimeError: synthetic failure")]

    @pytest.mark.parametrize("b_bar", (56, 60, 70, 100))
    def test_large_budget_picks_the_middle_split(self, tmp_path, capsys, b_bar):
        """Past 28 bits 1 - eta rounds to 1; the cell path still ranks on min(B_H, B_P) and finds the balanced split."""
        assert main(["optimize", "--budget-bbar", str(b_bar), "--out", str(tmp_path)]) == 0
        assert f"best_b_h {b_bar // 2}" in capsys.readouterr().out.splitlines()
        assert optimize_split(ExperimentSpec(evaluator="closed-form", b_bar=b_bar)).b_h == b_bar // 2

    @pytest.mark.parametrize(
        "argv",
        [["optimize", "--budget-bbar", "20000000"], ["optimize", "--cfh", "1e300"], ["sweep", "--cfh", "1e300"]],
    )
    def test_huge_budget_is_refused_at_once(self, tmp_path, capsys, argv):
        """A budget above the split ceiling exits 2 naming the ceiling, before any split is built or written."""
        t0 = time.monotonic()
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert time.monotonic() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: b_bar = ") and "ceiling of 1077" in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("failing", (False, True))
    def test_closed_stdout_keeps_the_exit_code(self, tmp_path, capsys, monkeypatch, failing):
        """A reader that closed stdout (`| head`) drops the output quietly; the command ends with its own code."""

        class ClosedPipe(io.TextIOBase):  # no descriptor: fileno() raises io.UnsupportedOperation
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        if failing:
            real = experiments._eval_group

            def flaky(spec, cells):
                return [RuntimeError("synthetic") if cell.b_h == 4 else r for cell, r in zip(cells, real(spec, cells))]

            monkeypatch.setattr(experiments, "_eval_group", flaky)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["eta", "--bits", "8"]) == 0
        assert main(["optimize", "--budget-bbar", "10", "--out", str(tmp_path)]) == (1 if failing else 0)
        assert (tmp_path / "optimize.csv").exists()
        err = capsys.readouterr().err
        assert "i/o error" not in err and "Broken pipe" not in err
        assert ("search aborted early" in err) == failing

    def test_closed_pipe_in_a_fresh_interpreter(self, tmp_path):
        """stdout a pipe whose reader is gone: exit 0, nothing on stderr, the interpreter's last flush included."""
        read, write = os.pipe()
        os.close(read)
        src = str(Path(fhalloc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-m", "fhalloc.cli", "optimize", "--budget-bbar", "10", "--out", str(tmp_path)]
        try:
            done = subprocess.run(argv, env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "optimize.csv").exists()

    def test_optimize_refuses_a_second_precoder(self, tmp_path, capsys):
        """Two --precoder flags, or a config saved from a three-precoder sweep, exit 2 before any cell runs."""
        assert main(["optimize", "--precoder", "mrt", "--precoder", "zf", "--budget-bbar", "4", "--out", str(tmp_path / "a")]) == 2
        assert "exactly one precoder" in capsys.readouterr().err
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(small_spec(precoders=("wf", "zf", "mrt")).to_dict()))
        assert main(["optimize", "--config", str(path), "--evaluator", "mc", "--out", str(tmp_path / "b")]) == 2
        assert "exactly one precoder" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]

    @pytest.mark.parametrize("config", [{"b_p_fixed": 3}, {"b_h_values": [1, 2]}])
    def test_optimize_refuses_split_pinning_fields(self, tmp_path, capsys, config):
        """A config that pins B_P or lists B_H exits 2 and writes no record, instead of searching the whole budget."""
        path = tmp_path / "pin.json"
        path.write_text(json.dumps(config))
        assert main(["optimize", "--config", str(path), "--budget-bbar", "10", "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert f"takes no {next(iter(config))}" in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pin.json"]

    def test_optimize_mc_record_and_answer_do_not_depend_on_workers(self, tmp_path, capsys):
        """optimize --out reads --workers: the record and the answer are the same bytes at 1 to 3 workers."""
        argv = ["optimize", "--evaluator", "mc", "--precoder", "zf", "--m", "16", "--k", "2", "--budget-bbar", "6"]
        answers = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            assert main(argv + ["--trials", "40", "--workers", str(workers), "--out", str(out)]) == 0
            answers.append(capsys.readouterr().out.replace(str(out), "OUT"))
            meta = json.loads((out / "optimize_meta.json").read_text())
            assert (meta["rows"], meta["failed_cells"], meta["spec"]["workers"]) == (5, [], workers)
        assert answers == [answers[0]] * 3 and "scanned 5 of 5" in answers[0]
        names = ["optimize.csv", "optimize_zf_snrp10_mc_bbar6.dat"]
        assert sorted(p.name for p in (tmp_path / "w1").iterdir()) == sorted(names + ["optimize_meta.json"])
        for workers in (2, 3):
            for name in names:
                assert (tmp_path / f"w{workers}" / name).read_bytes() == (tmp_path / "w1" / name).read_bytes()

    @pytest.mark.parametrize("b_bar", (10, 33, 40))
    @pytest.mark.parametrize("beta", (None, [0.25, 0.5, 1.0, 2.0]), ids=("equal", "unequal-beta"))
    def test_closed_form_optimize_matches_the_array_path(self, tmp_path, capsys, b_bar, beta):
        """The CLI's closed-form cells give the one-pass answer, and optimize.csv its profile."""
        config = {"M": 32, "K": 4, "tau_p": 4, "b_bar": b_bar, **({} if beta is None else {"beta": beta})}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path)]) == 0
        want = optimize_split(ExperimentSpec(evaluator="closed-form", **config))
        assert capsys.readouterr().out.splitlines()[:5] == [
            f"b_bar {b_bar}", f"best_b_h {want.b_h}", f"best_b_p {want.b_p}",
            f"best_sum_se {want.best_sum_se!r}", f"scanned {b_bar - 1} of {b_bar - 1}",
        ]
        rows = [row[3:5] + row[8:] for row in read_csv(tmp_path / "optimize.csv")[1:]]
        assert rows == [[str(b_h), str(b_p), repr(value), *map(repr, se)] for b_h, b_p, value, se in want.profile]

    def test_singular_gram_at_a_middle_split(self, tmp_path, capsys, monkeypatch):
        """One singular ZF Gram at B_H = 3: exit 1, the profile stops at 2 and the record holds every other split."""
        groups = []

        def flag_third_group(G):
            groups.append(len(G))
            bad = np.zeros(len(G), bool)
            bad[0] = len(groups) == 3  # one Monte Carlo group per B_H, run in split order
            return bad

        monkeypatch.setattr(se, "rank_deficient_mask", flag_third_group)
        argv = ["optimize", "--evaluator", "mc", "--precoder", "zf", "--m", "16", "--k", "2", "--budget-bbar", "6"]
        assert main(argv + ["--trials", "10", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "scanned 2 of 5" in captured.out.splitlines()
        assert "aborted (3, 3): RankDeficientError: estimated channel Gram matrix is numerically singular" in captured.out
        assert "search aborted early" in captured.err
        assert [int(row[3]) for row in read_csv(tmp_path / "optimize.csv")[1:]] == [1, 2, 4, 5]
        meta = json.loads((tmp_path / "optimize_meta.json").read_text())
        assert [(f["b_h"], f["error"].split(":")[0]) for f in meta["failed_cells"]] == [(3, "RankDeficientError")]

    @pytest.mark.parametrize("command", ("sweep", "reproduce"))
    def test_bad_config_value_exits_before_any_cell(self, tmp_path, capsys, monkeypatch, command):
        def refuse(spec, cells):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_eval_group", refuse)
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
            # budget fields, read only without --budget-bbar
            ("sweep", {"budget": {"c_fh": "1e6"}}),
            ("sweep", {"budget": {"c_fh": 1e6, "bs_ul": "x"}}),
            ("sweep", {"budget": {"c_fh": 1e6, "t_u": "3"}}),
            ("optimize", {"budget": {"c_fh": 1e6, "bs_dl": True, "t_d": 1}}),
            # per-user fields, entry by entry
            ("sweep", {"beta": True}),
            ("sweep", {"beta": "1"}),
            ("sweep", {"beta": [1, "2"]}),
            ("sweep", {"beta": [1, True]}),
            ("optimize", {"beta": [1, True]}),
            ("sweep", {"pilot_q": [True, False]}),
            ("sweep", {"pilot_q": "0"}),
            # the closed form covers quantized MRT only, and perfect CSI sends no bits to split
            ("sweep", {"csi_mode": "perfect", "evaluator": "closed-form"}),
            ("optimize", {"csi_mode": "perfect"}),
            ("optimize", {"csi_mode": "perfect", "evaluator": "mc"}),
            # an empty grid would write a header-only CSV
            ("sweep", {"precoders": []}),
            ("optimize", {"precoders": []}),
            ("sweep", {"snr_db": []}),
            ("sweep", {"b_h_values": []}),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={v[k]}" for k in v),
    )
    def test_bad_enumerated_or_list_field_exits_two(self, tmp_path, capsys, monkeypatch, command, config):
        def refuse(spec, cells):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_eval_group", refuse)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--m", "16", "--k", "2"]
        argv += [] if "budget" in config else ["--budget-bbar", "3"]
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "snr_db, flags, named",
        [
            ([0.1234561, 0.1234564], [], (0.1234561, 0.1234564)),
            ([0.0], ["--snr-db", "2", "--snr-db", "2.0"], (2.0, 2.0)),
        ],
        ids=("same-6-digits", "duplicate-flag"),
    )
    def test_snr_values_sharing_a_series_tag_exit_two(self, tmp_path, capsys, monkeypatch, snr_db, flags, named):
        """Their closed-form cells would share one group, and so the first SNR's values."""
        def refuse(spec, cells):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_eval_group", refuse)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"snr_db": snr_db, "precoders": ["mrt"], "evaluator": "closed-form", "b_bar": 4}))
        argv = ["sweep", "--config", str(path), "--m", "16", "--k", "2", *flags, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "snr_db entries {!r} and {!r} share the series tag snrp".format(*named) in capsys.readouterr().err
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
        def refuse(spec, cells):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_eval_group", refuse)
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
        def refuse(spec, cells):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_eval_group", refuse)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--m", "16", "--budget-bbar", "4", "--evaluator", "closed-form"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["optimize"], ["sweep", "--evaluator", "closed-form"]], ids=("optimize", "sweep"))
    def test_snr_beyond_float_range_exits_two(self, tmp_path, capsys, command):
        """10^(snr_db/10) overflows a float at 4000 dB; that is a config error, not a traceback."""
        argv = [*command, "--budget-bbar", "10", "--snr-db", "4000", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "config error: P_t = sigma^2 10^(snr_db/10) is beyond floating-point range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["beta", "noise_var", "M"])
    @pytest.mark.parametrize("command", [["optimize"], ["sweep", "--evaluator", "closed-form"]], ids=("optimize", "sweep"))
    def test_config_integer_beyond_float_range_exits_two(self, tmp_path, capsys, command, field):
        """A 400-digit JSON integer is a config error naming its field, not an OverflowError traceback."""
        path = tmp_path / "spec.json"
        path.write_text(f'{{"{field}": {10**400}}}')
        argv = [*command, "--config", str(path), "--budget-bbar", "10", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert f"config error: {field} " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["optimize"], ["sweep", "--evaluator", "closed-form"]], ids=("optimize", "sweep"))
    def test_infinite_noise_var_is_named(self, tmp_path, capsys, command):
        """An infinite noise_var exits 2 naming noise_var, not the total_power derived from it."""
        path = tmp_path / "spec.json"
        path.write_text('{"noise_var": Infinity}')
        argv = [*command, "--config", str(path), "--budget-bbar", "10", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "config error: noise_var must be finite and positive" in capsys.readouterr().err

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
        def refuse(spec, cells):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_eval_group", refuse)
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{argv[-2].lstrip('-')} must be an integer >=" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
    def test_dead_pool_worker_becomes_failed_cells(self, tmp_path, capsys, monkeypatch):
        real = experiments._eval_group

        def die(spec, cells):
            if any(cell.b_h == 2 for cell in cells):
                os._exit(1)
            return real(spec, cells)

        monkeypatch.setattr(experiments, "_eval_group", die)
        # Monte Carlo MRT puts each B_H in a group of its own: worker 0 runs B_H 1 and 3, worker 1 B_H 2
        argv = ["sweep", "--m", "16", "--k", "2", "--budget-bbar", "4", "--trials", "5", "--workers", "2"]
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 1
        assert "pool worker exited with status 1" in capsys.readouterr().err
        meta = json.loads((tmp_path / "sweep_meta.json").read_text())
        failed = meta["failed_cells"]
        assert [f["b_h"] for f in failed] == [2]
        assert failed[0]["error"] == "pool worker exited with status 1 before it returned this cell"
        assert meta["rows"] == 2
        assert [int(row[3]) for row in read_csv(tmp_path / "sweep.csv")[1:]] == [1, 3]
        assert [c["elapsed_s"] is None for c in meta["cells"]] == [False, True, False]

    @pytest.mark.parametrize("command", ("sweep", "reproduce"))
    def test_failed_cell_exits_one_after_writing(self, tmp_path, capsys, monkeypatch, command):
        real = experiments._eval_group

        def flaky(spec, cells):
            failure = RuntimeError("synthetic failure")
            return [failure if cell.b_h == 2 else r for cell, r in zip(cells, real(spec, cells))]

        monkeypatch.setattr(experiments, "_eval_group", flaky)
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

    @pytest.mark.parametrize("b_bar", [12, 0, "12"])
    def test_budget_with_b_bar_is_refused(self, tmp_path, capsys, b_bar):
        """b_bar is derived from the capacity; compute_budget would overwrite a given one."""
        budget = {"c_fh": 1e5, "b_bar": b_bar}
        with pytest.raises(ValueError, match="budget.b_bar"):
            ExperimentSpec.from_dict({"budget": budget})
        # a FronthaulBudget given as it stands goes through the same check
        with pytest.raises(ValueError, match="budget.b_bar"):
            ExperimentSpec(budget=FronthaulBudget(c_fh=1e5, b_bar=b_bar))
        with pytest.raises(ValueError, match="budget.b_bar"):
            preset_spec("fig4", b_bar=None, budget=FronthaulBudget(c_fh=6144.0, b_bar=b_bar))
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"budget": budget}))
        for command in ("sweep", "optimize"):
            assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
            assert "budget.b_bar" in capsys.readouterr().err
        # the b_bar: null that to_dict writes is no b_bar
        assert ExperimentSpec.from_dict({"budget": {"c_fh": 1e5, "b_bar": None}}).budget == FronthaulBudget(c_fh=1e5)

    def test_budget_without_capacity(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="c_fh"):
            ExperimentSpec.from_dict({"budget": {"bs_ul": 1}})
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"budget": {"bs_ul": 1}}))
        code = main(["sweep", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        assert "c_fh" in capsys.readouterr().err


class TestFlagBinding:
    """Each flag stores to the spec field of its name and overrides --config, which overrides the defaults."""

    CONFIG = {
        "name": "from-config", "M": 64, "K": 8, "tau_c": 100, "tau_p": 8, "snr_db": [0.0], "pilot_q": 2.0,
        "precoders": ["zf"], "csi_mode": "perfect", "evaluator": "mc", "trials": 50, "seed": 9, "workers": 1,
        "b_bar": 12, "budget": {"c_fh": 1e6}, "out_dir": "elsewhere", "moment_trials": 200,
    }
    SYSTEM = [
        "--m", "16", "--k", "2", "--tau-c", "60", "--tau-p", "4", "--snr-db", "5", "--pilot-q", "0.5",
        "--precoder", "wf", "--precoder", "mrt", "--csi", "quantized", "--evaluator", "closed-form",
        "--trials", "7", "--seed", "5", "--workers", "3",
    ]
    CAPACITY = ["--cfh", "16640", "--bs-ul", "10", "--bs-dl", "20", "--tu", "40", "--td", "30"]
    FLAGGED = {
        "M": 16, "K": 2, "tau_c": 60, "tau_p": 4, "snr_db": (5.0,), "pilot_q": 0.5, "precoders": ("wf", "mrt"),
        "csi_mode": "quantized", "evaluator": "closed-form", "trials": 7, "seed": 5, "workers": 3,
    }

    def spec_from(self, tmp_path, monkeypatch, command, budget_flags):
        seen = []
        if command == "sweep":
            monkeypatch.setattr(cli, "run_sweep", lambda spec, out_dir: seen.append((spec, out_dir)) or {"rows": 0, "failed_cells": []})
            extra = ["--b-p-fixed", "3"]
        else:
            result = AllocationResult(b_h=1, b_p=5, best_sum_se=1.0, profile=((1, 5, 1.0, (0.5, 0.5)),))
            monkeypatch.setattr(cli, "optimize_split", lambda spec: seen.append((spec, None)) or result)
            extra = []
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**self.CONFIG, "b_p_fixed": 1}))
        out = str(tmp_path / "out")
        argv = [command, "--config", str(path), *self.SYSTEM, *budget_flags, *extra, "--out", out]
        assert main(argv) == 0
        [(spec, out_dir)] = seen
        assert {key: getattr(spec, key) for key in self.FLAGGED} == self.FLAGGED
        assert (spec.name, spec.moment_trials, spec.out_dir) == ("from-config", 200, out)
        assert out_dir in (None, out)
        assert spec.b_p_fixed == (3 if command == "sweep" else 1)
        return spec

    @pytest.mark.parametrize("command", ["sweep", "optimize"])
    def test_every_flag_reaches_its_field(self, tmp_path, capsys, monkeypatch, command):
        spec = self.spec_from(tmp_path, monkeypatch, command, ["--budget-bbar", "6", *self.CAPACITY])
        assert spec.b_bar == 6
        assert spec.budget is None  # --budget-bbar drops the config's budget, and --cfh counts only without it

    def test_budget_bbar_drops_a_config_budget_with_b_bar(self, tmp_path, capsys, monkeypatch):
        """The config's budget is dropped before it is read, so its b_bar is neither refused nor left unread."""
        seen = []
        result = AllocationResult(b_h=1, b_p=5, best_sum_se=1.0, profile=((1, 5, 1.0, (0.5, 0.5)),))
        monkeypatch.setattr(cli, "optimize_split", lambda spec: seen.append(spec) or result)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"budget": {"c_fh": 1e6, "b_bar": 9}}))
        assert main(["optimize", "--config", str(path), "--budget-bbar", "6", "--out", str(tmp_path)]) == 0
        assert [(spec.b_bar, spec.budget) for spec in seen] == [(6, None)]
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "budget.b_bar" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "optimize"])
    def test_capacity_flags_reach_the_budget(self, tmp_path, capsys, monkeypatch, command):
        """--cfh drops the config's b_bar, as --budget-bbar drops its budget, so the budget is read."""
        spec = self.spec_from(tmp_path, monkeypatch, command, self.CAPACITY)
        assert spec.budget == FronthaulBudget(c_fh=16640.0, bs_ul=10.0, bs_dl=20.0, t_u=40, t_d=30)
        assert spec.b_bar is None and spec.resolve_b_bar() == (16640 - (10 * 40 + 20 * 30) * 2) // (2 * 16)

    def test_defaults_under_the_config(self, tmp_path, capsys, monkeypatch):
        seen = []

        def stop(spec):
            seen.append(spec)
            raise ValueError("stop")

        monkeypatch.setattr(cli, "optimize_split", stop)
        assert main(["optimize", "--budget-bbar", "4"]) == 2
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"evaluator": "mc"}))
        assert main(["optimize", "--config", str(path), "--budget-bbar", "4"]) == 2
        assert [(s.name, s.evaluator, s.out_dir) for s in seen] == [("optimize", "closed-form", "out"), ("optimize", "mc", "out")]

    def test_reproduce_flags_reach_preset_spec(self, tmp_path, capsys, monkeypatch):
        seen = []

        def record(figure, **overrides):
            seen.append((figure, overrides))
            raise ValueError("recorded")

        monkeypatch.setattr(experiments, "preset_spec", record)
        out = str(tmp_path / "out")
        argv = ["--m", "16", "--k", "2", "--trials", "7", "--seed", "5", "--workers", "3", "--out", out]
        assert main(["reproduce", "fig3", *argv]) == 2
        assert main(["reproduce", "fig2"]) == 2
        assert seen == [
            ("fig3", {"M": 16, "K": 2, "trials": 7, "seed": 5, "workers": 3, "out_dir": out}),
            ("fig2", {"out_dir": "out"}),
        ]


class TestGroups:
    """Cells sharing (SNR, CSI mode, B_H) run as one group, one pool task per group."""

    def test_fig2_groups(self):
        cells = preset_cells("fig2", preset_spec("fig2"))
        groups = experiments._groups(cells)
        assert sorted(i for g in groups for i in g) == list(range(len(cells)))
        assert all(g == sorted(g) for g in groups)
        assert [g[0] for g in groups] == sorted(g[0] for g in groups)
        assert [len(g) for g in groups] == [3] + [6] * 29 + [29, 29]
        for g in groups[1:30]:
            assert len({(cells[i].b_h, cells[i].csi_mode, cells[i].method) for i in g}) == 1
            taps = {(cells[i].precoder, cells[i].b_p) for i in g}
            assert taps == {(kind, b_p) for kind in ("wf", "zf", "mrt") for b_p in (20, 2)}
        assert {cells[i].series for i in groups[-1]} == {"mrt_snrp10_closed_bp2"}

    def test_grouped_cells_match_one_tap_at_any_worker_count(self, tmp_path, monkeypatch):
        """Grouped cells equal one-tap mc_hardening_sinr, with a small TRIAL_BLOCK, at 1 to 3 workers."""
        monkeypatch.setattr(se, "TRIAL_BLOCK", 16)
        spec = small_spec(precoders=("wf", "zf", "mrt"), snr_db=(0.0, 10.0), trials=50)
        for workers in (1, 2, 3):
            meta = run_sweep(dataclasses.replace(spec, workers=workers), tmp_path / f"w{workers}")
            assert meta["failed_cells"] == []
        names = sorted(p.name for p in (tmp_path / "w1").iterdir() if p.suffix in (".csv", ".dat"))
        for workers in (2, 3):
            for name in names:
                assert (tmp_path / f"w{workers}" / name).read_bytes() == (tmp_path / "w1" / name).read_bytes()
        rows = read_csv(tmp_path / "w1" / "sweep.csv")[1:]
        for row, cell in zip(rows, _expand_sweep(spec)):
            alone = mc_hardening_sinr(spec.config_for(cell.snr_db), cell.precoder, cell.b_h, cell.b_p, 50, spec.seed)
            assert float(row[8]) == alone.sum_se and [float(v) for v in row[9:]] == alone.se.tolist()

    @pytest.mark.parametrize("failure", ("singular", "gamma"))
    def test_zf_wf_failure_leaves_the_mrt_cell(self, tmp_path, capsys, monkeypatch, failure):
        """One singular Gram or gamma = 0 fails the ZF/WF cells of a group; its MRT cell is written."""
        config = {"M": 16, "K": 2, "precoders": ["wf", "zf", "mrt"], "b_bar": 4, "trials": 10}
        if failure == "singular":

            def flag_one(G):
                bad = np.zeros(len(G), bool)
                bad[6] = True
                return bad

            monkeypatch.setattr(se, "rank_deficient_mask", flag_one)
        else:
            config["pilot_q"] = [0.0, 1.0]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert ("RankDeficientError" if failure == "singular" else "gamma") in capsys.readouterr().err
        meta = json.loads((tmp_path / "out" / "sweep_meta.json").read_text())
        assert [(f["series"][:2], f["b_h"]) for f in meta["failed_cells"]] == [
            (kind, b_h) for kind in ("wf", "zf") for b_h in (1, 2, 3)
        ]
        rows = read_csv(tmp_path / "out" / "sweep.csv")[1:]
        assert [(row[0], int(row[3])) for row in rows] == [("mrt", 1), ("mrt", 2), ("mrt", 3)]

    def test_numpy_random_import_is_a_stage_of_its_own(self, tmp_path, monkeypatch):
        """The first draw's numpy.random import stays out of stats_s and kxk_s, and in elapsed_s."""
        monkeypatch.setattr(sysmodel, "_stats_cache", {})

        def slow_import():
            time.sleep(0.25)
            return 0.25

        monkeypatch.setattr(sysmodel, "_import_random", slow_import)
        cells = run_sweep(small_spec(precoders=("zf", "mrt")), tmp_path)["cells"]
        first = cells[0]
        assert first["import_s"] == 0.25 and first["elapsed_s"] >= 0.25
        assert first["stats_s"] < 0.25 and first["kxk_s"] < 0.25 and first["moments_s"] < 0.25
        # the stub costs every group (the real import returns 0 once loaded), charged to the group's first cell
        assert all(c["import_s"] == 0.25 for c in cells[:3]) and all(c["import_s"] == 0 for c in cells[3:])

    def test_pool_charges_its_numpy_random_import_to_the_first_cell(self, tmp_path, monkeypatch):
        """The pool loads numpy.random once, before it forks, and records it as a serial run does."""
        loaded = []

        def slow_import_once():
            if loaded:
                return 0.0
            loaded.append(True)
            time.sleep(0.25)
            return 0.25

        monkeypatch.setattr(sysmodel, "_import_random", slow_import_once)
        cells = run_sweep(small_spec(precoders=("zf", "mrt"), workers=2), tmp_path)["cells"]
        assert cells[0]["import_s"] == 0.25 and cells[0]["elapsed_s"] >= 0.25
        assert all(c["import_s"] == 0 for c in cells[1:])

    def test_closed_form_search_leaves_numpy_random_unloaded(self):
        """A fresh interpreter that imports fhalloc and runs a closed-form search never loads numpy.random."""
        code = (
            "import sys, fhalloc\n"
            "from fhalloc.experiments import ExperimentSpec, optimize_split\n"
            "spec = ExperimentSpec(M=32, K=4, tau_p=4, evaluator='closed-form', b_bar=12)\n"
            "assert optimize_split(spec).b_h == 6\n"
            "print('numpy.random' in sys.modules)\n"
        )
        src = str(Path(fhalloc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_runs_without_a_pool_leave_the_pool_machinery_unloaded(self):
        """A fresh interpreter that runs a closed-form search and a serial run_cells never loads concurrent.futures or multiprocessing."""
        code = (
            "import sys, fhalloc, fhalloc.cli, fhalloc.experiments as ex\n"
            "spec = ex.ExperimentSpec(M=16, K=2, tau_p=2, b_bar=4, trials=5)\n"
            "assert ex.optimize_split(ex.ExperimentSpec(M=32, K=4, tau_p=4, evaluator='closed-form', b_bar=12)).b_h == 6\n"
            "assert all(o.report is not None for o in ex.run_cells(spec, ex._expand_sweep(spec)))\n"
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))\n"
        )
        src = str(Path(fhalloc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_pool_forks_on_linux_only(self, tmp_path, monkeypatch):
        """Off Linux, --workers above 1 runs the groups inline and writes the same bytes."""
        spec = small_spec(workers=2, trials=5)
        linux = run_sweep(spec, tmp_path / "linux")

        def refuse():
            raise AssertionError("forked off Linux")

        monkeypatch.setattr(sys, "platform", "darwin")
        monkeypatch.setattr(os, "fork", refuse)
        other = run_sweep(spec, tmp_path / "other")
        assert other["failed_cells"] == linux["failed_cells"] == []
        for name in linux["outputs"]:
            assert (tmp_path / "other" / name).read_bytes() == (tmp_path / "linux" / name).read_bytes()

    def test_group_time_is_charged_to_its_first_cell(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sysmodel, "_stats_cache", {})
        spec = small_spec(precoders=("zf", "mrt"))
        cells = run_sweep(spec, tmp_path)["cells"]
        # groups by B_H: cells (0, 3), (1, 4), (2, 5)
        assert cells[0]["stats_s"] > 0 and all(c["stats_s"] == 0 for c in cells[1:])
        for c in cells[3:]:
            own = c["stats_s"] + c["moments_s"] + c["kxk_s"]
            assert c["elapsed_s"] == pytest.approx(own, abs=1e-4)

    def test_spec_is_parsed_once_per_group(self, monkeypatch):
        """The caller parses the spec once; groups get it as it is, inline or as pool tasks."""
        parsed = []

        def refuse(cls, d):
            parsed.append(d)
            raise AssertionError("a group parsed the spec again")

        monkeypatch.setattr(ExperimentSpec, "from_dict", classmethod(refuse))
        for workers in (1, 2):
            spec = preset_spec("fig4", M=16, K=2, trials=5, workers=workers)
            outcomes = experiments.run_cells(spec, preset_cells("fig4", spec))
            assert [o.error for o in outcomes] == [None] * 36
        assert parsed == []


@pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
class TestForkPool:
    """run_cells' forked workers: how many, what a dead one fails, and that none outlives the run."""

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_never_forks_more_workers_than_groups(self, tmp_path, monkeypatch):
        forks = []
        real = os.fork

        def counting():
            forks.append(1)
            return real()

        monkeypatch.setattr(os, "fork", counting)
        argv = ["sweep", "--m", "16", "--k", "2", "--budget-bbar", "4", "--trials", "5", "--workers", "6"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert len(forks) == 3  # one Monte Carlo MRT group per B_H
        self.assert_no_child_left()

    def test_killed_worker_fails_only_the_groups_it_never_returned(self, tmp_path, monkeypatch):
        real = experiments._eval_group

        def killed_at_b_h_4(spec, cells):
            if cells[0].b_h == 4:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(spec, cells)

        monkeypatch.setattr(experiments, "_eval_group", killed_at_b_h_4)
        # four groups, B_H 1 to 4: worker 0 runs B_H 1 and 3, worker 1 runs B_H 2 and is killed at 4
        meta = run_sweep(small_spec(b_bar=5, workers=2, trials=5), tmp_path)
        assert [f["b_h"] for f in meta["failed_cells"]] == [4]
        error = f"pool worker was killed by signal {signal.SIGKILL.value} before it returned this cell"
        assert meta["failed_cells"][0]["error"] == error
        assert [int(row[3]) for row in read_csv(tmp_path / "sweep.csv")[1:]] == [1, 2, 3]
        self.assert_no_child_left()

    def test_an_error_in_the_parent_kills_and_reaps_every_worker(self, monkeypatch):
        real = experiments._eval_group

        def slow_at_b_h_2(spec, cells):
            if cells[0].b_h == 2:
                time.sleep(60)
            return real(spec, cells)

        def fail(progress, cells):
            raise RuntimeError("progress failed")

        monkeypatch.setattr(experiments, "_eval_group", slow_at_b_h_2)
        monkeypatch.setattr(experiments._Progress, "__call__", fail)
        spec = small_spec(workers=2, trials=5)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="progress failed"):
            experiments.run_cells(spec, _expand_sweep(spec))
        assert time.monotonic() - t0 < 30  # the sleeping worker was killed, not waited for
        self.assert_no_child_left()

    def test_an_outcome_that_cannot_be_pickled_fails_its_own_group(self, monkeypatch):
        real = experiments._eval_group

        class Local(dict):  # a class local to a function cannot be pickled
            pass

        def unpicklable_at_b_h_1(spec, cells):
            reports = real(spec, cells)
            if cells[0].b_h == 1:
                reports = [dataclasses.replace(r, stage_s=Local(r.stage_s)) for r in reports]
            return reports

        monkeypatch.setattr(experiments, "_eval_group", unpicklable_at_b_h_1)
        # four groups: worker 0 runs B_H 1 and then 3, so it has to go on past the failed group
        spec = small_spec(b_bar=5, workers=2, trials=5)
        outcomes = experiments.run_cells(spec, _expand_sweep(spec))
        assert outcomes[0].report is None and "pickle" in outcomes[0].error.lower()
        assert all(o.report is not None for o in outcomes[1:])
        self.assert_no_child_left()

    @staticmethod
    def run_fresh(before: str, after: str) -> str:
        """The stdout of a fresh interpreter that runs before, a two-worker run_cells, then after."""
        code = (
            "import sys, fhalloc.experiments as ex\n"
            "spec = ex.ExperimentSpec(M=16, K=2, tau_p=2, b_bar=4, trials=5, workers=2)\n"
            f"{before}\n"
            "assert all(o.report is not None for o in ex.run_cells(spec, ex._expand_sweep(spec)))\n"
            f"{after}\n"
        )
        src = str(Path(fhalloc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe must be block-buffered
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_a_pool_run_leaves_the_pool_machinery_unloaded(self):
        """A fresh interpreter whose run forks two workers never loads concurrent.futures or multiprocessing."""
        out = self.run_fresh("", "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
        assert out.strip() == "[]"

    def test_workers_never_flush_the_parents_stdio_buffers(self):
        """Text the parent buffered before the fork is written once, by the parent, not again by each worker."""
        assert self.run_fresh("print('buffered', end=' ')", "print('done')") == "buffered done\n"


class TestProgress:
    def test_progress_goes_to_stderr_only(self, tmp_path, capsys, monkeypatch):
        argv = ["reproduce", "fig4", "--m", "16", "--k", "2", "--trials", "5"]
        monkeypatch.setattr(experiments, "_PROGRESS_S", float("inf"))
        assert main(argv + ["--out", str(tmp_path / "quiet")]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        monkeypatch.setattr(experiments, "_PROGRESS_S", 0.0)
        assert main(argv + ["--out", str(tmp_path / "loud")]) == 0
        loud = capsys.readouterr()
        assert loud.out.replace("loud", "quiet") == quiet.out
        lines = loud.err.splitlines()
        assert len(lines) == 10  # one line per group: 9 Monte Carlo B_H groups and the closed-form series
        assert lines[0].startswith("3/36 cells done, about ") and lines[0].endswith(" s left")
        assert lines[-1] == "36/36 cells done, about 0 s left"
        for p in (tmp_path / "quiet").iterdir():
            if p.suffix in (".csv", ".dat"):
                assert (tmp_path / "loud" / p.name).read_bytes() == p.read_bytes()

    def test_reports_once_per_interval(self, capsys):
        now = [0.0]
        progress = experiments._Progress(10, clock=lambda: now[0])
        for t, cells in ((1.0, 2), (2.5, 2), (3.0, 2), (5.0, 2), (5.5, 2)):
            now[0] = t
            progress(cells)
        assert capsys.readouterr().err.splitlines() == [
            "4/10 cells done, about 4 s left",
            "8/10 cells done, about 1 s left",
            "10/10 cells done, about 0 s left",
        ]
