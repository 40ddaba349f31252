import csv
import re
import time

import numpy as np
import pytest

from bo_soliton import validation
from bo_soliton.action_angle import ActionAngles
from bo_soliton.cli import (
    MAX_GRID_POINTS,
    CliParseError,
    _check_point_count,
    _evolve_times,
    _parse_grid,
    main,
)


def write_params(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write("x,eta\n")
        for x, eta in rows:
            fh.write(f"{x},{eta}\n")


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(c) for c in r] for r in reader]
    return header, np.array(rows)


@pytest.fixture
def unit_params(tmp_path):
    path = tmp_path / "params.csv"
    write_params(path, [(0.0, 1.0)])
    return str(path)


class TestSynth:
    def test_peak_row(self, unit_params, tmp_path):
        out = tmp_path / "u.csv"
        code = main(["synth", unit_params, "--grid", "-5,5,101",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "u"]
        assert rows.shape == (101, 2)
        assert rows[50, 0] == 0.0
        assert rows[50, 1] == pytest.approx(2.0, abs=1e-14)

    def test_empty_params_is_usage_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,eta\n")
        code = main(["synth", str(path), "--grid", "-5,5,11",
                     "--out", str(tmp_path / "u.csv")])
        assert code == 2

    def test_negative_eta_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        write_params(path, [(0.0, -1.0)])
        code = main(["synth", str(path), "--grid", "-5,5,11",
                     "--out", str(tmp_path / "u.csv")])
        assert code == 3
        assert "lower half-plane" in capsys.readouterr().err

    def test_deterministic_output(self, unit_params, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["synth", unit_params, "--grid", "-7,9,257", "--out", str(a)])
        main(["synth", unit_params, "--grid", "-7,9,257", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_plot_script_emitted(self, unit_params, tmp_path):
        out = tmp_path / "u.csv"
        script = tmp_path / "plot.py"
        main(["synth", unit_params, "--grid", "-5,5,11", "--out", str(out),
              "--plot-script", str(script)])
        assert "matplotlib" in script.read_text()


class TestSpectrum:
    def test_unit_soliton_row(self, unit_params, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", unit_params, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["j", "lambda", "gamma", "I"]
        assert rows[0, 0] == 1
        assert rows[0, 1] == pytest.approx(-0.5, abs=1e-12)
        assert rows[0, 2] == pytest.approx(0.0, abs=1e-12)
        assert rows[0, 3] == pytest.approx(-np.pi, abs=1e-12)

    def test_even_pair_angles_vanish(self, tmp_path):
        path = tmp_path / "pair.csv"
        write_params(path, [(-1.0, 1.0), (1.0, 1.0)])
        out = tmp_path / "spec.csv"
        assert main(["spectrum", str(path), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert np.abs(rows[:, 2]).max() < 1e-9

    def test_degenerate_pair_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "deg.csv"
        write_params(path, [(0.0, 1.0), (1e-12, 1.0)])
        code = main(["spectrum", str(path), "--out", str(tmp_path / "s.csv")])
        assert code == 3
        assert "DegenerateParameters" in capsys.readouterr().err

    def test_nan_row_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        write_params(path, [(0.0, 1.0), ("nan", 1.0)])
        code = main(["spectrum", str(path), "--out", str(tmp_path / "s.csv")])
        assert code == 3
        assert "NonFiniteInput" in capsys.readouterr().err


class TestEvolve:
    def test_nan_action_is_domain_error(self, tmp_path, capsys):
        code = main(["evolve", "--r", "nan", "--alpha", "0",
                     "--grid", "-5,5,11", "--outdir", str(tmp_path / "d")])
        assert code == 3
        assert "NonFiniteInput" in capsys.readouterr().err

    def test_traveling_peak(self, tmp_path):
        outdir = tmp_path / "frames"
        code = main(["evolve", "--r", "-3.141592653589793", "--alpha", "0",
                     "--t0", "0", "--t1", "5", "--dt", "5",
                     "--grid", "-20,20,401", "--outdir", str(outdir)])
        assert code == 0
        _, rows = read_csv(outdir / "frame_t5.0000.csv")
        peak_x = rows[np.argmax(rows[:, 1]), 0]
        assert abs(peak_x - 5.0) <= 0.1 + 1e-12
        _, actions = read_csv(outdir / "actions.csv")
        rs = actions[:, 2]
        assert np.unique(rs).size == 1  # r constant across frames

    def test_single_frame_matches_synth(self, unit_params, tmp_path):
        outdir = tmp_path / "frames"
        main(["evolve", unit_params, "--t0", "0", "--t1", "0", "--dt", "0",
              "--grid", "-5,5,101", "--outdir", str(outdir)])
        synth_out = tmp_path / "synth.csv"
        main(["synth", unit_params, "--grid", "-5,5,101",
              "--out", str(synth_out)])
        _, a = read_csv(outdir / "frame_t0.0000.csv")
        _, b = read_csv(synth_out)
        assert np.abs(a - b).max() < 1e-10

    def test_synth_and_evolve_write_one_x_grid(self, unit_params, tmp_path):
        # -1 + 1.3/6 * 6 rounds past 0.3; the shared grid ends on xmax
        outdir = tmp_path / "frames"
        synth_out = tmp_path / "synth.csv"
        main(["evolve", unit_params, "--grid", "-1,0.3,7",
              "--outdir", str(outdir)])
        main(["synth", unit_params, "--grid", "-1,0.3,7",
              "--out", str(synth_out)])

        def x_column(path):
            return [line.split(",")[0] for line in path.read_text().splitlines()]

        xs = x_column(synth_out)
        assert xs == x_column(outdir / "frame_t0.0000.csv")
        assert float(xs[-1]) == 0.3

    def test_reversed_time(self, unit_params, tmp_path):
        outdir = tmp_path / "frames"
        code = main(["evolve", unit_params, "--t0", "1", "--t1", "-1",
                     "--dt", "1", "--grid", "-5,5,21", "--outdir", str(outdir)])
        assert code == 0
        names = sorted(p.name for p in outdir.glob("frame_*.csv"))
        assert names == ["frame_t-1.0000.csv", "frame_t0.0000.csv",
                         "frame_t1.0000.csv"]

    def test_colliding_frame_names_are_domain_error(self, unit_params,
                                                    tmp_path, capsys):
        # times 4e-5 apart: 0.0000, 0.0000, 0.0001, ... at four decimals
        outdir = tmp_path / "d"
        code = main(["evolve", unit_params, "--t0", "0", "--t1", "0.0002",
                     "--dt", "0.00004", "--grid", "-5,5,11",
                     "--outdir", str(outdir)])
        assert code == 3
        assert "frame_t0.0000.csv" in capsys.readouterr().err
        assert not outdir.exists()


    def test_refusal_stops_at_first_repeated_name(self, unit_params,
                                                  tmp_path, capsys):
        # 10^6 steps of 1e-6: the second time already repeats the first name
        outdir = tmp_path / "d"
        start = time.perf_counter()
        code = main(["evolve", unit_params, "--t0", "0", "--t1", "1",
                     "--dt", "1e-6", "--grid", "-5,5,11",
                     "--outdir", str(outdir)])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "frame_t0.0000.csv" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("flags", [["--r", "-3.14"], ["--alpha", "0"],
                                       ["--r", "-3.14", "--alpha", "0"]])
    def test_params_csv_with_r_alpha_is_usage_error(self, unit_params,
                                                     tmp_path, capsys, flags):
        outdir = tmp_path / "d"
        code = main(["evolve", unit_params, *flags, "--grid", "-5,5,11",
                     "--outdir", str(outdir)])
        assert code == 2
        assert "not both" in capsys.readouterr().err
        assert not outdir.exists()


class TestEvolveTimes:
    def test_steps_towards_t1(self):
        assert list(_evolve_times(1.0, -1.0, 1.0)) == [1.0, 0.0, -1.0]
        assert list(_evolve_times(0.0, 1.0, -0.5)) == [0.0, 0.5, 1.0]

    def test_single_time_takes_any_finite_step(self):
        assert list(_evolve_times(2.0, 2.0, 0.0)) == [2.0]
        assert list(_evolve_times(2.0, 2.0, 3.0)) == [2.0]

    @pytest.mark.parametrize("t0, t1, dt", [
        (0.0, 5.0, 0.0),
        (0.0, 5.0, np.nan),
        (0.0, 5.0, np.inf),
        (np.nan, 5.0, 1.0),
        (0.0, np.inf, 1.0),
        (-np.inf, 0.0, 1.0),
        (1.0, 1.0, np.nan),
    ])
    def test_unreachable_t1_is_refused(self, t0, t1, dt):
        with pytest.raises(CliParseError):
            _evolve_times(t0, t1, dt)

    @pytest.mark.parametrize("flag, value", [("--dt", "0"), ("--dt", "nan"),
                                             ("--t0", "nan"), ("--t1", "inf"),
                                             ("--t0", "-inf")])
    def test_main_reports_usage_error(self, unit_params, tmp_path, capsys,
                                      flag, value):
        times = {"--t0": "0", "--t1": "5", "--dt": "1", flag: value}
        outdir = tmp_path / "d"
        code = main(["evolve", unit_params,
                     *(f"{k}={v}" for k, v in times.items()),
                     "--grid", "-5,5,11", "--outdir", str(outdir)])
        assert code == 2
        assert "must be" in capsys.readouterr().err
        assert not outdir.exists()


def inject_angle_defect(monkeypatch):
    """Shift the angles of the first aa_from_spectral call in validation,
    trial 0's forward map, by 1e-3; later calls are left exact."""
    exact = validation.aa_from_spectral
    calls = []

    def perturbed(sd):
        calls.append(sd)
        aa = exact(sd)
        if len(calls) == 1:
            return ActionAngles(aa.rs, aa.alphas + 1e-3)
        return aa

    monkeypatch.setattr(validation, "aa_from_spectral", perturbed)


class TestValidate:
    def test_small_suite_passes(self, capsys):
        code = main(["validate", "--n", "1", "--trials", "10", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "roundtrip" in out

    def test_clustered_draw_passes(self, capsys):
        # seed 75 draws an N = 10 input with Gram condition 6.9e12
        code = main(["validate", "--n", "10", "--trials", "10", "--seed", "75"])
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_deterministic(self, capsys):
        main(["validate", "--n", "2", "--trials", "3", "--seed", "7"])
        first = capsys.readouterr().out
        main(["validate", "--n", "2", "--trials", "3", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_injected_defect_fails(self, capsys, monkeypatch):
        inject_angle_defect(monkeypatch)
        code = main(["validate", "--n", "2", "--trials", "3", "--seed", "7"])
        assert code != 0
        assert "FAIL" in capsys.readouterr().out

    def test_worst_case_names_its_trial(self, capsys, monkeypatch):
        # the injected defect perturbs the angles of trial 0 only
        inject_angle_defect(monkeypatch)
        main(["validate", "--n", "2", "--trials", "3", "--seed", "7"])
        lines = capsys.readouterr().out.splitlines()
        roundtrip = next(line for line in lines if line.startswith("roundtrip"))
        assert re.search(r"FAIL .* trial=0 n=[12]$", roundtrip)

    @pytest.mark.parametrize("flag, value", [("--n", "0"), ("--n", "-1"),
                                             ("--trials", "0"),
                                             ("--trials", "-2")])
    def test_empty_run_is_usage_error(self, capsys, flag, value):
        code = main(["validate", flag, value])
        assert code == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert ">= 1" in captured.err


class TestTorus:
    def test_values_and_mean(self, unit_params, tmp_path):
        out = tmp_path / "torus.csv"
        code = main(["torus", unit_params, "--m", "256", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["y", "v"]
        assert rows[0, 1] == pytest.approx(-2.0 / (1.0 - np.e), abs=1e-9)
        assert abs(rows[:, 1].mean()) < 1e-8

    def test_shift_invariance(self, tmp_path):
        a_path = tmp_path / "a.csv"
        b_path = tmp_path / "b.csv"
        write_params(tmp_path / "p1.csv", [(0.5, 1.0)])
        write_params(tmp_path / "p2.csv", [(0.5 + 2 * np.pi, 1.0)])
        main(["torus", str(tmp_path / "p1.csv"), "--m", "128", "--out", str(a_path)])
        main(["torus", str(tmp_path / "p2.csv"), "--m", "128", "--out", str(b_path)])
        _, a = read_csv(a_path)
        _, b = read_csv(b_path)
        assert np.abs(a[:, 1] - b[:, 1]).max() < 1e-10


@pytest.mark.parametrize("command, out_flag", [("synth", "--out"),
                                               ("evolve", "--outdir")])
@pytest.mark.parametrize("grid", ["-inf,5,11", "-5,inf,11", "nan,5,11",
                                  "-1e308,1e308,11"])
def test_non_finite_grid_is_usage_error(unit_params, tmp_path, capsys,
                                        command, out_flag, grid):
    out = tmp_path / "out"
    code = main([command, unit_params, "--grid", grid, out_flag, str(out)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


class TestPointCap:
    def test_grid_takes_the_cap(self):
        assert _parse_grid(f"-1,1,{MAX_GRID_POINTS}") == (-1.0, 1.0,
                                                           MAX_GRID_POINTS)

    def test_grid_past_the_cap_is_refused(self):
        with pytest.raises(CliParseError, match="more than"):
            _parse_grid(f"-1,1,{MAX_GRID_POINTS + 1}")

    def test_torus_m_boundary(self):
        _check_point_count("--m", MAX_GRID_POINTS)
        with pytest.raises(CliParseError, match="--m"):
            _check_point_count("--m", MAX_GRID_POINTS + 1)

    @pytest.mark.parametrize("argv", [
        ["synth", "--grid", "-5,5,3000000000", "--out"],
        ["evolve", "--grid", "-5,5,3000000000", "--outdir"],
        ["torus", "--m", "3000000000", "--out"]])
    def test_huge_count_is_usage_error(self, unit_params, tmp_path, capsys,
                                       argv):
        out = tmp_path / "out"
        code = main([argv[0], unit_params, *argv[1:], str(out)])
        assert code == 2
        assert "more than" in capsys.readouterr().err
        assert not out.exists()


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_missing_file_is_usage_error(tmp_path):
    code = main(["spectrum", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
