import csv
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from bo_soliton import cli, validation
from bo_soliton.action_angle import ActionAngles, m_from_aa
from bo_soliton.cli import (
    MAX_FRAMES,
    MAX_GRID_POINTS,
    MAX_VALIDATE_N,
    CliParseError,
    _check_point_count,
    _evolve_times,
    _parse_grid,
    _spaced_minus_values,
    main,
)
from bo_soliton.errors import EigensolveFailed


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

    def test_underflowed_eta_is_domain_error(self, tmp_path, capsys):
        # eta**2 underflows to 0, so u is infinite at x = 0; the refusal is
        # the only report (a leaked RuntimeWarning fails the test)
        path = tmp_path / "tiny.csv"
        write_params(path, [(0.0, 1e-200)])
        code = main(["synth", str(path), "--grid", "-1,1,3",
                     "--out", str(tmp_path / "u.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "grid values must be finite" in err
        assert "Warning" not in err
        assert not (tmp_path / "u.csv").exists()

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

    def test_byte_order_mark_is_read(self, unit_params, tmp_path):
        # a spreadsheet's "CSV UTF-8" starts with U+FEFF
        bom = tmp_path / "bom.csv"
        plain = (tmp_path / "params.csv").read_bytes()
        bom.write_bytes(b"\xef\xbb\xbf" + plain)
        outs = tmp_path / "plain.csv", tmp_path / "bom_u.csv"
        for params, out in zip((unit_params, str(bom)), outs):
            assert main(["synth", params, "--grid", "-5,5,11",
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


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

    def test_nan_among_twelve_rows_is_one_line(self, tmp_path, capsys):
        # numpy would wrap an array of twelve parameters onto a second line
        path = tmp_path / "nan.csv"
        write_params(path, [("nan" if j == 7 else j, 1.0) for j in range(12)])
        code = main(["spectrum", str(path), "--out", str(tmp_path / "s.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            "invariant violation [NonFiniteInput]: parameters must be "
            "finite: entry 7 is (nan-1j)\n")


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

    def test_frame_count_past_the_cap_is_usage_error(self, unit_params,
                                                     tmp_path, capsys):
        outdir = tmp_path / "d"
        start = time.perf_counter()
        code = main(["evolve", unit_params, "--t0", "0", "--t1", "1e9",
                     "--dt", "1", "--grid", "-5,5,11",
                     "--outdir", str(outdir)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"more than {MAX_FRAMES} frames" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("times, names", [
        (["--t0", "-1e-1", "--t1", "0", "--dt", "1e-1"],
         ["frame_t-0.1000.csv", "frame_t0.0000.csv"]),
        (["--t0", "0", "--t1", "-1e-1", "--dt", "-5e-2"],
         ["frame_t-0.0500.csv", "frame_t-0.1000.csv", "frame_t0.0000.csv"]),
    ], ids=["t0", "t1-dt"])
    def test_exponent_form_negatives(self, tmp_path, times, names):
        # argparse alone reads only the -5 and -0.5 forms as values
        outdir = tmp_path / "frames"
        code = main(["evolve", "--r", "-3.14e0", "-1e0", "--alpha", "-2e-1",
                     "0", *times, "--grid", "-1e1,1e1,5",
                     "--outdir", str(outdir)])
        assert code == 0
        assert sorted(p.name for p in outdir.glob("frame_*.csv")) == names
        _, frame = read_csv(outdir / "frame_t0.0000.csv")
        assert frame[:, 0].tolist() == [-10.0, -5.0, 0.0, 5.0, 10.0]
        _, actions = read_csv(outdir / "actions.csv")
        at_zero = actions[actions[:, 0] == 0.0][:, 1:]
        assert at_zero.tolist() == [[1.0, -3.14, -0.2], [2.0, -1.0, 0.0]]

    def test_close_actions_give_no_degraded_frame(self, tmp_path):
        # three actions within 6.8e-5 of 0, two of them 5.7e-10 apart: max|M|
        # is 1.1e10, and a frame from its poles can be 7e-7 off.  The run
        # may refuse the input; a frame it writes must match the field of
        # the 60-digit eigenvalues of the same M(0)
        rs = [-3.8629381963650893, -1.6974575336296105,
              -6.814358830953988e-05, -6.389774920480972e-05,
              -6.389717918001645e-05]
        alphas = [-1.803277674994237, -3.444596697051987,
                  -2.0723058058716948, -3.673216874983268,
                  -2.4143091515693724]
        outdir = tmp_path / "frames"
        code = main(["evolve", "--r", *map(repr, rs),
                     "--alpha", *map(repr, alphas), "--grid", "-50,50,11",
                     "--outdir", str(outdir)])
        if code in (3, 4):
            return
        assert code == 0
        _, frame = read_csv(outdir / "frame_t0.0000.csv")
        m = m_from_aa(ActionAngles(np.array(rs), np.array(alphas)))
        with mpmath.workdps(60):
            zs = mpmath.eig(mpmath.matrix(m.tolist()), left=False,
                            right=False)
            ref = np.array([float(sum(2 * mpmath.im(1 / (z - x)) for z in zs))
                            for x in frame[:, 0]])
        assert np.abs(frame[:, 1] - ref).max() <= 1e-9 * np.abs(ref).max()

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


@pytest.mark.parametrize("rs, alphas", [(["-1e-320"], ["0"]),
                                        (["-3", "-1e-320"], ["0", "0"])])
def test_overflowing_m_is_domain_error(tmp_path, capsys, rs, alphas):
    # M's diagonal -pi/r_j overflows; numpy's warnings are errors here
    outdir = tmp_path / "d"
    code = main(["evolve", "--r", *rs, "--alpha", *alphas,
                 "--grid", "-1,1,3", "--t1", "0", "--dt", "1",
                 "--outdir", str(outdir)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation [NonFiniteInput]: M has a "
                          "non-finite entry")
    assert err.count("\n") == 1
    assert not outdir.exists()


class TestPathArguments:
    def test_only_number_tokens_are_spaced(self):
        argv = ["--grid", "-1,1,3", "-1e-3", "-inf", "-1,a,3", "-5", "-0.5",
                "-1.csv", "-", "--out", "--out=-1e-3"]
        assert _spaced_minus_values(argv) == [
            "--grid", " -1,1,3", " -1e-3", " -inf", " -1,a,3", " -5", " -0.5",
            "-1.csv", "-", "--out", "--out=-1e-3"]

    @pytest.mark.parametrize("out, message", [
        ("-1.csv", "expected one argument"),
        ("-1e-3", "reads as a number"),
        ("-5", "reads as a number"),
    ])
    def test_path_like_a_flag_writes_nothing(self, tmp_path, monkeypatch,
                                             capsys, out, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.csv").write_text("x,eta\n0,1\n")
        assert main(["synth", "p.csv", "--grid", "-1,1,3", "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]

    @pytest.mark.parametrize("argv", [["--out=-1.csv"], ["--out=-1e-3"],
                                      ["--out", "./-5"]])
    def test_path_is_written_as_typed(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.csv").write_text("x,eta\n0,1\n")
        assert main(["synth", "p.csv", "--grid", "-1,1,3", *argv]) == 0
        name = argv[-1].split("=")[-1].removeprefix("./")
        assert sorted(p.name for p in tmp_path.iterdir()) == [name, "p.csv"]


class TestEvolveTimes:
    def test_steps_towards_t1(self):
        assert list(_evolve_times(1.0, -1.0, 1.0)) == [1.0, 0.0, -1.0]
        assert list(_evolve_times(0.0, 1.0, -0.5)) == [0.0, 0.5, 1.0]

    def test_frame_cap_boundary(self):
        assert len(list(_evolve_times(0.0, MAX_FRAMES - 1.0, 1.0))) == MAX_FRAMES
        with pytest.raises(CliParseError, match="more than"):
            list(_evolve_times(0.0, float(MAX_FRAMES), 1.0))

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

    @pytest.mark.parametrize("flag, value", [("--t0", "-inf"),
                                             ("--t1", "-Infinity"),
                                             ("--dt", "-nan")])
    def test_space_separated_value_reports_usage_error(
            self, unit_params, tmp_path, capsys, flag, value):
        # the value as its own token, where argparse alone reads it as a flag
        times = {"--t0": "0", "--t1": "5", "--dt": "1", flag: value}
        outdir = tmp_path / "d"
        code = main(["evolve", unit_params,
                     *(tok for item in times.items() for tok in item),
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

    def test_with_pde_passes(self, capsys):
        code = main(["validate", "--n", "1", "--trials", "1", "--seed", "0",
                     "--with-pde"])
        assert code == 0
        assert re.search(r"^pde_compare +PASS ", capsys.readouterr().out,
                         re.MULTILINE)

    @pytest.mark.parametrize("flag, value", [("--n", "0"), ("--n", "-1"),
                                             ("--trials", "0"),
                                             ("--trials", "-2"),
                                             ("--seed", "-1")])
    def test_empty_run_is_usage_error(self, capsys, flag, value):
        code = main(["validate", flag, value])
        assert code == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert ">= 1" in captured.err

    def test_n_past_the_cap_is_usage_error(self, capsys):
        start = time.perf_counter()
        code = main(["validate", "--n", str(MAX_VALIDATE_N + 1)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at most {MAX_VALIDATE_N}" in captured.err


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


@pytest.mark.parametrize("command, row, code", [
    (["torus", "--m", "8"], "0,1000", 0),
    (["torus", "--m", "8"], "0,1e-300", 3),
    (["synth", "--grid=-1,1,3"], "1e300,1", 0),
    (["synth", "--grid=-1,1,3"], "1,1e300", 0),
], ids=["torus-overflow", "torus-on-circle", "synth-far", "synth-huge-eta"])
def test_extreme_parameters_report_only_typed_errors(tmp_path, capsys,
                                                     command, row, code):
    # numpy's RuntimeWarnings are errors in this suite
    (tmp_path / "p.csv").write_text(f"x,eta\n{row}\n")
    out = tmp_path / "out.csv"
    assert main([command[0], str(tmp_path / "p.csv"), *command[1:],
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        _, rows = read_csv(out)
        assert np.all(rows[:, 1] == 0)
    else:
        assert err == ("invariant violation [DomainError]: "
                       "grid values must be finite\n")
        assert not out.exists()


def test_spectrum_of_a_huge_eta(tmp_path, capsys):
    # an eta whose square overflows: the forward map runs at unit scale
    (tmp_path / "p.csv").write_text("x,eta\n1,1e300\n")
    out = tmp_path / "spec.csv"
    assert main(["spectrum", str(tmp_path / "p.csv"), "--out",
                 str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, rows = read_csv(out)
    assert header == ["j", "lambda", "gamma", "I"]
    assert np.all(np.isfinite(rows))
    assert rows[0, 1] == pytest.approx(-5e-301, rel=1e-15)
    assert rows[0, 2] == 1


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
        _check_point_count("--m", 2)
        _check_point_count("--m", MAX_GRID_POINTS)
        for m in (1, -5, MAX_GRID_POINTS + 1):
            with pytest.raises(CliParseError, match="--m"):
                _check_point_count("--m", m)

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


@pytest.mark.parametrize("params, argv, message", [
    ("", ["synth", "--grid", "-1,1,3"], "empty parameter file"),
    ("a,b\n0,1\n", ["synth", "--grid", "-1,1,3"], "expected header 'x,eta'"),
    ("x,eta\n0,1,2\n", ["synth", "--grid", "-1,1,3"], "malformed row"),
    ("x,eta\n0,one\n", ["synth", "--grid", "-1,1,3"], "non-numeric row"),
    ("x,eta\n0,1\n", ["synth", "--grid", "-1,1"], "expects 'xmin,xmax,n'"),
    ("x,eta\n0,1\n", ["synth", "--grid", "-1,a,3"], "expects numbers"),
    ("x,eta\n0,1\n", ["synth", "--grid", "1,-1,3"], "needs xmax > xmin"),
    (None, ["evolve", "--grid", "-1,1,3"],
     "need either a params CSV or --r/--alpha lists"),
], ids=["empty", "header", "fields", "non-numeric", "grid-fields",
        "grid-numbers", "grid-order", "no-initial-data"])
def test_refused_input_is_usage_error(tmp_path, monkeypatch, capsys, params,
                                      argv, message):
    monkeypatch.chdir(tmp_path)
    command, *flags = argv
    if params is None:
        code = main([command, *flags, "--outdir", "out"])
    else:
        (tmp_path / "p.csv").write_text(params)
        code = main([command, "p.csv", *flags, "--out", "out"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exits_4(tmp_path, monkeypatch, capsys,
                                   unit_params):
    def fail(params):
        raise EigensolveFailed("zheevd info = 3")

    monkeypatch.setattr(cli, "spectral_decompose", fail)
    out = tmp_path / "s.csv"
    assert main(["spectrum", unit_params, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "numerical failure [EigensolveFailed]: zheevd info = 3\n"
    assert not out.exists()


def test_debug_log_level_prints_debug_lines(tmp_path):
    # in a fresh process: logging.basicConfig does nothing while a test
    # runner's handlers sit on the root logger
    env = dict(os.environ, BO_SOLITON_LOG="debug",
               PYTHONPATH=str(Path(cli.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "bo_soliton.cli", "evolve", "--r", "-3",
         "--alpha", "0", "--grid", "-1,1,3", "--outdir", "d"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert ("DEBUG bo_soliton.cli: evolve: frame t=0 from the poles of M(t): "
            "N=1, 3 points, min eta(t) ") in done.stderr


def test_frames_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the README's first evolve example on a finer grid, in a fresh
    # interpreter per count, since BLAS reads it when it loads
    (tmp_path / "params.csv").write_text("x,eta\n-3,1\n0,0.7\n4,1.5\n")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(cli.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-m", "bo_soliton.cli", "evolve", "params.csv",
             "--t0", "0", "--t1", "5", "--dt", "0.5",
             "--grid", "-50,50,40001", "--outdir", threads],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs.append({p.name: p.read_bytes()
                     for p in (tmp_path / threads).iterdir()})
    assert len(runs[0]) == 12  # 11 frames and actions.csv
    assert runs[0] == runs[1]


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_missing_file_is_usage_error(tmp_path):
    code = main(["spectrum", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["synth", "one.csv", "--grid", "-1,1,3", "--out", "missing/u.csv"],
    ["spectrum", "one.csv", "--out", "missing/s.csv"],
    ["evolve", "one.csv", "--grid", "-1,1,3", "--outdir", "afile"],
    ["synth", "one.csv", "--grid", "-1,1,3", "--out", "u.csv",
     "--plot-script", "missing/p.py"],
    ["torus", "one.csv", "--m", "8", "--out", "t.csv",
     "--plot-script", "afile/p.py"],
    # the name of the second frame, t = 1e307 at four decimals, is too long
    ["evolve", "one.csv", "--grid", "-1,1,3", "--outdir", "d",
     "--t1", "1e308", "--dt", "1e307"],
])
def test_unwritable_output_is_usage_error(tmp_path, monkeypatch, capsys,
                                          argv):
    monkeypatch.chdir(tmp_path)
    write_params("one.csv", [(0.0, 1.0)])
    (tmp_path / "afile").write_text("")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err
    assert ".tmp" not in err  # the message names the output, not its temp file
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("argv", [
    ["synth", "--grid", "-5,5,11"],
    ["torus", "--m", "8"],
], ids=["synth", "torus"])
def test_failed_plot_script_keeps_the_earlier_output(tmp_path, capsys, argv):
    # the table is written before the plot script fails, and must not land
    write_params(tmp_path / "p.csv", [(0.0, 1.0)])
    out = tmp_path / "u.csv"
    out.write_bytes(b"old")
    code = main([argv[0], str(tmp_path / "p.csv"), *argv[1:], "--out",
                 str(out), "--plot-script", str(tmp_path / "nodir" / "p.py")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert out.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "u.csv"]


def test_spectrum_into_a_missing_directory_writes_nothing(unit_params,
                                                          tmp_path):
    out = tmp_path / "nodir" / "s.csv"
    assert main(["spectrum", unit_params, "--out", str(out)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["params.csv"]


@pytest.mark.parametrize("rows, eta, size", [
    ([(1, 1e-300)], "1e-300", "1"),
    ([(1, 1e20), (0, 1)], "1", "1e+20"),
], ids=["tiny-eta", "far-soliton"])
def test_sylvester_failure_names_its_cause(tmp_path, capsys, rows, eta, size):
    write_params(tmp_path / "p.csv", rows)
    code = main(["spectrum", str(tmp_path / "p.csv"), "--out",
                 str(tmp_path / "s.csv")])
    assert code == 4
    assert capsys.readouterr().err == (
        "numerical failure [InvariantViolation]: Sylvester solve failed: "
        "ztrsyl info 1: the spectra of G and G* nearly meet "
        f"(min eta {eta}, max|z| {size})\n")
    assert not (tmp_path / "s.csv").exists()


class TestFailedEvolveWritesNothing:
    """An error after the first frame is written leaves every file as it
    was, and removes the output directory if the run made it."""

    # the second frame name, t = 1e307 at four decimals, is too long
    TOO_LONG = ["--t1", "1e308", "--dt", "1e307"]

    def run(self, tmp_path, outdir, *extra):
        write_params(tmp_path / "one.csv", [(0.0, 1.0)])
        return main(["evolve", str(tmp_path / "one.csv"), "--grid", "-1,1,3",
                     "--outdir", str(outdir), *extra])

    def test_made_directories_are_removed(self, tmp_path):
        outdir = tmp_path / "a" / "b" / "d"
        assert self.run(tmp_path, outdir, *self.TOO_LONG) == 2
        assert not (tmp_path / "a").exists()

    def test_existing_files_stay(self, tmp_path):
        outdir = tmp_path / "d"
        outdir.mkdir()
        (outdir / "keep.txt").write_text("kept")
        (outdir / "frame_t1.0000.csv").write_text("old")
        assert self.run(tmp_path, outdir, *self.TOO_LONG) == 2
        assert sorted(p.name for p in outdir.iterdir()) == [
            "frame_t1.0000.csv", "keep.txt"]
        assert (outdir / "frame_t1.0000.csv").read_text() == "old"

    def test_failed_rerun_keeps_the_earlier_run(self, tmp_path):
        outdir = tmp_path / "d"
        assert self.run(tmp_path, outdir, "--t1", "1", "--dt", "1") == 0
        names = ["actions.csv", "frame_t0.0000.csv", "frame_t1.0000.csv"]
        assert sorted(p.name for p in outdir.iterdir()) == names
        before = {name: (outdir / name).read_bytes() for name in names}
        assert self.run(tmp_path, outdir, *self.TOO_LONG) == 2
        assert sorted(p.name for p in outdir.iterdir()) == names
        assert {name: (outdir / name).read_bytes() for name in names} == before

    def test_failed_actions_table_removes_the_frames(self, tmp_path):
        outdir = tmp_path / "d"
        (outdir / "actions.csv" / "x").mkdir(parents=True)
        assert self.run(tmp_path, outdir, "--t1", "2", "--dt", "1") == 2
        assert [p.name for p in outdir.iterdir()] == ["actions.csv"]

    def test_failed_plot_script_removes_the_output(self, tmp_path):
        outdir = tmp_path / "d"
        code = self.run(tmp_path, outdir, "--t1", "2", "--dt", "1",
                        "--plot-script", str(tmp_path / "missing" / "p.py"))
        assert code == 2
        assert not outdir.exists()
