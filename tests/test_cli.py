import csv

import numpy as np
import pytest

from bo_soliton.cli import main


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

    def test_reversed_time(self, unit_params, tmp_path):
        outdir = tmp_path / "frames"
        code = main(["evolve", unit_params, "--t0", "1", "--t1", "-1",
                     "--dt", "1", "--grid", "-5,5,21", "--outdir", str(outdir)])
        assert code == 0
        names = sorted(p.name for p in outdir.glob("frame_*.csv"))
        assert names == ["frame_t-1.0000.csv", "frame_t0.0000.csv",
                         "frame_t1.0000.csv"]


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

    def test_injected_defect_fails(self, capsys):
        code = main(["validate", "--n", "2", "--trials", "3", "--seed", "7",
                     "--inject-defect"])
        assert code != 0
        assert "FAIL" in capsys.readouterr().out


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


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_missing_file_is_usage_error(tmp_path):
    code = main(["spectrum", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
