import json
import os

import numpy as np
import pytest

from sphgas import InitProfile, PhysParams, build_mass_grid, make_initial_data
from sphgas.cli import EXIT_ABORT, EXIT_CONFIG, EXIT_OK, main
from sphgas.config import ConfigError, parse_config_text, resolve
from sphgas.state import save_snapshot


BASE_CONFIG = """\
# small disturbed run
n=2
mu=1.0
lambda=0.0
R=1.0
cv=1.5
kappa=1.0
X_max=12
N=96
t_end=0.4
cadence=0.1
profile.kind=gaussian_bump
profile.amplitudes=0.1,0.1,0.1
profile.center=4.0
profile.width=1.0
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


def _truncate_snapshot(snap_dir):
    path = os.path.join(snap_dir, "snap_000001.csv")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])


def _garble_snapshot(snap_dir):
    path = os.path.join(snap_dir, "snap_000002.csv")
    with open(path) as fh:
        lines = fh.readlines()
    cells = lines[4].split(",")
    cells[1] = "abc"
    lines[4] = ",".join(cells)
    with open(path, "w") as fh:
        fh.writelines(lines)


def _empty_snapshot_dir(snap_dir):
    for name in os.listdir(snap_dir):
        os.remove(os.path.join(snap_dir, name))


def _snapshot_from_other_grid(snap_dir):
    params = PhysParams()
    state = make_initial_data(build_mass_grid(12.0, 20), InitProfile(), params)
    save_snapshot(state, params, os.path.join(snap_dir, "snap_000001.csv"))


class TestConfigParsing:
    def test_round_trip_keys(self):
        raw = parse_config_text(BASE_CONFIG)
        config, params, _ = resolve(raw)
        assert params.n == 2
        assert config.n_cells == 96
        assert config.profile.amp_v == 0.1

    def test_comments_and_blank_lines(self):
        raw = parse_config_text("# comment\n\nn=3  # trailing\n")
        assert raw == {"n": "3"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("gravity=9.8\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("n=2\nn=3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    def test_bad_amplitude_count(self):
        raw = parse_config_text("profile.amplitudes=0.1,0.2\n")
        with pytest.raises(ConfigError):
            resolve(raw)

    def test_inadmissible_params_rejected(self):
        raw = parse_config_text("mu=-1\n")
        with pytest.raises(ConfigError):
            resolve(raw)

    def test_malformed_grading_rejected(self):
        with pytest.raises(ConfigError):
            resolve(parse_config_text("grading=log\n"))

    def test_out_of_range_grading_rejected(self):
        with pytest.raises(ConfigError):
            resolve(parse_config_text("grading=1.5\n"))

    def test_defaults_fill_missing(self):
        config, params, _ = resolve({})
        assert params.R == 1.0
        assert config.x_max == 20.0


class TestRunCommand:
    def test_run_produces_outputs(self, config_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", config_file, "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "diagnostics.csv"))
        assert os.path.exists(os.path.join(out, "summary.json"))
        assert os.path.exists(os.path.join(out, "config.resolved"))
        snaps = os.listdir(os.path.join(out, "snapshots"))
        assert len(snaps) >= 2

    def test_equilibrium_zero_energy_summary(self, tmp_path):
        cfg = tmp_path / "eq.cfg"
        cfg.write_text("n=2\nX_max=10\nN=80\nt_end=0.3\ncadence=0.1\n")
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg), "--out", out]) == EXIT_OK
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["E_initial"] == 0.0
        assert summary["E_final"] == 0.0
        assert all(summary["invariants"].values())

    def test_rejected_profile_exits_config_code_without_outputs(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("profile.kind=gaussian_bump\nprofile.amplitudes=0,0,-1.0\n")
        out = str(tmp_path / "nothing")
        assert main(["run", "--config", str(cfg), "--out", out]) == EXIT_CONFIG
        assert not os.path.exists(out)

    @pytest.mark.parametrize("override", [
        "superlevel.a=0.5",
        "t_end=inf",
        "profile.center=nan",
        "profile.amplitudes=nan,0,0",
        "X_max=inf",
        "X_max=0.5",
        "N=2",
        "floors=inf,1e-6",
        "mu=inf",
    ])
    def test_bad_run_setting_exits_config_code_before_solving(
        self, config_file, tmp_path, capsys, override
    ):
        out = str(tmp_path / "nothing")
        code = main(["run", "--config", config_file, "--out", out,
                     "--set", "N=16", "--set", override])
        assert code == EXIT_CONFIG
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("rows", [
        "0,1,0,1\n5,-1,0,1\n12,1,0,1\n",
        "0,1,0,1\n5,1,0,0\n12,1,0,1\n",
        "0,1,0,1\n5,nan,0,1\n12,1,0,1\n",
        "0,1,0,1,0\n5,1,0,1,0\n12,1,0,1,0\n",
        "0,1,0,1\n12,1,0,1\n5,1,0,1\n",
    ], ids=["negative_v", "zero_theta", "nan_entry", "five_columns", "x_not_increasing"])
    def test_bad_table_exits_config_code_before_solving(
        self, config_file, tmp_path, capsys, rows
    ):
        table = tmp_path / "init.csv"
        table.write_text(rows)
        out = str(tmp_path / "nothing")
        code = main(["run", "--config", config_file, "--out", out, "--set", "N=16",
                     "--set", "profile.kind=table", "--set", f"profile.table={table}"])
        assert code == EXIT_CONFIG
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_one_row_table_is_a_constant_profile(self, config_file, tmp_path):
        table = tmp_path / "init.csv"
        table.write_text("3,1.1,0,0.9\n")
        out = str(tmp_path / "out")
        assert main(["run", "--config", config_file, "--out", out, "--set", "N=16",
                     "--set", "profile.kind=table", "--set", f"profile.table={table}"]) == EXIT_OK

    def test_missing_config_rejected(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", out]) == EXIT_CONFIG

    def test_overrides_applied(self, config_file, tmp_path):
        out = str(tmp_path / "out")
        code = main(["run", "--config", config_file, "--out", out,
                     "--set", "N=64", "--set", "t_end=0.2"])
        assert code == EXIT_OK
        with open(os.path.join(out, "config.resolved")) as fh:
            text = fh.read()
        assert "N=64" in text and "t_end=0.2" in text

    def test_determinism_bit_identical_csv(self, config_file, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["run", "--config", config_file, "--out", out1])
        main(["run", "--config", config_file, "--out", out2])
        for name in ("diagnostics.csv",):
            with open(os.path.join(out1, name), "rb") as fh:
                d1 = fh.read()
            with open(os.path.join(out2, name), "rb") as fh:
                d2 = fh.read()
            assert d1 == d2

    def test_table_profile_via_config(self, tmp_path):
        x = np.linspace(0.0, 12.0, 25)
        rows = np.column_stack([x, 1.0 + 0.05 * np.sin(x), 0.0 * x, np.ones_like(x)])
        table = tmp_path / "init.csv"
        np.savetxt(table, rows, delimiter=",")
        cfg = tmp_path / "t.cfg"
        cfg.write_text(
            f"X_max=12\nN=48\nt_end=0.2\ncadence=0.1\n"
            f"profile.kind=table\nprofile.table={table}\n"
        )
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg), "--out", out]) == EXIT_OK

    def test_positivity_abort_exit_code(self, tmp_path):
        cfg = tmp_path / "abort.cfg"
        # floors impossibly high: the first accepted step is already below
        cfg.write_text(
            "profile.kind=gaussian_bump\nprofile.amplitudes=-0.5,0,0\n"
            "X_max=10\nN=50\nt_end=0.5\nfloors=0.9,0.9\n"
        )
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg), "--out", out]) == EXIT_ABORT


class TestReportCommand:
    def test_report_reproduces_run(self, config_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["run", "--config", config_file, "--out", out])
        code = main(["report", "--out", out])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert "reproduction max deviation vs stored diagnostics: 0.0" in captured
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        assert report["reproduction_max_dev"] == 0.0
        assert all(report["invariants"].values())

    def test_report_missing_dir(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "ghost")]) == EXIT_CONFIG

    @pytest.mark.parametrize("spoil, expect", [
        (_truncate_snapshot, "snap_000001.csv: malformed snapshot"),
        (_garble_snapshot, "snap_000002.csv: malformed snapshot: could not convert"),
        (_empty_snapshot_dir, "no snapshots"),
        (_snapshot_from_other_grid, "samples on different grids"),
    ], ids=["truncated", "non_numeric", "empty_dir", "mixed_grids"])
    def test_report_unreadable_outputs_exit_config_code(
        self, config_file, tmp_path, capsys, spoil, expect
    ):
        out = str(tmp_path / "out")
        assert main(["run", "--config", config_file, "--out", out, "--set", "N=16"]) == EXIT_OK
        spoil(os.path.join(out, "snapshots"))
        capsys.readouterr()
        assert main(["report", "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("unreadable run output: ") and err.count("\n") == 1
        assert expect in err
        assert not os.path.exists(os.path.join(out, "report.json"))


class TestSweepCommand:
    def test_two_point_sweep_parallel(self, config_file, tmp_path):
        out = str(tmp_path / "sweep")
        code = main([
            "sweep", "--config", config_file, "--out", out,
            "--set", "N=48,64", "--set", "t_end=0.2", "--jobs", "2",
        ])
        assert code == EXIT_OK
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert len(manifest) == 2
        dirs = sorted(d for d in os.listdir(out) if os.path.isdir(os.path.join(out, d)))
        assert len(dirs) == 2
        for d in dirs:
            assert os.path.exists(os.path.join(out, d, "diagnostics.csv"))


class TestVerifyCommand:
    def test_verify_fixture_passes_windows(self, tmp_path, capsys):
        out = str(tmp_path / "verify")
        code = main(["verify", "--out", out])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert os.path.exists(os.path.join(out, "orders.txt"))
        with open(os.path.join(out, "orders.json")) as fh:
            orders = json.load(fh)
        for f in ("v", "u", "theta"):
            assert 1.8 <= orders["spatial"][f] <= 2.2
            assert 0.9 <= orders["temporal"][f] <= 1.1
        assert "PASS spatial order v" in captured

    def test_verify_unknown_case(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("case=unknown_case\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
