import concurrent.futures
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphgas import InitProfile, PhysParams, build_mass_grid, make_initial_data
from sphgas import cli
from sphgas.cli import (
    EXIT_ABORT, EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_PIPE, _check_invariants, main,
)
from sphgas.config import SCHEMA, ConfigError, load_config, parse_config_text, resolve
from sphgas.diagnostics import SERIES_COLUMNS, DiagnosticsSeries, anchor_roots
from sphgas.state import load_snapshot, save_snapshot
from test_diagnostics import OLD_HEADER
from test_golden import GOLDEN, TABLE, TABLE_TEXT


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


def _fresh_env() -> dict:
    """The environment for a fresh interpreter that imports this sphgas."""
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


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


def _replace_in_snapshot(old, new):
    """A spoiler that replaces ``old`` by ``new`` once in the first snapshot."""
    def spoil(snap_dir):
        path = os.path.join(snap_dir, "snap_000001.csv")
        with open(path) as fh:
            text = fh.read()
        assert old in text
        with open(path, "w") as fh:
            fh.write(text.replace(old, new, 1))
    return spoil


def _set_in_header(key, value, index):
    """A spoiler that sets ``key=value`` in the header of the snapshot at
    ``index`` in name order."""
    def spoil(snap_dir):
        path = os.path.join(snap_dir, sorted(os.listdir(snap_dir))[index])
        with open(path) as fh:
            header, body = fh.read().split("\n", 1)
        header, count = re.subn(rf" {key}=\S+", f" {key}={value}", header)
        assert count == 1
        with open(path, "w") as fh:
            fh.write(header + "\n" + body)
    return spoil


def _edit_file(name, edit):
    """A spoiler that replaces the text of the run output ``name``, a path
    from the snapshots directory, by ``edit`` of that text."""
    def spoil(snap_dir):
        path = os.path.join(snap_dir, name)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(edit(text))
    return spoil


def _insert_line(text, index, line):
    """``text`` with ``line`` inserted before its line ``index``."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[:index] + [line] + lines[index:])


def _header_refused(index):
    """report's message for the header of snapshot ``index`` of a BASE_CONFIG
    run at N=16, when it is not the text run writes."""
    return (f"snap_{index:06d}.csv: malformed snapshot: header is not '# t=<t> mu=1.0 "
            "lambda=0.0 R=1.0 cv=1.5 kappa=1.0 n=2.0', as run writes it for config.resolved: ")


def _empty_snapshot_dir(snap_dir):
    for name in os.listdir(snap_dir):
        os.remove(os.path.join(snap_dir, name))


def _snapshot_from_other_grid(snap_dir):
    params = PhysParams()
    state = make_initial_data(build_mass_grid(12.0, 20), InitProfile(), params)
    save_snapshot(state, params, os.path.join(snap_dir, "snap_000001.csv"))


def _set_in_config(key, value):
    """A spoiler that sets ``key=value`` in the run's config.resolved, which
    then describes another grid than the snapshots'."""
    def spoil(snap_dir):
        path = os.path.join(os.path.dirname(snap_dir), "config.resolved")
        with open(path) as fh:
            lines = [line for line in fh if not line.startswith(f"{key}=")]
        with open(path, "w") as fh:
            fh.writelines(lines + [f"{key}={value}\n"])
    return spoil


def _delete_diagnostics(snap_dir):
    os.remove(os.path.join(os.path.dirname(snap_dir), "diagnostics.csv"))


def _drop_last_diagnostics_row(out):
    path = os.path.join(out, "diagnostics.csv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])


def _delete_middle_snapshot(out):
    snap_dir = os.path.join(out, "snapshots")
    names = sorted(os.listdir(snap_dir))
    os.remove(os.path.join(snap_dir, names[len(names) // 2]))


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

    def test_dimension_past_the_float_range_rejected(self):
        """An integer n that no float holds is refused before n * lambda
        would raise OverflowError."""
        with pytest.raises(ConfigError, match="dimension"):
            resolve({"n": "1" + "0" * 400})

    def test_table_ignored_unless_the_profile_is_a_table(self, tmp_path):
        """A profile.table beside another profile.kind is not read: a missing
        file, which a table profile rejects, resolves."""
        missing = str(tmp_path / "missing.csv")
        config, _, _ = resolve({"profile.kind": "gaussian_bump", "profile.table": missing})
        assert config.profile.kind == "gaussian_bump" and config.profile.table is None

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
        "X_max=17",
        "X_max=1e300",
        "N=2",
        "N=10000000000000",
        "case=no_such_case",
        "floors=inf,1e-6",
        "mu=inf",
        "probe.x=9",
        "probe.x=2",
        "probe.x=4",
        "probe.k=0",
        "probe.k=12",
        "cadence=0",
        # above 1, but phi(a) = a - ln a - 1 rounds to 0
        "superlevel.a=1.00000001",
        "superlevel.a=1.0000000000000002",
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

    @pytest.mark.parametrize("cadence", ["1e-320", "5e-324"])
    def test_subnormal_cadence_samples_every_step(self, config_file, tmp_path, cadence):
        """A cadence so small that t / cadence overflows samples every step,
        as a tiny cadence does."""
        out = tmp_path / "out"
        assert main(["run", "--config", config_file, "--out", str(out), "--set", "N=16",
                     "--set", f"cadence={cadence}"]) == EXIT_OK
        with open(out / "summary.json") as fh:
            n_steps = json.load(fh)["n_steps"]
        with open(out / "diagnostics.csv") as fh:
            rows = len(fh.readlines()) - 1
        assert rows == len(os.listdir(out / "snapshots")) == n_steps + 1 > 3

    def test_overflowing_initial_radius_exits_config_code(self, config_file, tmp_path, capsys):
        """An amplitude whose initial radius overflows is a config error
        found before the solve, not a solver abort."""
        out = str(tmp_path / "nothing")
        code = main(["run", "--config", config_file, "--out", out,
                     "--set", "N=16", "--set", "profile.amplitudes=1e308,0,0"])
        assert code == EXIT_CONFIG
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "radius must stay finite" in err

    @pytest.mark.parametrize("overrides", [
        # min v = 0.5 lies below its floor
        ["profile.amplitudes=-0.5,0,0", "X_max=10", "N=50", "t_end=0.5", "floors=0.9,0.9"],
        # min theta = 0.6618 lies below its floor, which every step keeps
        ["scheme_order=2", "profile.amplitudes=-0.69,-2.49,-0.36", "profile.width=0.5",
         "floors=0.34,0.68", "cfl_fraction=1", "X_max=10", "N=40", "t_end=0.3"],
        # 1.2**4999 overflows
        ["grading=1.2", "N=5000"],
        # a first width of 1.3e-155, which marched into NaN
        ["grading=1.2", "X_max=10", "N=1960"],
    ], ids=["floors", "theta_floor_scheme2", "graded_overflow", "graded_tiny_width"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inadmissible_start_exits_config_code_before_solving(
        self, config_file, tmp_path, capsys, overrides
    ):
        """A t = 0 state that cannot be built, or lies below a floor, is a
        config error: nothing is solved and no output directory is made."""
        out = str(tmp_path / "nothing")
        argv = ["run", "--config", config_file, "--out", out]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_CONFIG
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("rows", [
        "0,1,0,1\n5,-1,0,1\n12,1,0,1\n",
        "0,1,0,1\n5,1,0,0\n12,1,0,1\n",
        "0,1,0,1\n5,nan,0,1\n12,1,0,1\n",
        "0,1,0,1,0\n5,1,0,1,0\n12,1,0,1,0\n",
        "0,1,0,1\n12,1,0,1\n5,1,0,1\n",
        "0,1,0,1\n5,one,0,1\n12,1,0,1\n",
        None,
    ], ids=["negative_v", "zero_theta", "nan_entry", "five_columns", "x_not_increasing",
            "non_numeric", "missing_file"])
    def test_bad_table_exits_config_code_before_solving(
        self, config_file, tmp_path, capsys, rows
    ):
        table = tmp_path / "init.csv"
        if rows is not None:
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

    @pytest.mark.parametrize("overrides", [
        # a step too small to reach t_end
        ["N=16", "dt_initial=1e-300"],
        ["N=16", "cfl_fraction=1e-300"],
        ["N=16", "R=1e300"],  # the sound speed overflows, so the step is 0
        ["N=16", "cv=1e-300"],
        # a first width of 5.6e-151, just above the smallest a grid may have
        ["grading=1.2", "X_max=10", "N=1900"],
        # r^(2(n-1)) overflows, and inf times a zero difference is NaN
        [*GOLDEN["rejects_scheme2"][1], "profile.amplitudes=0,0,1e308"],
        [*GOLDEN["rejects_scheme2"][1], "n=3", "profile.amplitudes=1e300,0,0"],
    ], ids=["dt_initial", "cfl_fraction", "R", "cv", "graded_small_width", "huge_theta",
            "huge_v_n3"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_positivity_abort_exit_code(self, config_file, tmp_path, capsys, overrides):
        out = str(tmp_path / "out")
        argv = ["run", "--config", config_file, "--out", out]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_ABORT
        err = capsys.readouterr().err
        assert err.startswith("solver abort: ") and err.count("\n") == 1
        # the snapshots taken before the abort stay; the series and the
        # summary, which need the whole march, are never written
        assert "snap_000000.csv" in os.listdir(os.path.join(out, "snapshots"))
        assert sorted(os.listdir(out)) == ["config.resolved", "snapshots"]

    @pytest.mark.parametrize("second", [["cadence=0.5"], ["cadence=0.5", "N=64"]],
                             ids=["fewer_samples", "other_grid"])
    def test_rerun_into_one_out_replaces_the_earlier_run(self, config_file, tmp_path, capsys,
                                                         second):
        """A second run into the same --out leaves none of the first run's
        snapshots, diagnostics, summary or report behind, and nothing else
        in the directory is touched."""
        out = str(tmp_path / "out")
        first = ["run", "--config", config_file, "--out", out, "--set", "t_end=2"]
        assert main(first + ["--set", "cadence=0.1"]) == EXIT_OK
        assert main(["report", "--out", out]) == EXIT_OK
        for path in (os.path.join(out, "notes.txt"), os.path.join(out, "snapshots", "keep.txt")):
            with open(path, "w") as fh:
                fh.write("not a run output\n")
        argv = first + [arg for item in second for arg in ("--set", item)]
        assert main(argv) == EXIT_OK
        assert not os.path.exists(os.path.join(out, "report.json"))
        snaps = sorted(os.listdir(os.path.join(out, "snapshots")))
        assert snaps == ["keep.txt"] + [f"snap_{i:06d}.csv" for i in range(5)]
        assert len(DiagnosticsSeries.from_csv(os.path.join(out, "diagnostics.csv"))) == 5
        assert os.path.exists(os.path.join(out, "notes.txt"))
        capsys.readouterr()
        assert main(["report", "--out", out]) == EXIT_OK
        assert "reproduction max deviation vs stored diagnostics: 0.0" in capsys.readouterr().out

    def test_memory_does_not_grow_with_the_sample_count(self, config_file, tmp_path):
        """run + report hold one block of samples, not the history.

        At N=64 a state's fields take 2 KB and a full block of 63 samples
        about 1 MB of temporaries.  The series keeps 34 values a sample and
        the fold some 42, about 360 bytes, so from 65 to 257 samples the
        peak may grow by that much per sample, which is 7%, but not by a
        state per sample.

        tracemalloc counts garbage in reference cycles until the cyclic
        collector frees it, so the collector runs before each verb and not
        inside the traced window: when it would run depends on how many
        objects the program allocates, not on the memory it holds.
        """
        # every fixed step of 1/32 is a sample
        settings = ["X_max=32", "N=64", "cfl_fraction=1", "dt_initial=0.03125", "cadence=1e-9"]

        def traced_peak(t_end):
            out = str(tmp_path / f"t{t_end}")
            argv = ["run", "--config", config_file, "--out", out, "--set", f"t_end={t_end}"]
            argv += [arg for item in settings for arg in ("--set", item)]
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                gc.collect()
                assert main(["report", "--out", out]) == EXIT_OK
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                gc.enable()
            return peak, len(os.listdir(os.path.join(out, "snapshots")))

        traced_peak(2)  # first calls fill caches that later ones reuse
        peak2, m2 = traced_peak(2)
        peak8, m8 = traced_peak(8)
        assert (m2, m8) == (65, 257)
        assert peak8 <= 1.1 * peak2
        state_bytes = 8 * (4 * 64 + 2)  # v, theta at centers; u, r at edges
        assert peak8 - peak2 < 0.5 * state_bytes * (m8 - m2)

    # ln Z falls by about 2,600 between samples and E(0) = 6.3e5, so the
    # representation and the anchor roots work at the ends of the double range
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_violent_transient_is_not_aborted(self, config_file, tmp_path):
        """The CFL step dips below the small-step bound for a few steps in a
        row and recovers; the march gets through, and every diagnostics entry
        stays finite."""
        out = str(tmp_path / "out")
        argv = ["run", "--config", config_file, "--out", out]
        for item in ["N=16", "X_max=10", "t_end=0.2", "profile.amplitudes=0,1e3,0"]:
            argv += ["--set", item]
        assert main(argv) == EXIT_INVARIANT
        with open(os.path.join(out, "summary.json")) as fh:
            checks = json.load(fh)["invariants"]
        # the absolute -1e-12 gap tolerance is below the rounding of this run
        assert [name for name, ok in checks.items() if not ok] == ["quadratic_form_pointwise"]


class TestInvariantLedger:
    def test_series_finite_fails_on_nan_or_inf(self, bump_run):
        result, config, params = bump_run
        assert _check_invariants(result.series, config, params)["series_finite"]
        col = SERIES_COLUMNS.index("repr_residual")
        for bad in (np.nan, np.inf):
            data = result.series.data.copy()
            data[3, col] = bad
            checks = _check_invariants(DiagnosticsSeries(data=data), config, params)
            assert not checks["series_finite"]
            assert sum(not ok for ok in checks.values()) == 1

    @pytest.mark.parametrize("column", ["vbar_min", "vbar_max", "thbar_min", "thbar_max"])
    def test_anchor_sandwich_holds_each_average_to_its_own_roots(self, bump_run, column):
        """R phi(vbar) and cv phi(thbar) are at most E(0), phi(y) = y - ln y - 1,
        so vbar lies between the roots of phi = E(0)/R and thbar between those
        of phi = E(0)/cv.  With R = 0.3 and cv = 1.5 the two pairs differ from
        each other and from the roots of phi = E(0).  A sample on a root
        passes; one 2e-8 beyond it, past the ledger's 1e-8, fails the
        sandwich and nothing else."""
        result, config, params = bump_run
        params = replace(params, R=0.3)
        e0 = float(result.series["E"][0])
        lo, hi = anchor_roots(e0 / (params.R if column.startswith("v") else params.cv))
        root, beyond = (lo, lo - 2e-8) if column.endswith("min") else (hi, hi + 2e-8)
        assert all(_check_invariants(result.series, config, params).values())
        for value, passes in ((root, True), (beyond, False)):
            data = result.series.data.copy()
            data[3, SERIES_COLUMNS.index(column)] = value
            checks = _check_invariants(DiagnosticsSeries(data=data), config, params)
            assert checks["anchor_sandwich"] is passes
            assert sum(not ok for ok in checks.values()) == (0 if passes else 1)

    def test_anchor_sandwich_passes_a_correct_run_at_small_R(self, config_file, tmp_path):
        """A volume bump at R = 0.3 takes vbar beyond the roots of
        phi = E(0), which hold vbar only when R >= 1, but not beyond those
        of phi = E(0)/R: the run passes its ledger."""
        out = str(tmp_path / "out")
        argv = ["run", "--config", config_file, "--out", out]
        for item in ["profile.amplitudes=1,0,0", "t_end=0.2", "R=0.3"]:
            argv += ["--set", item]
        assert main(argv) == EXIT_OK
        with open(os.path.join(out, "summary.json")) as fh:
            assert all(json.load(fh)["invariants"].values())
        series = DiagnosticsSeries.from_csv(os.path.join(out, "diagnostics.csv"))
        assert series["vbar_max"].max() > anchor_roots(float(series["E"][0]))[1]

    def test_anchor_sandwich_passes_a_correct_run_with_large_data(
        self, config_file, tmp_path, capsys
    ):
        """A velocity bump of amplitude 10 gives E(0) ~ 63, past the bound
        32.5 beyond which phi(y) - E(0) rounds to 0 at y = exp(-(E(0) + 1)):
        the lower roots are found all the same and the run passes."""
        out = str(tmp_path / "out")
        argv = ["run", "--config", config_file, "--out", out]
        for item in ["N=16", "profile.amplitudes=0,10,0"]:
            argv += ["--set", item]
        assert main(argv) == EXIT_OK
        assert "PASS anchor_sandwich" in capsys.readouterr().out.splitlines()
        with open(os.path.join(out, "summary.json")) as fh:
            assert json.load(fh)["E_initial"] / 1.5 > 32.5


# Per key a default, boundary values and extremes; the base config keeps the
# grid at N <= 16 and t_end <= 0.2, and the one larger N is above the bound
# that RunConfig rejects, so no drawn value allocates a large grid.
_PROPERTY_VALUES = {
    "n": ["2", "3", "1", "2.5", "1e300", "1" + "0" * 400],
    "mu": ["1.0", "1e-300", "1e300", "0", "-1"],
    "lambda": ["0.0", "-1", "1e300", "-1e300"],
    "R": ["1.0", "1e-300", "1e300", "0", "-1"],
    "cv": ["1.5", "1e-300", "1e300", "0"],
    "kappa": ["1.0", "1e-300", "1e300", "0"],
    "X_max": ["12", "1", "0", "-1", "1e300", "1e-300"],
    "N": ["16", "4", "3", "8.5", "0", "-1", "10000000000000"],
    "grading": ["uniform", "1", "1.2", "1.3", "0"],
    "profile.kind": ["gaussian_bump", "equilibrium", "table", "spline"],
    "profile.amplitudes": ["0.1,0.1,0.1", "0,0,0", "-1,0,0", "-0.999,0,0",
                           "1e308,0,0", "0,1e300,0", "0,0,1e300", "0,0,-1"],
    "profile.center": ["4.0", "0", "-1e300", "1e300"],
    "profile.width": ["1.0", "1e-300", "1e300", "0", "-1"],
    "t_end": ["0.2", "1e-300", "0", "-1", "1e300"],
    "dt_initial": ["1.0", "1e-300", "1e300", "0", "-1"],
    "cfl_fraction": ["0.4", "1", "1e-300", "0", "1.5"],
    "floors": ["1e-6,1e-6", "1e-300,1e-300", "0.999,0.999", "0,0", "1,1"],
    "cadence": ["0.1", "1e-300", "5e-324", "1e300", "0", "-1"],
    "scheme_order": ["1", "2", "3", "1.5"],
    "probe.k": ["4", "1", "0", "12", "2.5"],
    "probe.x": ["3.0", "0", "2", "4", "-1", "1e300"],
    "superlevel.a": ["1.5", "1", "1.00000001", "1e300", "1e-300"],
    "case": ["smooth_bump", "equilibrium", "no_such_case"],
}
# keys the property test does not draw, each with the test that covers it
_NOT_DRAWN = {
    "profile.table": "a path to a file; test_bad_table_exits_config_code_before_solving",
}
_OVERRIDES = st.lists(
    st.one_of([st.tuples(st.just(k), st.sampled_from(v)) for k, v in _PROPERTY_VALUES.items()]),
    min_size=1, max_size=3, unique_by=lambda kv: kv[0],
)


def _setting_value(resolved, key):
    """The field values that config ``key`` sets in a ``resolve`` result."""
    config, params, extras = resolved
    setting = SCHEMA[key]
    obj = {"params": params, "config": config, "profile": config.profile}.get(setting.target)
    return [extras[f] if obj is None else getattr(obj, f) for f in setting.fields]


class TestConfigProperty:
    def test_every_key_drawn_or_exempt(self, tmp_path, monkeypatch):
        """Every key is drawn by the property test or exempt, and every key
        takes a value other than its default in at least one golden config."""
        assert set(SCHEMA) - set(_PROPERTY_VALUES) == set(_NOT_DRAWN)
        assert set(_PROPERTY_VALUES) <= set(SCHEMA)

        monkeypatch.chdir(tmp_path)
        (tmp_path / TABLE).write_text(TABLE_TEXT)
        default = resolve({})
        golden = [resolve(parse_config_text("\n".join(lines))) for _, lines in GOLDEN.values()]
        left_at_default = [
            key for key in SCHEMA
            if all(repr(_setting_value(r, key)) == repr(_setting_value(default, key))
                   for r in golden)
        ]
        assert left_at_default == []

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(overrides=_OVERRIDES)
    def test_any_setting_ends_in_a_documented_exit_code(self, tmp_path_factory, overrides):
        """Every config either exits 2 before solving or reaches 0, 3 or 4;
        none raises or runs without end."""
        cfg = tmp_path_factory.mktemp("prop") / "run.cfg"
        cfg.write_text(BASE_CONFIG.replace("N=96", "N=16").replace("t_end=0.4", "t_end=0.2"))
        argv = ["run", "--config", str(cfg), "--out", str(cfg.parent / "out")]
        for key, value in overrides:
            argv += ["--set", f"{key}={value}"]
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_ABORT, EXIT_INVARIANT)


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

    def test_report_json_records_the_run(self, config_file, tmp_path):
        """report.json holds the sample count and E at both ends of the
        recomputed series: the rows of diagnostics.csv and summary.json's E."""
        out = str(tmp_path / "out")
        assert main(["run", "--config", config_file, "--out", out, "--set", "N=16"]) == EXIT_OK
        assert main(["report", "--out", out]) == EXIT_OK
        with open(os.path.join(out, "diagnostics.csv")) as fh:
            rows = len(fh.readlines()) - 1
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        assert report["samples"] == rows > 2
        assert report["E_initial"] == summary["E_initial"]
        assert report["E_final"] == summary["E_final"]
        assert report["E_final"] < report["E_initial"]

    def test_report_missing_dir(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "ghost")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("unreadable run output: ") and err.count("\n") == 1
        assert "config.resolved" in err

    def test_report_after_an_abort_names_the_missing_diagnostics(self, config_file, tmp_path,
                                                                 capsys):
        out = str(tmp_path / "out")
        argv = ["run", "--config", config_file, "--out", out]
        for item in ["N=16", "R=1e300"]:
            argv += ["--set", item]
        assert main(argv) == EXIT_ABORT
        capsys.readouterr()
        assert main(["report", "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("unreadable run output: ") and "diagnostics.csv" in err

    def test_missing_diagnostics_fails_before_reading_a_snapshot(self, config_file, tmp_path,
                                                                  capsys, monkeypatch):
        """A diagnostics.csv whose header is not the series columns (one
        written while f and g had columns of their own), and then none at
        all, is refused before a snapshot is read."""
        out = str(tmp_path / "out")
        assert main(["run", "--config", config_file, "--out", out, "--set", "N=16"]) == EXIT_OK
        path = os.path.join(out, "diagnostics.csv")
        with open(path) as fh:
            rows = fh.readlines()[1:]
        with open(path, "w") as fh:
            fh.writelines([",".join(OLD_HEADER) + "\n"] + rows)
        read, load = [], cli.load_snapshot

        def spy(path, *args):
            read.append(path)
            return load(path, *args)

        monkeypatch.setattr(cli, "load_snapshot", spy)

        def refused(expect):
            capsys.readouterr()
            assert main(["report", "--out", out]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("unreadable run output: ") and expect in err

        refused("diagnostics.csv: unexpected series columns")
        os.remove(path)
        refused("diagnostics.csv")
        assert read == []

    def test_report_reads_nothing_outside_the_run(self, config_file, tmp_path, capsys,
                                                  monkeypatch):
        """config.resolved names a table profile by the path the run was
        started with; report, started elsewhere, reads only the run directory."""
        start, elsewhere = tmp_path / "start", tmp_path / "elsewhere"
        start.mkdir()
        elsewhere.mkdir()
        (start / TABLE).write_text(TABLE_TEXT)
        monkeypatch.chdir(start)
        assert main(["run", "--config", config_file, "--out", "out", "--set", "N=16",
                     "--set", "profile.kind=table", "--set", f"profile.table={TABLE}"]) == EXIT_OK
        monkeypatch.chdir(elsewhere)
        capsys.readouterr()
        assert main(["report", "--out", str(start / "out")]) == EXIT_OK
        assert "reproduction max deviation vs stored diagnostics: 0.0" in capsys.readouterr().out

    def test_report_reads_only_snapshot_files(self, config_file, tmp_path, capsys):
        """Other files in snapshots/, which run leaves alone, are not samples."""
        out = str(tmp_path / "out")
        argv = ["run", "--config", config_file, "--out", out]
        for item in ["N=16", "X_max=10", "t_end=0.2"]:
            argv += ["--set", item]
        assert main(argv) == EXIT_OK
        with open(os.path.join(out, "snapshots", "notes.csv"), "w") as fh:
            fh.write("not,a,snapshot\n")
        capsys.readouterr()
        assert main(["report", "--out", out]) == EXIT_OK
        assert "reproduction max deviation vs stored diagnostics: 0.0" in capsys.readouterr().out

    @pytest.mark.parametrize("spoil, expect", [
        (_truncate_snapshot, "snap_000001.csv: malformed snapshot"),
        (_garble_snapshot, "snap_000002.csv: malformed snapshot: could not convert"),
        (_replace_in_snapshot("n=2.0", "n=3.7"), _header_refused(1)),
        (_replace_in_snapshot("n=2.0", "n=inf"), _header_refused(1)),
        (_replace_in_snapshot("# t=", "t="), _header_refused(1)),
        (_replace_in_snapshot("x,v,u,theta,r", "x,v,u,T,r"), "unexpected columns 'x,v,u,T,r'"),
        (_empty_snapshot_dir, "no snapshots"),
        (_snapshot_from_other_grid,
         "snap_000001.csv: malformed snapshot: x column is not the grid of config.resolved"),
        (_set_in_config("N", "32"), "snap_000000.csv: malformed snapshot: x column is not"),
        (_set_in_config("X_max", "11"), "snap_000000.csv: malformed snapshot: x column is not"),
        (_set_in_config("grading", "1.01"), "snap_000000.csv: malformed snapshot: x column is not"),
        (_delete_diagnostics, "diagnostics.csv"),
        (_set_in_header("t", "0.0", 1), "sample time 0.0 does not follow 0.0"),
        (_set_in_header("t", "nan", 2),
         "snap_000002.csv: malformed snapshot: header value t=nan is not finite"),
        (_set_in_header("t", "inf", -1), "header value t=inf is not finite"),
        (_set_in_header("n", "3.0", 2), _header_refused(2)),
        (_set_in_header("mu", "inf", 1), _header_refused(1)),
        (_replace_in_snapshot("n=2.0\n", "n=2.0 t=99.0\n"), _header_refused(1)),
        (_replace_in_snapshot("n=2.0\n", "n=2.0 foo=1.0\n"), _header_refused(1)),
        (_set_in_header("mu", "2.0", 1), _header_refused(1)),
        (_replace_in_snapshot("mu=1.0 lambda=0.0", "lambda=0.0 mu=1.0"), _header_refused(1)),
        (_set_in_header("mu", "1.00", 1), _header_refused(1)),
        (_replace_in_snapshot(" R=1.0", "  R=1.0"), _header_refused(1)),
        (_set_in_header("lambda", "-0.0", 1), _header_refused(1)),
        (_set_in_header("t", "0.40", -1), _header_refused(4)),
        # run writes each file one way: x as the grid's edge text, no blank
        # line, and a newline at the end of every line
        (_replace_in_snapshot("\n0.0,", "\n0.00,"),
         "snap_000001.csv: malformed snapshot: x column is not the grid of config.resolved"),
        (_edit_file("snap_000001.csv", lambda text: _insert_line(text, 4, " \t\n")),
         "snap_000001.csv: malformed snapshot: truncated"),
        (_edit_file("snap_000001.csv", lambda text: text + "\n"),
         "snap_000001.csv: malformed snapshot: truncated"),
        (_edit_file("snap_000001.csv", lambda text: text[:-1]),
         "snap_000001.csv: malformed snapshot: truncated"),
        (_edit_file("../diagnostics.csv", lambda text: _insert_line(text, 3, "  \n")),
         "diagnostics.csv: the number of columns changed"),
        (_edit_file("../diagnostics.csv", lambda text: text + "\n"),
         "diagnostics.csv: a blank line or no final newline"),
        (_edit_file("../diagnostics.csv", lambda text: text[:-1]),
         "diagnostics.csv: a blank line or no final newline"),
    ], ids=["truncated", "non_numeric", "fractional_n", "infinite_n", "no_header",
            "other_columns", "empty_dir", "mixed_grids", "other_config_n", "other_config_x_max",
            "other_config_grading", "missing_diagnostics", "duplicate_t",
            "nan_t", "inf_t_last", "other_n_later", "infinite_mu", "repeated_key",
            "unknown_key", "other_mu", "reordered_keys", "other_float_text", "double_space",
            "minus_zero_lambda", "other_t_text", "other_x_text", "whitespace_line",
            "blank_line_after_last_row", "no_final_newline", "whitespace_line_in_diagnostics",
            "blank_line_after_last_diagnostics_row", "diagnostics_without_final_newline"])
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

    @pytest.mark.parametrize("spoil", [_drop_last_diagnostics_row, _delete_middle_snapshot],
                             ids=["short_diagnostics", "missing_snapshot"])
    def test_report_fails_when_series_shapes_differ(self, config_file, tmp_path, capsys, spoil):
        out = str(tmp_path / "out")
        assert main(["run", "--config", config_file, "--out", out, "--set", "N=16"]) == EXIT_OK
        spoil(out)
        capsys.readouterr()
        assert main(["report", "--out", out]) == EXIT_INVARIANT
        captured = capsys.readouterr().out
        assert "the shapes differ" in captured
        assert "FAIL diagnostics_reproduced" in captured
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        assert report["reproduction_max_dev"] is None
        assert report["invariants"]["diagnostics_reproduced"] is False

    def test_closed_stdout_exits_pipe_code_after_writing_report(self, config_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", config_file, "--out", out, "--set", "N=16"]) == EXIT_OK
        proc = subprocess.Popen(
            [sys.executable, "-m", "sphgas.cli", "report", "--out", out],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env(), text=True,
        )
        proc.stdout.close()  # the reader is gone before the first line
        err = proc.stderr.read()
        assert proc.wait() == EXIT_PIPE
        assert err == ""
        with open(os.path.join(out, "report.json")) as fh:
            assert all(json.load(fh)["invariants"].values())


def test_cold_start_imports_neither_scipy_linalg_nor_the_process_pool(config_file):
    """Every verb starts by importing the CLI and resolving its config; that
    start loads scipy's LAPACK module alone and no process pool."""
    code = (
        "import sys\n"
        "import sphgas.cli\n"
        "from sphgas.config import load_config, resolve\n"
        "resolve(load_config(sys.argv[1]))\n"
        "print([m for m in ('scipy.linalg', 'concurrent.futures.process') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, config_file], env=_fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


class TestSnapshotReader:
    """report reads back, by ``load_snapshot`` on the grid of config.resolved,
    what run wrote through ``cli._snapshot_writer``."""

    @staticmethod
    def _write(states, params, snap_dir):
        write = cli._snapshot_writer(str(snap_dir), params)
        for state in states:
            write(state)
        return sorted(os.listdir(snap_dir))

    @staticmethod
    def _assert_bitwise_equal(a, b):
        assert np.float64(a.t).tobytes() == np.float64(b.t).tobytes()
        for f in ("v", "u", "theta", "r"):
            assert getattr(a, f).tobytes() == getattr(b, f).tobytes(), f

    @staticmethod
    def _read(snap_dir, names, params, config):
        """The states of the files ``names``, read as ``report`` reads them:
        on the grid it builds from the run's config."""
        grid = build_mass_grid(config.x_max, config.n_cells, config.grading)
        return [load_snapshot(os.path.join(snap_dir, name), grid, params) for name in names]

    def test_run_states_come_back_bitwise_on_one_grid(self, bump_history, tmp_path):
        _, config, params, states = bump_history
        names = self._write(states, params, tmp_path)
        loaded = self._read(tmp_path, names, params, config)
        assert len(loaded) == len(states) > 2
        for st, back in zip(states, loaded):
            self._assert_bitwise_equal(st, back)
        assert len({id(st.grid) for st in loaded}) == 1

    def test_snapshots_of_a_run_come_back_on_one_grid(self, config_file, tmp_path):
        """The snapshots ``run`` writes are read back on one grid, whose edge
        text the reader matched them against."""
        out = tmp_path / "out"
        assert main(["run", "--config", config_file, "--out", str(out), "--set", "N=16"]) == EXIT_OK
        snap_dir = str(out / "snapshots")
        config, params, _ = resolve(load_config(str(out / "config.resolved")))
        loaded = self._read(snap_dir, sorted(os.listdir(snap_dir)), params, config)
        assert len(loaded) > 2
        assert all(st.grid is loaded[0].grid for st in loaded)
        assert "edge_text" in vars(loaded[0].grid)

    def test_non_canonical_x_text_refused(self, bump_history, tmp_path):
        """x text of equal value but other spelling is not the grid's edge
        text, which run writes, and the file is refused."""
        _, config, params, states = bump_history
        names = self._write(states[:3], params, tmp_path)
        path = tmp_path / names[1]
        lines = path.read_text().splitlines(keepends=True)
        assert lines[2].startswith("0.0,")
        # "0.0" becomes "0.00", "0.1" "0.10", and so on
        path.write_text("".join(lines[:2] + [line.replace(",", "0,", 1) for line in lines[2:]]))
        with pytest.raises(ValueError, match=f"{names[1]}: malformed snapshot: x column is not"):
            self._read(tmp_path, names, params, config)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Puts an in-process stand-in for sweep's ProcessPoolExecutor in place;
    returns the list of pool sizes that sweep asks for."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # sweep imports the executor from concurrent.futures when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return sizes


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

    @pytest.mark.parametrize("jobs, points, cpus, size", [
        (64, 2, 3, 2),  # capped at the point count
        (64, 4, 3, 3),  # capped at the CPU count
        (2, 4, 3, 2),
        (8, 4, 1, None),  # one CPU: no pool, the points run in this process
        (1, 4, 3, None),
    ])
    def test_pool_is_no_larger_than_points_and_cpus(
        self, config_file, tmp_path, monkeypatch, pool_sizes, jobs, points, cpus, size
    ):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        out = str(tmp_path / "sweep")
        n_values = ",".join(str(16 + 4 * i) for i in range(points))
        code = main([
            "sweep", "--config", config_file, "--out", out, "--jobs", str(jobs),
            "--set", f"N={n_values}", "--set", "t_end=0.1",
        ])
        assert code == EXIT_OK
        assert pool_sizes == ([] if size is None else [size])
        with open(os.path.join(out, "manifest.json")) as fh:
            assert len(json.load(fh)) == points

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_config_code(self, config_file, tmp_path, capsys, pool_sizes, jobs):
        out = str(tmp_path / "sweep")
        code = main(["sweep", "--config", config_file, "--out", out, "--jobs", jobs,
                     "--set", "N=16,32"])
        assert code == EXIT_CONFIG
        assert not os.path.exists(out)
        assert pool_sizes == []
        err = capsys.readouterr().err
        assert err == f"config error: --jobs must be at least 1, got {jobs}\n"

    def test_list_key_fixed_beside_an_axis(self, config_file, tmp_path):
        out = str(tmp_path / "sweep")
        code = main([
            "sweep", "--config", config_file, "--out", out,
            "--set", "profile.amplitudes=0.1,0.1,0.1", "--set", "N=16,32", "--set", "t_end=0.2",
        ])
        assert code == EXIT_OK
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert sorted(manifest) == ["000_N=16", "001_N=32"]

    def test_list_key_with_two_points_is_an_axis(self, config_file, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = main([
            "sweep", "--config", config_file, "--out", out, "--set", "N=16", "--set", "t_end=0.2",
            "--set", "profile.amplitudes=0.1,0.1,0.1,0.2,0,0",
        ])
        assert code == EXIT_OK
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert sorted(manifest) == [
            "000_profile-amplitudes=0.1,0.1,0.1", "001_profile-amplitudes=0.2,0,0",
        ]
        assert capsys.readouterr().out.count(": exit 0") == 2

    def test_value_count_not_a_multiple_of_arity_exits_config_code(
        self, config_file, tmp_path, capsys
    ):
        out = str(tmp_path / "sweep")
        code = main([
            "sweep", "--config", config_file, "--out", out, "--set", "N=16,32",
            "--set", "profile.amplitudes=0.1,0.1,0.1,0.2",
        ])
        assert code == EXIT_CONFIG
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


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

    def test_equilibrium_orders_json_is_strict_json(self, tmp_path):
        """The equilibrium case's errors sit at the rounding floor, so no order
        is fitted: orders.json writes each as null, which a parser that
        refuses NaN accepts, and the verdicts pass."""
        out = str(tmp_path / "verify")
        assert main(["verify", "--out", out, "--set", "case=equilibrium"]) == EXIT_OK

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        with open(os.path.join(out, "orders.json")) as fh:
            orders = json.load(fh, parse_constant=refuse)
        for mode in ("spatial", "temporal"):
            assert orders[mode] == {"v": None, "u": None, "theta": None}
        assert all(all(modes.values()) for modes in orders["verdict"].values())

    @pytest.mark.parametrize("n", [3, 4])
    def test_verify_fixture_passes_windows_at_n(self, tmp_path, n):
        """At n >= 3 the weights r^(n-2) and r^(n-1) differ, so an operator
        that takes one for the other leaves its orders' windows."""
        out = str(tmp_path / "verify")
        assert main(["verify", "--out", out, "--set", f"n={n}"]) == EXIT_OK
        with open(os.path.join(out, "orders.json")) as fh:
            verdict = json.load(fh)["verdict"]
        assert verdict == {f: {"spatial": True, "temporal": True} for f in ("v", "u", "theta")}

    @pytest.mark.parametrize("n", [2, 3])
    def test_temporal_orders_are_one_to_two_percent(self, tmp_path, n):
        """The extrapolated reference cancels the leading time error, so
        the scheme-1 temporal slopes sit at 1, well inside their window; a
        reference that kept an error of its own would bias them."""
        out = str(tmp_path / "verify")
        assert main(["verify", "--out", out, "--set", f"n={n}"]) == EXIT_OK
        with open(os.path.join(out, "orders.json")) as fh:
            temporal = json.load(fh)["temporal"]
        for f in ("v", "u", "theta"):
            assert 0.98 <= temporal[f] <= 1.02

    def test_verify_unknown_case(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("case=unknown_case\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("override", ["case=no_such_case", "gravity=1"])
    def test_verify_set_without_config_is_applied(self, tmp_path, capsys, override):
        out = str(tmp_path / "o")
        assert main(["verify", "--out", out, "--set", override]) == EXIT_CONFIG
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


class TestErrorBoundary:
    def test_verify_positivity_failure_exits_abort_code(self, tmp_path, capsys):
        out = str(tmp_path / "verify")
        assert main(["verify", "--out", out, "--set", "n=40"]) == EXIT_ABORT
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert err.startswith("solver abort: ") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["run", "verify", "sweep"])
    def test_unwritable_out_exits_config_code(self, config_file, tmp_path, capsys, verb):
        out = tmp_path / "a_file"
        out.write_text("")
        argv = [verb, "--out", str(out)]
        if verb != "verify":
            argv += ["--config", config_file, "--set", "N=16"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert out.read_text() == ""

    @pytest.mark.parametrize("argv", [
        ["report", "--out", "o", "--config", "run.cfg"],
        ["report", "--out", "o", "--set", "t_end=5"],
        ["run", "--out", "o"],
        ["sweep", "--out", "o", "--set", "N=16,32"],
    ], ids=["report_config", "report_set", "run_no_config", "sweep_no_config"])
    def test_bad_command_line_exits_through_argparse(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert os.listdir(tmp_path) == []


def test_readme_config_block_lists_every_key():
    """The README's config block sets each documented key exactly once."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        text = fh.read()
    block = text.split("Config files are flat", 1)[1].split("```", 2)[1]
    keys = [
        setting.split("=", 1)[0]
        for line in block.splitlines()
        for setting in line.split("#", 1)[0].split()
    ]
    assert sorted(keys) == sorted(SCHEMA)


def test_readme_library_block_cites_only_the_public_api():
    """Every ``sg.<name>`` of the README's library block is in
    ``sphgas.__all__``, and every name there resolves."""
    import re

    import sphgas

    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        text = fh.read()
    block = text.split("## Library use", 1)[1].split("```", 2)[1]
    cited = set(re.findall(r"\bsg\.(\w+)", block))
    assert cited and cited <= set(sphgas.__all__), sorted(cited - set(sphgas.__all__))
    for name in sphgas.__all__:
        assert getattr(sphgas, name) is not None, name
