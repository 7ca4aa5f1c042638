"""The benchmark's output checks pass on a real run and fail on corrupted copies.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from workloads import config_text, workload_config  # noqa: E402

# A small disturbed run that still decays below a tenth of its initial
# distance from equilibrium, so every check applies.
SMALL = {"X_max": "16", "N": "64", "t_end": "50.0", "cadence": "0.25"}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    from sphgas.cli import main

    base = tmp_path_factory.mktemp("clean")
    raw = {**workload_config("decay", 0), **SMALL}
    cfg = base / "run.cfg"
    cfg.write_text(config_text(raw))
    out = str(base / "out")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(cfg), "--out", out]) == 0
        assert main(["report", "--out", out]) == 0
    return out, raw


@pytest.fixture
def output(clean, tmp_path):
    out, raw = clean
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    return copy, raw


def failing(out, raw):
    return {k for k, (ok, _) in checks.check_run(out, raw, decay=True).items() if not ok}


def edit_csv(path, row, col, value, skip=1):
    """Set one field of a CSV file; ``row`` counts data rows after ``skip`` header lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    idx = skip + row if row >= 0 else len(lines) + row
    fields = lines[idx].split(",")
    if isinstance(col, str):
        col = lines[skip - 1].split(",").index(col)
    fields[col] = repr(value)
    lines[idx] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def series_value(out, row, col):
    return float(checks.read_series(os.path.join(out, "diagnostics.csv"))[col][row])


def snapshot(out, i):
    snaps = sorted(os.listdir(os.path.join(out, "snapshots")))
    return os.path.join(out, "snapshots", snaps[i])


def test_clean_run_passes_every_check(output):
    assert failing(*output) == set()


def test_negative_v_in_one_snapshot(output):
    out, raw = output
    edit_csv(snapshot(out, 3), 10, 1, -0.5, skip=2)
    assert "bounds" in failing(out, raw)


def test_perturbed_energy(output):
    out, raw = output
    path = os.path.join(out, "diagnostics.csv")
    edit_csv(path, -1, "E", series_value(out, -1, "E") * (1 + 1e-6))
    assert failing(out, raw) == {"energy"}


def test_energy_must_drop(output):
    out, raw = output
    shutil.copy(snapshot(out, 0), snapshot(out, -1))
    edit_csv(os.path.join(out, "diagnostics.csv"), -1, "E", series_value(out, 0, "E"))
    assert "energy" in failing(out, raw)


def test_nonzero_report_deviation(output):
    out, raw = output
    path = os.path.join(out, "report.json")
    with open(path) as fh:
        report = json.load(fh)
    report["reproduction_max_dev"] = 5e-324
    with open(path, "w") as fh:
        json.dump(report, fh)
    assert failing(out, raw) == {"report_reproduces"}


def test_average_outside_anchor_roots(output):
    out, raw = output
    e0 = series_value(out, 0, "E")
    _, y2 = checks.anchor_roots(e0)
    edit_csv(os.path.join(out, "diagnostics.csv"), 2, "vbar_max", y2 + 1e-6)
    assert failing(out, raw) == {"anchors"}


def test_superlevel_measure_over_bound(output):
    out, raw = output
    path = snapshot(out, 1)
    for j in range(40):
        edit_csv(path, j, 3, 1.6, skip=2)
    assert "superlevel" in failing(out, raw)


def test_negative_form_gap(output):
    out, raw = output
    edit_csv(os.path.join(out, "diagnostics.csv"), 1, "b6_gap_min", -1e-9)
    assert failing(out, raw) == {"form_gap"}


@pytest.mark.parametrize("row", [0, -1])
def test_stored_gap_must_match_recomputed_gap(output, row):
    # Still far above -1e-12, so only the closed-form recomputation catches it.
    out, raw = output
    edit_csv(os.path.join(out, "diagnostics.csv"), row, "b6_gap_min", series_value(out, row, "b6_gap_min") + 1e-9)
    assert failing(out, raw) == {"form_gap"}


def test_representation_residual_too_large(output):
    out, raw = output
    edit_csv(os.path.join(out, "diagnostics.csv"), 4, "repr_residual", 0.06)
    assert failing(out, raw) == {"representation"}


def test_no_decay(output):
    out, raw = output
    edit_csv(snapshot(out, -1), 20, 2, 0.15, skip=2)
    assert "decay" in failing(out, raw)


def orders_table(spatial_slope, temporal_slope, fields=("v", "u", "theta")):
    rows = []
    for mode, scales, slope in (
        ("spatial", (0.15625, 0.078125, 0.0390625), spatial_slope),
        ("temporal", (0.0032, 0.0016, 0.0008), temporal_slope),
    ):
        rows.append(f"mode={mode}")
        rows.append("scale      " + "  ".join(f"{f:>12}" for f in fields))
        for s in scales:
            rows.append(f"{s:<10.4g} " + "  ".join(f"{0.3 * s**slope:12.4e}" for _ in fields))
        rows.append("order      " + "  ".join(f"{slope:12.3f}" for _ in fields))
        rows.append("")
    return "\n".join(rows)


@pytest.mark.parametrize(
    "spatial,temporal,ok",
    [(2.0, 1.0, True), (1.7, 1.0, False), (2.3, 1.0, False), (2.0, 1.15, False), (2.0, 0.85, False)],
)
def test_refitted_slopes_must_lie_in_their_windows(tmp_path, spatial, temporal, ok):
    (tmp_path / "orders.txt").write_text(orders_table(spatial, temporal))
    assert checks.check_verify(str(tmp_path))["verify_orders"][0] is ok


def test_error_that_does_not_shrink_fails(tmp_path):
    text = orders_table(-2.0, 1.0)  # spatial errors grow as dx shrinks
    (tmp_path / "orders.txt").write_text(text)
    assert all(math.isnan(s) for s in checks.refit_orders(text)["spatial"].values())
    assert checks.check_verify(str(tmp_path))["verify_orders"][0] is False


def test_tracer_reports_bindings_it_cannot_wrap(monkeypatch):
    import sphgas.diagnostics
    from spans import Tracer

    tracer = Tracer()
    assert tracer.install() == []
    tracer.remove()
    monkeypatch.setattr(sphgas.diagnostics, "discrete_gradients", lambda state: None)
    tracer = Tracer()
    try:
        assert tracer.install() == ["state.discrete_gradients@diagnostics"]
    finally:
        tracer.remove()
