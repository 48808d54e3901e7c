"""Command-line front end tests: verdict tables, exports, runs, exit codes."""

import argparse
import csv
import hashlib
import os
import re
import subprocess
import sys
import threading
import warnings
import weakref
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daglms import (
    NoiseSpec,
    RootFindingError,
    RunDiverged,
    RunTrace,
    SingularityError,
    ScenarioConfig,
    StepSizePolicy,
    _kernel,
    cli,
    run_feedforward,
    run_sysid,
    sim,
)
from daglms.cli import CHECK_HEADER, main
from daglms.sim import default_feedforward_scenario
from daglms.spr_design import (
    PR_TOL,
    DagConfig,
    arima2_spr_closed_form,
    dag_transfer,
    integrated_dag,
    integrated_pr_closed_form,
    is_pr_unit_pole,
    is_spr_numeric,
)
from daglms.adapt import PRESET_ORDER, make_preset


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tree_bytes(path):
    """Every file below ``path`` by its path relative to ``path``, with its bytes."""
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


SMALL_FEEDFORWARD_CONFIG = """
[scenario]
kind = feedforward
noise_kind = bandpass
sample_rate_hz = 2500
band_low_hz = 70
band_high_hz = 170
amplitude = 0.006
seed = 11
n_adaptive_params = 10
duration_samples = 30000
open_loop_prefix_samples = 5000
primary_path = resonant_primary
secondary_path = resonant_secondary

[run]
algorithms = nlms
presets = integral, arima2
mu_nlms = 0.0002
threshold_db = 10
window_seconds = 1.0
"""


@pytest.fixture
def ff_config(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SMALL_FEEDFORWARD_CONFIG)
    return path


class TestCheck:
    def test_default_table(self, tmp_path, capsys):
        assert main(["check", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "check.csv")
        assert [r["name"] for r in rows] == list(PRESET_ORDER)
        verdicts = [(r["integrated_pr"], r["dag_spr"]) for r in rows]
        assert verdicts == [("Y", "Y"), ("N", "Y"), ("N", "Y"), ("Y", "Y"), ("N", "Y")]
        assert list(rows[0].keys()) == CHECK_HEADER

    def test_round_trip_matches_module(self, tmp_path):
        main(["check", "--out", str(tmp_path)])
        for row in read_csv(tmp_path / "check.csv"):
            cfg = make_preset(row["name"])
            spr = is_spr_numeric(dag_transfer(cfg))
            pr = is_pr_unit_pole(integrated_dag(cfg))
            assert row["dag_spr"] == ("Y" if spr.is_spr else "N")
            assert row["integrated_pr"] == ("Y" if pr.is_pr else "N")
            assert float(row["min_re_dag"]) == spr.min_real_part

    def test_custom_entry(self, tmp_path):
        main(["check", "--out", str(tmp_path), "--custom", "1.5,0,0"])
        rows = read_csv(tmp_path / "check.csv")
        assert rows[-1]["name"] == "custom0"
        assert rows[-1]["dag_spr"] == "N"

    def test_negative_custom_value(self, tmp_path):
        assert main(["check", "--out", str(tmp_path), "--custom", "-1.5,0.2,0.5"]) == 0
        row = read_csv(tmp_path / "check.csv")[-1]
        assert (row["name"], row["c1"], row["c2"], row["d1p"]) == ("custom0", "-1.5", "0.2", "0.5")

    def test_overflowing_row_is_quiet(self, tmp_path, capsys):
        """A row near the float range gets its verdicts with no warning and nothing on
        stderr, and the table keeps its bytes. Its real-part minimum is finite, though
        the response overflows elsewhere on the circle: 1 + 1e308 (cos w + cos 2w) is
        lowest at cos w = -1/4."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check", "--custom=1e308,1e308,0", "--out", str(tmp_path)]) == 0
        assert caught == [] and capsys.readouterr().err == ""
        digest = hashlib.sha256((tmp_path / "check.csv").read_bytes()).hexdigest()
        assert digest == "ad333bda135178b8ba06e3b4c64f07538018691316548e450048cedfb0012397"
        row = read_csv(tmp_path / "check.csv")[-1]
        assert (row["dag_spr"], row["min_re_dag"]) == ("N", "-1.125e+308")

    @pytest.mark.parametrize("error", [RootFindingError, SingularityError])
    def test_numerics_error_exits_4(self, tmp_path, capsys, monkeypatch, error):
        """A failed root solve or a response on a pole is a numerics error, not a config error."""

        def fail(*args, **kwargs):
            raise error("no verdict here")

        monkeypatch.setattr(cli, "is_spr_numeric", fail)
        assert main(["check", "--out", str(tmp_path / "out")]) == cli.EXIT_NUMERICS == 4
        assert capsys.readouterr().err == "numerics error: no verdict here\n"
        assert not (tmp_path / "out").exists()

    def test_expect_match_and_mismatch(self, tmp_path):
        out1 = tmp_path / "a"
        main(["check", "--out", str(out1)])
        assert main(["check", "--out", str(tmp_path / "b"), "--expect", str(out1 / "check.csv")]) == 0
        bad = tmp_path / "bad.csv"
        rows = read_csv(out1 / "check.csv")
        rows[0]["dag_spr"] = "N"
        with bad.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CHECK_HEADER)
            writer.writeheader()
            writer.writerows(rows)
        assert main(["check", "--out", str(tmp_path / "c"), "--expect", str(bad)]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [(None, "cannot read expected verdicts"), ("name,dag_spr,integrated_pr\r\n", "lists no row")],
        ids=["missing", "header-only"],
    )
    def test_unusable_expect_file_writes_nothing(self, tmp_path, capsys, text, message):
        """An expect file that cannot be read, or that compares nothing, exits 3 before any row."""
        expect = tmp_path / "expect.csv"
        if text is not None:
            expect.write_text(text)
        out = tmp_path / "out"
        assert main(["check", "--out", str(out), "--expect", str(expect)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_lossless_cell_reads_pr(self, tmp_path):
        """README's (0.5, -0.5, 0.5): the integrated filter is lossless and PR, as the closed form says.

        The numerator zero at z = -1 leaves the gain filter itself not SPR.
        """
        assert main(["check", "--out", str(tmp_path), "--custom=0.5,-0.5,0.5"]) == 0
        row = read_csv(tmp_path / "check.csv")[-1]
        assert (row["name"], row["dag_spr"], row["integrated_pr"]) == ("custom0", "N", "Y")
        assert integrated_pr_closed_form(0.5, -0.5, 0.5) is True
        assert arima2_spr_closed_form(0.5, -0.5, 0.5) is False

    def test_band_edge_cell_reads_spr(self, tmp_path):
        """(-0.526, -0.474, 0.5) in doubles: 1 + c1 + c2 = +1.1e-16, so both numerator zeros lie inside.

        A companion-matrix root test put one on or outside the circle, and the
        row read dag_spr=N with no log-gain integral.
        """
        c1, c2, d1p = -0.5259999999999999, -0.474, 0.5
        assert main(["check", "--out", str(tmp_path), f"--custom={c1},{c2},{d1p}"]) == 0
        row = read_csv(tmp_path / "check.csv")[-1]
        assert (row["name"], row["dag_spr"], row["integrated_pr"]) == ("custom0", "Y", "Y")
        assert float(row["min_re_dag"]) > 0.0 and np.isfinite(float(row["log_gain_integral"]))
        assert arima2_spr_closed_form(c1, c2, d1p) is True

    def test_overflowing_cell_reads_not_spr(self, tmp_path):
        # products of these coefficients overflow (NumPy's warnings silenced); the row
        # still reads N/N, with no traceback
        with np.errstate(all="ignore"):
            assert main(["check", "--out", str(tmp_path), "--custom=1e308,1e308,0"]) == 0
        row = read_csv(tmp_path / "check.csv")[-1]
        assert (row["name"], row["dag_spr"], row["integrated_pr"]) == ("custom0", "N", "N")

    def test_cells_next_to_the_unit_pole(self, tmp_path, monkeypatch):
        """At d1p = 0.9999999999999999, ``1 + d1p`` rounds to 2.0: the integrated filter in
        floats has a double root at z = 1, and ``is_pr_unit_pole`` rejects it. The rows take
        their PR verdict from the gain filter's own N and A, so they exit 0 and read the closed
        form's N, and the mirror cell at -d1p reads Y/Y, with the same bytes on either engine."""
        d1p = 0.9999999999999999
        cells = [(0.5, 0.2, d1p), (1.0, 0.0, d1p), (0.5, 0.2, -d1p)]
        argv = [f"--custom={c1!r},{c2!r},{d!r}" for c1, c2, d in cells]
        for engine in ("host", "python"):
            if engine == "python":
                monkeypatch.setattr(_kernel, "load", lambda: None)
            assert main(["check", "--out", str(tmp_path / engine), *argv]) == 0
        table = (tmp_path / "host" / "check.csv").read_bytes()
        assert table == (tmp_path / "python" / "check.csv").read_bytes()
        rows = read_csv(tmp_path / "host" / "check.csv")[len(PRESET_ORDER):]
        assert [r["integrated_pr"] for r in rows] == ["N", "N", "Y"]
        assert [r["integrated_pr"] == "Y" for r in rows] == [integrated_pr_closed_form(*cell) for cell in cells]
        assert (rows[2]["dag_spr"], rows[2]["integrated_pr"]) == ("Y", "Y")
        h = integrated_dag(DagConfig((0.5, 0.2), (d1p,)))
        assert h.denominator.coeffs == (1.0, -2.0, d1p)  # the rounded product
        with pytest.raises(ValueError, match="unit pole is not simple"):
            is_pr_unit_pole(h)

    def test_deterministic_bytes(self, tmp_path):
        main(["check", "--out", str(tmp_path / "x")])
        main(["check", "--out", str(tmp_path / "y")])
        assert (tmp_path / "x" / "check.csv").read_bytes() == (tmp_path / "y" / "check.csv").read_bytes()


# d1p values at and next to the edges of |d1p| < 1, and the presets' own
PR_EDGE_POOL = [0.0, 0.5, -0.5, 0.9, 0.99, -0.9, 1 - 1e-15, -(1 - 1e-15), 0.9999999999999999]


@pytest.mark.parametrize("engine", ["host", "python"])
def test_row_pr_verdict_agrees_with_the_integrated_filter(monkeypatch, engine):
    """On 10^4 seeded cells, d1p drawn from (-0.999, 0.999) or from the edge pool, check's
    integrated_pr equals ``is_pr_unit_pole`` on the integrated filter wherever that test takes
    the filter (it rejects the rounded product only at d1p = 0.9999999999999999), and, outside
    a ``PR_TOL`` band about the boundary, the closed form."""
    if engine == "python":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    rng = np.random.default_rng(27)
    n = 10_000
    drawn = np.where(rng.random(n) < 0.5, rng.uniform(-0.999, 0.999, n), rng.choice(PR_EDGE_POOL, n))
    rejected = set()
    with np.errstate(all="ignore"):
        for c1, c2, d1p in zip(rng.uniform(-2, 2, n).tolist(), rng.uniform(-1, 1, n).tolist(), drawn.tolist()):
            cfg = DagConfig((c1, c2), (d1p,) if d1p else ())
            row = cli._preset_row("cell", dag_transfer(cfg), (c1, c2, d1p))["integrated_pr"]
            try:
                assert row == is_pr_unit_pole(integrated_dag(cfg)).is_pr, (c1, c2, d1p)
            except ValueError:
                rejected.add(d1p)
            at_zero = (1.0 - c1 - 3.0 * c2 - d1p * (c1 - c2 + 3.0)) / (2.0 * (1.0 - d1p) ** 2)
            at_pi = (1.0 - c1 + c2) / (2.0 * (1.0 + d1p))
            if abs(min(at_zero, at_pi) + PR_TOL) > PR_TOL and abs(1.0 + c1 + c2) > PR_TOL:
                assert row == integrated_pr_closed_form(c1, c2, d1p), (c1, c2, d1p)
    assert rejected == {0.9999999999999999}


class TestContour:
    def test_small_grid(self, tmp_path):
        code = main([
            "contour", "--d1p", "0.9", "--out", str(tmp_path),
            "--c1-min", "0.99", "--c1-max", "0.99", "--c1-step", "1",
            "--c2-min", "0", "--c2-max", "0", "--c2-step", "1",
        ])
        assert code == 0
        rows = read_csv(tmp_path / "contour_d1p_0.9.csv")
        assert len(rows) == 1
        assert rows[0]["spr_dag"] == "1" and rows[0]["pr_integrated"] == "0"

    def test_trivial_cell(self, tmp_path):
        main([
            "contour", "--d1p", "0", "--out", str(tmp_path),
            "--c1-min", "0", "--c1-max", "0", "--c1-step", "1",
            "--c2-min", "0", "--c2-max", "0", "--c2-step", "1",
        ])
        rows = read_csv(tmp_path / "contour_d1p_0.csv")
        assert rows[0]["spr_dag"] == "1" and rows[0]["pr_integrated"] == "1"

    def test_both_flags_on_grid(self, tmp_path):
        main([
            "contour", "--d1p", "0.5", "--out", str(tmp_path),
            "--c1-min", "-1", "--c1-max", "1", "--c1-step", "0.5",
            "--c2-min", "-0.5", "--c2-max", "0.5", "--c2-step", "0.5",
        ])
        rows = read_csv(tmp_path / "contour_d1p_0.5.csv")
        assert len(rows) == 15
        assert {"c1", "c2", "spr_dag", "pr_integrated"} <= set(rows[0].keys())

    def test_grid_floor(self, tmp_path, capsys):
        # both flags come from closed forms with no frequency grid, so contour has no --grid
        with pytest.raises(SystemExit) as exc:
            main([
                "contour", "--d1p", "0", "--out", str(tmp_path),
                "--c1-min", "0", "--c1-max", "0", "--c1-step", "1",
                "--c2-min", "0", "--c2-max", "0", "--c2-step", "1",
                "--grid", "10",
            ])
        assert exc.value.code == 3
        assert "unrecognized arguments: --grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--d1p", "1"], "--d1p"),
            (["--d1p", "-1"], "--d1p"),
            (["--d1p", "1.2"], "--d1p"),
            (["--d1p", "nan"], "--d1p"),
            (["--d1p", "0", "--c1-min", "1", "--c1-max", "-1"], "c1 axis"),
            (["--d1p", "0", "--c1-max", "inf"], "c1 axis"),
            (["--d1p", "0", "--c2-step", "nan"], "c2 axis"),
            (["--d1p", "0", "--c2-min=-inf"], "c2 axis"),
            (["--d1p", "0", "--c2-step", "0"], "c2 axis"),
            (["--d1p", "0", "--c1-min=-1e308", "--c1-max", "1e308"], "c1 axis"),
            (["--d1p", "0", "--c1-step", "1e-9"], "c1 axis (4000000000 values)"),
            (["--d1p", "0", "--c2-step", "1e-5"], "c2 axis (200001 values)"),
        ],
        ids=[
            "d1p-1", "d1p-minus-1", "d1p-1.2", "d1p-nan",
            "c1-max-below-min", "c1-max-inf", "c2-step-nan", "c2-min-inf", "c2-step-zero",
            "c1-span-overflow", "c1-too-many-cells", "c2-too-many-cells",
        ],
    )
    def test_bad_grid_named(self, tmp_path, capsys, argv, named):
        # checked where it enters: exit 3 naming the flag or axis, and no CSV
        assert main(["contour", *argv, "--out", str(tmp_path / "o")]) == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestBode:
    def test_integral_flat(self, tmp_path):
        main(["bode", "--presets", "integral", "--out", str(tmp_path), "--grid", "512"])
        rows = read_csv(tmp_path / "bode_integral.csv")
        gains = np.array([float(r["gain_db"]) for r in rows])
        phases = np.array([float(r["phase_deg"]) for r in rows])
        assert np.allclose(gains, 0.0) and np.allclose(phases, 0.0)

    def test_arima2_low_frequency_gain(self, tmp_path):
        main(["bode", "--presets", "arima2", "--out", str(tmp_path), "--grid", "512"])
        rows = read_csv(tmp_path / "bode_arima2.csv")
        assert float(rows[0]["freq_hz"]) == 0.0
        assert float(rows[0]["gain_db"]) == pytest.approx(20.0 * np.log10(19.9), rel=1e-9)
        assert float(rows[-1]["gain_db"]) < 0.0

    def test_summary_mean_log_gain(self, tmp_path):
        main(["bode", "--out", str(tmp_path), "--grid", "512"])
        rows = read_csv(tmp_path / "bode_summary.csv")
        assert [r["name"] for r in rows] == list(PRESET_ORDER)
        for row in rows:
            assert row["phase_within_90deg"] == "Y"
            assert abs(float(row["mean_log_gain"])) < 1e-3

    def test_no_pr_verdict(self, tmp_path, monkeypatch):
        """bode writes no integrated_pr, so it runs no PR test: with one that raises it exits 0
        and writes the same tables."""
        assert main(["bode", "--out", str(tmp_path / "a"), "--grid", "512"]) == 0

        def fail(*args, **kwargs):
            raise AssertionError("bode ran a PR test")

        monkeypatch.setattr(cli, "_pr_unit_pole", fail)
        assert main(["bode", "--out", str(tmp_path / "b"), "--grid", "512"]) == 0
        assert tree_bytes(tmp_path / "b") == tree_bytes(tmp_path / "a")


class TestRunCompare:
    def test_compare_two_presets(self, ff_config, tmp_path):
        out = tmp_path / "out"
        code = main(["compare", "--config", str(ff_config), "--out", str(out)])
        assert code == 0
        assert (out / "trace_nlms_integral.csv").exists()
        assert (out / "trace_nlms_arima2.csv").exists()
        rows = read_csv(out / "summary.csv")
        assert len(rows) == 2
        by_preset = {r["preset"]: r for r in rows}
        # accelerated preset attains the threshold strictly sooner
        t_triv = by_preset["integral"]["time_to_threshold_idx"]
        t_acc = by_preset["arima2"]["time_to_threshold_idx"]
        t_triv_val = float(t_triv) if t_triv else np.inf
        assert t_acc != ""
        assert float(t_acc) < t_triv_val

    def test_run_single(self, ff_config, tmp_path):
        out = tmp_path / "single"
        code = main(["run", "--config", str(ff_config), "--out", str(out), "--preset", "arima2"])
        assert code == 0
        rows = read_csv(out / "summary.csv")
        assert len(rows) == 1 and rows[0]["preset"] == "arima2"
        trace_rows = read_csv(out / "trace_nlms_arima2.csv")
        assert len(trace_rows) == 30000
        assert trace_rows[0]["e0"] == ""  # open-loop prefix rows carry no error
        assert trace_rows[-1]["e0"] != ""

    def test_byte_identical_reruns(self, ff_config, tmp_path):
        main(["compare", "--config", str(ff_config), "--out", str(tmp_path / "r1")])
        main(["compare", "--config", str(ff_config), "--out", str(tmp_path / "r2")])
        for name in ("trace_nlms_integral.csv", "trace_nlms_arima2.csv", "summary.csv"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, name

    def test_seed_override_changes_output(self, ff_config, tmp_path):
        main(["run", "--config", str(ff_config), "--out", str(tmp_path / "s1")])
        main(["run", "--config", str(ff_config), "--out", str(tmp_path / "s2"), "--seed", "99"])
        a = (tmp_path / "s1" / "trace_nlms_integral.csv").read_bytes()
        b = (tmp_path / "s2" / "trace_nlms_integral.csv").read_bytes()
        assert a != b

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(SMALL_FEEDFORWARD_CONFIG.replace(
            "duration_samples = 30000", "duration_samples = 1000"
        ))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--no-such-option"],
            ["check", "--grid", "300"],
            ["check", "--quad", "10"],
            ["bode", "--quad", "10"],
        ],
        ids=["unknown-option", "check-grid", "check-quad", "bode-quad"],
    )
    def test_usage_error_exit_code(self, capsys, argv):
        # exit 2 would claim that a run diverged
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_divergence_exit_code(self, ff_config, tmp_path):
        cfg = ff_config.read_text().replace("mu_nlms = 0.0002", "mu_nlms = 0.0002\nmu_lms = 80000")
        cfg = cfg.replace("algorithms = nlms", "algorithms = lms")
        path = ff_config.parent / "diverging.ini"
        path.write_text(cfg)
        out = tmp_path / "divout"
        code = main(["compare", "--config", str(path), "--out", str(out)])
        assert code == 2
        rows = read_csv(out / "summary.csv")
        assert any(r["diverged"] == "Y" for r in rows)
        # traces still written for every run in the sweep
        assert (out / "trace_lms_integral.csv").exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (
            ["compare"],
            SMALL_FEEDFORWARD_CONFIG.replace("integral, arima2", "integral, arima3"),
            "unknown preset 'arima3'",
        ),
        (["compare", "--algorithms", "nlms,foo"], SMALL_FEEDFORWARD_CONFIG, "unknown algorithm 'foo'"),
        (
            ["compare"],
            SMALL_FEEDFORWARD_CONFIG.replace("integral, arima2", "integral, arima2, integral"),
            "repeated preset 'integral' in integral, arima2, integral",
        ),
        (
            ["compare"],
            SMALL_FEEDFORWARD_CONFIG.replace("algorithms = nlms", "algorithms = nlms, plms, nlms"),
            "repeated algorithm 'nlms' in nlms, plms, nlms",
        ),
        (
            ["compare", "--algorithms", "nlms", "--presets", "integral,integral"],
            SMALL_FEEDFORWARD_CONFIG,
            "repeated preset 'integral' in integral, integral",
        ),
        (
            ["compare", "--algorithms", "lms,lms", "--presets", "ip"],
            SMALL_FEEDFORWARD_CONFIG,
            "repeated algorithm 'lms' in lms, lms",
        ),
        (["compare"], SMALL_FEEDFORWARD_CONFIG.replace("seed = 11", "seed = -1"), "seed must be non-negative"),
        (["compare", "--seed", "-3"], SMALL_FEEDFORWARD_CONFIG, "seed must be non-negative"),
        (
            ["compare"],
            SMALL_FEEDFORWARD_CONFIG.replace("sample_rate_hz = 2500", "sample_rate_hz = 0"),
            "sample_rate_hz must be finite and positive",
        ),
        (
            ["compare"],
            SMALL_FEEDFORWARD_CONFIG.replace("sample_rate_hz = 2500", "sample_rate_hz = -2500").replace(
                "noise_kind = bandpass", "noise_kind = white"
            ),
            "sample_rate_hz must be finite and positive",
        ),
        (
            ["compare"],
            SMALL_FEEDFORWARD_CONFIG.replace("[run]", "primary_path_den = 1 -0.999\n\n[run]"),
            "primary_path_den is set without primary_path_num",
        ),
        (
            ["compare"],
            SMALL_FEEDFORWARD_CONFIG.replace("[run]", "secondary_path_num = 1 0.5\n\n[run]"),
            "secondary_path and secondary_path_num both set the path",
        ),
        (
            ["compare"],
            SMALL_FEEDFORWARD_CONFIG.replace("[run]", "true_params = 0.5\n\n[run]"),
            "true_params must be unset for a feedforward scenario",
        ),
        (
            ["compare"],
            SMALL_FEEDFORWARD_CONFIG.replace("[run]", "primary_path_num =\n\n[run]").replace(
                "primary_path = resonant_primary\n", ""
            ),
            "primary_path_num: needs at least one value",
        ),
        (
            ["compare"],
            SMALL_FEEDFORWARD_CONFIG.replace("primary_path = resonant_primary", "primary_path_num = 1, abc"),
            "primary_path_num: could not convert string to float: 'abc'",
        ),
        (
            ["run"],
            "[scenario]\nkind = sysid\nnoise_kind = white\ntrue_params = 0.5, x\nduration_samples = 1000\n",
            "true_params: could not convert string to float: 'x'",
        ),
        (["bode", "--grid", "10"], None, "--grid must be between 256 and 1048576, got 10"),
        (["bode", "--presets", "--grid", "10"], None, "--grid"),
        (["bode", "--grid", "2000000000"], None, "--grid must be between 256 and 1048576, got 2000000000"),
        (["bode", "--presets", "integral", "integral"], None, "repeated preset 'integral' in integral, integral"),
        (["contour", "--d1p", "0", "--c1-step", "1e-9"], None, "is more than 1000000 cells"),
        (["bode", "--fs", "nan"], None, "--fs must be finite and positive"),
        (["bode", "--fs", "0"], None, "--fs must be finite and positive"),
        (["bode", "--fs", "-5"], None, "--fs must be finite and positive"),
        (["bode", "--fs", "inf"], None, "--fs must be finite and positive"),
        (["check", "--custom=nan,0,0"], None, "bad --custom value 'nan,0,0': c1, c2 and d1p must be finite"),
        *(
            (["check", f"--custom={spec}"], None, f"bad --custom value '{spec}': d1p must satisfy |d1p| < 1")
            for spec in ("0,0,1", "0,0,-1", "0,0,1.5", "0.5,0.2,-1.2")
        ),
    ],
    ids=["unknown-preset", "unknown-algorithm", "ini-repeated-preset", "ini-repeated-algorithm",
         "flag-repeated-preset", "flag-repeated-algorithm", "ini-seed-minus-1", "flag-seed-minus-3", "sample-rate-0",
         "white-sample-rate-minus-2500", "path-den-without-num", "path-name-and-num", "feedforward-true-params",
         "path-num-empty", "path-num-not-a-number", "sysid-true-params-not-a-number",
         "bode-grid", "bode-no-presets-grid", "bode-grid-too-large", "bode-repeated-preset", "contour-too-many-cells",
         "bode-fs-nan", "bode-fs-0", "bode-fs-minus-5",
         "bode-fs-inf", "check-custom-nan", "check-custom-d1p-1", "check-custom-d1p-minus-1",
         "check-custom-d1p-1.5", "check-custom-d1p-minus-1.2"],
)
def test_config_error_leaves_no_output(tmp_path, capsys, argv, config, message):
    """A config error found mid-command exits 3 before the output directory is made."""
    out = tmp_path / "out"
    if config is not None:
        argv = [*argv, "--config", str(write_config(tmp_path, config))]
    assert main([*argv, "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["check", "--custom=1,2"], None, "config error: bad --custom value '1,2': expected c1,c2,d1p"),
        (["check", "--custom=1,2,3,4"], None, "config error: bad --custom value '1,2,3,4': expected c1,c2,d1p"),
        (["compare"], "kind = feedforward\n" + SMALL_FEEDFORWARD_CONFIG, "File contains no section headers."),
        (["compare"], SMALL_FEEDFORWARD_CONFIG + "= 1\n", "Source contains parsing errors:"),
        (["compare"], SMALL_FEEDFORWARD_CONFIG.replace("[scenario]", "[scenarios]"), "missing [scenario] section"),
        (
            ["compare"],
            SMALL_FEEDFORWARD_CONFIG.replace("resonant_primary", "resonant_tertiary"),
            "unknown path name 'resonant_tertiary' for primary_path",
        ),
        *(
            (
                ["compare"],
                SMALL_FEEDFORWARD_CONFIG.replace("sample_rate_hz = 2500", f"sample_rate_hz = {rate}"),
                f"band_low_hz = 70.0, band_high_hz = 170.0 at sample_rate_hz = {rate}: the band-pass filter's RMS gain",
            )
            for rate in ("1e+100", "1e+200")
        ),
    ],
    ids=["custom-two-values", "custom-four-values", "ini-no-section-header", "ini-unparsable-line", "ini-no-scenario",
         "ini-unknown-path", "ini-bandpass-rate-1e100", "ini-bandpass-rate-1e200"],
)
def test_input_error_is_named(tmp_path, capsys, argv, config, message):
    """A --custom value that is not three numbers, a scenario file that cannot be read as
    one, and band-pass noise at a rate where its filter's gain underflows to 0, exit 3 with one
    config error line naming the fault and make no output directory."""
    out = tmp_path / "out"
    if config is not None:
        argv = [*argv, "--config", str(write_config(tmp_path, config))]
    assert main([*argv, "--out", str(out)]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ") and message in line
    assert not out.exists()


@pytest.mark.parametrize("key", ["duration_samples", "n_adaptive_params"])
def test_scenario_too_large_for_memory_exits_3(tmp_path, key):
    """A scenario whose signals do not fit exits 3 with a one-line message and writes nothing.
    The process runs under a 2 GB address-space cap, so the allocation fails at once even
    on a host that overcommits, where it would otherwise touch the pages."""
    config = write_config(tmp_path, re.sub(rf"^{key} = \d+$", f"{key} = 100000000000", SMALL_FEEDFORWARD_CONFIG, flags=re.M))
    assert f"{key} = 100000000000" in config.read_text()
    out = tmp_path / "out"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))\n"
        "from daglms import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = [sys.executable, "-c", code, "compare", "--config", str(config), "--out", str(out)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("config error: out of memory: ") and done.stderr.count("\n") == 1, done.stderr
    assert not out.exists()


def test_cli_import_leaves_scipy_signal_unloaded():
    """No command needs SciPy, so the command line starts without it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, daglms.cli; assert 'scipy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def write_config(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return path


def readme_block(lang):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.search(rf"```{lang}\n(.*?)```", readme, re.S).group(1)


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "line, field",
        [
            ("open_loop_prefix_samples = -50", "open_loop_prefix_samples"),
            ("measurement_noise_rms = -1", "measurement_noise_rms"),
            ("measurement_noise_rms = nan", "measurement_noise_rms"),
        ],
    )
    def test_scenario_bounds(self, tmp_path, capsys, line, field):
        path = write_config(tmp_path, SMALL_FEEDFORWARD_CONFIG.replace("open_loop_prefix_samples = 5000", line))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("algorithms = nlms", "algoritms = lms", ["algoritms"]),
            ("mu_nlms = 0.0002", "mu_nlm = 5", ["mu_nlm"]),
            ("seed = 11", "seed = 11\nsample_rate = 8000\nprefix = 10", ["sample_rate", "prefix"]),
        ],
    )
    def test_unknown_keys_named(self, tmp_path, capsys, old, new, named):
        path = write_config(tmp_path, SMALL_FEEDFORWARD_CONFIG.replace(old, new))
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "unknown key" in err and all(name in err for name in named)

    @pytest.mark.parametrize(
        "old, new, key, message",
        [
            ("mu_nlms = 0.0002", "mu_nlms = 0.0002\nmu_lms = abc", "mu_lms", "could not convert"),
            ("mu_nlms = 0.0002", "mu_nlms = 0.0002\nmu_plms = -1", "mu_plms", "mu must be a positive"),
            ("mu_nlms = 0.0002", "mu_nlms = 0.0002\ndelta_nlms = -1", "delta_nlms", "delta must be"),
            ("threshold_db = 10", "threshold_db = nan", "threshold_db", "not finite"),
            ("seed = 11", "seed = abc", "seed", "invalid literal for int()"),
            ("n_adaptive_params = 10", "n_adaptive_params = abc", "n_adaptive_params", "invalid literal for int()"),
            ("duration_samples = 30000", "duration_samples = abc", "duration_samples", "invalid literal for int()"),
            (
                "open_loop_prefix_samples = 5000", "open_loop_prefix_samples = abc",
                "open_loop_prefix_samples", "invalid literal for int()",
            ),
            # an integer key is never parsed through float, which would truncate it
            ("duration_samples = 30000", "duration_samples = 100.5", "duration_samples", "'100.5'"),
        ],
        ids=[
            "mu_lms", "mu_plms", "delta_nlms", "threshold_db",
            "seed", "n_adaptive_params", "duration_samples", "open_loop_prefix_samples", "duration_samples-fraction",
        ],
    )
    def test_bad_value_names_its_key(self, tmp_path, capsys, old, new, key, message):
        path = write_config(tmp_path, SMALL_FEEDFORWARD_CONFIG.replace(old, new))
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"{key}: " in err and message in err
        assert not (tmp_path / "o").exists()

    def test_invalid_gain_of_unswept_algorithm(self, tmp_path, capsys):
        # every policy is built from the config, not only the swept ones
        path = write_config(tmp_path, SMALL_FEEDFORWARD_CONFIG.replace("threshold_db", "mu_plms = -1\nthreshold_db"))
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "mu must be a positive finite gain" in capsys.readouterr().err

    # 0.0001 s is a quarter of a sample at 2500 Hz and 0.0004 s one sample, whose variance is
    # always 0: attenuation_db would reject either in every run
    @pytest.mark.parametrize("window", ["0", "-1", "nan", "0.0001", "0.0004"])
    def test_window_must_be_positive(self, tmp_path, capsys, window):
        path = write_config(
            tmp_path, SMALL_FEEDFORWARD_CONFIG.replace("window_seconds = 1.0", f"window_seconds = {window}")
        )
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "window_seconds" in capsys.readouterr().err

    def test_unknown_algorithm(self, ff_config, tmp_path, capsys):
        code = main(["compare", "--config", str(ff_config), "--out", str(tmp_path), "--algorithms", "xlms"])
        assert code == 3
        assert "unknown algorithm 'xlms'" in capsys.readouterr().err

    def test_readme_example_loads(self, tmp_path):
        # its values carry inline "; ..." comments
        scenario, options = cli.load_scenario(write_config(tmp_path, readme_block("ini")))
        assert scenario.kind == "feedforward" and scenario.noise.kind == "bandpass"
        assert scenario.noise.amplitude == 0.006
        assert scenario.open_loop_prefix_samples == 37500
        assert scenario.secondary_model is None
        assert options["algorithms"] == ["lms", "nlms", "plms"]
        assert options["presets"] == ["integral", "arima2"]
        assert options["window_seconds"] == 3.0


def test_readme_quickstart_runs(capsys):
    # the library quickstart prints the two verdicts, then the final error norm of its loop
    exec(readme_block("python"), {})
    spr, pr, norm = capsys.readouterr().out.split()
    assert (spr, pr) == ("True", "False")
    assert float(norm) < 1e-6


WINDOW_CONFIG = """
[scenario]
kind = feedforward
noise_kind = bandpass
seed = 5
n_adaptive_params = 4
duration_samples = 20000
open_loop_prefix_samples = {prefix}
primary_path = resonant_primary
secondary_path = resonant_secondary

[run]
presets = integral
window_seconds = {window}
"""


class TestAttenuationWindow:
    @pytest.mark.parametrize("prefix", [5000, 8000])
    def test_window_longer_than_prefix_gives_no_series(self, tmp_path, prefix):
        # a 4 s window (10000 samples) fits neither prefix; the 8000-sample one
        # fits the 3 s default window, whose series must not leak through
        path = write_config(tmp_path, WINDOW_CONFIG.format(prefix=prefix, window=4.0))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        assert read_csv(out / "summary.csv")[0]["final_atten_db"] == ""
        rows = read_csv(out / "trace_nlms_integral.csv")
        assert len(rows) == 20000
        assert {r["atten_db"] for r in rows} == {""}

    def test_window_of_infinite_samples_gives_no_series(self, tmp_path):
        # 1e308 s is inf samples at any rate: no window fits, so no series and exit 0
        path = write_config(tmp_path, WINDOW_CONFIG.format(prefix=8000, window=1e308))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        assert read_csv(out / "summary.csv")[0]["final_atten_db"] == ""
        assert {r["atten_db"] for r in read_csv(out / "trace_nlms_integral.csv")} == {""}

    def test_window_that_fits_keeps_its_series(self, tmp_path):
        path = write_config(tmp_path, WINDOW_CONFIG.format(prefix=8000, window=2.0))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        assert read_csv(out / "summary.csv")[0]["final_atten_db"] != ""
        rows = read_csv(out / "trace_nlms_integral.csv")
        # 2 s is 5000 samples: two full windows in the 12000 controlled
        # samples, and none for the last 2000 rows
        filled = [r["atten_db"] != "" for r in rows]
        assert filled == [False] * 8000 + [True] * 10000 + [False] * 2000


class TestSysidConfig:
    def test_sysid_from_config(self, tmp_path):
        path = tmp_path / "sysid.ini"
        path.write_text("""
[scenario]
kind = sysid
noise_kind = white
seed = 3
true_params = 0.5, -0.3
duration_samples = 4000

[run]
algorithms = lms
presets = integral
mu_lms = 0.1
""")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = read_csv(out / "trace_lms_integral.csv")
        assert float(rows[-1]["param_err"]) < 1e-3


def test_sysid_prefix_named(tmp_path, capsys):
    """A sysid INI with an open-loop prefix, which the sysid loop would ignore, exits 3 naming the key."""
    text = SYSID_TWO_BY_TWO.replace("duration_samples = 1000", "duration_samples = 1000\nopen_loop_prefix_samples = 100")
    path = write_config(tmp_path, text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "open_loop_prefix_samples" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


SYSID_TWO_BY_TWO = """
[scenario]
kind = sysid
noise_kind = white
seed = 3
true_params = 0.5, -0.3
duration_samples = 1000

[run]
algorithms = lms, plms
presets = integral, ip
mu_lms = 0.1
mu_plms = 0.05
"""


@pytest.mark.parametrize("line", ["primary_path = unit", "regressor_filter_num = 1.0"], ids=["name", "coefficients"])
def test_sysid_path_named(tmp_path, capsys, line):
    """A sysid INI with a path, which the sysid loop would ignore, exits 3 naming the field."""
    path = write_config(tmp_path, SYSID_TWO_BY_TWO.replace("[run]", f"{line}\n\n[run]"))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert f"{line.split()[0].removesuffix('_num')} must be unset for a sysid scenario" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "extra, run",
    [([], ("lms", "integral")), (["--algorithm", "plms", "--preset", "ip"], ("plms", "ip"))],
)
def test_run_is_compare_of_one(tmp_path, extra, run):
    """``run`` sweeps the config's first entries, or the one named on the command line."""
    path = write_config(tmp_path, SYSID_TWO_BY_TWO)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), *extra]) == 0
    assert [(r["algorithm"], r["preset"]) for r in read_csv(out / "summary.csv")] == [run]
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv", f"trace_{run[0]}_{run[1]}.csv"]


def test_empty_sweep_writes_only_the_summary(tmp_path):
    """A config that names no algorithm runs nothing and writes a header-only summary."""
    path = write_config(tmp_path, SYSID_TWO_BY_TWO.replace("algorithms = lms, plms", "algorithms ="))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["summary.csv"]
    assert read_csv(out / "summary.csv") == []


@pytest.mark.parametrize("flag, value", [("--algorithms", ""), ("--presets", " , ")])
def test_empty_override_runs_nothing(tmp_path, flag, value):
    """An explicit empty ``--algorithms`` or ``--presets`` runs nothing, as an empty list in
    the config does, and writes a header-only summary."""
    path = write_config(tmp_path, SYSID_TWO_BY_TWO)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(path), "--out", str(out), flag, value]) == 0
    assert [p.name for p in out.iterdir()] == ["summary.csv"]
    assert read_csv(out / "summary.csv") == []


def row_wise_csv(path, header, rows):
    """The row-by-row ``csv.writer`` + ``_fmt`` writer: the byte oracle."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._fmt(v) for v in row])


MIXED_ROWS = [
    ("lms", True, np.bool_(False), 3, np.int64(-7), None, np.float64(0.1)),
    ("", False, np.bool_(True), 0, np.int64(2**40), 1.5, np.float64("nan")),
    ("x y", None, None, None, None, float("nan"), np.float64(-0.0)),
    ("arima2", True, np.bool_(True), -1, np.int64(0), 0.0, np.float64(np.inf)),
    (np.float64(5e-324), False, None, 10**18, None, -0.0, np.float64(-np.inf)),
    (None, np.bool_(False), True, np.int64(5), 7, 1e300, np.float64(-5e-324)),
]


class TestCsvWriter:
    def test_rows_match_csv_writer(self, tmp_path):
        header = [f"c{i}" for i in range(len(MIXED_ROWS[0]))]
        cli._write_csv(tmp_path / "columnar.csv", header, cli._columns(MIXED_ROWS))
        row_wise_csv(tmp_path / "rows.csv", header, MIXED_ROWS)
        assert (tmp_path / "columnar.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_float_columns_match_csv_writer(self, tmp_path, monkeypatch):
        """A column of floats alone, Python or NumPy, is formatted in bulk with _fmt's fields."""
        rows = [
            (0.1, np.float64(-0.0), float("nan"), 1e300),
            (np.float64("nan"), -0.0, 5e-324, np.float64(np.inf)),
            (-np.inf, np.float64(0.1), np.float64(-5e-324), 123456789.0),
        ]
        header = ["a", "b", "c", "d"]
        row_wise_csv(tmp_path / "rows.csv", header, rows)

        def no_fmt(value):
            raise AssertionError(f"{value!r} formatted one by one")

        monkeypatch.setattr(cli, "_fmt", no_fmt)
        cli._write_csv(tmp_path / "columnar.csv", header, cli._columns(rows))
        assert (tmp_path / "columnar.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_arrays_match_csv_writer(self, tmp_path):
        special = [np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 0.1, 123456789.0]
        columns = [
            np.array(special),
            np.arange(-3, len(special) - 3),
            np.arange(len(special)) % 3 == 0,
            np.array(special, dtype=np.float32),
        ]
        header = ["f64", "i64", "flag", "f32"]
        cli._write_csv(tmp_path / "columnar.csv", header, [cli._fields(c) for c in columns])
        row_wise_csv(tmp_path / "rows.csv", header, zip(*columns))
        assert (tmp_path / "columnar.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def row_wise_trace_csv(path, trace):
    """The row-by-row ``csv.writer`` trace writer: the byte oracle."""
    fs = trace.sample_rate_hz
    prefix = trace.open_loop_prefix_samples
    win = trace.atten_window_samples
    atten = trace.atten_db

    def atten_at(t):
        if atten is None or win is None or t < prefix:
            return None
        k = (t - prefix) // win
        return atten[k] if k < atten.size else None

    fmt = cli._fmt
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time_s", "e0", "e_post", "residual", "param_err", "atten_db"])
        for t in range(trace.residual.size):
            writer.writerow([
                t, fmt(t / fs), fmt(trace.e0[t]), fmt(trace.e_post[t]),
                fmt(trace.residual[t]), fmt(trace.param_err[t]), fmt(atten_at(t)),
            ])


def synthetic_trace(n, prefix, window=None):
    """Trace with NaN, signed zeros, infinities and extreme magnitudes."""
    rng = np.random.default_rng(17)
    trace = RunTrace(
        sample_rate_hz=2500.0,
        open_loop_prefix_samples=prefix,
        e0=rng.standard_normal(n),
        e_post=rng.standard_normal(n),
        residual=rng.standard_normal(n) * 1e-3,
        param_err=np.abs(rng.standard_normal(n)),
    )
    trace.e0[:prefix] = np.nan
    trace.e_post[::3] = -0.0
    trace.e_post[1::5] = np.nan
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 1e-7, 1e16, 123456789.0]
    trace.residual[prefix:prefix + len(special)] = special
    trace.param_err[-50:] = np.nan
    if window is not None:
        # two windows short of the controlled span: the last rows have no value
        atten = rng.uniform(-5.0, 40.0, (n - prefix) // window - 2)
        atten[:3] = (-0.0, 120.0, np.nan)
        trace.atten_db, trace.atten_window_samples = atten, window
    return trace


def diverged_trace():
    scn = default_feedforward_scenario(duration_s=1.0, prefix_s=0.2, n_taps=8, amplitude=1.0)
    with pytest.raises(RunDiverged) as err:
        run_feedforward(scn, StepSizePolicy.lms(500.0))
    return err.value.trace


def sysid_trace():
    scn = ScenarioConfig(
        kind="sysid",
        noise=NoiseSpec(kind="white", seed=4),
        n_adaptive_params=3,
        duration_samples=1000,
        true_params=[0.5, -0.3, 0.2],
    )
    return run_sysid(scn, StepSizePolicy.plms(0.05))


def trace_engine(engine, monkeypatch):
    """Make ``_write_trace`` take ``engine``'s writer: the kernel's rows, skipped where it
    does not load, or its Python twin ``_trace_rows``, with the kernel out of reach."""
    if engine == "kernel":
        if _kernel.load() is None:
            pytest.skip("the kernel does not build on this host")
    else:
        monkeypatch.setattr(_kernel, "load", lambda: None)


TRACE_CASES = {
    "blocks_with_atten": (lambda: synthetic_trace(2 * cli._TRACE_BLOCK_ROWS + 37, 301, window=100), None),
    "no_atten": (lambda: synthetic_trace(1000, 150, window=None), 64),
    "no_prefix": (lambda: synthetic_trace(1000, 0, window=7), 64),
    "one_sample_window": (lambda: synthetic_trace(1000, 150, window=1), 64),
    "diverged": (diverged_trace, 64),
    "sysid": (sysid_trace, 96),
}


class TestTraceWriter:
    @pytest.mark.parametrize(
        "engine, make, block_rows",
        [
            # the kernel's cases under the case name alone, the repr writer's under python-<name>
            pytest.param(engine, *case, id=name if engine == "kernel" else f"{engine}-{name}")
            for engine in ("kernel", "python")
            for name, case in TRACE_CASES.items()
        ],
    )
    def test_bytes_match_row_wise_writer(self, tmp_path, monkeypatch, engine, make, block_rows):
        trace_engine(engine, monkeypatch)
        if block_rows is not None:
            monkeypatch.setattr(cli, "_TRACE_BLOCK_ROWS", block_rows)
        trace = make()
        assert trace.residual.size % cli._TRACE_BLOCK_ROWS != 0
        cli._write_trace(tmp_path / "columnar.csv", trace)
        row_wise_trace_csv(tmp_path / "rows.csv", trace)
        assert (tmp_path / "columnar.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_python_writer_formats_only_the_windows_of_its_block(self, tmp_path, monkeypatch):
        # a one-sample window has a window per row: formatting the whole series in each
        # block would make the writer quadratic in the trace length
        trace_engine("python", monkeypatch)
        monkeypatch.setattr(cli, "_TRACE_BLOCK_ROWS", 64)
        sizes, fields = [], cli._fields
        monkeypatch.setattr(cli, "_fields", lambda column: sizes.append(len(column)) or fields(column))
        trace = synthetic_trace(1000, 150, window=1)
        cli._write_trace(tmp_path / "columnar.csv", trace)
        assert trace.atten_db.size > 64 and sizes and max(sizes) <= 64

    @pytest.mark.parametrize("engine", ["kernel", "python"])
    def test_batch_matches_row_wise_writer(self, tmp_path, monkeypatch, engine):
        trace_engine(engine, monkeypatch)
        monkeypatch.setattr(cli, "_TRACE_BLOCK_ROWS", 64)
        for trace in batch_traces(3 * 64 + 21, 100):
            cli._write_trace(tmp_path / "columnar.csv", trace)
            row_wise_trace_csv(tmp_path / "rows.csv", trace)
            assert (tmp_path / "columnar.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def batch_traces(n, prefix):
    """Four traces of one sweep: a posterior run, a plain run, a run diverged
    after 50 controlled steps, and a run whose open-loop rows differ from the
    others' (sign flips, -0.0 against 0.0); the other three share them."""
    rng = np.random.default_rng(29)
    open_loop = rng.standard_normal(prefix) * 1e-3
    open_loop[:4] = (0.0, -0.0, 5e-324, np.inf)
    traces = []
    for _ in range(4):
        trace = synthetic_trace(n, prefix, window=9)
        trace.e0[prefix:] = rng.standard_normal(n - prefix)
        trace.e0[prefix:prefix + 4] = (-0.0, 0.0, 1e16, -5e-324)
        trace.residual[:prefix], trace.residual[prefix:] = open_loop, trace.e0[prefix:]
        traces.append(trace)
    posterior, plain, diverged, differing = traces
    plain.e_post[:] = np.nan
    stop = prefix + 50
    for record in (diverged.e0, diverged.e_post, diverged.residual, diverged.param_err):
        record[stop:] = np.nan
    diverged.diverged, diverged.divergence_step = True, 51
    diverged.atten_db = diverged.atten_window_samples = None
    differing.residual[:prefix:7] *= -1.0
    return traces


def _chunks_to_array(chunks):
    return np.array([v for v, k in chunks for _ in range(k)], dtype=float)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.floats(),
                st.just(np.nan),
                st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.225073858507201e-308]),
            ),
            st.integers(1, 4),
        ),
        max_size=40,
    ).map(_chunks_to_array)
)
def test_fields_match_fmt(a):
    """Runs of equal values, NaN runs anywhere, signed zeros, infinities and subnormals."""
    assert cli._fields(a) == [cli._fmt(v) for v in a]


GOLDEN_FEEDFORWARD_CONFIG = """
[scenario]
kind = feedforward
noise_kind = white
seed = 23
amplitude = 0.1
n_adaptive_params = 12
duration_samples = 6000
open_loop_prefix_samples = 1500
primary_path = resonant_primary
secondary_path = resonant_secondary
secondary_model = mismatched

[run]
algorithms = lms, nlms, plms
presets = integral, arima2
mu_lms = 0.2
mu_nlms = 0.0002
mu_plms = 0.22
"""

GOLDEN_SYSID_CONFIG = """
[scenario]
kind = sysid
noise_kind = white
seed = 3
true_params = 0.5, -0.3, 0.2, 0.1
measurement_noise_rms = 0.01
duration_samples = 3000

[run]
algorithms = lms, nlms, plms
presets = integral, ip
mu_lms = 0.05
mu_nlms = 0.2
mu_plms = 0.05
"""

GOLDEN_SHA256 = {
    "feedforward": {
        "summary.csv": "c5321da54d872ae1deff086476a241b8a788b3971303a41687cf4f84b86034d9",
        "trace_lms_arima2.csv": "cefd95b8ce1806c9741fb8dd9c6e55abbcacf718566264e25da1c5b531639377",
        "trace_lms_integral.csv": "d59deb8e03954e8b816902f112bad4d64cf54474d5666d588f6799e0b740baaf",
        "trace_nlms_arima2.csv": "c7a6304b8a6db5f716cb29d2b99d16167931253da488ab094690e94629bd603d",
        "trace_nlms_integral.csv": "0331d70841503839bd3d8ca61b59458fe20eee89a3973018dccf791930cac0f0",
        "trace_plms_arima2.csv": "7bd0416a0d90c63caa8d2d8e9c965fe40316a91b00e18bdebeeae65e93b6385f",
        "trace_plms_integral.csv": "ef0cf8c5a79361fdf63e1f1ce61d278aa0e6320e20d2cbe15638371e7f18f7b6",
    },
    "sysid": {
        "summary.csv": "a81500fe25e70b1535b6d75b805a88c53fd3446e9140afb2215fbd501572fde0",
        "trace_lms_integral.csv": "f5e00bd55a6eb90ec4e4c6478cceb0db13f2a319a16e6c1cf925d3492670ccb9",
        "trace_lms_ip.csv": "c66a3c79116ed445ed59d238d6e26140effaeb9b6b0cca9f29621bd6843bf421",
        "trace_nlms_integral.csv": "6573aaaec8fc3766fd50095d6b5d97065cd56172c950d35d2c5a2bcd344ffa7f",
        "trace_nlms_ip.csv": "76611fa12ee7dba4dcfd41ace6eec6fbfc5ee02bd68e72f979351e93ad352704",
        "trace_plms_integral.csv": "3298c0e898596843902d4d49ee3fe1433abab6c92fa03f0d08af9f19238dbf05",
        "trace_plms_ip.csv": "f34898128cb425022bf06b686baa5e0028cc3d82b75193ad9eb71abbf2428a15",
    },
}


CONTOUR_SHA256 = "80fa344a0a0179c4d14e1f6725690be28ef3f12d2a1c6029b7a4ec07af9a133e"


def test_contour_golden_bytes(tmp_path):
    """``daglms contour --d1p 0.5`` at step 0.1 is pinned byte for byte.

    One cell moved when the closed form dropped its numerator root test:
    (-0.8999999999999999, -0.09999999999999998), where ``spr_dag`` went from
    0 to 1. Those doubles give 1 + c1 + c2 = +1.1e-16, so in exact arithmetic
    both numerator zeros are inside the circle and the real part stays
    positive; the companion-matrix root test had put a zero on or outside the
    circle. The same cell moves on the default 0.05 grid, for every d1p.

    A second cell moved when ``pr_integrated`` came from the closed form:
    (0.5, -0.5), where it went from 0 to 1. Its numerator
    ``1 + 0.5 q^-1 - 0.5 q^-2 = (1 + q^-1)(1 - 0.5 q^-1)`` cancels the pole at
    0.5, leaving ``(1 + q^-1)/(1 - q^-1)``, which is ``-j cot(omega/2)`` on the
    circle: a real part of 0 at every omega != 0 and a residue of 2, so the
    filter is lossless and PR. The sampled test read a minimum of -3.1e-9,
    rounding where the response grows like 1/omega near omega = 0.
    """
    argv = ["contour", "--d1p", "0.5", "--c1-step", "0.1", "--c2-step", "0.1", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "contour_d1p_0.5.csv").read_bytes()).hexdigest() == CONTOUR_SHA256


@pytest.mark.parametrize(
    "kind, config, exit_code",
    [("feedforward", GOLDEN_FEEDFORWARD_CONFIG, 2), ("sysid", GOLDEN_SYSID_CONFIG, 0)],
)
def test_golden_output_bytes(tmp_path, kind, config, exit_code):
    """``daglms compare`` output bytes are pinned across versions.

    In the feedforward sweep lms and plms with arima2 diverge (steps 3094
    and 2760) and leave partial traces. White noise, fewer than 16 taps and
    no attenuation window keep the bytes clear of long BLAS dot products
    and of vectorized log10, whose last bits can depend on the host CPU.
    A change that moves these bytes must say why.
    """
    path = tmp_path / "golden.ini"
    path.write_text(config)
    out = tmp_path / "out"
    with pytest.warns(UserWarning) if kind == "feedforward" else nullcontext():
        assert main(["compare", "--config", str(path), "--out", str(out)]) == exit_code
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN_SHA256[kind]


@pytest.mark.filterwarnings("ignore::UserWarning")  # the mismatched model's SPR screen
@pytest.mark.parametrize(
    "algorithms, presets, diverged",
    [("plms", "integral, arima2", 1), ("lms, nlms, plms", "arima2", 2), ("lms, plms", "integral, arima2", 2)],
    ids=["2-runs", "3-runs", "4-runs"],
)
def test_compare_traces_equal_single_runs(tmp_path, algorithms, presets, diverged):
    """A ``compare`` of 2, 3 or 4 runs, its traces written together, writes each trace
    with the bytes of ``run`` on that pair alone; some runs diverge, the others carry
    an attenuation series."""
    text = GOLDEN_FEEDFORWARD_CONFIG.replace("lms, nlms, plms", algorithms).replace("integral, arima2", presets)
    path = write_config(tmp_path, text + "window_seconds = 0.2\n")
    assert main(["compare", "--config", str(path), "--out", str(tmp_path / "all")]) == 2
    summary = read_csv(tmp_path / "all" / "summary.csv")
    assert len(summary) == len(algorithms.split(",")) * len(presets.split(","))
    assert [r["diverged"] for r in summary].count("Y") == diverged
    assert sum(bool(r["final_atten_db"]) for r in summary) == len(summary) - diverged
    for row in summary:
        algorithm, preset = row["algorithm"], row["preset"]
        out = tmp_path / f"{algorithm}_{preset}"
        argv = ["run", "--config", str(path), "--out", str(out), "--algorithm", algorithm, "--preset", preset]
        assert main(argv) == (2 if row["diverged"] == "Y" else 0)
        name = f"trace_{algorithm}_{preset}.csv"
        assert (out / name).read_bytes() == (tmp_path / "all" / name).read_bytes(), name


# (open_loop_prefix_samples, duration_samples, window_seconds) of sweeps that place the text
# that their traces share at its edges, in blocks of 64 rows
SHARED_TEXT_CASES = {
    "blocks": (1500, 6000, 0.2),  # both spans cross blocks, neither in whole blocks
    "one_controlled_row": (1500, 1501, 0.2),
    "no_prefix": (0, 6000, 0.2),
    "no_window_fits": (1500, 6000, 1.0),  # 2500 samples, more than the prefix
}


@pytest.mark.filterwarnings("ignore::UserWarning")  # the mismatched model's SPR screen
@pytest.mark.parametrize("engine", ["kernel", "python"])
@pytest.mark.parametrize("case", SHARED_TEXT_CASES)
def test_sweep_traces_from_shared_text(tmp_path, monkeypatch, engine, case):
    """A sweep of lms with integral and with arima2 (which diverges in the "blocks" case),
    its traces written from the open-loop rows and the step,time_s leads that they share,
    writes each trace with the bytes of the row-by-row writer and of ``run`` on its pair
    alone, through either engine's row writer."""
    trace_engine(engine, monkeypatch)
    monkeypatch.setattr(cli, "_TRACE_BLOCK_ROWS", 64)
    prefix, duration, window = SHARED_TEXT_CASES[case]
    config = (
        GOLDEN_FEEDFORWARD_CONFIG.replace("lms, nlms, plms", "lms")
        .replace("open_loop_prefix_samples = 1500", f"open_loop_prefix_samples = {prefix}")
        .replace("duration_samples = 6000", f"duration_samples = {duration}")
    )
    path = write_config(tmp_path, config + f"window_seconds = {window}\n")
    traces, write = [], cli._write_trace
    monkeypatch.setattr(cli, "_write_trace", lambda file, trace, text: traces.append(trace) or write(file, trace, text))
    code = main(["compare", "--config", str(path), "--out", str(tmp_path / "all")])
    swept = dict(zip(["integral", "arima2"], traces))
    assert len(traces) == 2 and code == (2 if any(t.diverged for t in traces) else 0)
    if case == "blocks":
        assert swept["arima2"].diverged and swept["integral"].atten_db is not None
        assert prefix % 64 and (duration - prefix) % 64
    if case == "no_window_fits":
        assert all(t.atten_db is None for t in traces)
    for preset, trace in swept.items():
        name = f"trace_lms_{preset}.csv"
        row_wise_trace_csv(tmp_path / name, trace)
        argv = ["run", "--config", str(path), "--out", str(tmp_path / preset), "--algorithm", "lms", "--preset", preset]
        assert main(argv) == (2 if trace.diverged else 0)
        want = (tmp_path / name).read_bytes()
        assert (tmp_path / "all" / name).read_bytes() == want == (tmp_path / preset / name).read_bytes()


@pytest.mark.filterwarnings("ignore::UserWarning")  # the mismatched model's SPR screen
@pytest.mark.parametrize("engine", ["host", "python"])
def test_sweep_traces_keep_the_norm(tmp_path, monkeypatch, engine):
    """Each diverged trace of a ``compare`` sweep carries the bits of the ``RunDiverged.norm``
    that the same single run raises, on either engine; the others read None."""
    if engine == "python":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    path = write_config(tmp_path, GOLDEN_FEEDFORWARD_CONFIG + "window_seconds = 0.2\n")
    traces, write = [], cli._write_trace
    monkeypatch.setattr(cli, "_write_trace", lambda file, trace, text: traces.append(trace) or write(file, trace, text))
    assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    scenario, options = cli.load_scenario(path)
    pairs = [(algorithm, preset) for algorithm in options["algorithms"] for preset in options["presets"]]
    assert len(traces) == len(pairs) and any(trace.diverged for trace in traces)
    for trace, (algorithm, preset) in zip(traces, pairs):
        if not trace.diverged:
            assert trace.divergence_norm is None
            continue
        with pytest.raises(RunDiverged) as single_run:
            run_feedforward(scenario, options["policies"][algorithm], make_preset(preset))
        assert trace.divergence_norm.hex() == single_run.value.norm.hex(), (algorithm, preset)


OUT_COMMANDS = {
    "check": ["check"],
    "contour": ["contour", "--d1p", "0.5", "--c1-step", "0.5"],
    "bode": ["bode", "--grid", "256"],
    "compare": ["compare"],
}


def no_run(*args):
    raise AssertionError("a run started")


@pytest.mark.parametrize("where", ["file", "below-file"])
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_out_that_cannot_be_a_directory_exits_3(tmp_path, capsys, monkeypatch, command, where):
    """An ``--out`` that is a file, or lies below one, exits 3 naming ``--out`` before any
    run starts or any file is written."""
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker if where == "file" else blocker / "x"
    argv = [*OUT_COMMANDS[command], "--out", str(out)]
    if command == "compare":
        argv += ["--config", str(write_config(tmp_path, SYSID_TWO_BY_TWO))]
        monkeypatch.setattr(sim, "_run", no_run)
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"config error: --out {out}: cannot make the output directory: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", *(["scenario.ini"] if command == "compare" else [])]
    assert blocker.read_text() == "kept"


def six_runs(tmp_path):
    """``compare`` argv for three algorithms x two presets of the small feedforward scenario."""
    path = write_config(tmp_path, SMALL_FEEDFORWARD_CONFIG)
    return ["compare", "--config", str(path), "--out", str(tmp_path / "out"),
            "--algorithms", "lms,nlms,plms", "--presets", "integral,arima2"]


def test_compare_holds_at_most_two_traces(tmp_path, monkeypatch):
    """A 6-run ``compare`` writes each trace as its run ends and then drops it, while the
    next run computes: no more than two of its traces are alive at once."""
    refs, alive = [], []

    class Counted(RunTrace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))
            alive.append(sum(ref() is not None for ref in refs))

    monkeypatch.setattr(sim, "RunTrace", Counted)
    assert main(six_runs(tmp_path)) in (cli.EXIT_OK, cli.EXIT_DIVERGED)
    assert len(alive) == 6 and max(alive) <= 2, alive
    assert len(read_csv(tmp_path / "out" / "summary.csv")) == 6


def test_writer_error_reaches_main_and_stops_the_runs(tmp_path, monkeypatch):
    """A trace writer that raises on the second trace: the error leaves ``cli.main``, the
    runs not yet started never start, and no thread of the sweep is left behind."""
    started, written = [], []
    run = sim._run

    def counted_run(*args):
        started.append(args)
        return run(*args)

    def write(path, trace, text):
        if written:
            raise OSError("disk full")
        written.append(path)

    monkeypatch.setattr(sim, "_run", counted_run)
    monkeypatch.setattr(cli, "_write_trace", write)
    threads = threading.active_count()
    with pytest.raises(OSError, match="disk full"):
        main(six_runs(tmp_path))
    assert threading.active_count() == threads
    assert len(written) == 1 and len(started) <= 3  # the second trace and the one computing behind it
    assert not (tmp_path / "out" / "summary.csv").exists()


# two runs with an attenuation series each, short enough for the Python loop
REWRITE_CONFIG = (
    SMALL_FEEDFORWARD_CONFIG.replace("duration_samples = 30000", "duration_samples = 4000")
    .replace("open_loop_prefix_samples = 5000", "open_loop_prefix_samples = 1000")
    .replace("window_seconds = 1.0", "window_seconds = 0.2")
)


def rewrite_argv(tmp_path, command, out):
    """``command``'s argv from :data:`OUT_COMMANDS` into ``out``; ``compare`` runs :data:`REWRITE_CONFIG`."""
    argv = [*OUT_COMMANDS[command], "--out", str(out)]
    if command == "compare":
        argv += ["--config", str(write_config(tmp_path, REWRITE_CONFIG))]
    return argv


def pad(path, junk=b"stale,tail\r\n" * 5000):
    with path.open("ab") as fh:
        fh.write(junk)


@pytest.mark.parametrize("engine", ["kernel", "python"])
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_rerun_rewrites_each_file_in_place(tmp_path, monkeypatch, command, engine):
    """A rerun into the same ``--out`` gives the bytes of a run into a fresh directory, over
    the first run's files and over files made longer with junk, whose old tail is cut; each
    file keeps its inode. A file of the same bytes is not cut; a longer one is cut once, at
    its new length, after its last byte reached it (a cut before a buffered tail would free
    blocks that the tail then allocates again)."""
    trace_engine(engine, monkeypatch)
    assert main(rewrite_argv(tmp_path, command, tmp_path / "fresh")) == 0
    fresh = tree_bytes(tmp_path / "fresh")
    out = tmp_path / "out"
    assert main(rewrite_argv(tmp_path, command, out)) == 0
    inodes = {name: (out / name).stat().st_ino for name in fresh}
    cuts, cut = [], os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, length: cuts.append(length) or cut(fd, length))
    assert main(rewrite_argv(tmp_path, command, out)) == 0
    assert tree_bytes(out) == fresh and cuts == []
    for name in fresh:
        pad(out / name)
    assert main(rewrite_argv(tmp_path, command, out)) == 0
    assert tree_bytes(out) == fresh
    assert sorted(cuts) == sorted(map(len, fresh.values()))
    assert {name: (out / name).stat().st_ino for name in fresh} == inodes


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_new_file_takes_no_stat_offset_or_cut(tmp_path, monkeypatch, command):
    """A file that is not there yet has no old bytes: the opener creates it and takes no
    ``fstat``, offset or cut for it, so a run into a fresh directory costs what it did with
    ``O_TRUNC``."""
    calls = []
    for name in ("fstat", "lseek", "ftruncate"):
        real = getattr(os, name)
        monkeypatch.setattr(os, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    assert main(rewrite_argv(tmp_path, command, tmp_path / "fresh")) == 0
    assert calls == []


@pytest.mark.skipif(os.name != "posix", reason="symlinks, hard links and modes as POSIX has them")
@pytest.mark.parametrize("engine", ["kernel", "python"])
def test_rerun_writes_through_links_and_keeps_the_mode(tmp_path, monkeypatch, engine):
    """A symlink and a hard link at output paths are written through, not replaced, and a
    file's mode survives the rerun, as with a truncating open."""
    trace_engine(engine, monkeypatch)
    assert main(rewrite_argv(tmp_path, "compare", tmp_path / "fresh")) == 0
    fresh = tree_bytes(tmp_path / "fresh")
    out = tmp_path / "out"
    assert main(rewrite_argv(tmp_path, "compare", out)) == 0
    target, hard = tmp_path / "target.csv", tmp_path / "hard.csv"
    os.replace(out / "trace_nlms_integral.csv", target)
    (out / "trace_nlms_integral.csv").symlink_to(target)
    os.link(out / "summary.csv", hard)
    (out / "trace_nlms_arima2.csv").chmod(0o640)
    for path in (target, hard, out / "trace_nlms_arima2.csv"):
        pad(path)
    assert main(rewrite_argv(tmp_path, "compare", out)) == 0
    assert (out / "trace_nlms_integral.csv").is_symlink()
    assert target.read_bytes() == fresh["trace_nlms_integral.csv"]
    assert hard.read_bytes() == fresh["summary.csv"] and hard.samefile(out / "summary.csv")
    assert (out / "trace_nlms_arima2.csv").stat().st_mode & 0o777 == 0o640
    assert tree_bytes(out) == fresh


@pytest.mark.skipif(not os.path.exists("/dev/null") or os.name != "posix", reason="needs /dev/null, symlinks and FIFOs")
@pytest.mark.parametrize("engine", ["kernel", "python"])
@pytest.mark.parametrize("target", ["dev-null", "fifo"])
def test_trace_into_a_device_or_pipe_exits_0(tmp_path, monkeypatch, engine, target):
    """A symlink to ``/dev/null``, or a FIFO, at a trace path has no length to cut, and a
    FIFO no offset: each is written without the cut, and the FIFO's reader gets the bytes of
    a fresh run; the other files are written as into a fresh directory."""
    trace_engine(engine, monkeypatch)
    assert main(rewrite_argv(tmp_path, "compare", tmp_path / "fresh")) == 0
    fresh = tree_bytes(tmp_path / "fresh")
    out, name, read = tmp_path / "out", "trace_nlms_arima2.csv", []
    out.mkdir()
    if target == "dev-null":
        (out / name).symlink_to("/dev/null")
    else:
        os.mkfifo(out / name)
        reader = threading.Thread(target=lambda: read.append((out / name).read_bytes()), daemon=True)
        reader.start()
    assert main(rewrite_argv(tmp_path, "compare", out)) == 0
    if target == "fifo":
        reader.join(timeout=60)
        assert not reader.is_alive() and read == [fresh[name]]
    del fresh[name]
    assert tree_bytes(out) == fresh  # which lists regular files alone


@pytest.mark.parametrize("engine", ["kernel", "python"])
def test_failed_trace_write_leaves_the_blocks_written(tmp_path, monkeypatch, engine):
    """A row writer that raises on the second block, over an old file longer than the new
    one: the error leaves ``_write_trace``, and the file holds the header and the first
    block alone."""
    trace_engine(engine, monkeypatch)
    trace = synthetic_trace(3 * cli._TRACE_BLOCK_ROWS, 301, window=100)
    path = tmp_path / "trace.csv"
    cli._write_trace(path, trace)
    whole = path.read_bytes()
    pad(path)
    kernel = _kernel.load()
    owner, name = (cli, "_trace_rows") if kernel is None else (kernel, "trace_rows")
    write_rows, blocks = getattr(owner, name), []

    def failing(*args):
        if blocks:
            raise RuntimeError("row writer failed")
        blocks.append(write_rows(*args))
        return blocks[-1]

    monkeypatch.setattr(owner, name, failing)
    with pytest.raises(RuntimeError, match="row writer failed"):
        cli._write_trace(path, trace)
    assert path.read_bytes() == cli._TRACE_HEADER + blocks[0]
    assert whole.startswith(path.read_bytes()) and len(blocks[0]) > 0


UNWRITABLE = [
    ("check", "check.csv"),
    ("contour", "contour_d1p_0.5.csv"),
    ("bode", "bode_integral.csv"),
    ("bode", "bode_summary.csv"),
    ("compare", "trace_nlms_arima2.csv"),
    ("compare", "summary.csv"),
]


@pytest.mark.parametrize("engine", ["kernel", "python"])
@pytest.mark.parametrize("command, name", UNWRITABLE, ids=[f"{c}-{n}" for c, n in UNWRITABLE])
def test_output_file_that_cannot_be_written_exits_3(tmp_path, capsys, monkeypatch, command, name, engine):
    """A directory at an output path exits 3 with one config error line that names the path;
    the files written before it stay as a fresh run writes them, and no thread is left behind."""
    trace_engine(engine, monkeypatch)
    assert main(rewrite_argv(tmp_path, command, tmp_path / "fresh")) == 0
    fresh = tree_bytes(tmp_path / "fresh")
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    capsys.readouterr()
    threads = threading.active_count()
    assert main(rewrite_argv(tmp_path, command, out)) == 3
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / name}: ") and err.count("\n") == 1, err
    written = tree_bytes(out)
    assert all(fresh[k] == v for k, v in written.items())
    if name == "trace_nlms_arima2.csv":  # the trace before it is written, the summary is not
        assert sorted(written) == ["trace_nlms_integral.csv"]


@pytest.mark.skipif(not os.path.exists("/dev/full") or os.name != "posix", reason="needs /dev/full and symlinks")
@pytest.mark.parametrize("command, name", [("check", "check.csv"), ("compare", "trace_nlms_integral.csv")])
def test_full_device_exits_3(tmp_path, capsys, command, name):
    """A write that fails, here into ``/dev/full`` (no space left on the device), exits 3
    with one config error line that names the path."""
    out = tmp_path / "out"
    out.mkdir()
    (out / name).symlink_to("/dev/full")
    assert main(rewrite_argv(tmp_path, command, out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / name}: ") and err.count("\n") == 1, err


# check with custom cells, check alone, a usage error, contour and bode, each with the exit code,
# standard output and error, and files it gives in a fresh interpreter
REUSE_SEQUENCE = [
    (["check", "--custom=0.5,-0.5,0.5", "--custom=-1.5,0.2,0.9", "--out", "custom"], 0),
    (["check", "--out", "presets"], 0),
    (["check", "--custom=0.5,0.2,0.5", "--no-such-option"], 3),
    (["contour", "--d1p", "0.5", "--c1-step", "0.2", "--c2-step", "0.2", "--out", "contour"], 0),
    (["bode", "--grid", "512", "--out", "bode"], 0),
]


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    """The parser is built once per process; each command of a sequence run through it in
    one process gives what it gives alone in a fresh interpreter, so no parse leaves state
    behind for the next (the second check writes the 5 preset rows alone)."""
    assert cli._shared_parser() is cli._shared_parser()
    assert cli.build_parser() is not cli.build_parser()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for name in ("shared", "fresh"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / "shared")
    for argv, code in REUSE_SEQUENCE:
        fresh = subprocess.run(
            [sys.executable, "-m", "daglms", *argv], cwd=tmp_path / "fresh", env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert fresh.returncode == code, fresh.stderr
        if code == cli.EXIT_CONFIG:  # a usage error leaves by SystemExit
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        else:
            assert main(argv) == code
        assert capsys.readouterr() == (fresh.stdout, fresh.stderr), argv
    assert tree_bytes(tmp_path / "shared") == tree_bytes(tmp_path / "fresh")
    assert [r["name"] for r in read_csv(tmp_path / "shared" / "presets" / "check.csv")] == list(PRESET_ORDER)


def test_command_patched_after_the_first_call_runs(tmp_path, monkeypatch):
    """The parser holds each command by name, so a command patched on the module after
    the parser was built, as the benchmark's tracer patches ``cli.cmd_contour``, runs."""
    argv = ["contour", "--d1p", "0.5", "--c1-step", "1", "--c2-step", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_contour", lambda args: calls.append(args.d1p) or cli.EXIT_MISMATCH)
    assert main(argv) == cli.EXIT_MISMATCH and calls == [0.5]


def test_parser_defaults_are_immutable():
    """No default of the shared parser is an object that one call could change for the next."""
    subparsers = next(a for a in cli._shared_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        defaults = [*(action.default for action in parser._actions), *parser._defaults.values()]
        assert all(isinstance(v, (type(None), str, int, float, tuple)) for v in defaults), (command, defaults)
