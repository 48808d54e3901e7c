"""Command-line front end.

Verdict checks, SPR/PR region grids, frequency-response export and
experiment sweeps, all written as deterministic CSV for external plotting.
Exit codes: 0 ok, 1 verdict mismatch against an expected-values file,
2 divergence in a run, 3 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import re
import sys
from pathlib import Path

import numpy as np

from . import sim
from .adapt import PRESET_ORDER, StepSizePolicy, make_preset, preset_triple
from .dsp_core import NoiseSpec, Polynomial, TransferOperator
from .spr_design import (
    DEFAULT_QUAD_POINTS,
    DEFAULT_SPR_GRID,
    DagConfig,
    bode_points,
    dag_transfer,
    integrated_dag,
    is_pr_unit_pole,
    is_spr_numeric,
    log_gain_integral,
    spr_region_grid,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DIVERGED = 2
EXIT_CONFIG = 3

DEFAULT_SAMPLE_RATE = 2500.0


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3: argparse's 2 means "diverged" here
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "Y" if value else "N"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if np.isnan(value):
        return ""
    return repr(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _preset_row(name: str, cfg: DagConfig, triple, grid: int, quad: int) -> dict:
    c1, c2, d1p = triple
    h = dag_transfer(cfg)
    spr = is_spr_numeric(h, grid)
    pr = is_pr_unit_pole(integrated_dag(cfg), grid)
    integral = log_gain_integral(h, quad) if spr.is_stable else float("nan")
    return {
        "name": name,
        "c1": c1,
        "c2": c2,
        "d1p": d1p,
        "dag_spr": spr.is_spr,
        "integrated_pr": pr.is_pr,
        "min_re_dag": spr.min_real_part,
        "log_gain_integral": integral,
    }


CHECK_HEADER = ["name", "c1", "c2", "d1p", "dag_spr", "integrated_pr", "min_re_dag", "log_gain_integral"]


def cmd_check(args) -> int:
    entries: list[tuple[str, DagConfig, tuple]] = []
    for name in PRESET_ORDER:
        entries.append((name, make_preset(name), preset_triple(name)))
    for k, spec in enumerate(args.custom or []):
        try:
            c1, c2, d1p = (float(v) for v in spec.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --custom value {spec!r}: expected c1,c2,d1p") from exc
        entries.append((f"custom{k}", DagConfig((c1, c2), (d1p,) if d1p else ()), (c1, c2, d1p)))

    rows = [_preset_row(name, cfg, triple, args.grid, args.quad) for name, cfg, triple in entries]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "check.csv"
    _write_csv(path, CHECK_HEADER, ([r[k] for k in CHECK_HEADER] for r in rows))
    for r in rows:
        print(
            f"{r['name']:>14}: dag_spr={_fmt(r['dag_spr'])} integrated_pr={_fmt(r['integrated_pr'])} "
            f"min_re={r['min_re_dag']:.6g} log_gain_integral={r['log_gain_integral']:.3g}"
        )
    print(f"wrote {path}")

    if args.expect:
        expected = _read_verdicts(Path(args.expect))
        actual = {r["name"]: (_fmt(r["dag_spr"]), _fmt(r["integrated_pr"])) for r in rows}
        mismatches = [
            name
            for name, verdicts in expected.items()
            if actual.get(name) != verdicts
        ]
        if mismatches:
            print(f"verdict mismatch for: {', '.join(mismatches)}", file=sys.stderr)
            return EXIT_MISMATCH
        print("verdicts match expected file")
    return EXIT_OK


def _read_verdicts(path: Path) -> dict[str, tuple[str, str]]:
    try:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            return {row["name"]: (row["dag_spr"], row["integrated_pr"]) for row in reader}
    except (OSError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read expected verdicts from {path}: {exc}") from exc


def cmd_contour(args) -> int:
    # closed-form SPR region; the integrated-filter PR flag has no closed
    # form and comes from the numerical test per cell
    c1_values, c2_values, spr_flags = spr_region_grid(
        args.d1p,
        (args.c1_min, args.c1_max, args.c1_step),
        (args.c2_min, args.c2_max, args.c2_step),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"contour_d1p_{args.d1p:g}.csv"
    rows = []
    for i, c1 in enumerate(c1_values):
        for j, c2 in enumerate(c2_values):
            cfg = DagConfig((float(c1), float(c2)), (args.d1p,))
            pr = is_pr_unit_pole(integrated_dag(cfg), args.grid).is_pr
            rows.append((c1, c2, int(spr_flags[i, j]), int(pr)))
    _write_csv(path, ["c1", "c2", "spr_dag", "pr_integrated"], rows)
    print(f"wrote {path} ({len(rows)} cells)")
    return EXIT_OK


def cmd_bode(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    for name in args.presets:
        cfg = make_preset(name)
        h = dag_transfer(cfg)
        freq, omega, gain_db, phase_deg = bode_points(h, args.grid, args.fs)
        path = out / f"bode_{name}.csv"
        _write_csv(
            path,
            ["freq_hz", "omega_rad", "gain_db", "phase_deg"],
            zip(freq, omega, gain_db, phase_deg),
        )
        spr = is_spr_numeric(h, args.grid)
        phase_ok = bool(np.all(np.abs(phase_deg) < 90.0))
        mean_log_gain = log_gain_integral(h, args.quad) / np.pi if spr.is_stable else float("nan")
        summary.append((name, spr.is_spr, phase_ok, mean_log_gain))
        print(
            f"{name:>14}: spr={_fmt(spr.is_spr)} phase_within_90deg={_fmt(phase_ok)} "
            f"mean_log_gain={mean_log_gain:.3g} ({path})"
        )
    _write_csv(out / "bode_summary.csv", ["name", "spr", "phase_within_90deg", "mean_log_gain"], summary)
    return EXIT_OK


# --------------------------------------------------------------------------
# Scenario configuration file
# --------------------------------------------------------------------------

_PATHS = {
    "unit": lambda fs: TransferOperator.identity(),
    "resonant_primary": lambda fs: sim.make_primary_path(fs),
    "resonant_secondary": lambda fs: sim.make_secondary_path(fs),
    "mismatched": lambda fs: sim.make_mismatched_model(fs),
}


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _path_from_config(section, key: str, fs: float) -> TransferOperator | None:
    name = section.get(key, fallback=None)
    num_key, den_key = f"{key}_num", f"{key}_den"
    if section.get(num_key, fallback=None) is not None:
        num = Polynomial(_parse_floats(section[num_key]))
        den = Polynomial(_parse_floats(section.get(den_key, fallback="1.0")))
        return TransferOperator(num, den)
    if name is None:
        return None
    if name not in _PATHS:
        raise ConfigError(f"unknown path name {name!r} for {key} (known: {sorted(_PATHS)})")
    return _PATHS[name](fs)


def load_scenario(path: Path, seed_override: int | None = None):
    """Parse a scenario + run-options INI file."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if "scenario" not in parser:
        raise ConfigError(f"{path}: missing [scenario] section")
    sc = parser["scenario"]
    try:
        fs = sc.getfloat("sample_rate_hz", DEFAULT_SAMPLE_RATE)
        kind = sc.get("kind", "feedforward")
        noise = NoiseSpec(
            kind=sc.get("noise_kind", "bandpass"),
            sample_rate_hz=fs,
            band_low_hz=sc.getfloat("band_low_hz", 70.0),
            band_high_hz=sc.getfloat("band_high_hz", 170.0),
            seed=seed_override if seed_override is not None else sc.getint("seed", 0),
            # feedforward default is the calibrated disturbance level;
            # identification runs default to unit-power input
            amplitude=sc.getfloat("amplitude", 0.006 if kind == "feedforward" else 1.0),
        )
        true_params = _parse_floats(sc["true_params"]) if "true_params" in sc else None
        scenario = sim.ScenarioConfig(
            kind=kind,
            noise=noise,
            n_adaptive_params=sc.getint(
                "n_adaptive_params", len(true_params) if true_params else 60
            ),
            duration_samples=sc.getint("duration_samples", 150000),
            true_params=true_params,
            primary_path=_path_from_config(sc, "primary_path", fs),
            secondary_path=_path_from_config(sc, "secondary_path", fs),
            secondary_model=_path_from_config(sc, "secondary_model", fs),
            regressor_filter=_path_from_config(sc, "regressor_filter", fs),
            measurement_noise_rms=sc.getfloat("measurement_noise_rms", 0.0),
            open_loop_prefix_samples=sc.getint("open_loop_prefix_samples", 0),
        )
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    run = parser["run"] if "run" in parser else {}
    options = {
        "algorithms": [a.strip() for a in run.get("algorithms", "nlms").split(",") if a.strip()],
        "presets": [p.strip() for p in run.get("presets", "integral").split(",") if p.strip()],
        "mu": {
            "lms": float(run.get("mu_lms", 0.2)),
            "nlms": float(run.get("mu_nlms", 0.0002)),
            "plms": float(run.get("mu_plms", 0.22)),
        },
        "delta_nlms": float(run.get("delta_nlms", 1e-16)),
        "threshold_db": float(run.get("threshold_db", 20.0)),
        "window_seconds": float(run.get("window_seconds", sim.DEFAULT_ATTEN_WINDOW_S)),
    }
    return scenario, options


def make_policy(algorithm: str, options) -> StepSizePolicy:
    mu = options["mu"].get(algorithm)
    if mu is None:
        raise ConfigError(f"unknown algorithm {algorithm!r} (known: lms, nlms, plms)")
    if algorithm == "lms":
        return StepSizePolicy.lms(mu)
    if algorithm == "nlms":
        return StepSizePolicy.nlms(mu, options["delta_nlms"])
    return StepSizePolicy.plms(mu)


_TRACE_BLOCK_ROWS = 4096


def _float_fields(values: np.ndarray) -> list[str]:
    # what _fmt writes for each float: repr, and NaN as an empty field
    return ["" if v != v else repr(v) for v in values.tolist()]


def _write_trace_csv(path: Path, trace: sim.RunTrace) -> None:
    # formatted by column, in blocks of rows so memory stays flat; each atten_db
    # value once, and residual only where its bits differ from e0's
    prefix, win = trace.open_loop_prefix_samples, trace.atten_window_samples
    shown = trace.atten_db is not None and win is not None
    atten_fields = (_float_fields(trace.atten_db) if shown else []) + [""]
    with path.open("w", newline="") as fh:
        fh.write("step,time_s,e0,e_post,residual,param_err,atten_db\r\n")
        for start in range(0, trace.residual.size, _TRACE_BLOCK_ROWS):
            block = slice(start, min(start + _TRACE_BLOCK_ROWS, trace.residual.size))
            steps = np.arange(block.start, block.stop)
            k = (steps - prefix) // (win or 1)
            k[(steps < prefix) | (k >= len(atten_fields) - 1)] = -1  # the empty field
            e0, residual = trace.e0[block], trace.residual[block]
            e0_fields = _float_fields(e0)
            residual_fields = e0_fields.copy()
            own = np.flatnonzero(e0.view(np.int64) != residual.view(np.int64))
            for i, field in zip(own.tolist(), _float_fields(residual[own])):
                residual_fields[i] = field
            columns = (
                map(str, steps.tolist()), _float_fields(steps / trace.sample_rate_hz), e0_fields,
                _float_fields(trace.e_post[block]), residual_fields,
                _float_fields(trace.param_err[block]), map(atten_fields.__getitem__, k.tolist()),
            )
            fh.write("".join(",".join(row) + "\r\n" for row in zip(*columns)))


def _run_one(scenario, algorithm: str, preset: str, options):
    run = sim.run_sysid if scenario.kind == "sysid" else sim.run_feedforward
    try:
        trace = run(scenario, make_policy(algorithm, options), make_preset(preset))
    except sim.RunDiverged as exc:
        return exc.trace, True
    if scenario.kind == "sysid":
        return trace, False
    if trace.atten_db is None:
        try:
            sim.attenuation_db(trace, options["window_seconds"])
        except ValueError:
            pass
    elif options["window_seconds"] != sim.DEFAULT_ATTEN_WINDOW_S:
        sim.attenuation_db(trace, options["window_seconds"])
    return trace, False


def _sweep(scenario, options, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    any_diverged = False
    for algorithm in options["algorithms"]:
        for preset in options["presets"]:
            trace, diverged = _run_one(scenario, algorithm, preset, options)
            any_diverged |= diverged
            trace_path = out / f"trace_{algorithm}_{preset}.csv"
            _write_trace_csv(trace_path, trace)
            final = None
            tt_idx = None
            tt_s = None
            if trace.atten_db is not None and trace.atten_db.size:
                final = float(trace.atten_db[-1])
                tt_idx = sim.time_to_threshold(trace, options["threshold_db"])
                if tt_idx is not None:
                    tt_s = (tt_idx + 1) * trace.atten_window_samples / trace.sample_rate_hz
            summary_rows.append(
                (algorithm, preset, diverged, trace.divergence_step, trace.spr_ok, final, tt_idx, tt_s)
            )
            status = f"diverged at {trace.divergence_step}" if diverged else (
                f"final_atten={final:.2f} dB, t20_idx={tt_idx}" if final is not None else "done"
            )
            print(f"{algorithm}+{preset}: {status} ({trace.wall_time_s:.2f}s wall) -> {trace_path}")
    _write_csv(
        out / "summary.csv",
        [
            "algorithm",
            "preset",
            "diverged",
            "divergence_step",
            "spr_ok",
            "final_atten_db",
            "time_to_threshold_idx",
            "time_to_threshold_s",
        ],
        summary_rows,
    )
    print(f"wrote {out / 'summary.csv'}")
    return EXIT_DIVERGED if any_diverged else EXIT_OK


def cmd_run(args) -> int:
    scenario, options = load_scenario(Path(args.config), args.seed)
    if args.algorithm:
        options["algorithms"] = [args.algorithm]
    else:
        options["algorithms"] = options["algorithms"][:1]
    if args.preset:
        options["presets"] = [args.preset]
    else:
        options["presets"] = options["presets"][:1]
    return _sweep(scenario, options, Path(args.out))


def cmd_compare(args) -> int:
    scenario, options = load_scenario(Path(args.config), args.seed)
    if args.algorithms:
        options["algorithms"] = [a.strip() for a in args.algorithms.split(",")]
    if args.presets:
        options["presets"] = [p.strip() for p in args.presets.split(",")]
    return _sweep(scenario, options, Path(args.out))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="daglms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verdict table for the named gain-filter presets")
    p.add_argument("--out", default="out")
    p.add_argument("--grid", type=int, default=DEFAULT_SPR_GRID)
    p.add_argument("--quad", type=int, default=DEFAULT_QUAD_POINTS)
    p.add_argument("--expect", default=None, help="CSV of expected verdicts; mismatch exits 1")
    p.add_argument("--custom", action="append", metavar="C1,C2,D1P")
    # read "--custom -1.5,0.2,0.5" as a value, as argparse reads "-1.5"
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("contour", help="SPR/PR flags over a (c1, c2) grid")
    p.add_argument("--d1p", type=float, required=True)
    p.add_argument("--c1-min", type=float, default=-2.0)
    p.add_argument("--c1-max", type=float, default=2.0)
    p.add_argument("--c1-step", type=float, default=0.05)
    p.add_argument("--c2-min", type=float, default=-1.0)
    p.add_argument("--c2-max", type=float, default=1.0)
    p.add_argument("--c2-step", type=float, default=0.05)
    p.add_argument("--grid", type=int, default=DEFAULT_SPR_GRID)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("bode", help="gain/phase tables for the presets")
    p.add_argument("--presets", nargs="*", default=list(PRESET_ORDER))
    p.add_argument("--grid", type=int, default=DEFAULT_SPR_GRID)
    p.add_argument("--quad", type=int, default=DEFAULT_QUAD_POINTS)
    p.add_argument("--fs", type=float, default=DEFAULT_SAMPLE_RATE)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_bode)

    p = sub.add_parser("run", help="single experiment run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--algorithm", default=None)
    p.add_argument("--preset", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="sweep algorithms x presets from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--algorithms", default=None, help="comma list overriding the config")
    p.add_argument("--presets", default=None, help="comma list overriding the config")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
